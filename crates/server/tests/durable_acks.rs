//! Durable acknowledgements on the event loop: a loop holds a logged
//! commit's reply until the record's fsync batch resolves, without
//! blocking on it, so the commits of many connections served by one
//! loop share fsyncs, and each connection still gets its replies in
//! request order.

use std::path::PathBuf;
use std::sync::Arc;
use txboost_client::{Connection, ScriptBuilder};
use txboost_server::{Server, ServerConfig, WalServerConfig};
use txboost_wire::{OpResult, ScriptStatus};

fn wal_server(tag: &str) -> (Server, PathBuf) {
    let dir = std::env::temp_dir().join(format!("txboost-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        event_loops: 1,
        wal: Some(WalServerConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .expect("bind wal server");
    (server, dir)
}

/// With one loop blocking on every ticket, each fsync batch would hold
/// exactly one record. Holding replies instead lets the loop execute
/// other connections' scripts while a batch is in flight.
#[test]
fn one_loop_lets_many_connections_share_an_fsync() {
    const CLIENTS: i64 = 8;
    const ITERS: i64 = 50;
    let (server, dir) = wal_server("share");
    let addr = server.local_addr().to_string();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                for i in 0..ITERS {
                    // Two objects: never merged by same-tick batching,
                    // so every script is its own record.
                    let out = conn
                        .run(
                            ScriptBuilder::new()
                                .map_insert("bank", c * ITERS + i, 1)
                                .counter_add("ops", 1),
                        )
                        .unwrap();
                    assert_eq!(out.status, ScriptStatus::Committed);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let wal = Arc::clone(server.executor().wal().expect("wal attached"));
    server.join();
    let m = wal.metrics().snapshot();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(m.records, (CLIENTS * ITERS) as u64);
    assert!(
        m.batches < m.records,
        "one loop, {CLIENTS} connections: expected shared fsyncs, got {} batches for {} records",
        m.batches,
        m.records
    );
}

/// Replies queued behind a held one wait for it: a pipelined
/// snapshot read and a debug abort (neither logged) still come back
/// after the logged write they followed.
#[test]
fn replies_behind_a_held_commit_keep_request_order() {
    let (server, dir) = wal_server("order");
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    for round in 0..20 {
        let write = conn
            .send_script(ScriptBuilder::new().map_insert("m", round, 7).build())
            .unwrap();
        let read = conn
            .send_read_only_script(ScriptBuilder::new().map_contains("m", round).build())
            .unwrap();
        let abort = conn
            .send_script(ScriptBuilder::new().debug_abort().build())
            .unwrap();
        let (id, out) = conn.recv_script().unwrap();
        assert_eq!((id, out.status), (write, ScriptStatus::Committed));
        let (id, out) = conn.recv_script().unwrap();
        assert_eq!(id, read);
        assert_eq!(out.results, vec![OpResult::Bool(true)]);
        let (id, out) = conn.recv_script().unwrap();
        assert_eq!((id, out.status), (abort, ScriptStatus::DebugAborted));
    }
    drop(conn);
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}
