//! A pipelined backlog deeper than the in-flight window drains at loop
//! speed on the event-driven plane.
//!
//! The loop reads a connection only while it has window room; the rest
//! of the backlog stays in the socket, and edge-triggered epoll raises
//! no new event for bytes that were already there. Unless the loop
//! polls without blocking while such a connection has room again, each
//! window waits out a full `poll_interval` (25 ms): 3,200 pings through
//! a window of 32 would take 100 intervals, about 2.5 s.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use txboost_server::{Server, ServerConfig};
use txboost_wire::{recv_response, Request, Response, MAX_FRAME_LEN};

const PINGS: u64 = 3_200;

#[test]
fn pipelined_backlog_of_many_windows_is_answered_promptly() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    assert!(
        PINGS > 50 * cfg.window as u64,
        "the backlog must span many windows"
    );
    let server = Server::bind(cfg).expect("bind test server");
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let mut bytes = Vec::new();
    for req_id in 0..PINGS {
        let payload = txboost_wire::encode_request(&Request::Ping { req_id });
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    let mut wr = stream.try_clone().unwrap();
    let start = Instant::now();
    let writer = std::thread::spawn(move || wr.write_all(&bytes).unwrap());
    let mut rd = BufReader::new(stream);
    for expect in 0..PINGS {
        match recv_response(&mut rd, MAX_FRAME_LEN).unwrap() {
            Some(Response::Pong { req_id }) => assert_eq!(req_id, expect, "replies reordered"),
            other => panic!("expected pong {expect}, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    writer.join().unwrap();
    drop(rd);
    server.join();
    assert!(
        elapsed < Duration::from_millis(250),
        "{PINGS} pipelined pings took {elapsed:?}: the backlog waited out poll intervals"
    );
}
