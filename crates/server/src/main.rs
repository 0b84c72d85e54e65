//! The `txboost-server` binary.
//!
//! ```text
//! txboost-server [--addr 127.0.0.1:7411] [--event-loops N]
//!                [--no-batch] [--batch-max N]
//!                [--window N] [--max-frame BYTES]
//!                [--lock-timeout-us N] [--max-retries N]
//!                [--default-sem-permits N]
//!                [--wal-dir PATH] [--wal-batch N] [--wal-segment-bytes N]
//! ```
//!
//! All connections are multiplexed over `--event-loops` epoll
//! readiness loops (default one per core), which coalesce same-tick
//! single-object scripts into joint commits (`--no-batch` disables
//! the coalescing, `--batch-max` caps scripts per batch).
//!
//! With `--wal-dir` the server recovers and replays the write-ahead
//! log in PATH before accepting connections, then logs every
//! committed mutating script durably (group commit; replies are sent
//! only after the record's fsync batch completes). Without it the
//! server is the classic in-memory one.
//!
//! Runs until a wire `Shutdown` frame, SIGTERM, or SIGINT, then drains
//! gracefully: in-flight transactions finish and get replies before
//! the process exits 0.

use std::time::Duration;
use txboost_server::{Server, ServerConfig, WalServerConfig};

fn main() {
    let mut cfg = ServerConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = val(),
            "--event-loops" => cfg.event_loops = val().parse().expect("bad --event-loops"),
            "--no-batch" => cfg.batch.enabled = false,
            "--batch-max" => cfg.batch.max_scripts = val().parse().expect("bad --batch-max"),
            "--window" => cfg.window = val().parse().expect("bad --window"),
            "--max-frame" => cfg.max_frame = val().parse().expect("bad --max-frame"),
            "--lock-timeout-us" => {
                cfg.txn.lock_timeout =
                    Duration::from_micros(val().parse().expect("bad --lock-timeout-us"));
            }
            "--max-retries" => {
                cfg.txn.max_retries = Some(val().parse().expect("bad --max-retries"));
            }
            "--default-sem-permits" => {
                cfg.default_sem_permits = val().parse().expect("bad --default-sem-permits");
            }
            "--wal-dir" => {
                let dir = val();
                cfg.wal = Some(match cfg.wal.take() {
                    Some(mut wal) => {
                        wal.dir = dir.into();
                        wal
                    }
                    None => WalServerConfig::new(dir),
                });
            }
            "--wal-batch" => {
                let batch = val().parse().expect("bad --wal-batch");
                cfg.wal
                    .get_or_insert_with(|| WalServerConfig::new("wal"))
                    .batch_max = batch;
            }
            "--wal-segment-bytes" => {
                let bytes = val().parse().expect("bad --wal-segment-bytes");
                cfg.wal
                    .get_or_insert_with(|| WalServerConfig::new("wal"))
                    .segment_bytes = bytes;
            }
            "--help" | "-h" => {
                println!(
                    "usage: txboost-server [--addr HOST:PORT] [--event-loops N] [--no-batch] \
                     [--batch-max N] [--window N] [--max-frame BYTES] [--lock-timeout-us N] \
                     [--max-retries N] [--default-sem-permits N] [--wal-dir PATH] \
                     [--wal-batch N] [--wal-segment-bytes N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    txboost_server::signal::install();

    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("txboost-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("txboost-server listening on {}", server.local_addr());

    server.wait(true);
    println!("txboost-server: drained cleanly");
}
