//! The repository benchmark.
//!
//! ```text
//! txboost-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                   [--server-bin PATH]
//! ```
//!
//! Workloads: `kv_read_mostly` (the shipped `txboost-server` binary as
//! a child process) and `hot_locks` (the library in-process).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics from a traced run. The last line of standard
//! output is the JSON result. A failed output check fails the run: the
//! result then reads `"correct": false` with no metrics, and the exit
//! code is 1. A run that cannot measure the program (a generator-bound
//! open loop, see `kv`) exits 1 with no result line. `run.py` beside
//! this package builds the server and this binary, then runs it.

mod client;
mod gen;
mod hot_locks;
mod json;
mod kv;
mod procfs;
mod replay;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;

/// Workload names, in the order the manifest lists them.
pub const WORKLOADS: [&str; 2] = [kv::NAME, hot_locks::NAME];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: PathBuf::from("target/release/txboost-server"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val} (0 or 1)")),
                }
            }
            "--server-bin" => args.server_bin = PathBuf::from(&val),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<report::Report, String> {
    let mut r = match (args.workload.as_str(), args.trace) {
        (hot_locks::NAME, trace) => hot_locks::run(args.seed, args.seconds, trace)?,
        (_, false) => kv::run(&args.server_bin, args.seed, args.seconds)?,
        (_, true) => kv::run_traced(&args.server_bin, args.seed, args.seconds)?,
    };
    r.info("workload", args.workload.clone());
    r.info("seed", args.seed);
    r.info("seconds", args.seconds);
    r.info("trace", u8::from(args.trace));
    r.info("nproc", procfs::host_cpus());
    r.info(
        "cpu_placement",
        format!(
            "generator cpu {}, server cpu {}, hot_locks worker t on cpu t",
            procfs::GENERATOR_CPU,
            procfs::SERVER_CPU
        ),
    );
    r.info(
        "kernel",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
    );
    r.info(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    for key in ["BENCH_GIT_SHA", "BENCH_SOURCE_DIGEST"] {
        if let Ok(v) = std::env::var(key) {
            r.info(&key.trim_start_matches("BENCH_").to_lowercase(), v);
        }
    }
    Ok(r)
}

fn main() {
    procfs::host_cpus();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("txboost-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let list: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    match run(&args).and_then(|r| {
        for e in &r.errors {
            eprintln!("check failed: {e}");
        }
        r.print(list)
    }) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("txboost-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
