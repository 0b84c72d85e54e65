//! `kv_read_mostly`: the shipped `txboost-server` binary runs as a
//! child process with one event loop, driven by one generator thread
//! over two nonblocking connections.
//!
//! An untraced run alternates closed-loop phases (throughput) with
//! open-loop phases at the fixed offered rate [`RATE`] (latency, server
//! CPU), times set-up by starting extra servers between rounds, and
//! reads the server's peak RSS. A traced run repeats the open-loop
//! phase, reads the server's `STATS` around it, and then replays the
//! same stream in-process through the layers (see [`crate::replay`]).

use crate::client::{Checks, Generator, Phase, SLICE};
use crate::gen::{self, Pool, COUNTER};
use crate::json::Json;
use crate::procfs::{ServerProc, WorkDir};
use crate::report::{self, ratio, us, Report};
use crate::stats::{median_f64, throughput, Summary};
use crate::trace::{self, Name};
use std::path::Path;
use std::time::{Duration, Instant};
use txboost_client::Connection;
use txboost_wal::WalConfig;
use txboost_wire::{Op, OpResult, ScriptOp};

/// The workload's name.
pub const NAME: &str = "kv_read_mostly";
/// Fixed open-loop offered rate, requests/s, written down once and
/// never derived from the code under test. About 30% of the closed-loop
/// throughput on the reference host: at half of it the one-loop server
/// sits where a host slowdown tips it into saturation, and runs split
/// between modes (see WORKLOADS.md).
pub const RATE: u64 = 60_000;
/// Generator connections.
pub const CONNS: usize = 2;
/// Closed-loop requests in flight per connection.
pub const WINDOW: usize = 16;
/// Extra server starts after each round of an untraced run; `setup_s`
/// is the median of these and the measured server's own start. A start
/// is mostly the 100k-key wire prefill, a short throughput run, so it
/// follows the host's speed, which shifts from second to second: starts
/// back to back all land in one moment. Spread over the run, they are
/// sampled the way `throughput_ops_s` is.
const SETUP_PER_ROUND: usize = 2;
/// Closed/open phase pairs per untraced run.
const ROUNDS: usize = 4;
/// Closed-loop warm-up before anything is measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Generator lag above this share of the median latency marks the run
/// generator-bound.
const GEN_BOUND_SHARE: f64 = 0.1;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Load the map over the wire, [`gen::PREFILL_BATCH`] inserts per
/// script, pipelined within the server's window.
fn prefill(ctl: &mut Connection) -> Result<(), String> {
    let mut outstanding = 0;
    let mut failed = 0;
    let mut recv = |ctl: &mut Connection| -> Result<(), String> {
        let (_, o) = ctl.recv_script().map_err(err)?;
        failed += usize::from(!o.committed());
        Ok(())
    };
    for script in gen::prefill_scripts() {
        ctl.send_script(script).map_err(err)?;
        outstanding += 1;
        if outstanding == 32 {
            recv(ctl)?;
            outstanding -= 1;
        }
    }
    for _ in 0..outstanding {
        recv(ctl)?;
    }
    if failed > 0 {
        return Err(format!("{failed} prefill scripts did not commit"));
    }
    Ok(())
}

struct Running {
    server: ServerProc,
    ctl: Connection,
}

/// Start a server and bring it to its first successful reply: spawn,
/// wire prefill, then a ping. Returns the seconds that took.
fn start(bin: &Path) -> Result<(Running, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bin, &[])?;
    let mut ctl = Connection::connect(&server.addr).map_err(err)?;
    prefill(&mut ctl)?;
    ctl.ping().map_err(err)?;
    Ok((Running { server, ctl }, t0.elapsed().as_secs_f64()))
}

fn stop(mut r: Running) -> Result<(), String> {
    r.ctl.shutdown_server().map_err(err)?;
    r.server.wait_exit(Duration::from_secs(30))
}

fn stats(ctl: &mut Connection) -> Result<Json, String> {
    Json::parse(&ctl.stats_json().map_err(err)?)
}

/// The output checks every run ends with, then a clean drain.
fn finish(mut r: Running, mut checks: Checks, report: &mut Report) -> Result<(), String> {
    // An increment whose reply never arrived may still have committed.
    let adds = checks.counter_adds as i64;
    let unknown = checks.unanswered_adds as i64;
    let o = r
        .ctl
        .execute(vec![ScriptOp::new(Op::CounterGet {
            obj: COUNTER.into(),
        })])
        .map_err(err)?;
    let counter = match o.results.as_slice() {
        [OpResult::Value(Some(v))] => *v,
        other => return Err(format!("counter_get returned {other:?}")),
    };
    report.check((adds..=adds + unknown).contains(&counter), || {
        format!(
            "counter reads {counter} after {adds} acknowledged counter_add scripts \
             ({unknown} unanswered)"
        )
    });
    let ids = checks.ids.len();
    checks.ids.sort_unstable();
    checks.ids.dedup();
    report.check(checks.ids.len() == ids, || {
        format!("id_gen returned {} duplicate ids", ids - checks.ids.len())
    });
    report.check(checks.wrong == 0, || {
        format!("{} wrong replies, e.g. {:?}", checks.wrong, checks.examples)
    });
    let proto = stats(&mut r.ctl)?.num("connections.proto_errors");
    report.check(proto == 0.0, || {
        format!("server counted {proto} protocol errors")
    });
    stop(r)
}

fn provenance(report: &mut Report, pool: &Pool) {
    report.info("offered_rate_per_s", RATE);
    report.info("connections", CONNS);
    report.info("closed_loop_window", WINDOW);
    report.info("event_loops", 1u64);
    report.info("stream_digest", format!("{:016x}", pool.digest));
}

fn tally(report: &mut Report, phases: &[&Phase], transport_errors: u64) {
    let not_committed: u64 = phases.iter().map(|p| p.not_committed).sum();
    let unanswered: u64 = phases.iter().map(|p| p.unanswered).sum();
    report.attempted = phases.iter().map(|p| p.attempted).sum();
    report.failed = not_committed + unanswered + transport_errors;
    report.info("failed_not_committed", not_committed);
    report.info("failed_unanswered", unanswered);
    report.info("failed_transport", transport_errors);
}

/// The generator's lag over an open-loop phase, and whether it ran late
/// by a material share of the latency it reports. Such a run describes
/// the load generator, not the server, so the caller fails it instead
/// of printing its figures.
fn generator_check(report: &mut Report, open: &mut Phase, lat: &Summary) -> (Summary, bool) {
    let lag = Summary::of(&mut open.lag);
    let bound = lag.p50 as f64 > GEN_BOUND_SHARE * lat.p50 as f64;
    report.info("generator_bound", bound);
    report.info("gen_lag_us_p50", us(lag.p50));
    (lag, bound)
}

/// The error a generator-bound run fails with.
fn generator_bound(lag: &Summary, lat: &Summary) -> String {
    format!(
        "generator-bound run: generator lag p50 {} us is more than {GEN_BOUND_SHARE} of \
         latency p50 {} us, so the latency figures describe the load generator; \
         no figures reported",
        us(lag.p50),
        us(lat.p50)
    )
}

/// Untraced run: every end-to-end metric.
pub fn run(bin: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let pool = gen::kv_pool(seed);
    provenance(&mut report, &pool);
    let (r, secs) = start(bin)?;
    let mut setups = vec![secs];

    let mut g = Generator::connect(&r.server.addr, r.server.pid, CONNS, &pool)?;
    let warm = g.closed(WINDOW, WARMUP);
    // Closed- and open-loop phases alternate, so a slow stretch of the
    // host lands in both and in neither whole.
    let mut closed = Phase::default();
    let mut open = Phase::default();
    let mut cpu = 0.0;
    let round = seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        closed.absorb(g.closed(WINDOW, Duration::from_secs_f64(round * 0.4)));
        let cpu0 = r.server.cpu_seconds();
        open.absorb(g.open(RATE, Duration::from_secs_f64(round * 0.6)));
        cpu += r.server.cpu_seconds() - cpu0;
        // The measured server idles while another one starts beside it.
        for _ in 0..SETUP_PER_ROUND {
            let (extra, secs) = start(bin)?;
            setups.push(secs);
            stop(extra)?;
        }
    }
    let rss = r.server.peak_rss_mb();

    let lat = Summary::of(&mut open.lat);
    let write = Summary::of(&mut open.lat_write);
    let (lag, gen_bound) = generator_check(&mut report, &mut open, &lat);
    let (tput, clean, steal_free) = throughput(&closed.slices, &closed.slice_steal, SLICE);
    report.put("setup_s", median_f64(&setups), setups.len() as u64);
    report.put("throughput_ops_s", tput, clean as u64);
    report.put("lat_p50_us", us(lat.p50), lat.n as u64);
    report.put("lat_p50_us.write", us(write.p50), write.n as u64);
    report.put(
        "cpu_us_per_op",
        ratio(cpu * 1e6, open.committed as f64),
        open.committed,
    );
    report.put("peak_rss_mb", rss, 1);
    report.info("throughput_slices_total", closed.slices.len());
    // Run validity, not a filter: a run with too few steal-free slices
    // took its throughput from every slice, stolen ones included.
    report.info("throughput_steal_free", steal_free);
    // How busy the server kept during the closed loop (1.0 = it ran the
    // whole time); a program that parks under load reads lower here.
    report.info("server_busy_frac_p50", median_f64(&closed.slice_busy));
    tally(&mut report, &[&warm, &closed, &open], g.transport_errors);
    report.put(
        "ok_frac",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
        report.attempted,
    );
    let checks = std::mem::take(&mut g.checks);
    drop(g);
    finish(r, checks, &mut report)?;
    if gen_bound {
        return Err(generator_bound(&lag, &lat));
    }
    Ok(report)
}

/// Traced run: every per-layer metric.
pub fn run_traced(bin: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let pool = gen::kv_pool(seed);
    provenance(&mut report, &pool);
    let (mut r, _) = start(bin)?;
    let mut g = Generator::connect(&r.server.addr, r.server.pid, CONNS, &pool)?;
    let warm = g.closed(WINDOW, WARMUP);
    let s0 = stats(&mut r.ctl)?;
    let mut open = g.open(RATE, Duration::from_secs_f64(seconds * 0.5));
    let s1 = stats(&mut r.ctl)?;
    tally(&mut report, &[&warm, &open], g.transport_errors);
    let lat = Summary::of(&mut open.lat);
    let rscan = Summary::of(&mut open.lat_rscan);
    let read = Summary::of(&mut open.lat_read);
    let (lag, gen_bound) = generator_check(&mut report, &mut open, &lat);
    let checks = std::mem::take(&mut g.checks);
    drop(g);
    finish(r, checks, &mut report)?;
    if gen_bound {
        return Err(generator_bound(&lag, &lat));
    }

    let d = |path: &str| s1.num(path) - s0.num(path);
    let ops = open.committed as f64;
    report.put("lat_p99_us", us(lat.p99), lat.n as u64);
    report.put("gen.lag_us.p50", us(lag.p50), lag.n as u64);
    report.put("gen.lag_us.p99", us(lag.p99), lag.n as u64);
    report.put(
        "gen.cpu_frac",
        open.gen_cpu_s / open.elapsed.as_secs_f64(),
        0,
    );
    report.put("lat_p50_us.rscan", us(rscan.p50), rscan.n as u64);
    report.put("lat_p50_us.read", us(read.p50), read.n as u64);
    report.put(
        "fail_frac",
        ratio(report.failed as f64, report.attempted as f64),
        report.attempted,
    );
    report.put(
        "wire.req_bytes_per_op",
        ratio(open.bytes_sent as f64, open.attempted as f64),
        open.attempted,
    );
    report.put(
        "wire.resp_bytes_per_op",
        ratio(open.bytes_recv as f64, ops),
        open.committed,
    );
    let scripts: f64 = [
        "committed",
        "lock_timeout",
        "would_block",
        "guard_failed",
        "debug_aborted",
        "retries_exhausted",
        "read_only_violation",
    ]
    .iter()
    .map(|s| d(&format!("scripts.{s}")))
    .sum();
    report.put(
        "exec.attempts_per_script",
        ratio(d("txn.started"), scripts),
        scripts as u64,
    );
    report.put("exec.status.lock_timeout", d("scripts.lock_timeout"), 0);
    report.put(
        "exec.status.retries_exhausted",
        d("scripts.retries_exhausted"),
        0,
    );
    report.put(
        "batch.scripts_per_batch",
        ratio(d("batch.scripts"), d("batch.batches")),
        d("batch.batches") as u64,
    );
    report.put(
        "batch.fallback_frac",
        ratio(
            d("batch.fallbacks"),
            d("batch.batches") + d("batch.fallbacks"),
        ),
        0,
    );
    report.put(
        "txn.attempts_per_commit",
        ratio(d("txn.started"), d("txn.committed")),
        d("txn.committed") as u64,
    );
    report.put("lock.timeouts", d("txn.lock_timeouts"), 0);
    // Not measured here (sample count 0), though the layers do work:
    // transactions and boosted-object calls run inside
    // `Executor::execute`, where the benchmark cannot wrap them from
    // outside. The in-process `hot_locks` workload measures them.
    for name in [
        "txn.run_us.p50",
        "txn.run_us.p99",
        "txn.abort_time_frac",
        "boosted.get_ns.p50",
        "boosted.put_ns.p50",
        "boosted.remove_ns.p50",
    ] {
        report.put(name, 0.0, 0);
    }

    // In-process replay of the same stream at the same rate.
    let work = WorkDir::create(NAME)?;
    let rp = crate::replay::run(
        &pool,
        RATE,
        Duration::from_secs_f64(seconds * 0.25),
        &work.path,
    )?;
    for e in &rp.errors {
        report.check(false, || e.clone());
    }
    let spans = &rp.spans;
    let of = |name: Name| Summary::of(&mut trace::durations(spans, name));
    let enc = of(Name::WireEncode);
    let dec = of(Name::WireDecode);
    let enc_resp = of(Name::WireEncodeResp);
    let tick = of(Name::BatchTick);
    let script = of(Name::ExecScript);
    let read_only = of(Name::ExecReadOnly);
    let batch = of(Name::ExecBatch);
    let enqueue = of(Name::WalEnqueue);
    let durable = Summary::of(&mut rp.durable_ns.clone());
    report.put("wire.encode_ns.p50", enc.p50 as f64, enc.n as u64);
    report.put("wire.decode_ns.p50", dec.p50 as f64, dec.n as u64);
    report.put(
        "wire.encode_resp_ns.p50",
        enc_resp.p50 as f64,
        enc_resp.n as u64,
    );
    report.put(
        "batch.eligible_frac",
        ratio(rp.eligible as f64, rp.scripts as f64),
        rp.scripts,
    );
    report.put("batch.tick_us.p50", us(tick.p50), tick.n as u64);
    report.put("exec.script_us.p50", us(script.p50), script.n as u64);
    report.put("exec.script_us.p99", us(script.p99), script.n as u64);
    report.put(
        "exec.read_only_us.p50",
        us(read_only.p50),
        read_only.n as u64,
    );
    report.put("exec.batch_us.p50", us(batch.p50), batch.n as u64);
    let w = &rp.wal;
    report.put(
        "wal_bytes_per_op",
        ratio(w.bytes as f64, rp.scripts as f64),
        rp.scripts,
    );
    report.put(
        "wal.records_per_fsync",
        ratio(w.records as f64, w.batches as f64),
        w.batches,
    );
    // Program-side histograms: upper edges of power-of-two buckets.
    report.put(
        "wal.fsync_us.p50",
        report::hist_us(&w.fsync, 0.5),
        w.fsync.count(),
    );
    report.put(
        "wal.fsync_us.p99",
        report::hist_us(&w.fsync, 0.99),
        w.fsync.count(),
    );
    report.put(
        "wal.append_us.p50",
        report::hist_us(&w.append, 0.5),
        w.append.count(),
    );
    report.put("wal.enqueue_ns.p50", enqueue.p50 as f64, enqueue.n as u64);
    report.put("wal.ticket_wait_us.p50", us(durable.p50), durable.n as u64);
    report.put("wal.ticket_wait_us.p99", us(durable.p99), durable.n as u64);
    report.put("wal.recover_s", rp.recover_s, 1);
    report.put("wal.replay_s", rp.replay_s, 1);
    report.info("startup_log_transfers", crate::replay::LOG_TRANSFERS);
    report.info("wal_batch_max", WalConfig::default().batch_max);
    report.lock_metrics(&rp.locks, rp.txns);
    report.mvcc_metrics(&rp.mvcc.0, &rp.mvcc.1, rp.scripts);

    // Self time per layer per replayed request, and the I/O residual:
    // what the real server's clients wait beyond the replayed layers
    // (the in-memory server does not log, so the WAL is left out).
    report.self_time_metrics(spans, rp.busy_on.1);
    let med = |f: fn(&crate::replay::ReqLayers) -> u64| {
        Summary::of(&mut rp.req_layers.iter().map(f).collect::<Vec<_>>()).p50
    };
    let layered = med(|l| l.wire) + med(|l| l.batch) + med(|l| l.exec);
    report.put(
        "io.residual_us.p50",
        us(lat.p50) - us(layered),
        lat.n as u64,
    );
    report.info("lat_p50_us", us(lat.p50));
    report.info("replayed_layers_us_p50", us(layered));
    let per_op = |b: (u64, u64)| ratio(b.0 as f64, b.1 as f64);
    report.put(
        "trace.overhead_frac",
        ratio(per_op(rp.busy_on), per_op(rp.busy_off)) - 1.0,
        rp.busy_on.1,
    );
    report.put("trace.spans", spans.len() as f64, 0);
    report.put("trace.ops", rp.busy_on.1 as f64, 0);
    Ok(report)
}
