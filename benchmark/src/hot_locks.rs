//! `hot_locks`: the in-process library under abstract-lock contention,
//! with no server, WAL or snapshot reads in the way.
//!
//! Two worker threads run a closed loop of `TxnManager::run` (default
//! `TxnConfig`) over a `BoostedHashMap::with_registry` of 256
//! prefilled keys. Each transaction touches 8 distinct keys in
//! ascending order — 80% locked `get`s, 20% `remove`+`put` increments.
//! Ascending order keeps the workload deadlock-free, so it measures
//! lock acquisition, waiting and undo rather than lock-timeout
//! recovery.

use crate::client::SLICE;
use crate::gen::{lock_pool, LockTxn, LOCK_KEYS, LOCK_TXN_KEYS};
use crate::procfs::SliceProbe;
use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::report::{ratio, us, Report};
use crate::stats::{median_f64, Reservoir, Summary};
use crate::trace::{self, Name, Recorder};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use txboost_collections::BoostedHashMap;
use txboost_core::{ContentionRegistry, MvccDomain, TxResult, Txn, TxnConfig, TxnManager};

/// The workload's name.
pub const NAME: &str = "hot_locks";
/// Worker threads.
pub const THREADS: usize = 2;
/// Measured rounds of an untraced run. Between rounds the workers
/// park and the main thread times [`SETUP_PER_ROUND`] map builds;
/// `setup_s` is the median of them all. The host's speed for this
/// sub-ms set-up flips between two levels (about 0.16 and 0.25 ms for a
/// fresh process) every second or so: builds timed back to back, in one
/// process or in eleven fresh ones, all landed in one level, so whole
/// runs did; builds spread over 20 s agree from run to run.
const ROUNDS: usize = 10;
/// Map builds timed between two rounds.
const SETUP_PER_ROUND: usize = 3;
/// Value every key starts with.
const PREFILL_VALUE: i64 = 1000;
/// Generated transactions per worker (cycled).
const POOL_LEN: usize = 1 << 16;
/// Latency samples kept per worker.
const RESERVOIR: usize = 1 << 20;
/// Spans kept per worker in a traced run.
const SPANS_PER_THREAD: usize = 1 << 20;
const WARMUP: Duration = Duration::from_millis(500);

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const MEASURE_TRACED: u8 = 2;
const STOP: u8 = 3;
/// Parked while the main thread times set-up.
const PAUSE: u8 = 4;

struct World {
    registry: ContentionRegistry,
    map: BoostedHashMap<u64, i64>,
    tm: TxnManager,
}

/// Build the map and prefill it: the workload's set-up.
fn build() -> World {
    let registry = ContentionRegistry::new();
    let map = BoostedHashMap::with_registry("hot_locks", &registry);
    let tm = TxnManager::new(TxnConfig::default());
    tm.run(|t| {
        for k in 0..LOCK_KEYS {
            map.put(t, k, PREFILL_VALUE)?;
        }
        Ok(())
    })
    .expect("prefill commits");
    World { registry, map, tm }
}

#[derive(Default)]
struct Counts {
    /// Transactions committed in the measured (untraced) phase.
    committed: u64,
    /// Increment transactions committed, over every phase.
    incs: u64,
    /// Transactions committed in the traced phase.
    traced: u64,
    /// Transactions that gave up in the measured phase.
    failed: u64,
    /// Keys an increment found unbound (must stay 0).
    missing: u64,
    /// Traced: ns spent in attempts that aborted.
    aborted_ns: u64,
}

struct WorkerOut {
    counts: Counts,
    lat: Vec<u64>,
    lat_read: Vec<u64>,
    lat_write: Vec<u64>,
    seen: u64,
    rec: Recorder,
}

/// Call `f` inside a span when tracing.
#[inline]
fn spanned<R>(rec: &mut Option<&mut Recorder>, name: Name, id: u32, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => {
            let s = r.begin(name, id);
            let out = f();
            r.end(s);
            out
        }
        None => f(),
    }
}

/// One transaction body; returns how many keys an increment found
/// unbound.
fn body(
    t: &Txn,
    map: &BoostedHashMap<u64, i64>,
    txn: &LockTxn,
    mut rec: Option<&mut Recorder>,
    id: u32,
) -> TxResult<u64> {
    let mut missing = 0;
    for k in txn.keys {
        if txn.inc {
            let v = spanned(&mut rec, Name::BoostedRemove, id, || map.remove(t, &k))?;
            missing += u64::from(v.is_none());
            spanned(&mut rec, Name::BoostedPut, id, || {
                map.put(t, k, v.unwrap_or(0) + 1)
            })?;
        } else {
            std::hint::black_box(spanned(&mut rec, Name::BoostedGet, id, || map.get(t, &k))?);
        }
    }
    Ok(missing)
}

/// A worker's count of measured commits, on its own cache line so the
/// main thread's sampling never contends with another worker.
#[derive(Default)]
#[repr(align(64))]
struct Progress(AtomicU64);

/// What the main thread shares with a worker.
struct Control<'a> {
    phase: &'a AtomicU8,
    /// Set when a traced worker's span buffer fills.
    full: &'a AtomicBool,
    start: &'a Barrier,
    progress: &'a AtomicU64,
    /// Workers parked in [`PAUSE`].
    parked: &'a AtomicUsize,
}

fn worker(w: &World, seed: u64, thread: u64, ctl: &Control<'_>, traced_run: bool) -> WorkerOut {
    let Control {
        phase,
        full,
        start,
        progress,
        parked,
    } = *ctl;
    crate::procfs::pin_current_thread(thread as usize).expect("pin a hot_locks worker");
    let (pool, _) = lock_pool(seed, thread, POOL_LEN);
    let mut lat = Reservoir::new(RESERVOIR, seed ^ thread);
    let mut lat_read = Reservoir::new(RESERVOIR, seed ^ thread ^ 1);
    let mut lat_write = Reservoir::new(RESERVOIR / 4, seed ^ thread ^ 2);
    let mut rec = Recorder::new(
        Instant::now(),
        if traced_run { SPANS_PER_THREAD } else { 0 },
    );
    let mut c = Counts::default();
    start.wait();
    let mut i = 0usize;
    loop {
        let p = phase.load(Ordering::Relaxed);
        if p == STOP {
            break;
        }
        if p == PAUSE {
            // Parked without timed wake-ups, which would interrupt the
            // set-up being timed on this CPU.
            parked.fetch_add(1, Ordering::SeqCst);
            while phase.load(Ordering::SeqCst) == PAUSE {
                std::thread::park();
            }
            parked.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let txn = &pool[i % pool.len()];
        let id = i as u32;
        i += 1;
        let tracing = p == MEASURE_TRACED && !rec.full();
        if p == MEASURE_TRACED && !tracing {
            full.store(true, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let run_span = tracing.then(|| rec.begin(Name::TxnRun, id));
        let mut aborted_ns = 0u64;
        let res = w.tm.run(|t| {
            if tracing {
                let a0 = Instant::now();
                let a = rec.begin(Name::TxnAttempt, id);
                let r = body(t, &w.map, txn, Some(&mut rec), id);
                rec.end(a);
                if r.is_err() {
                    aborted_ns += a0.elapsed().as_nanos() as u64;
                }
                r
            } else {
                body(t, &w.map, txn, None, id)
            }
        });
        if let Some(s) = run_span {
            rec.end(s);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let Ok(missing) = res else {
            c.failed += u64::from(p == MEASURE);
            continue;
        };
        c.missing += missing;
        c.incs += u64::from(txn.inc);
        match p {
            MEASURE => {
                c.committed += 1;
                progress.store(c.committed, Ordering::Relaxed);
                lat.push(ns);
                if txn.inc {
                    lat_write.push(ns);
                } else {
                    lat_read.push(ns);
                }
            }
            MEASURE_TRACED if tracing => {
                c.traced += 1;
                c.aborted_ns += aborted_ns;
            }
            _ => {}
        }
    }
    WorkerOut {
        counts: c,
        seen: lat.seen(),
        lat: lat.into_samples(),
        lat_read: lat_read.into_samples(),
        lat_write: lat_write.into_samples(),
        rec,
    }
}

/// Run `hot_locks`; `traced` selects the per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let digests: Vec<String> = (0..THREADS as u64)
        .map(|t| format!("{:016x}", lock_pool(seed, t, POOL_LEN).1))
        .collect();
    report.info("stream_digest", digests.join("-"));
    report.info("threads", THREADS);
    report.info("keys", LOCK_KEYS);
    report.info("keys_per_txn", LOCK_TXN_KEYS);

    // The main thread, and the set-up it times, run on a fixed CPU:
    // left to the scheduler, set-up time also depends on where it lands.
    crate::procfs::pin_current_thread(crate::procfs::GENERATOR_CPU)?;
    let w = build();
    let mut setups = Vec::with_capacity(ROUNDS * SETUP_PER_ROUND);

    let phase = AtomicU8::new(WARM);
    let full = AtomicBool::new(false);
    let start = Barrier::new(THREADS + 1);
    let progress: Vec<Progress> = (0..THREADS).map(|_| Progress::default()).collect();
    let parked = AtomicUsize::new(0);
    let (outs, per_slice, traced_len, cpu, txn_stats, locks, mvcc) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let ctl = Control {
                    phase: &phase,
                    full: &full,
                    start: &start,
                    progress: &progress[t as usize].0,
                    parked: &parked,
                };
                let w = &w;
                s.spawn(move || worker(w, seed, t, &ctl, traced))
            })
            .collect();
        start.wait();
        std::thread::sleep(WARMUP);
        let share = if traced { 0.4 } else { 1.0 };
        let rounds = if traced { 1 } else { ROUNDS };
        let per_round = ((seconds * share / SLICE.as_secs_f64()) as usize / rounds).max(1);
        let mut slices = Vec::with_capacity(per_round * rounds);
        let mut steal = Vec::with_capacity(per_round * rounds);
        let mut cpu = 0.0;
        let mut seen = 0;
        for round in 0..rounds {
            if round > 0 {
                // Park the workers, then time set-up on a quiet CPU.
                phase.store(PAUSE, Ordering::SeqCst);
                while parked.load(Ordering::SeqCst) < THREADS {
                    std::thread::sleep(Duration::from_micros(100));
                }
                for _ in 0..SETUP_PER_ROUND {
                    let t0 = Instant::now();
                    drop(std::hint::black_box(build()));
                    setups.push(t0.elapsed().as_secs_f64());
                }
            }
            let mut probe = SliceProbe::new(per_round, None);
            let cpu0 = cpu_seconds("self");
            let t0 = Instant::now();
            phase.store(MEASURE, Ordering::SeqCst);
            for h in &handles {
                h.thread().unpark();
            }
            for k in 0..per_round {
                let due = t0 + SLICE * (k as u32 + 1);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let total: u64 = progress.iter().map(|p| p.0.load(Ordering::Relaxed)).sum();
                slices.push(total - seen);
                seen = total;
                probe.tick(t0.elapsed());
            }
            cpu += cpu_seconds("self") - cpu0;
            steal.extend(probe.finish().0);
        }
        let per_slice = (slices, steal);
        let mut traced_len = Duration::ZERO;
        let stats0 = w.tm.stats().snapshot();
        let locks0 = w.registry.snapshot();
        let mvcc0 = MvccDomain::global().metrics.snapshot();
        if traced {
            let t1 = Instant::now();
            phase.store(MEASURE_TRACED, Ordering::Relaxed);
            let end = t1 + Duration::from_secs_f64(seconds * 0.6);
            while Instant::now() < end && !full.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
            }
            traced_len = t1.elapsed();
        }
        phase.store(STOP, Ordering::Relaxed);
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        let stats1 = w.tm.stats().snapshot();
        let locks = w.registry.snapshot().since(&locks0);
        let mvcc = (mvcc0, MvccDomain::global().metrics.snapshot());
        (
            outs,
            per_slice,
            traced_len,
            cpu,
            (stats0, stats1),
            locks,
            mvcc,
        )
    });

    // Output check: every committed increment added exactly 1 to each
    // of its 8 keys, and nothing else changed the map.
    let incs: u64 = outs.iter().map(|o| o.counts.incs).sum();
    let missing: u64 = outs.iter().map(|o| o.counts.missing).sum();
    let total: i64 =
        w.tm.run(|t| {
            let mut sum = 0;
            for k in 0..LOCK_KEYS {
                sum += w.map.get(t, &k)?.unwrap_or(0);
            }
            Ok(sum)
        })
        .map_err(|e| e.to_string())?;
    let expect = LOCK_KEYS as i64 * PREFILL_VALUE + (LOCK_TXN_KEYS as u64 * incs) as i64;
    report.check(total == expect && missing == 0, || {
        format!(
            "map total {total}, expected {expect} from {incs} increments ({missing} keys missing)"
        )
    });

    let committed: u64 = outs.iter().map(|o| o.counts.committed).sum();
    let seen: u64 = outs.iter().map(|o| o.seen).sum();
    report.failed = outs.iter().map(|o| o.counts.failed).sum();
    report.attempted = committed + report.failed;
    let fail_frac = ratio(report.failed as f64, report.attempted as f64);
    let mut lat: Vec<u64> = outs.iter().flat_map(|o| o.lat.iter().copied()).collect();
    let mut lat_w: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.lat_write.iter().copied())
        .collect();
    let mut lat_r: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.lat_read.iter().copied())
        .collect();
    let lat = Summary::of(&mut lat);
    let write = Summary::of(&mut lat_w);
    let read = Summary::of(&mut lat_r);
    let (throughput, clean, steal_free) =
        crate::stats::throughput(&per_slice.0, &per_slice.1, SLICE);
    report.info("throughput_steal_free", steal_free);
    report.info("latency_samples_kept", lat.n);
    report.info("latency_samples_offered", seen);
    report.info("throughput_slices_total", per_slice.0.len());
    if !traced {
        report.put("setup_s", median_f64(&setups), setups.len() as u64);
        report.put("throughput_ops_s", throughput, clean as u64);
        report.put("lat_p50_us", us(lat.p50), lat.n as u64);
        report.put("lat_p50_us.write", us(write.p50), write.n as u64);
        report.put("ok_frac", 1.0 - fail_frac, report.attempted);
        report.put(
            "cpu_us_per_op",
            ratio(cpu * 1e6, committed as f64),
            committed,
        );
        report.put("peak_rss_mb", peak_rss_mb("self"), 1);
        return Ok(report);
    }

    let spans: Vec<trace::Span> = outs
        .iter()
        .flat_map(|o| o.rec.spans().iter().copied())
        .collect();
    let traced_txns: u64 = outs.iter().map(|o| o.counts.traced).sum();
    let aborted_ns: u64 = outs.iter().map(|o| o.counts.aborted_ns).sum();
    let mut run = trace::durations(&spans, Name::TxnRun);
    let run_total: u64 = run.iter().sum();
    let run = Summary::of(&mut run);
    let get = Summary::of(&mut trace::durations(&spans, Name::BoostedGet));
    let put = Summary::of(&mut trace::durations(&spans, Name::BoostedPut));
    let remove = Summary::of(&mut trace::durations(&spans, Name::BoostedRemove));
    let (s0, s1) = txn_stats;
    for name in [
        "gen.lag_us.p50",
        "gen.lag_us.p99",
        "gen.cpu_frac",
        "lat_p50_us.rscan",
        "wal_bytes_per_op",
        "wire.encode_ns.p50",
        "wire.decode_ns.p50",
        "wire.encode_resp_ns.p50",
        "wire.req_bytes_per_op",
        "wire.resp_bytes_per_op",
        "batch.eligible_frac",
        "batch.scripts_per_batch",
        "batch.fallback_frac",
        "batch.tick_us.p50",
        "exec.script_us.p50",
        "exec.script_us.p99",
        "exec.read_only_us.p50",
        "exec.batch_us.p50",
        "exec.attempts_per_script",
        "exec.status.lock_timeout",
        "exec.status.retries_exhausted",
        "wal.records_per_fsync",
        "wal.fsync_us.p50",
        "wal.fsync_us.p99",
        "wal.append_us.p50",
        "wal.enqueue_ns.p50",
        "wal.ticket_wait_us.p50",
        "wal.ticket_wait_us.p99",
        "wal.recover_s",
        "wal.replay_s",
        "io.residual_us.p50",
    ] {
        // Layers this workload bypasses.
        report.put(name, 0.0, 0);
    }
    report.put("lat_p99_us", us(lat.p99), lat.n as u64);
    report.put("lat_p50_us.read", us(read.p50), read.n as u64);
    report.put("fail_frac", fail_frac, report.attempted);
    report.put("txn.run_us.p50", us(run.p50), run.n as u64);
    report.put("txn.run_us.p99", us(run.p99), run.n as u64);
    report.put(
        "txn.attempts_per_commit",
        ratio(
            (s1.started - s0.started) as f64,
            (s1.committed - s0.committed) as f64,
        ),
        s1.committed - s0.committed,
    );
    report.put(
        "txn.abort_time_frac",
        ratio(aborted_ns as f64, run_total as f64),
        run.n as u64,
    );
    let txns = s1.committed - s0.committed;
    report.lock_metrics(&locks, txns);
    report.put("lock.timeouts", locks.total_timeouts() as f64, 0);
    report.put("boosted.get_ns.p50", get.p50 as f64, get.n as u64);
    report.put("boosted.put_ns.p50", put.p50 as f64, put.n as u64);
    report.put("boosted.remove_ns.p50", remove.p50 as f64, remove.n as u64);
    report.mvcc_metrics(&mvcc.0, &mvcc.1, txns);
    report.self_time_metrics(&spans, traced_txns);
    // Median transaction time with spans on versus off, both measured
    // in this run. (A mean, or a rate over the traced phase, swings with
    // a few slow transactions and with when each worker's span buffer
    // filled.)
    report.put(
        "trace.overhead_frac",
        ratio(run.p50 as f64, lat.p50 as f64) - 1.0,
        run.n as u64,
    );
    report.put("trace.spans", spans.len() as f64, 0);
    report.put("trace.ops", traced_txns as f64, 0);
    report.info("lat_p50_us", us(lat.p50));
    report.info("traced_seconds", traced_len.as_secs_f64());
    Ok(report)
}
