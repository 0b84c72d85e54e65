//! The traced in-process replay of the wire workload.
//!
//! The same seeded script stream, at the same offered rate, is pushed
//! through the layers' public entry points in the order a one-loop
//! server calls them: `encode_request`, then `FrameDecoder` +
//! `decode_request`, then `Batcher::run_tick` (whose `other` callback
//! runs `execute_read_only`), then `encode_response` for each reply.
//!
//! `run_tick` executes batch-eligible scripts itself. Its grouping rule
//! is documented (maximal same-tick runs of `batch_eligible` scripts, at
//! most `max_scripts` scripts and `MAX_OPS_PER_SCRIPT` ops), so the
//! replay infers which emitted reply opens each group: the time between
//! the previous callback and that reply is the group's
//! `execute`/`execute_batch` call, recorded as an exec span. The
//! inference is checked against the program every run: the multi-script
//! groups it found must match the executor's own `batch` counters, or
//! the run fails.
//!
//! The write-ahead log is measured here too. The executor starts by
//! recovering and replaying a fixed log (the map prefill plus
//! [`LOG_TRANSFERS`] transfers), and every committed group that the
//! server would log is fed to a `GroupCommitWal` on `FileStorage`, one
//! record per group. Which ops earn a record is asked of the program:
//! each op kind of the stream is run once on an executor with a log
//! attached ([`logged_kinds`]). A separate thread waits on the tickets,
//! so the replay loop keeps the in-memory server's timing. At the end
//! the log is recovered into a fresh executor, which must read the same
//! counter.
//!
//! The stream is replayed twice, spans off and then on; the busy-time
//! difference is the tracing overhead.

use crate::client::{check_results, Checks};
use crate::gen::{self, due_ns, frame, with_req_id, Pool, COUNTER, KV_KEYS, MAP};
use crate::trace::{Name, Recorder, Span};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::mem::{discriminant, Discriminant};
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txboost_core::{
    ContentionSnapshot, DurabilityMetrics, DurabilitySnapshot, MvccDomain, MvccSnapshot,
};
use txboost_server::{batch_eligible, BatchConfig, Batcher, Executor, ServerConfig};
use txboost_wal::{FileStorage, GroupCommitWal, Ticket, WalConfig};
use txboost_wire::{
    decode_request, encode_request, encode_response, FrameDecoder, Op, OpResult, Request, Response,
    ScriptOp, ScriptStatus, MAX_FRAME_LEN, MAX_OPS_PER_SCRIPT,
};

/// Transfer records in the start-up log after the prefill records.
pub const LOG_TRANSFERS: u64 = 20_000;

/// Per-request time (ns) in each replayed layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReqLayers {
    /// Encode + decode + response encode.
    pub wire: u64,
    /// Share of its tick's `run_tick` self time.
    pub batch: u64,
    /// The exec call that served it (a whole group for batched ones).
    pub exec: u64,
}

/// What the replay measured.
#[derive(Debug)]
pub struct ReplayOut {
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
    /// Per-request layer times of the traced pass.
    pub req_layers: Vec<ReqLayers>,
    /// Busy ns and requests of the untraced pass.
    pub busy_off: (u64, u64),
    /// Busy ns and requests of the traced pass.
    pub busy_on: (u64, u64),
    /// `batch_eligible` scripts among those replayed.
    pub eligible: u64,
    /// Scripts replayed (both passes).
    pub scripts: u64,
    /// Lock-site counters over both passes.
    pub locks: ContentionSnapshot,
    /// MVCC counters before and after both passes.
    pub mvcc: (MvccSnapshot, MvccSnapshot),
    /// Transactions committed over both passes.
    pub txns: u64,
    /// `recover` of the start-up log, seconds.
    pub recover_s: f64,
    /// `RecoveredLog::replay` of it through `Executor::replay_record`.
    pub replay_s: f64,
    /// Group-commit counters and histograms of the write stream's log.
    pub wal: DurabilitySnapshot,
    /// Per record: enqueue to durable, ns.
    pub durable_ns: Vec<u64>,
    /// Multi-script commit groups the replay inferred, and their
    /// scripts (every pass).
    pub groups: (u64, u64),
    /// Output-check failures.
    pub errors: Vec<String>,
}

/// One replay pass's shared state (the callbacks of `run_tick` borrow
/// it through cells).
struct Pass<'a> {
    exec: &'a Executor,
    wal: &'a GroupCommitWal,
    durable: &'a Sender<(Ticket, Instant)>,
    /// Op kinds whose commit the server logs.
    logged: &'a HashSet<Discriminant<Op>>,
    rec: Option<RefCell<Recorder>>,
    checks: RefCell<Checks>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn executor() -> Executor {
    let cfg = ServerConfig::default();
    Executor::new(cfg.txn.clone(), cfg.default_sem_permits)
}

fn group_commit(
    dir: &Path,
    metrics: Arc<DurabilityMetrics>,
) -> Result<Arc<GroupCommitWal>, String> {
    let storage: Arc<dyn txboost_wal::Storage> = Arc::new(FileStorage::open(dir).map_err(err)?);
    let wal =
        Arc::new(GroupCommitWal::new(storage, &WalConfig::default(), 1, metrics).map_err(err)?);
    wal.spawn_flusher().map_err(err)?;
    Ok(wal)
}

/// Write the start-up log: the map prefill (one record per prefill
/// script) then [`LOG_TRANSFERS`] transfers — a fixed record count.
fn write_log(dir: &Path) -> Result<u64, String> {
    let wal = group_commit(dir, Arc::new(DurabilityMetrics::new()))?;
    let mut tickets: Vec<Ticket> = gen::prefill_scripts()
        .iter()
        .map(|s| wal.enqueue(s))
        .collect();
    for i in 0..LOG_TRANSFERS {
        let key = ((i * 7919) % KV_KEYS) as i64;
        tickets.push(wal.enqueue(&[
            ScriptOp::new(Op::MapRemove {
                obj: MAP.into(),
                key,
            }),
            ScriptOp::new(Op::MapInsert {
                obj: MAP.into(),
                key,
                val: i as i64,
            }),
        ]));
    }
    let durable = tickets.iter().all(Ticket::wait);
    wal.shutdown();
    if durable {
        Ok(tickets.len() as u64)
    } else {
        Err("writing the start-up log failed".into())
    }
}

/// The op kinds of `pool`'s scripts whose commit the server writes to
/// its log: each kind's first op is run alone on an executor with a log
/// in `dir` attached, and counts if the log gained a record.
pub fn logged_kinds(pool: &Pool, dir: &Path) -> Result<HashSet<Discriminant<Op>>, String> {
    let exec = executor();
    let metrics = Arc::new(DurabilityMetrics::new());
    exec.attach_wal(group_commit(dir, Arc::clone(&metrics))?);
    let mut seen = HashSet::new();
    let mut logged = HashSet::new();
    let ops = pool.items.iter().flat_map(|it| match &it.req {
        Request::Script { ops, .. } => ops.as_slice(),
        _ => &[],
    });
    for sop in ops {
        let kind = discriminant(&sop.op);
        if !seen.insert(kind) {
            continue;
        }
        let before = metrics.snapshot().records;
        let out = exec.execute(std::slice::from_ref(sop));
        if out.status != ScriptStatus::Committed {
            exec.shutdown_wal();
            return Err(format!("probing {:?}: {:?}", sop.op, out.status));
        }
        if metrics.snapshot().records > before {
            logged.insert(kind);
        }
    }
    exec.shutdown_wal();
    Ok(logged)
}

/// Recover the log in `dir` into `exec`: (scan seconds, replay seconds,
/// records, records rejected).
fn recover_into(exec: &Executor, dir: &Path) -> Result<(f64, f64, u64, u64), String> {
    let storage = FileStorage::open(dir).map_err(err)?;
    let t0 = Instant::now();
    let recovered = txboost_wal::recover(&storage).map_err(err)?;
    let scan = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let rejected = recovered.replay(|r| exec.replay_record(r));
    Ok((
        scan,
        t1.elapsed().as_secs_f64(),
        recovered.records.len() as u64,
        rejected,
    ))
}

fn counter(exec: &Executor) -> Vec<OpResult> {
    exec.execute(&[ScriptOp::new(Op::CounterGet {
        obj: COUNTER.into(),
    })])
    .results
}

/// Replay `pool` at `rate` for `length` per pass through a fresh
/// executor, keeping the logs under `work`.
pub fn run(pool: &Pool, rate: u64, length: Duration, work: &Path) -> Result<ReplayOut, String> {
    let exec = executor();
    let mut errors = Vec::new();
    let log_dir = work.join("startup-log");
    let written = write_log(&log_dir)?;
    let (recover_s, replay_s, records, rejected) = recover_into(&exec, &log_dir)?;
    if records != written || rejected != 0 {
        errors.push(format!(
            "start-up log: wrote {written} records, recovered {records}, {rejected} rejected"
        ));
    }

    let logged = logged_kinds(pool, &work.join("probe-log"))?;
    let wal_dir = work.join("replay-wal");
    let metrics = Arc::new(DurabilityMetrics::new());
    let wal = group_commit(&wal_dir, Arc::clone(&metrics))?;
    let (tx, rx) = channel::<(Ticket, Instant)>();
    let waiter = std::thread::spawn(move || {
        let mut waits = Vec::new();
        let mut lost = 0u64;
        for (ticket, at) in rx {
            lost += u64::from(!ticket.wait());
            waits.push(at.elapsed().as_nanos() as u64);
        }
        (waits, lost)
    });

    let batcher = Batcher::new(BatchConfig::default());
    let reg0 = exec.namespace().registry().snapshot();
    let mv0 = MvccDomain::global().metrics.snapshot();
    let stats0 = crate::json::Json::parse(&exec.stats_json())?;
    let mut out = ReplayOut {
        spans: Vec::new(),
        req_layers: Vec::new(),
        busy_off: (0, 0),
        busy_on: (0, 0),
        eligible: 0,
        scripts: 0,
        locks: ContentionSnapshot::default(),
        mvcc: (mv0.clone(), mv0),
        txns: 0,
        recover_s,
        replay_s,
        wal: metrics.snapshot(),
        durable_ns: Vec::new(),
        groups: (0, 0),
        errors,
    };
    let mut checks = Checks::default();
    // A short warm-up pass first, so neither measured pass pays for
    // cold caches and fresh log files.
    for (traced, len) in [(false, length / 4), (false, length), (true, length)] {
        let capacity = (rate as f64 * len.as_secs_f64() * 8.0) as usize + 1024;
        let pass = Pass {
            exec: &exec,
            wal: &wal,
            durable: &tx,
            logged: &logged,
            rec: traced.then(|| RefCell::new(Recorder::new(Instant::now(), capacity))),
            checks: RefCell::new(std::mem::take(&mut checks)),
        };
        let (busy, n, layers) = pass.run(pool, &batcher, rate, len, &mut out);
        out.scripts += n;
        if traced {
            out.busy_on = (busy, n);
            out.req_layers = layers;
            if let Some(rec) = pass.rec {
                out.spans = rec.into_inner().spans().to_vec();
            }
        } else {
            out.busy_off = (busy, n);
        }
        checks = pass.checks.into_inner();
    }
    drop(tx);
    let (durable_ns, lost) = waiter.join().map_err(|_| "ticket waiter panicked")?;
    wal.shutdown();
    out.durable_ns = durable_ns;
    out.wal = metrics.snapshot();
    out.locks = exec.namespace().registry().snapshot().since(&reg0);
    out.mvcc.1 = MvccDomain::global().metrics.snapshot();
    let stats1 = crate::json::Json::parse(&exec.stats_json())?;
    let d = |path: &str| (stats1.num(path) - stats0.num(path)) as u64;
    out.txns = d("txn.committed");
    // The exec spans, the WAL records and the I/O residual hang on the
    // inferred groups; the executor's counters must agree with them (a
    // fallback re-runs its scripts one by one, off `batch.scripts`).
    let (batches, fallbacks) = (d("batch.batches"), d("batch.fallbacks"));
    let (groups, grouped) = out.groups;
    if batches + fallbacks != groups || (fallbacks == 0 && d("batch.scripts") != grouped) {
        out.errors.push(format!(
            "replay inferred {groups} multi-script commit groups of {grouped} scripts, the \
             executor ran {batches} batches of {} scripts and {fallbacks} fallbacks: the \
             batching rule changed, so per-layer attribution would be wrong",
            d("batch.scripts")
        ));
    }

    // Output checks: the counter equals its committed increments, ids
    // never repeat, every record became durable, and the log alone
    // rebuilds the counter.
    let adds = checks.counter_adds as i64;
    if counter(&exec) != [OpResult::Value(Some(adds))] {
        out.errors.push(format!(
            "replay counter reads {:?}, {adds} increments committed",
            counter(&exec)
        ));
    }
    let ids = checks.ids.len();
    checks.ids.sort_unstable();
    checks.ids.dedup();
    if checks.ids.len() != ids {
        out.errors.push(format!(
            "replay issued {} duplicate ids",
            ids - checks.ids.len()
        ));
    }
    if checks.wrong > 0 {
        out.errors.push(format!(
            "replay: {} wrong replies, e.g. {:?}",
            checks.wrong, checks.examples
        ));
    }
    let fresh = executor();
    let (_, _, logged, rejected) = recover_into(&fresh, &wal_dir)?;
    if lost != 0 || logged != out.wal.records || rejected != 0 || counter(&fresh) != counter(&exec)
    {
        out.errors.push(format!(
            "write log: {lost} records not durable, {logged} of {} recovered, {rejected} \
             rejected, counter {:?} after recovery vs {:?}",
            out.wal.records,
            counter(&fresh),
            counter(&exec)
        ));
    }
    Ok(out)
}

/// Reply shaped the way the server shapes an executor outcome.
fn reply(req_id: u64, o: txboost_server::ScriptOutcome) -> Response {
    Response::Script {
        req_id,
        status: o.status,
        attempts: o.attempts,
        failed_op: o.failed_op,
        results: o.results,
    }
}

/// Per request of a tick: the size of the commit group it opens, or 0
/// if it is not the first of a group (or not batch-eligible).
fn group_heads(reqs: &[(u32, Request)], cfg: &BatchConfig) -> Vec<usize> {
    let mut heads = vec![0usize; reqs.len()];
    let mut head: Option<usize> = None;
    let mut ops = 0usize;
    for (i, (_, req)) in reqs.iter().enumerate() {
        match req {
            Request::Script { ops: s, .. } if cfg.enabled && batch_eligible(s) => {
                let full = head.is_some_and(|h| {
                    heads[h] >= cfg.max_scripts || ops + s.len() > MAX_OPS_PER_SCRIPT as usize
                });
                if head.is_none() || full {
                    head = Some(i);
                    ops = 0;
                }
                heads[head.expect("set above")] += 1;
                ops += s.len();
            }
            _ => head = None,
        }
    }
    heads
}

impl Pass<'_> {
    fn span_begin(&self, name: Name, req: u32) -> Option<u32> {
        self.rec.as_ref().map(|r| r.borrow_mut().begin(name, req))
    }

    fn span_end(&self, idx: Option<u32>) {
        if let (Some(r), Some(i)) = (self.rec.as_ref(), idx) {
            r.borrow_mut().end(i);
        }
    }

    /// Log a committed group's writes; returns the enqueue's ns.
    fn log(&self, ops: &[ScriptOp], req: u32) -> u64 {
        if !ops
            .iter()
            .any(|s| self.logged.contains(&discriminant(&s.op)))
        {
            return 0;
        }
        let s = self.span_begin(Name::WalEnqueue, req);
        let t0 = Instant::now();
        let ticket = self.wal.enqueue(ops);
        let ns = t0.elapsed().as_nanos() as u64;
        self.span_end(s);
        if self.durable.send((ticket, t0)).is_err() {
            self.checks
                .borrow_mut()
                .wrong("the ticket waiter is gone".into());
        }
        ns
    }

    /// Replay the stream; returns busy ns, requests, and per-request
    /// layer times (traced pass). Adds to `out`'s eligible-script and
    /// commit-group counts.
    fn run(
        &self,
        pool: &Pool,
        batcher: &Batcher,
        rate: u64,
        length: Duration,
        out: &mut ReplayOut,
    ) -> (u64, u64, Vec<ReqLayers>) {
        let cfg = BatchConfig::default();
        let traced = self.rec.is_some();
        let mut layers: Vec<ReqLayers> = Vec::new();
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let start = Instant::now();
        let length_ns = length.as_nanos() as u64;
        let item = |i: u64| &pool.items[(i % pool.items.len() as u64) as usize];
        let mut next: u64 = 0;
        let mut busy: u64 = 0;
        loop {
            let t = start.elapsed().as_nanos() as u64;
            if t >= length_ns || self.rec.as_ref().is_some_and(|r| r.borrow().full()) {
                break;
            }
            let first = next;
            while due_ns(next, rate) <= t {
                next += 1;
            }
            if next == first {
                std::hint::spin_loop();
                continue;
            }
            let tick_start = Instant::now();
            let base = layers.len();
            if traced {
                layers.resize(base + (next - first) as usize, ReqLayers::default());
            }
            // Client side, then the server's read path: encode, frame,
            // feed the decoder, decode.
            let mut reqs: Vec<(u32, Request)> = Vec::with_capacity((next - first) as usize);
            for i in first..next {
                let id = i as u32;
                let req = with_req_id(&item(i).req, i + 1);
                if let Request::Script { ops, .. } = &req {
                    out.eligible += u64::from(batch_eligible(ops));
                }
                let s = self.span_begin(Name::WireEncode, id);
                let f = frame(&encode_request(&req));
                self.span_end(s);
                let s = self.span_begin(Name::WireDecode, id);
                dec.feed(&f);
                let decoded = dec
                    .next_frame()
                    .ok()
                    .flatten()
                    .and_then(|p| decode_request(&p).ok());
                self.span_end(s);
                match decoded {
                    Some(r) => reqs.push((id, r)),
                    None => self
                        .checks
                        .borrow_mut()
                        .wrong(format!("request {id} did not survive encode/decode")),
                }
            }
            let heads = group_heads(&reqs, &cfg);
            for &g in heads.iter().filter(|&&g| g > 1) {
                out.groups.0 += 1;
                out.groups.1 += g as u64;
            }
            let ops_of: Vec<Vec<ScriptOp>> = reqs
                .iter()
                .map(|(_, r)| match r {
                    Request::Script { ops, .. } | Request::ReadOnlyScript { ops, .. } => {
                        ops.clone()
                    }
                    _ => Vec::new(),
                })
                .collect();
            let last = Cell::new(Instant::now());
            let group_exec = Cell::new(0u64);
            let child_ns = Cell::new(0u64);
            let layers_cell = RefCell::new(&mut layers);
            let tick_span = self.span_begin(Name::BatchTick, first as u32);
            let tick_t0 = Instant::now();
            batcher.run_tick(
                self.exec,
                reqs,
                |req| {
                    let t0 = Instant::now();
                    let (name, id, out) = match req {
                        Request::ReadOnlyScript { req_id, ops } => (
                            Name::ExecReadOnly,
                            req_id,
                            self.exec.execute_read_only(&ops),
                        ),
                        Request::Script { req_id, ops } => {
                            let out = self.exec.execute(&ops);
                            (Name::ExecScript, req_id, out)
                        }
                        other => {
                            self.checks
                                .borrow_mut()
                                .wrong(format!("unexpected request {other:?}"));
                            return Response::Pong { req_id: 0 };
                        }
                    };
                    let t1 = Instant::now();
                    let tok = (id - 1) as u32;
                    if let Some(r) = &self.rec {
                        r.borrow_mut().record(name, tok, t0, t1);
                    }
                    let ns = (t1 - t0).as_nanos() as u64;
                    let at = (u64::from(tok) - first) as usize;
                    let logged =
                        if name == Name::ExecScript && out.status == ScriptStatus::Committed {
                            self.log(&ops_of[at], tok)
                        } else {
                            0
                        };
                    child_ns.set(child_ns.get() + ns + logged);
                    group_exec.set(ns);
                    last.set(Instant::now());
                    reply(id, out)
                },
                |tok: u32, resp| {
                    let now = Instant::now();
                    let at = (u64::from(tok) - first) as usize;
                    let group = heads.get(at).copied().unwrap_or(0);
                    if group > 0 {
                        // First reply of a commit group: the time since
                        // the previous callback was its execution.
                        let ns = (now - last.get()).as_nanos() as u64;
                        if let Some(r) = &self.rec {
                            let name = if group > 1 {
                                Name::ExecBatch
                            } else {
                                Name::ExecScript
                            };
                            r.borrow_mut().record(name, tok, last.get(), now);
                        }
                        group_exec.set(ns);
                        let joined: Vec<ScriptOp> =
                            ops_of[at..at + group].iter().flatten().cloned().collect();
                        child_ns.set(child_ns.get() + ns + self.log(&joined, tok));
                    }
                    let s = self.span_begin(Name::WireEncodeResp, tok);
                    let r0 = Instant::now();
                    std::hint::black_box(encode_response(&resp));
                    let enc_ns = r0.elapsed().as_nanos() as u64;
                    self.span_end(s);
                    child_ns.set(child_ns.get() + enc_ns);
                    if let Response::Script {
                        status,
                        results,
                        req_id,
                        ..
                    } = &resp
                    {
                        if *status == ScriptStatus::Committed {
                            let kind = item(u64::from(tok)).kind;
                            check_results(kind, results, &mut self.checks.borrow_mut(), *req_id);
                        } else {
                            self.checks
                                .borrow_mut()
                                .wrong(format!("request {req_id} did not commit: {status:?}"));
                        }
                    }
                    if let Some(slot) = layers_cell.borrow_mut().get_mut(base + at) {
                        slot.exec = group_exec.get();
                        slot.wire += enc_ns;
                    }
                    last.set(Instant::now());
                },
            );
            let tick_ns = tick_t0.elapsed().as_nanos() as u64;
            self.span_end(tick_span);
            busy += tick_start.elapsed().as_nanos() as u64;
            if traced {
                let share = tick_ns.saturating_sub(child_ns.get()) / (next - first);
                for slot in &mut layers[base..] {
                    slot.batch = share;
                }
            }
        }
        if let Some(r) = &self.rec {
            // Fold encode/decode spans into the per-request wire time.
            for s in r.borrow().spans() {
                if matches!(s.name, Name::WireEncode | Name::WireDecode) {
                    if let Some(slot) = layers.get_mut(s.req as usize) {
                        slot.wire += s.dur_ns;
                    }
                }
            }
        }
        (busy, next, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(n: usize) -> Request {
        Request::Script {
            req_id: 1,
            ops: vec![
                ScriptOp::new(Op::CounterAdd {
                    obj: "c".into(),
                    delta: 1,
                });
                n
            ],
        }
    }

    /// Multi-script groups and their scripts, as `group_heads` infers
    /// them and as the real `Batcher` runs them (executor counters).
    fn inferred_and_run(reqs: Vec<Request>, cfg: BatchConfig) -> ((u64, u64), (u64, u64)) {
        let reqs: Vec<(u32, Request)> = reqs
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r))
            .collect();
        let heads = group_heads(&reqs, &cfg);
        let multi = heads.iter().filter(|&&g| g > 1);
        let inferred = (multi.clone().count() as u64, multi.sum::<usize>() as u64);
        let exec = executor();
        Batcher::new(cfg).run_tick(
            &exec,
            reqs,
            |req| match req {
                Request::ReadOnlyScript { req_id, ops } => {
                    reply(req_id, exec.execute_read_only(&ops))
                }
                Request::Script { req_id, ops } => reply(req_id, exec.execute(&ops)),
                other => panic!("unexpected {other:?}"),
            },
            |_, _| {},
        );
        let stats = crate::json::Json::parse(&exec.stats_json()).unwrap();
        let ran = (
            (stats.num("batch.batches") + stats.num("batch.fallbacks")) as u64,
            stats.num("batch.scripts") as u64,
        );
        (inferred, ran)
    }

    #[test]
    fn inferred_groups_match_the_batcher() {
        let ro = Request::ReadOnlyScript {
            req_id: 1,
            ops: vec![],
        };
        let mixed = vec![add(1), add(1), ro.clone(), add(1), ro, add(1), add(1)];
        let many = vec![add(1); 130];
        let wide = vec![add(MAX_OPS_PER_SCRIPT as usize / 3); 7];
        let cap = BatchConfig {
            enabled: true,
            max_scripts: 2,
        };
        let off = BatchConfig {
            enabled: false,
            max_scripts: 64,
        };
        for (reqs, cfg) in [
            (mixed, BatchConfig::default()),
            (many.clone(), BatchConfig::default()),
            (wide, BatchConfig::default()),
            (vec![add(1); 5], cap),
            (many, off),
        ] {
            let (inferred, ran) = inferred_and_run(reqs, cfg);
            assert_eq!(inferred, ran);
        }
    }

    #[test]
    fn logged_kinds_asks_the_executor() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("probe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = gen::kv_pool(5);
        let logged = logged_kinds(&pool, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let logged = logged.unwrap();
        let get = Op::MapContains {
            obj: MAP.into(),
            key: 0,
        };
        let add = Op::CounterAdd {
            obj: COUNTER.into(),
            delta: 1,
        };
        assert!(!logged.contains(&discriminant(&get)));
        assert!(logged.contains(&discriminant(&add)));
    }

    #[test]
    fn replay_serves_every_request_and_checks_out() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = gen::kv_pool(5);
        let out = run(&pool, 20_000, Duration::from_millis(100), &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(parent) = dir.parent() {
            // Only succeeds once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.busy_on.1 > 1000 && out.busy_off.1 > 1000);
        assert_eq!(out.req_layers.len() as u64, out.busy_on.1);
        assert!(out.req_layers.iter().all(|l| l.exec > 0 && l.wire > 0));
        assert!(out.spans.iter().any(|s| s.name == Name::ExecReadOnly));
        assert!(out.wal.records > 0 && out.durable_ns.len() as u64 == out.wal.records);
        assert!(out.recover_s > 0.0 && out.replay_s > 0.0);
    }
}
