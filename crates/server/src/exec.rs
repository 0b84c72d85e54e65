//! Script execution: one wire script → one boosted transaction.
//!
//! The executor owns the shared [`TxnManager`] (lock-timeout deadlock
//! recovery, capped exponential backoff between retries — the paper's
//! retry loop) and the observability surface the `STATS` request
//! exports: a per-op-type service-time histogram, a whole-script
//! service-time histogram, per-status script counters, and the
//! contention registry that attributes lock-timeout aborts to the
//! object (and key stripe) that caused them.

use crate::namespace::Namespace;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use txboost_core::{
    Abort, AbortReason, ContentionRegistry, HistogramSnapshot, LatencyHistogram, TxResult, Txn,
    TxnConfig, TxnError, TxnManager,
};
use txboost_wal::{GroupCommitWal, RecoveredRecord, Ticket};
use txboost_wire::{op_name, Op, OpResult, ScriptOp, ScriptStatus, NUM_OPCODES};

/// Outcome of executing one script server-side.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// Commit/abort classification for the reply status byte.
    pub status: ScriptStatus,
    /// How many transaction attempts were made (1 = first try).
    pub attempts: u32,
    /// Which op failed its guard / raised the debug abort.
    pub failed_op: Option<u16>,
    /// Per-op results; empty unless committed.
    pub results: Vec<OpResult>,
    /// Whether the commit record reached durable storage before the
    /// reply: `Some(true)` for a WAL-logged commit whose fsync batch
    /// completed, `Some(false)` if the WAL hit an I/O error (the
    /// in-memory commit stands), `None` when no record was logged
    /// (WAL off, read-only script, or not committed), and from the
    /// entry points that hand the ticket back instead of waiting.
    pub wal_durable: Option<bool>,
}

/// Connection-level counters, shared between the event loops and the
/// stats document.
#[derive(Debug, Default)]
pub struct ConnMetrics {
    /// Connections ever accepted.
    pub accepted: AtomicU64,
    /// Connections currently open.
    pub open: AtomicU64,
    /// Protocol errors (each closed one connection).
    pub proto_errors: AtomicU64,
    /// Accepts that failed on descriptor exhaustion (`EMFILE`/
    /// `ENFILE`), which backs the loop's acceptor off instead of
    /// spinning, or accepted connections that could not be registered
    /// with the loop's epoll instance. Each shed one connection.
    pub accept_errors: AtomicU64,
}

/// Executes scripts and accumulates the stats the `STATS` request
/// reports.
#[derive(Debug)]
pub struct Executor {
    ns: Namespace,
    tm: TxnManager,
    /// Service time per op type, indexed by `opcode - 1`.
    op_hist: [LatencyHistogram; NUM_OPCODES],
    /// Service time per whole script (execution only, not queueing).
    script_hist: LatencyHistogram,
    /// Scripts finished per [`ScriptStatus`] (indexed by status byte).
    status_counts: [AtomicU64; 7],
    /// Shared connection counters.
    pub conns: Arc<ConnMetrics>,
    started: Instant,
    /// Group-commit WAL, attached after recovery (never re-attached).
    /// While unset — including for the whole of recovery replay —
    /// commits are not logged.
    wal: OnceLock<Arc<GroupCommitWal>>,
    /// Records replayed from the WAL at startup.
    wal_replayed: AtomicU64,
    /// Replayed records the executor rejected (a recovery bug or a
    /// log/state divergence; counted, surfaced in stats, never fatal).
    wal_replay_failures: AtomicU64,
    /// Joint transactions committed by [`Executor::execute_batch`].
    batches: AtomicU64,
    /// Scripts that committed inside those joint transactions.
    batch_scripts: AtomicU64,
    /// Joint transactions that failed and fell back to per-script
    /// execution (cross-loop conflict races; each is `batch.len()`
    /// scripts re-run individually).
    batch_fallbacks: AtomicU64,
}

impl Executor {
    /// An executor over a fresh namespace.
    pub fn new(txn_config: TxnConfig, default_sem_permits: u64) -> Self {
        let registry = Arc::new(ContentionRegistry::new());
        Executor {
            ns: Namespace::new(Arc::clone(&registry), default_sem_permits),
            tm: TxnManager::new(txn_config),
            op_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            script_hist: LatencyHistogram::new(),
            status_counts: Default::default(),
            conns: Arc::new(ConnMetrics::default()),
            started: Instant::now(),
            wal: OnceLock::new(),
            wal_replayed: AtomicU64::new(0),
            wal_replay_failures: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_scripts: AtomicU64::new(0),
            batch_fallbacks: AtomicU64::new(0),
        }
    }

    /// Attach the group-commit WAL. Call once, *after* recovery
    /// replay, so replaying old records does not re-log them.
    pub fn attach_wal(&self, wal: Arc<GroupCommitWal>) {
        let _ = self.wal.set(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Arc<GroupCommitWal>> {
        self.wal.get()
    }

    /// Stop and join the WAL flusher (no-op when WAL is off). Call
    /// after the event loops have drained: everything they enqueued gets
    /// flushed before this returns.
    pub fn shutdown_wal(&self) {
        if let Some(wal) = self.wal.get() {
            wal.shutdown();
        }
    }

    /// Re-execute one recovered WAL record; `true` if it committed
    /// again. Recovery replays the committed prefix single-threaded
    /// through this before the WAL is attached.
    pub fn replay_record(&self, record: &RecoveredRecord) -> bool {
        let ok = self.execute(&record.ops).status == ScriptStatus::Committed;
        self.wal_replayed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.wal_replay_failures.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// The object namespace (tests seed state through it).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Run `ops` as one boosted transaction. Never panics on behalf of
    /// the script: every abort path is mapped to a [`ScriptStatus`].
    /// With a WAL attached, a logged commit returns only once its
    /// record is durable.
    pub fn execute(&self, ops: &[ScriptOp]) -> ScriptOutcome {
        let (mut out, ticket) = self.execute_deferred(ops);
        out.wal_durable = ticket.map(|t| t.wait());
        out
    }

    /// [`Executor::execute`] without the durability wait: a logged
    /// commit comes back with its group-commit ticket, unresolved, and
    /// `wal_durable: None`. The caller must hold the reply until the
    /// ticket resolves — the event loop does, so it keeps serving
    /// while many commits share one fsync.
    pub(crate) fn execute_deferred(&self, ops: &[ScriptOp]) -> (ScriptOutcome, Option<Ticket>) {
        let t0 = Instant::now();
        let mut attempts: u32 = 0;
        let mut results: Vec<OpResult> = Vec::with_capacity(ops.len());
        // (op index, true = DebugAbort / false = guard mismatch); set
        // immediately before raising the explicit abort the retry loop
        // treats as terminal.
        let failed: Cell<Option<(u16, bool)>> = Cell::new(None);
        // WAL ticket for this script's commit record. The enqueue is
        // the last statement of the transaction body: the abstract
        // locks are still held there, so the LSN order assigned by the
        // queue equals the serialization order, and since a boosted
        // commit cannot fail after the body returns `Ok`, every
        // enqueued record corresponds to a real commit. The ticket is
        // awaited *after* `run` returns, with all locks released.
        let wal_ticket: Cell<Option<Ticket>> = Cell::new(None);
        let logs_wal = self.wal.get().is_some() && ops.iter().any(|sop| op_mutates(&sop.op));
        let run = self.tm.run(|txn| {
            attempts = attempts.saturating_add(1);
            results.clear();
            failed.set(None);
            // One clock read per op: op i ends where op i + 1 starts.
            let mut op_t0 = Instant::now();
            for (i, sop) in ops.iter().enumerate() {
                let r = self.run_op(txn, &sop.op, i as u16, &failed)?;
                let op_end = Instant::now();
                // This closure re-runs on every conflict retry; an
                // out-of-range opcode must degrade to an unrecorded
                // sample, never a panic that kills the connection.
                if let Some(hist) = self.op_hist.get((sop.op.opcode() - 1) as usize) {
                    hist.record_duration(op_end - op_t0);
                }
                op_t0 = op_end;
                if !sop.guard.admits(&r) {
                    failed.set(Some((i as u16, false)));
                    return Err(Abort::explicit());
                }
                results.push(r);
            }
            if logs_wal {
                if let Some(wal) = self.wal.get() {
                    wal_ticket.set(Some(wal.enqueue(ops)));
                }
            }
            Ok(())
        });
        let (status, failed_op) = match run {
            Ok(()) => (ScriptStatus::Committed, None),
            Err(TxnError::ExplicitlyAborted) => match failed.get() {
                Some((i, true)) => (ScriptStatus::DebugAborted, Some(i)),
                Some((i, false)) => (ScriptStatus::GuardFailed, Some(i)),
                None => (ScriptStatus::RetriesExhausted, None),
            },
            Err(TxnError::RetriesExhausted(reason)) => (
                match reason {
                    AbortReason::LockTimeout => ScriptStatus::LockTimeout,
                    AbortReason::WouldBlock => ScriptStatus::WouldBlock,
                    _ => ScriptStatus::RetriesExhausted,
                },
                None,
            ),
            // TxnError is non-exhaustive; treat anything future as a
            // generic retry exhaustion rather than crashing the server.
            Err(_) => (ScriptStatus::RetriesExhausted, None),
        };
        if status != ScriptStatus::Committed {
            results.clear();
        }
        // Group commit: the record's ticket goes back to the caller,
        // whose acknowledgement must wait for it.
        let ticket = wal_ticket
            .take()
            .filter(|_| status == ScriptStatus::Committed);
        self.script_hist.record_duration(t0.elapsed());
        self.status_counts[status_index(status)].fetch_add(1, Ordering::Relaxed);
        let out = ScriptOutcome {
            status,
            attempts,
            failed_op,
            results,
            wal_durable: None,
        };
        (out, ticket)
    }

    /// Run several independent single-object scripts as **one** joint
    /// boosted transaction — the commit-batching fast path (see
    /// [`crate::batch`]). One lock-manager pass (the transaction's
    /// lock-handle cache absorbs repeat acquisitions of the same
    /// abstract lock), one WAL record and group-commit ticket for the
    /// concatenated ops, one histogram timestamp for the whole batch.
    ///
    /// The caller guarantees every script is batch-eligible
    /// ([`crate::batch_eligible`]): guard-free and free of ops that
    /// can abort on their own, so the joint body has no explicit-abort
    /// path. Returns `None` when the joint transaction still failed
    /// (conflict races with other event loops exhausting retries) —
    /// the caller then re-runs each script individually, so clients
    /// never observe the merge.
    ///
    /// Unlike [`Executor::execute`], it does not wait for
    /// durability: the joint record's one ticket comes back unresolved
    /// (`wal_durable` stays `None`), and no script may be acknowledged
    /// before it resolves.
    pub fn execute_batch(
        &self,
        scripts: &[&[ScriptOp]],
    ) -> Option<(Vec<ScriptOutcome>, Option<Ticket>)> {
        let t0 = Instant::now();
        let n = scripts.len();
        let total_ops: usize = scripts.iter().map(|ops| ops.len()).sum();
        let mut attempts: u32 = 0;
        let mut results: Vec<Vec<OpResult>> = Vec::with_capacity(n);
        // `run_op`'s failure slot: never set here, because eligible
        // scripts contain no `DebugAbort`.
        let failed: Cell<Option<(u16, bool)>> = Cell::new(None);
        let wal_ticket: Cell<Option<Ticket>> = Cell::new(None);
        let logs_wal = self.wal.get().is_some()
            && scripts
                .iter()
                .any(|ops| ops.iter().any(|sop| op_mutates(&sop.op)));
        // One record for the whole batch: recovery replays the
        // concatenation as one transaction, which rebuilds the same
        // state the joint commit produced. Built once — the scripts do
        // not change across retries.
        let joined: Vec<ScriptOp> = if logs_wal {
            scripts.concat()
        } else {
            Vec::new()
        };
        let run = self.tm.run(|txn| {
            attempts = attempts.saturating_add(1);
            results.clear();
            for &ops in scripts {
                let mut rs = Vec::with_capacity(ops.len());
                for (i, sop) in ops.iter().enumerate() {
                    rs.push(self.run_op(txn, &sop.op, i as u16, &failed)?);
                }
                results.push(rs);
            }
            if logs_wal {
                if let Some(wal) = self.wal.get() {
                    wal_ticket.set(Some(wal.enqueue(&joined)));
                }
            }
            Ok(())
        });
        if run.is_err() {
            self.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_scripts.fetch_add(n as u64, Ordering::Relaxed);
        self.status_counts[status_index(ScriptStatus::Committed)]
            .fetch_add(n as u64, Ordering::Relaxed);
        // One timestamp for the whole batch; per-op and per-script
        // samples get the amortized share, so counts stay exact while
        // the clock is read twice per batch instead of twice per op.
        let elapsed = t0.elapsed();
        let per_op = elapsed / (total_ops.max(1) as u32);
        let per_script = elapsed / (n.max(1) as u32);
        for &ops in scripts {
            for sop in ops {
                if let Some(hist) = self.op_hist.get((sop.op.opcode() - 1) as usize) {
                    hist.record_duration(per_op);
                }
            }
            self.script_hist.record_duration(per_script);
        }
        let outs = results
            .into_iter()
            .map(|rs| ScriptOutcome {
                status: ScriptStatus::Committed,
                attempts,
                failed_op: None,
                results: rs,
                wal_durable: None,
            })
            .collect();
        Some((outs, wal_ticket.take()))
    }

    /// Run `ops` as one **read-only snapshot transaction**: no abstract
    /// locks, no undo log, no WAL record, and exactly one attempt —
    /// snapshot reads cannot conflict, so there is nothing to retry or
    /// back off from. Mutating ops (and `DebugAbort`) are rejected with
    /// [`ScriptStatus::ReadOnlyViolation`] before touching any object.
    pub fn execute_read_only(&self, ops: &[ScriptOp]) -> ScriptOutcome {
        let t0 = Instant::now();
        let mut results: Vec<OpResult> = Vec::with_capacity(ops.len());
        let failed: Cell<Option<u16>> = Cell::new(None);
        let run = self.tm.run_read_only(|txn| {
            // One clock read per op, chained as in `execute_deferred`.
            let mut op_t0 = Instant::now();
            for (i, sop) in ops.iter().enumerate() {
                if op_mutates(&sop.op) || matches!(sop.op, Op::DebugAbort) {
                    failed.set(Some(i as u16));
                    return Err(Abort::read_only_violation());
                }
                // `failed` is only consulted on the violation and guard
                // paths above/below; read ops never set it.
                let guard_sink = Cell::new(None);
                let r = self.run_op(txn, &sop.op, i as u16, &guard_sink)?;
                let op_end = Instant::now();
                if let Some(hist) = self.op_hist.get((sop.op.opcode() - 1) as usize) {
                    hist.record_duration(op_end - op_t0);
                }
                op_t0 = op_end;
                if !sop.guard.admits(&r) {
                    failed.set(Some(i as u16));
                    return Err(Abort::explicit());
                }
                results.push(r);
            }
            Ok(())
        });
        let (status, failed_op) = match run {
            Ok(()) => (ScriptStatus::Committed, None),
            Err(TxnError::ReadOnlyViolation) => (ScriptStatus::ReadOnlyViolation, failed.get()),
            Err(TxnError::ExplicitlyAborted) => (ScriptStatus::GuardFailed, failed.get()),
            // A snapshot read cannot time out or block, but map every
            // future abort kind to a reply rather than a panic.
            Err(_) => (ScriptStatus::RetriesExhausted, None),
        };
        if status != ScriptStatus::Committed {
            results.clear();
        }
        self.script_hist.record_duration(t0.elapsed());
        self.status_counts[status_index(status)].fetch_add(1, Ordering::Relaxed);
        ScriptOutcome {
            status,
            attempts: 1,
            failed_op,
            results,
            wal_durable: None,
        }
    }

    fn run_op(
        &self,
        txn: &Txn,
        op: &Op,
        index: u16,
        failed: &Cell<Option<(u16, bool)>>,
    ) -> TxResult<OpResult> {
        Ok(match op {
            Op::MapInsert { obj, key, val } => {
                OpResult::Value(self.ns.map(obj).put(txn, *key, *val)?)
            }
            Op::MapRemove { obj, key } => OpResult::Value(self.ns.map(obj).remove(txn, key)?),
            Op::MapContains { obj, key } => {
                OpResult::Bool(self.ns.map(obj).contains_key(txn, key)?)
            }
            Op::CounterAdd { obj, delta } => {
                self.ns.counter(obj).add(txn, *delta)?;
                OpResult::Unit
            }
            Op::CounterGet { obj } => OpResult::Value(Some(self.ns.counter(obj).get(txn)?)),
            Op::SemAcquire { obj } => {
                self.ns.sem(obj).acquire(txn)?;
                OpResult::Unit
            }
            Op::SemRelease { obj } => {
                self.ns.sem(obj).release(txn);
                OpResult::Unit
            }
            Op::IdGen { obj } => OpResult::Id(self.ns.idgen(obj).assign_id(txn)?),
            Op::PqAdd { obj, key } => {
                self.ns.pq(obj).add(txn, *key)?;
                OpResult::Unit
            }
            Op::PqRemoveMin { obj } => OpResult::Value(self.ns.pq(obj).remove_min(txn)?),
            Op::DebugAbort => {
                failed.set(Some((index, true)));
                return Err(Abort::explicit());
            }
        })
    }

    /// Render the `STATS` document: transaction counters, per-op-type
    /// service-time histograms (count/mean/p50/p99), script service
    /// time, abort attribution by object, connection counters, and
    /// object census.
    pub fn stats_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_kv_u64(
            &mut out,
            "uptime_ms",
            self.started.elapsed().as_millis().min(u64::MAX as u128) as u64,
        );

        let txn = self.tm.stats().snapshot();
        out.push_str(",\"txn\":{");
        push_kv_u64(&mut out, "started", txn.started);
        out.push(',');
        push_kv_u64(&mut out, "committed", txn.committed);
        out.push(',');
        push_kv_u64(&mut out, "aborted", txn.aborted);
        out.push(',');
        push_kv_u64(&mut out, "lock_timeouts", txn.lock_timeouts);
        out.push(',');
        push_kv_u64(&mut out, "would_block", txn.would_block_aborts);
        out.push(',');
        push_kv_u64(&mut out, "explicit", txn.explicit_aborts);
        out.push('}');

        out.push_str(",\"scripts\":{");
        for (i, status) in [
            ScriptStatus::Committed,
            ScriptStatus::LockTimeout,
            ScriptStatus::WouldBlock,
            ScriptStatus::GuardFailed,
            ScriptStatus::DebugAborted,
            ScriptStatus::RetriesExhausted,
            ScriptStatus::ReadOnlyViolation,
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            push_kv_u64(
                &mut out,
                status.name(),
                self.status_counts[i].load(Ordering::Relaxed),
            );
        }
        out.push('}');

        out.push_str(",\"ops\":{");
        let mut first = true;
        for (i, hist) in self.op_hist.iter().enumerate() {
            let name = op_name(i as u8 + 1).expect("opcode table covers histogram range");
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            push_hist(&mut out, &hist.snapshot());
        }
        out.push('}');

        out.push_str(",\"script_service\":");
        push_hist(&mut out, &self.script_hist.snapshot());

        out.push_str(",\"batch\":{");
        push_kv_u64(&mut out, "batches", self.batches.load(Ordering::Relaxed));
        out.push(',');
        push_kv_u64(
            &mut out,
            "scripts",
            self.batch_scripts.load(Ordering::Relaxed),
        );
        out.push(',');
        push_kv_u64(
            &mut out,
            "fallbacks",
            self.batch_fallbacks.load(Ordering::Relaxed),
        );
        out.push('}');

        out.push_str(",\"abort_attribution\":{");
        let snap = self.ns.registry().snapshot();
        for (i, (object, timeouts)) in snap.timeouts_by_object().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, object);
            out.push_str("\":");
            out.push_str(&timeouts.to_string());
        }
        out.push('}');

        out.push_str(",\"connections\":{");
        push_kv_u64(
            &mut out,
            "accepted",
            self.conns.accepted.load(Ordering::Relaxed),
        );
        out.push(',');
        push_kv_u64(&mut out, "open", self.conns.open.load(Ordering::Relaxed));
        out.push(',');
        push_kv_u64(
            &mut out,
            "proto_errors",
            self.conns.proto_errors.load(Ordering::Relaxed),
        );
        out.push(',');
        push_kv_u64(
            &mut out,
            "accept_errors",
            self.conns.accept_errors.load(Ordering::Relaxed),
        );
        out.push('}');

        if let Some(wal) = self.wal.get() {
            let d = wal.metrics().snapshot();
            out.push_str(",\"wal\":{");
            push_kv_u64(&mut out, "records", d.records);
            out.push(',');
            push_kv_u64(&mut out, "batches", d.batches);
            out.push(',');
            push_kv_u64(&mut out, "bytes", d.bytes);
            out.push(',');
            push_kv_u64(&mut out, "segments_rolled", d.segments_rolled);
            out.push(',');
            push_kv_u64(&mut out, "errors", d.wal_errors);
            out.push(',');
            push_kv_u64(
                &mut out,
                "replayed",
                self.wal_replayed.load(Ordering::Relaxed),
            );
            out.push(',');
            push_kv_u64(
                &mut out,
                "replay_failures",
                self.wal_replay_failures.load(Ordering::Relaxed),
            );
            out.push_str(",\"append\":");
            push_hist(&mut out, &d.append);
            out.push_str(",\"fsync\":");
            push_hist(&mut out, &d.fsync);
            out.push('}');
        }

        let mv = txboost_core::MvccDomain::global();
        let mv_snap = mv.metrics.snapshot();
        out.push_str(",\"mvcc\":{");
        push_kv_u64(&mut out, "installs", mv_snap.installs);
        out.push(',');
        push_kv_u64(&mut out, "snapshot_reads", mv_snap.snapshot_reads);
        out.push(',');
        push_kv_u64(&mut out, "gc_reclaimed", mv_snap.gc_reclaimed);
        out.push(',');
        push_kv_u64(&mut out, "stable_ts", mv.clock.stable());
        out.push(',');
        push_kv_u64(&mut out, "live_readers", mv.readers.live_readers() as u64);
        out.push_str(",\"chain_len\":");
        push_hist(&mut out, &mv_snap.chain_len);
        out.push_str(",\"snapshot_age\":");
        push_hist(&mut out, &mv_snap.snapshot_age);
        out.push('}');

        let (maps, counters, sems, idgens, pqs) = self.ns.object_counts();
        out.push_str(",\"objects\":{");
        push_kv_u64(&mut out, "maps", maps as u64);
        out.push(',');
        push_kv_u64(&mut out, "counters", counters as u64);
        out.push(',');
        push_kv_u64(&mut out, "sems", sems as u64);
        out.push(',');
        push_kv_u64(&mut out, "idgens", idgens as u64);
        out.push(',');
        push_kv_u64(&mut out, "pqs", pqs as u64);
        out.push('}');

        out.push('}');
        out
    }
}

/// Whether an op changes object state — only scripts containing at
/// least one of these earn a WAL record. `DebugAbort` never commits,
/// so it does not count.
fn op_mutates(op: &Op) -> bool {
    !matches!(
        op,
        Op::MapContains { .. } | Op::CounterGet { .. } | Op::DebugAbort
    )
}

fn status_index(s: ScriptStatus) -> usize {
    match s {
        ScriptStatus::Committed => 0,
        ScriptStatus::LockTimeout => 1,
        ScriptStatus::WouldBlock => 2,
        ScriptStatus::GuardFailed => 3,
        ScriptStatus::DebugAborted => 4,
        ScriptStatus::RetriesExhausted => 5,
        ScriptStatus::ReadOnlyViolation => 6,
    }
}

fn push_kv_u64(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_hist(out: &mut String, h: &HistogramSnapshot) {
    out.push('{');
    push_kv_u64(out, "count", h.count());
    out.push(',');
    push_kv_u64(out, "mean_ns", h.mean());
    out.push(',');
    push_kv_u64(out, "p50_ns", h.p50());
    out.push(',');
    push_kv_u64(out, "p99_ns", h.p99());
    out.push('}');
}

fn json_escape_into(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use txboost_wire::Guard;

    fn exec() -> Executor {
        Executor::new(
            TxnConfig {
                lock_timeout: Duration::from_millis(5),
                max_retries: Some(16),
                ..TxnConfig::default()
            },
            4,
        )
    }

    fn op(op: Op) -> ScriptOp {
        ScriptOp::new(op)
    }

    #[test]
    fn script_commits_and_returns_per_op_results() {
        let e = exec();
        let out = e.execute(&[
            op(Op::MapInsert {
                obj: "m".into(),
                key: 1,
                val: 10,
            }),
            op(Op::MapInsert {
                obj: "m".into(),
                key: 1,
                val: 20,
            }),
            op(Op::MapContains {
                obj: "m".into(),
                key: 1,
            }),
            op(Op::CounterAdd {
                obj: "c".into(),
                delta: 5,
            }),
            op(Op::CounterGet { obj: "c".into() }),
            op(Op::IdGen { obj: "g".into() }),
            op(Op::PqAdd {
                obj: "q".into(),
                key: 3,
            }),
            op(Op::PqRemoveMin { obj: "q".into() }),
        ]);
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(
            out.results,
            vec![
                OpResult::Value(None),
                OpResult::Value(Some(10)),
                OpResult::Bool(true),
                OpResult::Unit,
                OpResult::Value(Some(5)),
                OpResult::Id(0),
                OpResult::Unit,
                OpResult::Value(Some(3)),
            ]
        );
    }

    #[test]
    fn debug_abort_rolls_back_everything() {
        let e = exec();
        let out = e.execute(&[
            op(Op::MapInsert {
                obj: "m".into(),
                key: 7,
                val: 1,
            }),
            op(Op::CounterAdd {
                obj: "c".into(),
                delta: 100,
            }),
            op(Op::DebugAbort),
        ]);
        assert_eq!(out.status, ScriptStatus::DebugAborted);
        assert_eq!(out.failed_op, Some(2));
        assert!(out.results.is_empty());
        // No partial effects.
        let check = e.execute(&[
            op(Op::MapContains {
                obj: "m".into(),
                key: 7,
            }),
            op(Op::CounterGet { obj: "c".into() }),
        ]);
        assert_eq!(
            check.results,
            vec![OpResult::Bool(false), OpResult::Value(Some(0))]
        );
    }

    #[test]
    fn guard_failure_aborts_atomically_and_names_the_op() {
        let e = exec();
        let out = e.execute(&[
            op(Op::MapInsert {
                obj: "m".into(),
                key: 1,
                val: 1,
            }),
            // Key 2 is absent: the ExpectSome guard must fail.
            ScriptOp::guarded(
                Op::MapRemove {
                    obj: "m".into(),
                    key: 2,
                },
                Guard::ExpectSome,
            ),
        ]);
        assert_eq!(out.status, ScriptStatus::GuardFailed);
        assert_eq!(out.failed_op, Some(1));
        // The first op was rolled back too.
        let check = e.execute(&[op(Op::MapContains {
            obj: "m".into(),
            key: 1,
        })]);
        assert_eq!(check.results, vec![OpResult::Bool(false)]);
    }

    #[test]
    fn exhausted_semaphore_reports_would_block() {
        let e = Executor::new(
            TxnConfig {
                lock_timeout: Duration::from_millis(1),
                max_retries: Some(1),
                backoff_min: Duration::from_micros(10),
                backoff_max: Duration::from_micros(100),
            },
            0, // semaphores start empty
        );
        let out = e.execute(&[op(Op::SemAcquire { obj: "s".into() })]);
        assert_eq!(out.status, ScriptStatus::WouldBlock);
        assert!(out.attempts >= 2, "retry loop must have retried");
    }

    #[test]
    fn read_only_script_reads_a_committed_snapshot_without_locks() {
        let e = exec();
        let seeded = e.execute(&[
            op(Op::MapInsert {
                obj: "m".into(),
                key: 1,
                val: 10,
            }),
            op(Op::CounterAdd {
                obj: "c".into(),
                delta: 5,
            }),
        ]);
        assert_eq!(seeded.status, ScriptStatus::Committed);
        let out = e.execute_read_only(&[
            ScriptOp::guarded(
                Op::MapContains {
                    obj: "m".into(),
                    key: 1,
                },
                Guard::ExpectTrue,
            ),
            op(Op::MapContains {
                obj: "m".into(),
                key: 2,
            }),
            op(Op::CounterGet { obj: "c".into() }),
        ]);
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(out.attempts, 1, "snapshot reads never retry");
        assert_eq!(out.wal_durable, None, "read-only scripts earn no record");
        assert_eq!(
            out.results,
            vec![
                OpResult::Bool(true),
                OpResult::Bool(false),
                OpResult::Value(Some(5)),
            ]
        );
    }

    #[test]
    fn read_only_script_rejects_mutations_with_a_typed_status() {
        let e = exec();
        for mutating in [
            Op::MapInsert {
                obj: "m".into(),
                key: 1,
                val: 1,
            },
            Op::MapRemove {
                obj: "m".into(),
                key: 1,
            },
            Op::CounterAdd {
                obj: "c".into(),
                delta: 1,
            },
            Op::SemAcquire { obj: "s".into() },
            Op::SemRelease { obj: "s".into() },
            Op::IdGen { obj: "g".into() },
            Op::PqAdd {
                obj: "q".into(),
                key: 1,
            },
            Op::PqRemoveMin { obj: "q".into() },
            Op::DebugAbort,
        ] {
            let out = e.execute_read_only(&[
                op(Op::MapContains {
                    obj: "m".into(),
                    key: 1,
                }),
                op(mutating.clone()),
            ]);
            assert_eq!(
                out.status,
                ScriptStatus::ReadOnlyViolation,
                "op {mutating:?}"
            );
            assert_eq!(out.failed_op, Some(1));
            assert!(out.results.is_empty());
        }
        // Nothing leaked into committed state.
        let probe = e.execute_read_only(&[op(Op::CounterGet { obj: "c".into() })]);
        assert_eq!(probe.results, vec![OpResult::Value(Some(0))]);
    }

    #[test]
    fn read_only_guard_failures_name_the_op() {
        let e = exec();
        let out = e.execute_read_only(&[ScriptOp::guarded(
            Op::MapContains {
                obj: "m".into(),
                key: 99,
            },
            Guard::ExpectTrue,
        )]);
        assert_eq!(out.status, ScriptStatus::GuardFailed);
        assert_eq!(out.failed_op, Some(0));
    }

    #[test]
    fn stats_json_reports_per_op_histograms() {
        let e = exec();
        e.execute(&[op(Op::MapInsert {
            obj: "m".into(),
            key: 1,
            val: 1,
        })]);
        e.execute_read_only(&[op(Op::MapContains {
            obj: "m".into(),
            key: 1,
        })]);
        e.execute_read_only(&[op(Op::CounterAdd {
            obj: "c".into(),
            delta: 1,
        })]);
        let json = e.stats_json();
        assert!(json.contains("\"map_insert\":{\"count\":1"), "{json}");
        assert!(json.contains("\"committed\":2"), "{json}");
        assert!(json.contains("\"read_only_violation\":1"), "{json}");
        assert!(json.contains("\"script_service\":{\"count\":3"), "{json}");
        assert!(json.contains("\"maps\":1"), "{json}");
        // The MVCC section is present with its counters and histograms.
        assert!(json.contains("\"mvcc\":{\"installs\":"), "{json}");
        assert!(json.contains("\"snapshot_reads\":"), "{json}");
        assert!(json.contains("\"gc_reclaimed\":"), "{json}");
        assert!(json.contains("\"chain_len\":{"), "{json}");
        assert!(json.contains("\"snapshot_age\":{"), "{json}");
        assert!(json.contains("\"live_readers\":0"), "{json}");
        // Well-formed enough for line-oriented checks: braces balance.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn wal_round_trip_logs_commits_and_replay_rebuilds_state() {
        use txboost_wal::{recover, SimStorage, Storage, WalConfig};
        let storage = Arc::new(SimStorage::new(0));
        let e = exec();
        let wal = Arc::new(
            GroupCommitWal::new(
                Arc::clone(&storage) as Arc<dyn Storage>,
                &WalConfig::default(),
                1,
                Arc::new(txboost_core::DurabilityMetrics::new()),
            )
            .unwrap(),
        );
        wal.spawn_flusher().unwrap();
        e.attach_wal(wal);

        let committed = e.execute(&[op(Op::MapInsert {
            obj: "m".into(),
            key: 1,
            val: 10,
        })]);
        assert_eq!(committed.status, ScriptStatus::Committed);
        assert_eq!(committed.wal_durable, Some(true), "ack implies durable");

        // Read-only scripts and failed scripts earn no record.
        let read_only = e.execute(&[op(Op::MapContains {
            obj: "m".into(),
            key: 1,
        })]);
        assert_eq!(read_only.wal_durable, None);
        let aborted = e.execute(&[
            op(Op::MapInsert {
                obj: "m".into(),
                key: 2,
                val: 2,
            }),
            op(Op::DebugAbort),
        ]);
        assert_eq!(aborted.status, ScriptStatus::DebugAborted);
        assert_eq!(aborted.wal_durable, None);

        assert!(e.stats_json().contains("\"wal\":{\"records\":1"));
        e.shutdown_wal();

        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.len(), 1, "exactly the committed script");
        let e2 = exec();
        assert_eq!(log.replay(|record| e2.replay_record(record)), 0);
        let probe = e2.execute(&[op(Op::MapContains {
            obj: "m".into(),
            key: 1,
        })]);
        assert_eq!(probe.results, vec![OpResult::Bool(true)]);
    }

    #[test]
    fn execute_batch_commits_jointly_with_per_script_results() {
        let e = exec();
        let scripts: Vec<Vec<ScriptOp>> = vec![
            vec![op(Op::CounterAdd {
                obj: "c".into(),
                delta: 3,
            })],
            vec![
                op(Op::CounterAdd {
                    obj: "c".into(),
                    delta: 4,
                }),
                op(Op::CounterGet { obj: "c".into() }),
            ],
        ];
        let scripts: Vec<&[ScriptOp]> = scripts.iter().map(Vec::as_slice).collect();
        let (outs, ticket) = e.execute_batch(&scripts).expect("joint commit");
        assert!(ticket.is_none(), "no WAL attached");
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].status, ScriptStatus::Committed);
        assert_eq!(outs[0].results, vec![OpResult::Unit]);
        // Scripts execute in arrival order inside the joint txn, so
        // the second script's read sees the first's delta.
        assert_eq!(
            outs[1].results,
            vec![OpResult::Unit, OpResult::Value(Some(7))]
        );
        let json = e.stats_json();
        assert!(
            json.contains("\"batch\":{\"batches\":1,\"scripts\":2,\"fallbacks\":0"),
            "{json}"
        );
        // Per-script accounting stays exact: 2 committed scripts, 3
        // op samples, 2 script-service samples.
        assert!(json.contains("\"committed\":2"), "{json}");
        assert!(json.contains("\"counter_add\":{\"count\":2"), "{json}");
        assert!(json.contains("\"script_service\":{\"count\":2"), "{json}");
    }

    #[test]
    fn execute_batch_logs_one_wal_record_for_the_run() {
        use txboost_wal::{recover, SimStorage, Storage, WalConfig};
        let storage = Arc::new(SimStorage::new(0));
        let e = exec();
        let wal = Arc::new(
            GroupCommitWal::new(
                Arc::clone(&storage) as Arc<dyn Storage>,
                &WalConfig::default(),
                1,
                Arc::new(txboost_core::DurabilityMetrics::new()),
            )
            .unwrap(),
        );
        wal.spawn_flusher().unwrap();
        e.attach_wal(wal);
        let add = [op(Op::CounterAdd {
            obj: "c".into(),
            delta: 1,
        })];
        let (_, ticket) = e.execute_batch(&[&add[..]; 4]).expect("joint commit");
        assert!(ticket.expect("one ticket for the run").wait(), "durable");
        e.shutdown_wal();
        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.len(), 1, "one record for the whole batch");
        let e2 = exec();
        assert_eq!(log.replay(|record| e2.replay_record(record)), 0);
        let probe = e2.execute(&[op(Op::CounterGet { obj: "c".into() })]);
        assert_eq!(probe.results, vec![OpResult::Value(Some(4))]);
    }

    #[test]
    fn json_escaping_handles_hostile_names() {
        let mut s = String::new();
        json_escape_into(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "a\\\"b\\\\c\\u000ad");
    }
}
