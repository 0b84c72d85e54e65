//! Runtime counters: commits, aborts, lock timeouts.
//!
//! The paper's evaluation attributes much of boosting's advantage to a
//! far lower abort rate than read/write-conflict STMs; these counters
//! are what the benchmark harness reads to reproduce that comparison.

use crate::obs::{HistogramSnapshot, LatencyHistogram};
use crate::pad::{padded, stripe, CachePadded, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One thread-stripe of [`TxnStats`]: every counter and histogram a
/// transaction bumps, on lines no other stripe touches.
#[derive(Debug, Default)]
struct StatsStripe {
    started: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    lock_timeouts: AtomicU64,
    explicit_aborts: AtomicU64,
    conflict_aborts: AtomicU64,
    would_block_aborts: AtomicU64,
    attempt_ns: LatencyHistogram,
    undo_depth_commit: LatencyHistogram,
    undo_depth_abort: LatencyHistogram,
}

/// Shared, lock-free counters maintained by a [`crate::TxnManager`].
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization, and must never perturb the measured code paths.
/// They are striped per thread (each thread writes only its own
/// cache-padded stripe; [`TxnStats::snapshot`] sums the stripes), so
/// counting a transaction never shares a cache line with a transaction
/// on another thread. Counts are exact.
#[derive(Debug)]
pub struct TxnStats {
    stripes: Box<[CachePadded<StatsStripe>]>,
}

impl Default for TxnStats {
    fn default() -> Self {
        TxnStats {
            stripes: padded(STRIPES, StatsStripe::default),
        }
    }
}

impl TxnStats {
    /// The calling thread's stripe.
    #[inline]
    fn mine(&self) -> &StatsStripe {
        &self.stripes[stripe()]
    }

    /// Count one transaction attempt. Public so that sibling runtimes
    /// (e.g. the read/write STM baseline) can reuse these counters.
    pub fn record_start(&self) {
        self.mine().started.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one commit.
    pub fn record_commit(&self) {
        self.mine().committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one abort, attributed to `reason`.
    pub fn record_abort(&self, reason: crate::AbortReason) {
        let s = self.mine();
        s.aborted.fetch_add(1, Ordering::Relaxed);
        let c = match reason {
            crate::AbortReason::LockTimeout => &s.lock_timeouts,
            crate::AbortReason::Explicit => &s.explicit_aborts,
            crate::AbortReason::Conflict => &s.conflict_aborts,
            crate::AbortReason::WouldBlock => &s.would_block_aborts,
            // Read-only violations are program errors surfaced to the
            // caller, not contention; like `Other` they count only in
            // the total (the server tracks them per-script instead).
            crate::AbortReason::ReadOnlyViolation | crate::AbortReason::Other => return,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the shape of one finished attempt: its wall-clock
    /// duration and the undo-log depth it reached, bucketed separately
    /// for commits and aborts. Called by [`crate::TxnManager`] (and the
    /// read/write STM baseline) at commit/abort time — never on a path
    /// a transaction can observe.
    pub fn record_attempt(&self, duration: Duration, undo_depth: u64, committed: bool) {
        let s = self.mine();
        s.attempt_ns.record_duration(duration);
        if committed {
            s.undo_depth_commit.record(undo_depth);
        } else {
            s.undo_depth_abort.record(undo_depth);
        }
    }

    /// One histogram merged over every stripe.
    fn merged(&self, of: fn(&StatsStripe) -> &LatencyHistogram) -> HistogramSnapshot {
        self.stripes
            .iter()
            .fold(HistogramSnapshot::default(), |acc, s| {
                acc.merge(&of(s).snapshot())
            })
    }

    /// Histogram of attempt wall-clock durations, in nanoseconds
    /// (commits and aborts alike).
    pub fn attempt_durations(&self) -> HistogramSnapshot {
        self.merged(|s| &s.attempt_ns)
    }

    /// Histogram of undo-log depth at commit.
    pub fn undo_depth_at_commit(&self) -> HistogramSnapshot {
        self.merged(|s| &s.undo_depth_commit)
    }

    /// Histogram of undo-log depth at abort (inverses replayed).
    pub fn undo_depth_at_abort(&self) -> HistogramSnapshot {
        self.merged(|s| &s.undo_depth_abort)
    }

    /// Take a consistent-enough snapshot of all counters: each is the
    /// exact sum of its stripes.
    pub fn snapshot(&self) -> TxnStatsSnapshot {
        let sum = |f: fn(&StatsStripe) -> &AtomicU64| -> u64 {
            self.stripes
                .iter()
                .map(|s| f(s).load(Ordering::Relaxed))
                .sum()
        };
        TxnStatsSnapshot {
            started: sum(|s| &s.started),
            committed: sum(|s| &s.committed),
            aborted: sum(|s| &s.aborted),
            lock_timeouts: sum(|s| &s.lock_timeouts),
            explicit_aborts: sum(|s| &s.explicit_aborts),
            conflict_aborts: sum(|s| &s.conflict_aborts),
            would_block_aborts: sum(|s| &s.would_block_aborts),
        }
    }
}

/// A point-in-time copy of [`TxnStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxnStatsSnapshot {
    /// Transaction attempts started (each retry counts as a new start).
    pub started: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transaction attempts that aborted (for any reason).
    pub aborted: u64,
    /// Aborts caused by abstract-lock acquisition timeouts.
    pub lock_timeouts: u64,
    /// Aborts requested explicitly by user code.
    pub explicit_aborts: u64,
    /// Aborts caused by read/write conflicts (baseline STM only).
    pub conflict_aborts: u64,
    /// Aborts caused by conditional-synchronization timeouts.
    pub would_block_aborts: u64,
}

impl TxnStatsSnapshot {
    /// Aborts per committed transaction — the paper's "wasted work"
    /// indicator. Returns 0.0 when nothing has committed.
    pub fn abort_ratio(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.aborted as f64 / self.committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbortReason;

    #[test]
    fn counters_accumulate_by_reason() {
        let s = TxnStats::default();
        s.record_start();
        s.record_start();
        s.record_commit();
        s.record_abort(AbortReason::LockTimeout);
        s.record_abort(AbortReason::Explicit);
        s.record_abort(AbortReason::Conflict);
        s.record_abort(AbortReason::WouldBlock);
        let snap = s.snapshot();
        assert_eq!(snap.started, 2);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.aborted, 4);
        assert_eq!(snap.lock_timeouts, 1);
        assert_eq!(snap.explicit_aborts, 1);
        assert_eq!(snap.conflict_aborts, 1);
        assert_eq!(snap.would_block_aborts, 1);
    }

    #[test]
    fn attempt_metrics_split_by_outcome() {
        let s = TxnStats::default();
        s.record_attempt(Duration::from_micros(10), 3, true);
        s.record_attempt(Duration::from_micros(20), 5, false);
        s.record_attempt(Duration::from_micros(30), 0, true);
        assert_eq!(s.attempt_durations().count(), 3);
        let commit = s.undo_depth_at_commit();
        assert_eq!(commit.count(), 2);
        assert_eq!(commit.sum, 3);
        let abort = s.undo_depth_at_abort();
        assert_eq!(abort.count(), 1);
        assert_eq!(abort.sum, 5);
    }

    #[test]
    fn abort_ratio_handles_zero_commits() {
        let snap = TxnStatsSnapshot::default();
        assert_eq!(snap.abort_ratio(), 0.0);
        let snap = TxnStatsSnapshot {
            committed: 4,
            aborted: 6,
            ..Default::default()
        };
        assert!((snap.abort_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn other_reason_counts_only_in_total() {
        let s = TxnStats::default();
        s.record_abort(AbortReason::Other);
        let snap = s.snapshot();
        assert_eq!(snap.aborted, 1);
        assert_eq!(
            snap.lock_timeouts
                + snap.explicit_aborts
                + snap.conflict_aborts
                + snap.would_block_aborts,
            0
        );
    }
}
