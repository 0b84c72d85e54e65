//! The basic owner-tracked, transaction-reentrant, timeout lock.
//!
//! # Lock-word state encoding
//!
//! The whole lock state is a single `AtomicU64`:
//!
//! ```text
//! ┌─────────┬───────────────────────────────────────────────┐
//! │ bit 63  │ bits 62..0                                    │
//! │ WAITERS │ owner TxnId (0 = free)                        │
//! └─────────┴───────────────────────────────────────────────┘
//! ```
//!
//! * `0` — free. Uncontended acquire is one `compare_exchange(0, id)`;
//!   no mutex, no condvar, no clock read.
//! * `id` — owned by transaction `id`, nobody parked. Release is one
//!   `swap(0)`, and the missing `WAITERS` bit proves no wakeup is owed.
//! * `id | WAITERS` — owned, with at least one waiter parked (or about
//!   to park) on the condvar. Release must take the park mutex and
//!   `notify_all`.
//!
//! A contended acquire spins briefly ([`crate::backoff::SpinWait`]) and
//! only then parks: it takes the park mutex, sets `WAITERS` (so the
//! releasing owner knows to notify), and waits on the condvar with the
//! transaction's timeout as deadline. Setting `WAITERS` *before*
//! checking the state again, under the same mutex the releaser must
//! take to notify, is the classic no-lost-wakeup protocol: either the
//! waiter's `WAITERS` CAS happens before the owner's `swap(0)` (the
//! owner sees the bit and notifies under the mutex, after the waiter is
//! registered) or it fails because the swap already happened (the
//! waiter re-reads `0` and claims the lock instead of parking).
//!
//! Under a deterministic scheduler the parking machinery is bypassed
//! entirely ([`AbstractLock::acquire_det`]): blocking becomes virtual-
//! time ticks and `WAITERS` is never set, so schedules stay replayable.

use super::HeldLock;
use crate::backoff::SpinWait;
use crate::obs::LockSiteStats;
use crate::{Abort, TxResult, Txn, TxnId};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Waiters-parked flag in the lock word (bit 63). Transaction ids are
/// drawn from a counter starting at 1, so an id can never collide with
/// this bit within the lifetime of any conceivable process.
const WAITERS: u64 = 1 << 63;

/// Mask selecting the owner id from the lock word.
const OWNER_MASK: u64 = WAITERS - 1;

/// Result of a single acquisition attempt (diagnostics and internal
/// bookkeeping; most callers use [`AbstractLock::acquire`], which maps
/// timeouts to [`Abort`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock was free (or became free in time) and is now owned by
    /// the requesting transaction.
    Acquired,
    /// The requesting transaction already owned the lock; nothing to do
    /// (abstract locks are reentrant *per transaction*, not per thread).
    AlreadyHeld,
    /// Another transaction held the lock for the whole timeout window.
    TimedOut,
}

/// A mutual-exclusion abstract lock owned by at most one transaction.
///
/// This is the building block from which [`super::KeyLockMap`] (the
/// paper's `LockKey`) and [`super::TxMutex`] are made. Unlike an OS
/// mutex it is:
///
/// * **transaction-owned** — the owner is a [`TxnId`], not a thread, so
///   a transaction may re-acquire a lock it already holds no matter how
///   its code paths are composed;
/// * **two-phase** — the acquiring transaction registers the lock via
///   [`Txn::register_held_lock`]; release happens only at commit/abort;
/// * **timeout-based** — a blocked acquisition gives up after
///   [`Txn::lock_timeout`] and aborts the transaction, breaking any
///   deadlock cycle.
///
/// The uncontended fast path is a single `compare_exchange` on the lock
/// word (see the module docs for the encoding); the mutex + condvar
/// slow path is entered only after a bounded spin under real contention.
#[derive(Debug, Default)]
pub struct AbstractLock {
    /// The lock word: `0` free, else owner id with an optional
    /// [`WAITERS`] flag. See the module docs.
    state: AtomicU64,
    /// Number of waiters parked (or committed to parking) on `cv`.
    /// Serves as the condvar's guarded state and lets the last leaving
    /// waiter avoid re-propagating [`WAITERS`]. A `u32` keeps the mutex
    /// and its count in one word, so a lock is four words in all: a
    /// [`super::KeyLockMap`] stores one per key ever locked.
    park: Mutex<u32>,
    cv: Condvar,
    /// Contention-attribution site; `None` (the default) skips every
    /// recording branch so un-instrumented locks measure nothing.
    site: Option<Arc<LockSiteStats>>,
}

impl AbstractLock {
    /// A fresh, unowned lock.
    pub fn new() -> Self {
        AbstractLock::default()
    }

    /// A fresh lock whose waits and timeouts are charged to `site`.
    /// Many locks may share one site (e.g. every lock in one stripe of
    /// a [`super::KeyLockMap`]).
    pub fn with_site(site: Arc<LockSiteStats>) -> Self {
        AbstractLock {
            site: Some(site),
            ..AbstractLock::default()
        }
    }

    /// Acquire for `txn`, registering with the transaction on success
    /// so that release happens automatically at commit/abort.
    ///
    /// Returns `Err(Abort::lock_timeout())` if another transaction held
    /// the lock for the entire timeout window.
    pub fn acquire(self: &Arc<Self>, txn: &Txn) -> TxResult<()> {
        // Read-only snapshot transactions hold no abstract locks, ever
        // — that structural guarantee (not a convention) is what makes
        // them abort-free. Any mutating call funnels through here and
        // is rejected with a typed, non-retried error.
        if txn.is_read_only() {
            return Err(Abort::read_only_violation());
        }
        match self.try_acquire_raw(txn.id(), txn.lock_timeout()) {
            AcquireOutcome::Acquired => {
                txn.register_held_lock(Arc::clone(self) as Arc<dyn HeldLock>);
                Ok(())
            }
            AcquireOutcome::AlreadyHeld => Ok(()),
            AcquireOutcome::TimedOut => Err(Abort::lock_timeout()),
        }
    }

    /// Low-level acquisition without transaction registration. Exposed
    /// for tests and for lock disciplines built on top of this one.
    ///
    /// The fast path — lock free, or already owned by `id` — is one
    /// `compare_exchange` with no clock read; everything else drops
    /// into the outlined contended path (`acquire_contended`).
    pub fn try_acquire_raw(&self, id: TxnId, timeout: std::time::Duration) -> AcquireOutcome {
        #[cfg(feature = "deterministic")]
        if crate::det::active() {
            return self.acquire_det(id, timeout);
        }
        let raw = id.raw();
        debug_assert_eq!(raw & WAITERS, 0, "transaction id overflows the owner field");
        match self
            .state
            .compare_exchange(0, raw, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(_) => {
                self.note_acquired_uncontended(id);
                AcquireOutcome::Acquired
            }
            // The failure load may be Relaxed: observing our own id is
            // only possible if *this* transaction wrote it earlier on
            // this same thread (transactions are thread-confined).
            Err(cur) if cur & OWNER_MASK == raw => AcquireOutcome::AlreadyHeld,
            Err(_) => self.acquire_contended(id, timeout),
        }
    }

    /// Try to claim a free lock, requesting `WAITERS` if other waiters
    /// remain parked. Returns `true` on success.
    fn try_claim(&self, raw: u64, parked_others: bool) -> bool {
        let want = if parked_others { raw | WAITERS } else { raw };
        self.state
            .compare_exchange(0, want, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// The contended path: spin briefly, then park on the condvar until
    /// the owner's release notifies us or the timeout deadline passes.
    #[cold]
    fn acquire_contended(&self, id: TxnId, timeout: std::time::Duration) -> AcquireOutcome {
        let raw = id.raw();
        let start = Instant::now();
        let deadline = start + timeout;
        crate::trace_event!(LockWait { txn: id });

        // Phase 1: bounded spin — abstract locks are often released
        // within the owner's commit, a few hundred cycles away.
        let mut spin = SpinWait::new();
        while spin.spin() {
            if self.state.load(Ordering::Relaxed) == 0 && self.try_claim(raw, false) {
                self.note_acquired(id, start, true);
                return AcquireOutcome::Acquired;
            }
        }

        // Phase 2: park. All waiter bookkeeping happens under the park
        // mutex; see the module docs for the lost-wakeup argument.
        let mut parked = self.park.lock();
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            if cur == 0 {
                if self.try_claim(raw, *parked > 0) {
                    drop(parked);
                    self.note_acquired(id, start, true);
                    return AcquireOutcome::Acquired;
                }
                continue; // raced with another claimer; re-read
            }
            // Lock is held: make sure the owner will notify on release.
            if cur & WAITERS == 0
                && self
                    .state
                    .compare_exchange(cur, cur | WAITERS, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                continue; // owner changed or released; re-read
            }
            *parked += 1;
            let timed_out = self.cv.wait_until(&mut parked, deadline).timed_out();
            *parked -= 1;
            if timed_out {
                // Last chance: the owner may have released exactly at
                // the deadline (the notify raced our timeout).
                if self.state.load(Ordering::Relaxed) == 0 && self.try_claim(raw, *parked > 0) {
                    drop(parked);
                    self.note_acquired(id, start, true);
                    return AcquireOutcome::Acquired;
                }
                drop(parked);
                if let Some(site) = &self.site {
                    site.record_timeout(start.elapsed());
                }
                return AcquireOutcome::TimedOut;
            }
        }
    }

    /// Acquisition loop under a deterministic scheduler: one CAS per
    /// scheduling round, blocking becomes [`crate::det::block_tick`]
    /// and the timeout deadline is measured in virtual ticks, so a
    /// deadlock cycle resolves identically on every replay of a seed.
    /// The parking machinery is bypassed and [`WAITERS`] never set.
    #[cfg(feature = "deterministic")]
    fn acquire_det(&self, id: TxnId, timeout: std::time::Duration) -> AcquireOutcome {
        use crate::det::{self, Point};
        let raw = id.raw();
        let deadline = det::virtual_now() + det::ticks_for(timeout);
        let mut contended = false;
        loop {
            det::yield_point(Point::LockAcquire);
            match self
                .state
                .compare_exchange(0, raw, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => {
                    if let Some(site) = &self.site {
                        site.record_acquired(std::time::Duration::ZERO, contended);
                    }
                    crate::trace_event!(LockAcquired {
                        txn: id,
                        wait_ns: 0
                    });
                    return AcquireOutcome::Acquired;
                }
                Err(cur) if cur & OWNER_MASK == raw => return AcquireOutcome::AlreadyHeld,
                Err(_) => {
                    if !contended {
                        contended = true;
                        crate::trace_event!(LockWait { txn: id });
                    }
                    if det::virtual_now() >= deadline {
                        if let Some(site) = &self.site {
                            // Virtual waits have no meaningful wall
                            // duration; attribute the timeout only.
                            site.record_timeout(std::time::Duration::ZERO);
                        }
                        return AcquireOutcome::TimedOut;
                    }
                    det::block_tick();
                }
            }
        }
    }

    /// Bookkeeping after an uncontended fast-path acquisition: no clock
    /// was read and no wait happened, so this is at most one relaxed
    /// counter increment (and nothing at all for un-instrumented locks).
    #[inline]
    fn note_acquired_uncontended(&self, id: TxnId) {
        let _ = id; // only the (feature-gated) trace event consumes it
        if let Some(site) = &self.site {
            site.record_acquired(std::time::Duration::ZERO, false);
        }
        crate::trace_event!(LockAcquired {
            txn: id,
            wait_ns: 0
        });
    }

    /// Bookkeeping after a successful contended acquisition.
    #[inline]
    fn note_acquired(&self, id: TxnId, start: Instant, contended: bool) {
        let _ = id; // only the (feature-gated) trace event consumes it
        if let Some(site) = &self.site {
            // Skip the clock read when nothing was waited for: the
            // uncontended wait is ~0 and the extra `Instant::now()`
            // would be the dominant instrumentation cost.
            let wait = if contended {
                start.elapsed()
            } else {
                std::time::Duration::ZERO
            };
            site.record_acquired(wait, contended);
        }
        crate::trace_event!(LockAcquired {
            txn: id,
            wait_ns: if contended {
                start.elapsed().as_nanos().min(u64::MAX as u128) as u64
            } else {
                0
            },
        });
    }

    /// The transaction currently owning the lock, if any.
    pub fn owner(&self) -> Option<TxnId> {
        TxnId::from_raw(self.state.load(Ordering::Acquire) & OWNER_MASK)
    }
}

impl HeldLock for AbstractLock {
    fn release(&self, id: TxnId) {
        let raw = id.raw();
        // Non-owner release must be a no-op. The unsynchronized check
        // is sound: only the owner's own thread can make the owner
        // field equal `raw` (acquisition happens on the transaction's
        // thread), so a mismatch here is stable.
        if self.state.load(Ordering::Relaxed) & OWNER_MASK != raw {
            return;
        }
        let prev = self.state.swap(0, Ordering::Release);
        debug_assert_eq!(prev & OWNER_MASK, raw);
        if prev & WAITERS != 0 {
            // Take and drop the park mutex before notifying: a waiter
            // that set WAITERS but has not yet reached `cv.wait` still
            // holds the mutex, and this acquisition orders the notify
            // after its registration — no wakeup can be lost.
            drop(self.park.lock());
            // Several transactions may be parked; they race for the
            // lock when woken, losers go back to sleep.
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TxnConfig, TxnManager};
    use std::time::Duration;

    fn manager(timeout_ms: u64) -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
            ..TxnConfig::default()
        })
    }

    #[test]
    fn acquire_registers_and_releases_on_commit() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let txn = tm.begin();
        lock.acquire(&txn).unwrap();
        assert_eq!(lock.owner(), Some(txn.id()));
        assert_eq!(txn.held_lock_count(), 1);
        tm.commit(txn);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn reentrant_acquire_registers_once() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let txn = tm.begin();
        lock.acquire(&txn).unwrap();
        lock.acquire(&txn).unwrap();
        assert_eq!(txn.held_lock_count(), 1);
        tm.commit(txn);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn contended_acquire_times_out_with_abort() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder).unwrap();

        let waiter = tm.begin();
        let err = lock.acquire(&waiter).unwrap_err();
        assert_eq!(err, Abort::lock_timeout());
        // The loser holds nothing new.
        assert_eq!(waiter.held_lock_count(), 0);
        tm.commit(holder);
        tm.abort(waiter, crate::AbortReason::LockTimeout);
    }

    #[test]
    fn release_is_noop_for_non_owner() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let a = tm.begin();
        let b = tm.begin();
        lock.acquire(&a).unwrap();
        // b never acquired; releasing on b's behalf must not free a's lock.
        lock.release(b.id());
        assert_eq!(lock.owner(), Some(a.id()));
        tm.commit(a);
        tm.commit(b);
    }

    #[test]
    fn waiter_wakes_when_owner_commits() {
        let tm = Arc::new(manager(1_000));
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder).unwrap();

        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let waiter = std::thread::spawn(move || {
            let txn = tm2.begin();
            let r = lock2.acquire(&txn);
            tm2.commit(txn);
            r
        });
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(holder); // releases the lock, wakes the waiter
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn abort_releases_lock_too() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let txn = tm.begin();
        lock.acquire(&txn).unwrap();
        tm.abort(txn, crate::AbortReason::Explicit);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn lockword_timeout_clears_stale_waiters_path() {
        // A waiter that parks and times out leaves; the owner's later
        // release must still work (possibly notifying nobody).
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder).unwrap();
        let loser = tm.begin();
        assert_eq!(
            lock.try_acquire_raw(loser.id(), Duration::from_millis(5)),
            AcquireOutcome::TimedOut
        );
        tm.commit(holder); // release with WAITERS possibly still set
        assert_eq!(lock.owner(), None);
        // The word is fully free again: a fresh acquire takes the fast path.
        let next = tm.begin();
        assert_eq!(
            lock.try_acquire_raw(next.id(), Duration::from_millis(5)),
            AcquireOutcome::Acquired
        );
        lock.release(next.id());
        tm.commit(next);
        tm.abort(loser, crate::AbortReason::LockTimeout);
    }

    #[test]
    fn lockword_two_parked_waiters_both_eventually_acquire() {
        let tm = Arc::new(manager(2_000));
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder).unwrap();

        let spawn_waiter = || {
            let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
            std::thread::spawn(move || {
                let txn = tm2.begin();
                let r = lock2.acquire(&txn);
                tm2.commit(txn);
                r.is_ok()
            })
        };
        let w1 = spawn_waiter();
        let w2 = spawn_waiter();
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(holder);
        assert!(w1.join().unwrap());
        assert!(w2.join().unwrap());
        assert_eq!(lock.owner(), None);
    }
}
