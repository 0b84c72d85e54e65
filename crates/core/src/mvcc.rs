//! Multi-version support for boosted objects: abort-free read-only
//! transactions.
//!
//! Boosting (the PPoPP 2008 methodology) buys write concurrency with
//! abstract locks, but that price is exactly wrong for pure readers:
//! a read-only transaction acquires locks it never needs for conflict
//! detection and can abort or stall behind writers. The multi-version
//! object-based STM line (Juyal/Kulkarni/Kumari/Peri/Somani, arXiv
//! 1712.09803 / 1905.01200) shows the fix at object granularity: keep
//! a short chain of committed versions per key, stamp each commit with
//! a global timestamp, and let read-only transactions return instantly
//! on the newest version at-or-below their snapshot — no locks, no
//! undo log, no aborts.
//!
//! ## The snapshot protocol
//!
//! * [`CommitClock::reserve`] hands a committing writer a fresh
//!   timestamp `ts` *while its abstract locks are still held*, so
//!   timestamp order extends the lock-serialization order.
//! * The writer installs one version per mutated key (stamped `ts`),
//!   then calls [`CommitClock::publish`]. The clock's **stable**
//!   timestamp is the largest `S` such that every commit with
//!   timestamp ≤ `S` has fully installed its versions (no holes).
//! * A read-only transaction snapshots at `S = stable()` via
//!   `ReaderRegistry::register` and reads, per key, the newest
//!   version with timestamp ≤ `S`. Because `S` is below every
//!   in-flight commit, the snapshot is a consistent prefix of the
//!   serialization order: all-or-nothing per writer, and immutable for
//!   the reader's whole lifetime. That is why read-only transactions
//!   *cannot* abort — there is no conflict left to detect.
//!
//! ## Bounded chains and GC
//!
//! * A commit does not return until `stable() >= ts`
//!   (`CommitClock::wait_stable`, after its abstract locks are
//!   released). Without the wait, a commit whose timestamp sits above
//!   an older commit still installing would return while invisible to
//!   new snapshots, and a read-only transaction begun after it returned
//!   could miss it: real-time order and read-your-writes would break.
//!
//! ## Bounded chains and GC
//!
//! Chains are pruned back toward [`DEFAULT_CHAIN_BOUND`] entries once
//! an install takes them past it. A version may be dropped only when a
//! newer version at-or-below the **GC floor** exists, where the floor
//! is `min(oldest registered reader, stable)` — so no registered
//! snapshot reader can ever lose the version it would read. The floor
//! is computed lazily, only when a chain is over its bound: it takes
//! the one process-wide reader-registry mutex, which an install under
//! the bound never touches. Registration and floor computation read
//! the clock under that same mutex, which closes the register-vs-GC
//! race: a GC that misses a concurrent registration is guaranteed (by
//! mutex ordering and the clock's monotonicity) to have used a floor
//! at-or-below that reader's snapshot.
//!
//! ## Layout
//!
//! A [`VersionStore`] keeps each key's chain inline in its shard's map,
//! so an install is one shard-mutex critical section with one lookup
//! (no per-chain `Arc`, no second lock). Shards are cache-line padded,
//! and the install and read counters are striped per thread, so
//! commits on disjoint keys share no written line beyond the commit
//! clock itself.
//!
//! Everything here is shared-state-only (no per-`Txn` storage); the
//! transaction integration — snapshot guards on [`crate::Txn`], the
//! version log replayed at commit — lives in `txn.rs`.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::backoff::SpinWait;
use crate::obs::{HistogramSnapshot, StripedHistogram};
use crate::pad::{padded, CachePadded, StripedCounter};

/// Default cap on versions retained per key. Chains may exceed it
/// transiently when an old registered reader pins history; installs
/// prune back down as soon as the floor advances.
pub const DEFAULT_CHAIN_BOUND: usize = 8;

/// Shards in a [`VersionStore`]'s chain table (power of two).
const STORE_SHARDS: usize = 64;

thread_local! {
    /// Timestamp of the commit currently replaying its version log on
    /// this thread (0 = none). Set by `Txn::do_commit` around the
    /// version-install closures so they stay small `FnOnce`s — the
    /// timestamp does not exist yet when the closure is logged.
    static CURRENT_COMMIT_TS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Install `ts` as the current thread's commit timestamp for the
/// duration of `f` (the version-log replay window).
pub(crate) fn with_commit_ts<R>(ts: u64, f: impl FnOnce() -> R) -> R {
    CURRENT_COMMIT_TS.with(|c| c.set(ts));
    let r = f();
    CURRENT_COMMIT_TS.with(|c| c.set(0));
    r
}

/// The commit timestamp of the version-log replay in progress on this
/// thread, or 0 outside one.
fn current_commit_ts() -> u64 {
    CURRENT_COMMIT_TS.with(std::cell::Cell::get)
}

/// The global commit-timestamp clock.
///
/// `stable()` is the heart of the protocol: the largest timestamp `S`
/// such that *every* reserved timestamp ≤ `S` has been published. A
/// reader snapshotting at `S` therefore never races an in-flight
/// install — writers still installing all carry timestamps > `S`.
#[derive(Debug)]
pub struct CommitClock {
    /// Next timestamp to hand out (timestamps start at 1; 0 means
    /// "before every commit").
    next: AtomicU64,
    /// Cached stable frontier, recomputed on every publish.
    stable: AtomicU64,
    /// Reserved-but-unpublished timestamps. A `Vec` rather than an
    /// ordered set: it holds at most one entry per concurrently
    /// committing thread, and a warm `Vec` keeps the commit path
    /// allocation-free (the zero-allocs-per-txn bench invariant).
    pending: Mutex<Vec<u64>>,
}

impl Default for CommitClock {
    fn default() -> Self {
        CommitClock {
            next: AtomicU64::new(1),
            stable: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }
}

impl CommitClock {
    /// Reserve the next commit timestamp. The fetch-add happens under
    /// the pending mutex so a concurrent [`publish`](Self::publish)
    /// can never compute a stable frontier that includes a timestamp
    /// whose versions are not yet installed.
    pub fn reserve(&self) -> u64 {
        let mut pending = self.pending.lock().unwrap();
        let ts = self.next.fetch_add(1, Ordering::Relaxed);
        pending.push(ts);
        ts
    }

    /// Mark `ts` fully installed and advance the stable frontier. The
    /// store is `Release` and [`stable`](Self::stable) loads `Acquire`:
    /// combined with the mutex ordering of publishes, a reader that
    /// observes `stable() >= ts` also observes every version install
    /// that preceded `publish(ts)`.
    pub fn publish(&self, ts: u64) {
        let mut pending = self.pending.lock().unwrap();
        match pending.iter().position(|&p| p == ts) {
            Some(i) => {
                pending.swap_remove(i);
            }
            None => debug_assert!(false, "publish({ts}) without a matching reserve"),
        }
        let stable = match pending.iter().copied().min() {
            Some(oldest_pending) => oldest_pending - 1,
            None => self.next.load(Ordering::Relaxed) - 1,
        };
        self.stable.store(stable, Ordering::Release);
    }

    /// The stable frontier: every commit with timestamp ≤ this value
    /// has fully installed its versions. Monotonically non-decreasing.
    pub fn stable(&self) -> u64 {
        self.stable.load(Ordering::Acquire)
    }

    /// Wait until the stable frontier reaches `ts` — i.e. until every
    /// commit older than `ts` has published. Called by a committed
    /// transaction after it published `ts` and released its locks, so
    /// the wait covers only other commits' install windows (which
    /// block on nothing). Spins, then yields the CPU; it never reaches
    /// a deterministic-scheduler yield point, because under the
    /// scheduler no install window contains one (see `Txn::do_commit`),
    /// so any commit it waits for is running, not parked.
    pub(crate) fn wait_stable(&self, ts: u64) {
        let mut spin = SpinWait::new();
        while self.stable() < ts {
            if !spin.spin() {
                std::thread::yield_now();
            }
        }
    }
}

/// Sentinel floor value when no reader is registered.
const NO_READERS: u64 = u64::MAX;

/// Live snapshot readers, keyed by snapshot timestamp.
///
/// GC may drop a version only when a newer version at-or-below
/// `min(oldest registered reader, stable)` exists; the registry tracks
/// the first operand. Registration reads the clock *under the registry
/// mutex*, and so does [`MvccDomain::gc_floor`] — see the module docs
/// for why that ordering is load-bearing.
#[derive(Debug, Default)]
pub struct ReaderRegistry {
    /// `(snapshot ts, reader count)` pairs; unsorted, at most one
    /// entry per distinct live snapshot timestamp.
    readers: Mutex<Vec<(u64, usize)>>,
}

impl ReaderRegistry {
    /// Register a reader at the clock's current stable timestamp and
    /// return that snapshot timestamp.
    fn register(&self, clock: &CommitClock) -> u64 {
        let mut readers = self.readers.lock().unwrap();
        let ts = clock.stable();
        match readers.iter_mut().find(|(t, _)| *t == ts) {
            Some((_, n)) => *n += 1,
            None => readers.push((ts, 1)),
        }
        ts
    }

    /// Drop one registration at `ts`.
    fn deregister(&self, ts: u64) {
        let mut readers = self.readers.lock().unwrap();
        match readers.iter().position(|(t, _)| *t == ts) {
            Some(i) => {
                readers[i].1 -= 1;
                if readers[i].1 == 0 {
                    readers.swap_remove(i);
                }
            }
            None => debug_assert!(false, "deregister({ts}) without a registration"),
        }
    }

    /// Oldest registered snapshot timestamp ([`NO_READERS`] if none).
    fn oldest_locked(readers: &[(u64, usize)]) -> u64 {
        readers.iter().map(|(t, _)| *t).min().unwrap_or(NO_READERS)
    }

    /// Number of live registrations (diagnostics).
    pub fn live_readers(&self) -> usize {
        self.readers.lock().unwrap().iter().map(|(_, n)| n).sum()
    }
}

/// Counters and histograms for the multi-version read path, exported
/// through the server's STATS surface. All updates are relaxed
/// atomics, cheap enough for the commit path (same policy as
/// [`crate::obs`]); the per-install and per-read ones are striped per
/// thread, so they add no shared cache line to a commit or a read.
#[derive(Debug, Default)]
pub struct MvccMetrics {
    /// Chain length observed at each version install.
    pub chain_len: StripedHistogram,
    /// Snapshot age (in commit timestamps: `stable - snapshot_ts`) at
    /// read-only transaction end — how far behind the frontier
    /// snapshots run.
    pub snapshot_age: StripedHistogram,
    installs: StripedCounter,
    snapshot_reads: StripedCounter,
    /// Bumped only by GC passes (chains over their bound), so a plain
    /// shared counter.
    gc_reclaimed: AtomicU64,
}

impl MvccMetrics {
    /// Record `n` versions reclaimed by one GC pass.
    #[inline]
    fn note_reclaimed(&self, n: u64) {
        self.gc_reclaimed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one install that left its chain `len` long.
    #[inline]
    fn note_install(&self, len: usize) {
        self.installs.add(1);
        self.chain_len.record(len as u64);
    }

    /// Record one snapshot read.
    #[inline]
    fn note_read(&self) {
        self.snapshot_reads.add(1);
    }

    /// Point-in-time copy of the counters and histograms.
    pub fn snapshot(&self) -> MvccSnapshot {
        MvccSnapshot {
            installs: self.installs.sum(),
            snapshot_reads: self.snapshot_reads.sum(),
            gc_reclaimed: self.gc_reclaimed.load(Ordering::Relaxed),
            chain_len: self.chain_len.snapshot(),
            snapshot_age: self.snapshot_age.snapshot(),
        }
    }
}

/// A point-in-time copy of [`MvccMetrics`].
#[derive(Debug, Clone)]
pub struct MvccSnapshot {
    /// Versions installed by committed writes.
    pub installs: u64,
    /// Reads served from version chains (including misses).
    pub snapshot_reads: u64,
    /// Versions reclaimed by chain GC.
    pub gc_reclaimed: u64,
    /// Chain-length histogram (sampled at install).
    pub chain_len: HistogramSnapshot,
    /// Snapshot-age histogram (sampled at read-only txn end).
    pub snapshot_age: HistogramSnapshot,
}

/// One multi-version world: a commit clock, its reader registry, and
/// the metrics fed by every chain attached to it.
///
/// Production code uses the process-wide [`MvccDomain::global`] (the
/// boosted collections default to it, and `TxnManager` stamps commits
/// against it); unit tests build private domains so their clocks and
/// floors do not interfere.
#[derive(Debug, Default)]
pub struct MvccDomain {
    /// The domain's commit-timestamp clock.
    pub clock: CommitClock,
    /// The domain's live-reader registry.
    pub readers: ReaderRegistry,
    /// The domain's MVCC observability surface.
    pub metrics: MvccMetrics,
    /// Test hook: when set, `gc_floor` ignores registered readers.
    ignore_readers: AtomicBool,
}

impl MvccDomain {
    /// A fresh, private domain (unit tests; production uses
    /// [`global`](Self::global)).
    pub fn new() -> Self {
        MvccDomain::default()
    }

    /// The process-wide domain shared by every boosted collection and
    /// `TxnManager` that does not opt out.
    pub fn global() -> Arc<MvccDomain> {
        Arc::clone(MvccDomain::global_ref())
    }

    /// The process-wide domain by reference: the commit path uses this
    /// so that stamping a commit does not bump the domain's refcount (a
    /// line every committing thread would write).
    pub(crate) fn global_ref() -> &'static Arc<MvccDomain> {
        static GLOBAL: OnceLock<Arc<MvccDomain>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(MvccDomain::new()))
    }

    /// Begin a snapshot read: register at the stable frontier and
    /// return a guard that deregisters (and records the snapshot's
    /// final age) on drop.
    pub fn begin_snapshot(self: &Arc<Self>) -> SnapshotGuard {
        let ts = self.readers.register(&self.clock);
        SnapshotGuard {
            domain: Arc::clone(self),
            ts,
        }
    }

    /// The GC floor: versions strictly older than the newest version
    /// at-or-below this timestamp are reclaimable. Reads the clock
    /// under the registry mutex so a concurrent registration can never
    /// end up *below* the floor this returns (mutex ordering makes the
    /// later clock read see at least this stable value).
    pub fn gc_floor(&self) -> u64 {
        let readers = self.readers.readers.lock().unwrap();
        let stable = self.clock.stable();
        if self.ignore_readers.load(Ordering::Relaxed) {
            return stable;
        }
        ReaderRegistry::oldest_locked(&readers).min(stable)
    }

    /// Make `gc_floor` ignore the reader registry, so the det sweep
    /// can prove it notices snapshot readers losing pinned versions
    /// (the mutation check in `tests/det_mvcc.rs`).
    #[cfg(feature = "deterministic")]
    #[doc(hidden)]
    pub fn ignore_reader_floor_for_test(&self, ignore: bool) {
        self.ignore_readers.store(ignore, Ordering::Relaxed);
    }
}

/// RAII registration of one snapshot reader. Holds the GC floor at-or-
/// below `ts()` for its lifetime; records the snapshot's age into the
/// domain metrics on drop.
#[derive(Debug)]
pub struct SnapshotGuard {
    domain: Arc<MvccDomain>,
    ts: u64,
}

impl SnapshotGuard {
    /// The snapshot timestamp this guard pins.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        self.domain.readers.deregister(self.ts);
        let age = self.domain.clock.stable().saturating_sub(self.ts);
        self.domain.metrics.snapshot_age.record(age);
    }
}

/// One key's committed versions: `(commit ts, value)` sorted by
/// timestamp, `None` a tombstone (the key was absent as of that
/// commit). Shared by [`VersionChain`] (behind its own mutex) and
/// [`VersionStore`] (inline in a shard's map).
type Versions<V> = Vec<(u64, Option<V>)>;

/// Sort-insert the version committed at `ts` (installs may arrive out
/// of timestamp order: commits race between `reserve` and `publish`);
/// a same-timestamp entry is overwritten (one transaction writing a
/// key twice installs last-write-wins). Then, only if the chain is now
/// over `bound`, compute the GC floor and prune.
fn install_version<V>(
    domain: &MvccDomain,
    bound: usize,
    versions: &mut Versions<V>,
    ts: u64,
    value: Option<V>,
) {
    let i = versions.partition_point(|&(t, _)| t < ts);
    if versions.get(i).is_some_and(|&(t, _)| t == ts) {
        versions[i].1 = value;
    } else {
        versions.insert(i, (ts, value));
    }
    domain.metrics.note_install(versions.len());
    if versions.len() > bound {
        let reclaimed = prune_versions(versions, domain.gc_floor());
        if reclaimed > 0 {
            domain.metrics.note_reclaimed(reclaimed);
        }
    }
}

/// Drop the versions no snapshot at-or-above `floor` can read; returns
/// how many. A version is reclaimable iff a newer version ≤ `floor`
/// exists — plus one special case: a tombstone that *is* the newest
/// version ≤ `floor`, with nothing older left, reads identically to an
/// empty prefix and is dropped too. The `Vec` keeps its capacity, so
/// steady-state installs stay allocation-free.
fn prune_versions<V>(versions: &mut Versions<V>, floor: u64) -> u64 {
    // Entries [0, at_or_below) have ts ≤ floor; the newest of them
    // (index at_or_below - 1) must survive unless it is a leading
    // tombstone.
    let at_or_below = versions.partition_point(|&(t, _)| t <= floor);
    let mut cut = at_or_below.saturating_sub(1);
    if cut + 1 == at_or_below && versions.get(cut).is_some_and(|(_, v)| v.is_none()) {
        cut = at_or_below;
    }
    versions.drain(..cut);
    cut as u64
}

/// The newest value at-or-below snapshot `ts`.
fn read_version<V: Clone>(versions: &Versions<V>, ts: u64) -> Option<V> {
    let i = versions.partition_point(|&(t, _)| t <= ts);
    if i == 0 {
        return None;
    }
    versions[i - 1].1.clone()
}

/// A bounded chain of committed versions of one logical value, behind
/// its own mutex — the standalone form of one [`VersionStore`] entry.
///
/// The chain is the unit both of snapshot reads (newest entry ≤
/// snapshot ts) and of GC.
///
/// Determinism note: every public method yields to the deterministic
/// scheduler *unconditionally* — `install` yields its install and GC
/// points whether or not it prunes, `gc` yields before deciding. Prune
/// amounts depend on cross-test global clock state, so making the
/// yields structural (never value-dependent) is what keeps recorded
/// schedules replayable.
#[derive(Debug)]
pub struct VersionChain<V> {
    domain: Arc<MvccDomain>,
    bound: usize,
    versions: Mutex<Versions<V>>,
}

impl<V: Clone> VersionChain<V> {
    /// An empty chain pruned toward `bound` retained versions.
    pub fn new(domain: Arc<MvccDomain>, bound: usize) -> Self {
        assert!(bound >= 1, "a chain must retain at least one version");
        VersionChain {
            domain,
            bound,
            versions: Mutex::new(Vec::new()),
        }
    }

    /// Install the version committed at `ts` (`None` = tombstone); if
    /// that takes the chain past its bound, prune it at the current GC
    /// floor. See `install_version` for ordering and overwrite rules.
    pub fn install(&self, ts: u64, value: Option<V>) {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::VersionInstall);
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::VersionGc);
        let mut versions = self.versions.lock().unwrap();
        install_version(&self.domain, self.bound, &mut versions, ts, value);
    }

    /// Prune versions no snapshot at-or-above `floor` can read,
    /// reporting the reclaimed count (see `prune_versions`). Pruning
    /// only triggers once the chain exceeds its bound.
    pub fn gc(&self, floor: u64, on_reclaim: &mut dyn FnMut(u64)) {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::VersionGc);
        let mut versions = self.versions.lock().unwrap();
        if versions.len() <= self.bound {
            return;
        }
        let cut = prune_versions(&mut versions, floor);
        if cut > 0 {
            on_reclaim(cut);
        }
    }

    /// The newest value at-or-below snapshot `ts` (`None`: the key was
    /// absent — or tombstoned — as of `ts`).
    pub fn read_at(&self, ts: u64) -> Option<V> {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::SnapshotRead);
        self.domain.metrics.note_read();
        read_version(&self.versions.lock().unwrap(), ts)
    }

    /// Current number of retained versions.
    pub fn len(&self) -> usize {
        self.versions.lock().unwrap().len()
    }

    /// Whether the chain holds no versions yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The counter's version chain: a folded base plus per-commit deltas.
///
/// A counter version cannot be captured as a full value at install
/// time — concurrent writers hold the *shared* counter lock, so the
/// base object's sum includes their uncommitted increments. Deltas
/// commute, so each commit installs only its own delta; a snapshot
/// read sums `base + deltas ≤ ts`, and GC folds reclaimable deltas
/// into the base instead of dropping state.
#[derive(Debug)]
pub struct DeltaChain {
    domain: Arc<MvccDomain>,
    bound: usize,
    inner: Mutex<DeltaInner>,
}

#[derive(Debug, Default)]
struct DeltaInner {
    /// Every delta with ts ≤ `base_ts` has been folded into
    /// `base_value`. Invariant: `base_ts ≤` every registered reader's
    /// snapshot (folding only crosses the GC floor).
    base_ts: u64,
    base_value: i64,
    /// `(commit ts, delta)` sorted by timestamp; duplicates allowed
    /// (same-commit deltas just sum).
    deltas: Vec<(u64, i64)>,
}

impl DeltaInner {
    /// Fold deltas at-or-below `floor` into the base; returns how many.
    fn fold(&mut self, floor: u64) -> u64 {
        let cut = self.deltas.partition_point(|&(t, _)| t <= floor);
        if cut > 0 {
            self.base_ts = self.deltas[cut - 1].0;
            self.base_value += self.deltas[..cut].iter().map(|&(_, d)| d).sum::<i64>();
            self.deltas.drain(..cut);
        }
        cut as u64
    }
}

impl DeltaChain {
    /// An empty delta chain (counter value 0 at every timestamp).
    pub fn new(domain: Arc<MvccDomain>, bound: usize) -> Self {
        assert!(bound >= 1, "a delta chain must retain at least the base");
        DeltaChain {
            domain,
            bound,
            inner: Mutex::new(DeltaInner::default()),
        }
    }

    /// Install the delta committed at `ts`; if that fills the chain to
    /// its bound, fold at the current GC floor.
    pub fn install(&self, ts: u64, delta: i64) {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::VersionInstall);
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::VersionGc);
        self.install_at(ts, delta);
    }

    /// The install itself, with no yield point (the commit path takes
    /// its yields before its timestamp exists; see `Txn::do_commit`).
    fn install_at(&self, ts: u64, delta: i64) {
        let mut inner = self.inner.lock().unwrap();
        debug_assert!(ts > inner.base_ts, "install below the folded base");
        let i = inner.deltas.partition_point(|&(t, _)| t <= ts);
        inner.deltas.insert(i, (ts, delta));
        self.domain.metrics.note_install(inner.deltas.len() + 1);
        if inner.deltas.len() >= self.bound {
            let reclaimed = inner.fold(self.domain.gc_floor());
            if reclaimed > 0 {
                self.domain.metrics.note_reclaimed(reclaimed);
            }
        }
    }

    /// Install using the in-progress commit's timestamp (the shape the
    /// version-log closures call; see `with_commit_ts`).
    pub fn install_current(&self, delta: i64) {
        let ts = current_commit_ts();
        if ts == 0 {
            debug_assert!(false, "version install outside a commit");
            return;
        }
        self.install_at(ts, delta);
    }

    /// Fold deltas at-or-below `floor` into the base. Unlike
    /// [`VersionChain::gc`] nothing is lost — reclaiming a delta just
    /// moves it into `base_value` — but the floor rule is identical:
    /// a registered reader's snapshot never sinks below `base_ts`.
    pub fn gc(&self, floor: u64, on_reclaim: &mut dyn FnMut(u64)) {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::VersionGc);
        let mut inner = self.inner.lock().unwrap();
        if inner.deltas.len() < self.bound {
            return;
        }
        let cut = inner.fold(floor);
        if cut > 0 {
            on_reclaim(cut);
        }
    }

    /// The counter value at snapshot `ts`: base plus every delta ≤
    /// `ts`. Callers must hold a snapshot at-or-above the GC floor
    /// (any [`SnapshotGuard`] qualifies), so `base_ts ≤ ts` holds.
    pub fn read_at(&self, ts: u64) -> i64 {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::SnapshotRead);
        self.domain.metrics.note_read();
        let inner = self.inner.lock().unwrap();
        debug_assert!(inner.base_ts <= ts, "snapshot read below the folded base");
        inner.base_value
            + inner
                .deltas
                .iter()
                .take_while(|&&(t, _)| t <= ts)
                .map(|&(_, d)| d)
                .sum::<i64>()
    }
}

/// One lock-striped bucket of a [`VersionStore`]: each key's chain
/// lives inline in the map, on a padded line of its own.
type Shard<K, V> = CachePadded<Mutex<HashMap<K, Versions<V>>>>;

/// A sharded map from key to its version chain — the per-collection
/// version side-table behind the boosted map and sets.
///
/// Chains are created lazily on first install. A key with no chain was
/// never written, hence absent at every snapshot; once created, a
/// chain is never removed (its GC keeps the newest floor-visible
/// version, so it also never reads as empty).
#[derive(Debug)]
pub struct VersionStore<K, V> {
    shards: Box<[Shard<K, V>]>,
    hasher: RandomState,
    domain: Arc<MvccDomain>,
    bound: usize,
}

impl<K, V> VersionStore<K, V>
where
    K: std::hash::Hash + Eq + Clone,
    V: Clone,
{
    /// An empty store whose chains prune toward `bound` versions.
    pub fn new(domain: Arc<MvccDomain>, bound: usize) -> Self {
        assert!(bound >= 1, "a chain must retain at least one version");
        VersionStore {
            shards: padded(STORE_SHARDS, || Mutex::new(HashMap::new())),
            hasher: RandomState::new(),
            domain,
            bound,
        }
    }

    /// An empty store on the global domain with the default bound.
    pub fn new_global() -> Self {
        VersionStore::new(MvccDomain::global(), DEFAULT_CHAIN_BOUND)
    }

    /// The domain this store stamps and reads against.
    pub fn domain(&self) -> &Arc<MvccDomain> {
        &self.domain
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Versions<V>>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h & (STORE_SHARDS - 1)]
    }

    /// Install `value` (`None` = tombstone) for `key` at the
    /// in-progress commit's timestamp. This is the version-log closure
    /// entry point (see `with_commit_ts`): one shard critical section,
    /// no yield point (the commit took this install's yields before its
    /// timestamp was reserved). The key's chain is created on first
    /// install.
    pub fn install(&self, key: K, value: Option<V>) {
        let ts = current_commit_ts();
        if ts == 0 {
            debug_assert!(false, "version install outside a commit");
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        // Probe before insert: the steady state is an existing chain,
        // which must not pay the entry API's key move or hash twice.
        if let Some(versions) = shard.get_mut(&key) {
            install_version(&self.domain, self.bound, versions, ts, value);
        } else {
            let mut versions = Vec::new();
            install_version(&self.domain, self.bound, &mut versions, ts, value);
            shard.insert(key, versions);
        }
    }

    /// The newest value for `key` at-or-below snapshot `ts`. Yields
    /// (and counts) exactly one snapshot read whether or not the key
    /// has a chain, so schedules stay replayable.
    pub fn read_at(&self, key: &K, ts: u64) -> Option<V> {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::SnapshotRead);
        self.domain.metrics.note_read();
        let shard = self.shard(key).lock().unwrap();
        shard
            .get(key)
            .and_then(|versions| read_version(versions, ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Arc<MvccDomain> {
        Arc::new(MvccDomain::new())
    }

    #[test]
    fn clock_starts_before_every_commit() {
        let clock = CommitClock::default();
        assert_eq!(clock.stable(), 0);
        let ts = clock.reserve();
        assert_eq!(ts, 1);
        assert_eq!(clock.stable(), 0, "reserved but unpublished");
        clock.publish(ts);
        assert_eq!(clock.stable(), 1);
    }

    #[test]
    fn stable_waits_for_the_oldest_pending_commit() {
        let clock = CommitClock::default();
        let a = clock.reserve();
        let b = clock.reserve();
        let c = clock.reserve();
        clock.publish(b);
        clock.publish(c);
        // a (the oldest) is still installing: nothing newer is stable.
        assert_eq!(clock.stable(), a - 1);
        clock.publish(a);
        assert_eq!(clock.stable(), c);
    }

    #[test]
    fn snapshot_guards_pin_and_release_the_floor() {
        let d = domain();
        let t1 = d.clock.reserve();
        d.clock.publish(t1);
        let old = d.begin_snapshot();
        assert_eq!(old.ts(), t1);
        for _ in 0..3 {
            let ts = d.clock.reserve();
            d.clock.publish(ts);
        }
        assert_eq!(d.gc_floor(), t1, "oldest reader pins the floor");
        let young = d.begin_snapshot();
        assert_eq!(d.gc_floor(), t1, "still pinned by the older reader");
        drop(old);
        assert_eq!(d.gc_floor(), young.ts());
        drop(young);
        assert_eq!(d.gc_floor(), d.clock.stable(), "no readers: floor = stable");
        assert_eq!(d.readers.live_readers(), 0);
    }

    #[test]
    fn chain_reads_the_newest_version_at_or_below_the_snapshot() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 8);
        for (ts, v) in [(2u64, 20i64), (5, 50), (9, 90)] {
            chain.install(ts, Some(v));
        }
        assert_eq!(chain.read_at(1), None, "before the first version");
        assert_eq!(chain.read_at(2), Some(20));
        assert_eq!(chain.read_at(4), Some(20));
        assert_eq!(chain.read_at(5), Some(50));
        assert_eq!(chain.read_at(100), Some(90));
        chain.install(11, None); // tombstone: removed
        assert_eq!(chain.read_at(10), Some(90));
        assert_eq!(chain.read_at(11), None);
    }

    #[test]
    fn same_timestamp_install_is_last_write_wins() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 8);
        chain.install(3, Some(1));
        chain.install(3, Some(2));
        assert_eq!(chain.len(), 1, "one version per commit timestamp");
        assert_eq!(chain.read_at(3), Some(2));
    }

    #[test]
    fn out_of_order_installs_sort_by_timestamp() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 8);
        chain.install(7, Some(70));
        chain.install(3, Some(30));
        chain.install(5, Some(50));
        assert_eq!(chain.read_at(4), Some(30));
        assert_eq!(chain.read_at(6), Some(50));
        assert_eq!(chain.read_at(8), Some(70));
    }

    #[test]
    fn gc_respects_the_bound_and_the_floor() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 2);
        // No readers: the floor tracks stable. Keep stable at 0 so
        // nothing can be pruned despite the bound.
        for ts in 1..=5u64 {
            chain.install(ts, Some(ts as i64));
        }
        assert_eq!(chain.len(), 5, "floor 0 pins every version");
        // Advance stable past ts 4: versions 1..3 become reclaimable
        // (4 is the newest ≤ floor, 5 is above it).
        for _ in 0..4 {
            let ts = d.clock.reserve();
            d.clock.publish(ts);
        }
        assert_eq!(d.clock.stable(), 4);
        chain.gc(d.gc_floor(), &mut |_| {});
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.read_at(4), Some(4), "newest ≤ floor survives");
        assert_eq!(chain.read_at(5), Some(5));
    }

    #[test]
    fn gc_never_drops_a_version_a_registered_reader_can_see() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 1);
        let t1 = d.clock.reserve();
        chain.install(t1, Some(10));
        d.clock.publish(t1);
        let reader = d.begin_snapshot(); // pins t1
        for v in [20i64, 30, 40] {
            let ts = d.clock.reserve();
            chain.install(ts, Some(v));
            d.clock.publish(ts);
        }
        // Bound is 1 but the reader pins t1: the t1 version survives.
        assert_eq!(chain.read_at(reader.ts()), Some(10));
        drop(reader);
        let mut reclaimed = 0;
        chain.gc(d.gc_floor(), &mut |n| reclaimed += n);
        assert_eq!(reclaimed, 3);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn gc_drops_a_leading_tombstone() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 1);
        let t1 = d.clock.reserve();
        chain.install(t1, None);
        d.clock.publish(t1);
        let t2 = d.clock.reserve();
        chain.install(t2, Some(5));
        d.clock.publish(t2);
        // Floor = stable = t2; the newest ≤ floor is (t2, Some) so the
        // tombstone below it goes — and had the chain been
        // [tombstone] alone, the tombstone itself would go.
        chain.gc(d.gc_floor(), &mut |_| {});
        assert_eq!(chain.len(), 1);
        let chain2 = VersionChain::<i64>::new(Arc::clone(&d), 1);
        chain2.install(t1, None);
        chain2.install(t2, None);
        chain2.gc(d.gc_floor(), &mut |_| {});
        assert_eq!(chain2.len(), 0, "all-tombstone prefix reads as absent");
        assert_eq!(chain2.read_at(t2), None);
    }

    #[test]
    fn delta_chain_sums_deltas_at_or_below_the_snapshot() {
        let d = domain();
        let deltas = DeltaChain::new(Arc::clone(&d), 8);
        deltas.install(2, 10);
        deltas.install(5, -3);
        deltas.install(9, 1);
        assert_eq!(deltas.read_at(1), 0);
        assert_eq!(deltas.read_at(2), 10);
        assert_eq!(deltas.read_at(5), 7);
        assert_eq!(deltas.read_at(100), 8);
    }

    #[test]
    fn delta_gc_folds_into_the_base_without_changing_reads() {
        let d = domain();
        let deltas = DeltaChain::new(Arc::clone(&d), 2);
        for ts in 1..=6u64 {
            let t = d.clock.reserve();
            assert_eq!(t, ts);
            deltas.install(t, 1);
            d.clock.publish(t);
        }
        // Installs already folded eagerly as stable advanced past the
        // bound; a final explicit pass folds the rest.
        let mut reclaimed = 0;
        deltas.gc(d.gc_floor(), &mut |n| reclaimed += n);
        let total = d.metrics.snapshot().gc_reclaimed + reclaimed;
        assert!(total >= 4, "bound 2 forces folding, got {total}");
        assert_eq!(deltas.read_at(d.clock.stable()), 6, "folding loses nothing");
    }

    #[test]
    fn store_reads_route_through_per_key_chains() {
        let d = domain();
        let store: VersionStore<u64, i64> = VersionStore::new(Arc::clone(&d), 8);
        let ts = d.clock.reserve();
        with_commit_ts(ts, || {
            store.install(7, Some(70));
            store.install(8, Some(80));
        });
        d.clock.publish(ts);
        let s = d.clock.stable();
        assert_eq!(store.read_at(&7, s), Some(70));
        assert_eq!(store.read_at(&8, s), Some(80));
        assert_eq!(store.read_at(&9, s), None, "never-written key");
        assert_eq!(store.read_at(&7, ts - 1), None, "before the commit");
    }

    #[test]
    fn metrics_count_installs_reads_and_reclaims() {
        let d = domain();
        let chain = VersionChain::new(Arc::clone(&d), 1);
        for _ in 0..4 {
            let ts = d.clock.reserve();
            chain.install(ts, Some(1));
            d.clock.publish(ts);
        }
        chain.gc(d.gc_floor(), &mut |n| d.metrics.note_reclaimed(n));
        let _ = chain.read_at(d.clock.stable());
        drop(d.begin_snapshot());
        let snap = d.metrics.snapshot();
        assert_eq!(snap.installs, 4);
        assert!(snap.snapshot_reads >= 1);
        assert!(snap.gc_reclaimed >= 3);
        assert!(snap.chain_len.count() >= 4);
        assert_eq!(snap.snapshot_age.count(), 1);
    }

    #[test]
    fn concurrent_commits_and_snapshots_agree() {
        // Writers transfer between two keys; a snapshot must never see
        // the sum mid-transfer. The writer mutex stands in for the
        // abstract locks a real boosted transaction holds across its
        // read-modify-write.
        let d = domain();
        let store: Arc<VersionStore<u64, i64>> = Arc::new(VersionStore::new(Arc::clone(&d), 4));
        let seed = d.clock.reserve();
        with_commit_ts(seed, || {
            store.install(0, Some(100));
            store.install(1, Some(100));
        });
        d.clock.publish(seed);
        let write_lock = Arc::new(Mutex::new(()));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let write_lock = Arc::clone(&write_lock);
                std::thread::spawn(move || {
                    let mut moved = 1i64;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = write_lock.lock().unwrap();
                        let ts = d.clock.reserve();
                        // A "transfer": both installs carry one ts, so
                        // they are atomic to any snapshot.
                        let s = d.clock.stable();
                        let a = store.read_at(&0, s).unwrap();
                        let b = store.read_at(&1, s).unwrap();
                        with_commit_ts(ts, || {
                            store.install(0, Some(a - moved));
                            store.install(1, Some(b + moved));
                        });
                        d.clock.publish(ts);
                        drop(guard);
                        moved = -moved;
                    }
                })
            })
            .collect();
        for _ in 0..500 {
            let snap = d.begin_snapshot();
            let a = store.read_at(&0, snap.ts()).unwrap_or(0);
            let b = store.read_at(&1, snap.ts()).unwrap_or(0);
            assert_eq!(a + b, 200, "torn snapshot at ts {}", snap.ts());
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
