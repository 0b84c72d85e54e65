//! `KeyLockMap` — the paper's `LockKey` (Figure 3): one abstract lock
//! per key.

use super::abstract_lock::{AbstractLock, AcquireOutcome};
use crate::obs::{ContentionRegistry, LockLabel, LockSiteStats};
use crate::pad::{padded, CachePadded};
use crate::{TxResult, Txn};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const DEFAULT_SHARDS: usize = 64;

/// Process-wide table-id counter. Every `KeyLockMap` gets a unique id,
/// which namespaces its keys' tags in the per-transaction lock cache
/// (see [`super::cache`]) — one transaction may lock keys in many
/// tables without cross-table tag collisions.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// One shard of the table, padded so that neighbouring shards never
/// share a cache line: two transactions on keys of different shards
/// then write no common line on the lock path.
type Shard<K, S> = CachePadded<Mutex<HashMap<K, Arc<AbstractLock>, S>>>;

/// A sharded table mapping keys to [`AbstractLock`]s.
///
/// This is the key-based conflict discipline of the paper's
/// `SkipListKey` example: before a transaction calls `add(x)`,
/// `remove(x)` or `contains(x)` on a boosted set, it acquires the lock
/// for key `x`. Calls on distinct keys commute and therefore proceed in
/// parallel; calls on the same key serialize. (Key-based locking is
/// slightly conservative — two `contains(x)` calls commute but still
/// conflict here — which the paper notes "provides enough concurrency
/// for practical purposes".)
///
/// Like the paper's `ConcurrentHashMap`-backed `LockKey`, lock entries
/// are created on first use; the table grows with the key universe
/// actually touched. The one exception to "never removed": when an
/// acquisition *times out* and nobody else owns or waits on the entry
/// it registered, [`KeyLockMap::lock`] unregisters that entry again,
/// so a storm of timed-out probes against vanished owners cannot leak
/// table entries (see `lock` for the exact safety argument).
///
/// # Hot path
///
/// [`KeyLockMap::lock`] hashes the key **once** (the hash picks the
/// stripe via a power-of-two mask and tags the per-transaction lock
/// cache), answers *re*-acquisitions entirely from the transaction's
/// `LockCache` (`locks/cache.rs`) — no shard mutex, no `HashMap` probe, no
/// key clone — and on the miss path probes the shard with
/// get-before-insert so existing keys are never cloned. A first
/// acquisition costs exactly one `Arc` clone — minted under the shard
/// mutex and moved into the transaction's held-lock list — and one drop
/// at release.
#[derive(Debug)]
pub struct KeyLockMap<K, S = RandomState> {
    shards: Box<[Shard<K, S>]>,
    /// Table-level key hash: picks the stripe and doubles as the first
    /// half of the lock-cache tag.
    hasher: S,
    /// Second, independently seeded hash for the lock-cache tag; two
    /// keys alias in the cache only if both hashes collide (~2⁻¹²⁸).
    cache_hasher: RandomState,
    /// `shards.len() - 1`; the shard count is a power of two so stripe
    /// selection is a mask, not a division.
    mask: usize,
    /// Unique id namespacing this table's cache tags.
    table_id: u64,
    /// One contention-attribution site per shard ("stripe"), present
    /// only for tables built with a `labeled` constructor. Every lock
    /// created in a shard shares that shard's site, so waits and
    /// timeouts are charged per stripe without a per-key allocation.
    sites: Option<Box<[Arc<LockSiteStats>]>>,
}

impl<K: Hash + Eq + Clone> Default for KeyLockMap<K> {
    fn default() -> Self {
        KeyLockMap::new()
    }
}

impl<K: Hash + Eq + Clone> KeyLockMap<K> {
    /// A lock table with the default shard count.
    pub fn new() -> Self {
        KeyLockMap::with_shards(DEFAULT_SHARDS)
    }

    /// A lock table with `shards` internal partitions (rounded up to
    /// the next power of two, and to at least 1, so stripe selection
    /// stays a bit mask). More shards reduce contention on the table
    /// itself.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = padded(n, || Mutex::new(HashMap::with_hasher(RandomState::new())));
        KeyLockMap {
            shards,
            hasher: RandomState::new(),
            cache_hasher: RandomState::new(),
            mask: n - 1,
            table_id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            sites: None,
        }
    }

    /// Like [`KeyLockMap::new`], but every lock wait and timeout is
    /// charged to `object` (per key stripe) in `registry`.
    pub fn labeled(object: &'static str, registry: &ContentionRegistry) -> Self {
        KeyLockMap::with_shards_labeled(DEFAULT_SHARDS, object, registry)
    }

    /// Like [`KeyLockMap::with_shards`], with per-stripe contention
    /// attribution; see [`KeyLockMap::labeled`].
    pub fn with_shards_labeled(
        shards: usize,
        object: &'static str,
        registry: &ContentionRegistry,
    ) -> Self {
        let mut map = KeyLockMap::with_shards(shards);
        let sites = (0..map.shards.len())
            .map(|i| registry.register(LockLabel::stripe(object, i)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        map.sites = Some(sites);
        map
    }
}

impl<K: Hash + Eq + Clone, S: BuildHasher> KeyLockMap<K, S> {
    /// The table-level hash of `key` — computed once per acquisition
    /// and threaded through stripe selection, the cache tag, and
    /// timeout cleanup.
    fn key_hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    fn stripe_of_hash(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    /// Fetch (or create) the lock entry for `key`, whose table-level
    /// hash is `h`. Existing entries are found with a plain probe — no
    /// key clone; only a first-touch insert clones the key.
    fn lock_for_hash(&self, h: u64, key: &K) -> Arc<AbstractLock> {
        let idx = self.stripe_of_hash(h);
        let mut shard = self.shards[idx].lock();
        if let Some(existing) = shard.get(key) {
            return Arc::clone(existing);
        }
        let lock = Arc::new(match &self.sites {
            Some(sites) => AbstractLock::with_site(Arc::clone(&sites[idx])),
            None => AbstractLock::new(),
        });
        shard.insert(key.clone(), Arc::clone(&lock));
        lock
    }

    /// The stripe (shard index) that locks for `key` live in — and the
    /// stripe their contention is attributed to for labeled tables.
    pub fn stripe_of(&self, key: &K) -> usize {
        self.stripe_of_hash(self.key_hash(key))
    }

    /// Acquire the abstract lock for `key` on behalf of `txn`, blocking
    /// (up to the transaction's lock timeout) while another transaction
    /// holds it. The lock is held until `txn` commits or aborts.
    ///
    /// Reacquisition — `txn` already holds `key`'s lock — is answered
    /// from the transaction's lock-handle cache without touching the
    /// shared table (see `locks/cache.rs` for the soundness argument).
    ///
    /// A timed-out acquisition registers nothing with `txn`, and also
    /// un-registers the per-key table entry it created *if it can prove
    /// nobody else reaches that entry*: under the shard mutex, the
    /// entry is removed only when it has no owner and its `Arc` count
    /// is exactly two (the table's reference plus this call's local
    /// handle). New handles are only minted by `lock_for_hash` under
    /// the same shard mutex, and every owner and every blocked waiter
    /// holds a clone (an owner's is the handle it registered with its
    /// transaction), so the count-of-two check guarantees removal can
    /// never strand a transaction on a stale lock — the failure mode
    /// where two `Arc`s exist for one key and mutual exclusion silently
    /// breaks.
    pub fn lock(&self, txn: &Txn, key: &K) -> TxResult<()> {
        // Reject read-only transactions before touching the table: no
        // per-key entry should be created (and then cleaned up) for an
        // acquisition that is forbidden by construction.
        if txn.is_read_only() {
            return Err(crate::Abort::read_only_violation());
        }
        let h1 = self.key_hash(key);
        let h2 = self.cache_hasher.hash_one(key);
        if txn.lock_cache_hit(self.table_id, h1, h2) {
            return Ok(());
        }
        let lock = self.lock_for_hash(h1, key);
        match lock.try_acquire_raw(txn.id(), txn.lock_timeout()) {
            AcquireOutcome::Acquired => {
                debug_assert_eq!(lock.owner(), Some(txn.id()));
                txn.lock_cache_insert(self.table_id, h1, h2);
                // The handle minted under the shard mutex becomes the
                // held-lock entry: no further refcount traffic.
                txn.register_held_lock(lock);
                Ok(())
            }
            AcquireOutcome::AlreadyHeld => {
                txn.lock_cache_insert(self.table_id, h1, h2);
                Ok(())
            }
            AcquireOutcome::TimedOut => {
                self.cleanup_after_timeout(h1, key, &lock);
                Err(crate::Abort::lock_timeout())
            }
        }
    }

    /// Remove `key`'s table entry after a timed-out acquisition, iff
    /// this call's handle and the table's are provably the only two.
    /// `h` is the key's already-computed table-level hash.
    fn cleanup_after_timeout(&self, h: u64, key: &K, lock: &Arc<AbstractLock>) {
        // Let a deterministic schedule interleave the owner's release
        // between the timeout decision and this cleanup, so the
        // removal path is actually explored by the harness.
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::LockCleanup);
        let idx = self.stripe_of_hash(h);
        let mut shard = self.shards[idx].lock();
        if let Some(entry) = shard.get(key) {
            if Arc::ptr_eq(entry, lock) && lock.owner().is_none() && Arc::strong_count(lock) == 2 {
                shard.remove(key);
            }
        }
    }

    /// Whether any transaction currently holds the lock for `key`
    /// (diagnostics/tests; inherently racy). A pure read: unlike
    /// [`KeyLockMap::lock`], probing a never-locked key does not create
    /// a table entry.
    pub fn is_locked(&self, key: &K) -> bool {
        let idx = self.stripe_of(key);
        let shard = self.shards[idx].lock();
        shard.get(key).is_some_and(|l| l.owner().is_some())
    }

    /// Number of distinct keys that have ever been locked
    /// (diagnostics/tests).
    pub fn table_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Test-only mutation hook: plant an entry for `key` in `txn`'s
    /// lock cache **without acquiring the lock** — the bug that a
    /// broken cache-invalidation (or tag-collision) scheme would
    /// produce. The deterministic-harness mutation test uses this to
    /// confirm a seeded sweep actually catches the resulting
    /// mutual-exclusion violation. Never call outside tests.
    #[cfg(feature = "deterministic")]
    #[doc(hidden)]
    pub fn poison_txn_cache_for_test(&self, txn: &Txn, key: &K) {
        let h1 = self.key_hash(key);
        let h2 = self.cache_hasher.hash_one(key);
        txn.poison_lock_cache_for_test(self.table_id, h1, h2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abort, TxnConfig, TxnManager};
    use std::time::Duration;

    fn manager(timeout_ms: u64) -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
            ..TxnConfig::default()
        })
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        let b = tm.begin();
        map.lock(&a, &2).unwrap();
        map.lock(&b, &4).unwrap(); // must not block: add(2) ⇔ add(4)
        assert!(map.is_locked(&2) && map.is_locked(&4));
        tm.commit(a);
        tm.commit(b);
        assert!(!map.is_locked(&2) && !map.is_locked(&4));
    }

    #[test]
    fn same_key_conflicts_until_commit() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &7).unwrap();
        let b = tm.begin();
        assert_eq!(map.lock(&b, &7).unwrap_err(), Abort::lock_timeout());
        tm.commit(a);
        map.lock(&b, &7).unwrap();
        tm.commit(b);
    }

    #[test]
    fn reacquiring_same_key_is_reentrant() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &1).unwrap();
        map.lock(&a, &1).unwrap();
        assert_eq!(a.held_lock_count(), 1);
        tm.commit(a);
    }

    #[test]
    fn reacquisition_is_served_by_the_txn_cache() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &1).unwrap();
        assert_eq!(a.lock_cache_hits(), 0);
        map.lock(&a, &1).unwrap();
        map.lock(&a, &1).unwrap();
        assert_eq!(a.lock_cache_hits(), 2, "reacquires must hit the cache");
        assert_eq!(a.held_lock_count(), 1);
        tm.commit(a);
        assert!(!map.is_locked(&1));
    }

    #[test]
    fn cache_is_invalidated_across_transactions() {
        // Same thread, new transaction: the fresh txn's empty cache
        // must not claim the old txn's (released) locks.
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &9).unwrap();
        tm.commit(a);
        let b = tm.begin();
        map.lock(&b, &9).unwrap();
        assert_eq!(b.lock_cache_hits(), 0, "fresh txn must take the slow path");
        assert_eq!(b.held_lock_count(), 1);
        tm.commit(b);
    }

    #[test]
    fn a_held_lock_costs_one_refcount() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let count = |k: i64| {
            let h = map.key_hash(&k);
            let shard = map.shards[map.stripe_of_hash(h)].lock();
            Arc::strong_count(shard.get(&k).unwrap())
        };
        let a = tm.begin();
        map.lock(&a, &5).unwrap();
        // The table's entry plus the transaction's held handle; the
        // lock cache holds a tag, not a handle.
        assert_eq!(count(5), 2);
        map.lock(&a, &5).unwrap();
        assert_eq!(count(5), 2, "a cache hit mints no handle");
        tm.commit(a);
        assert_eq!(count(5), 1, "release drops the held handle");
    }

    #[test]
    fn lock_entries_are_reused_not_duplicated() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        for _ in 0..3 {
            let t = tm.begin();
            map.lock(&t, &42).unwrap();
            tm.commit(t);
        }
        assert_eq!(map.table_len(), 1);
    }

    #[test]
    fn works_with_string_keys() {
        let tm = manager(5);
        let map = KeyLockMap::<String>::new();
        let t = tm.begin();
        map.lock(&t, &"alpha".to_string()).unwrap();
        map.lock(&t, &"beta".to_string()).unwrap();
        assert_eq!(t.held_lock_count(), 2);
        tm.commit(t);
    }

    #[test]
    fn single_shard_table_still_correct() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::with_shards(1);
        assert_eq!(map.shards.len(), 1, "1 is already a power of two");
        let a = tm.begin();
        let b = tm.begin();
        map.lock(&a, &1).unwrap();
        map.lock(&b, &2).unwrap();
        tm.commit(a);
        tm.commit(b);
        assert_eq!(map.table_len(), 2);
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        let map = KeyLockMap::<i64>::with_shards(48);
        assert_eq!(map.shards.len(), 64);
        assert_eq!(map.mask, 63);
        // Stripe selection must agree with the mask for every key.
        for k in 0..1000i64 {
            assert!(map.stripe_of(&k) < 64);
            assert_eq!(map.stripe_of(&k), map.stripe_of_hash(map.key_hash(&k)));
        }
    }

    #[test]
    fn labeled_table_charges_waits_and_timeouts_to_the_key_stripe() {
        let tm = manager(5);
        let reg = ContentionRegistry::new();
        let map = KeyLockMap::<i64>::labeled("set", &reg);

        let a = tm.begin();
        map.lock(&a, &7).unwrap();
        let b = tm.begin();
        assert_eq!(map.lock(&b, &7).unwrap_err(), Abort::lock_timeout());
        tm.commit(a);
        tm.commit(b);

        let snap = reg.snapshot();
        let stripe = map.stripe_of(&7);
        assert_eq!(snap.sites[stripe].acquisitions, 1);
        assert_eq!(snap.sites[stripe].timeouts, 1);
        assert_eq!(snap.total_timeouts(), 1);
        assert_eq!(snap.timeouts_by_object(), vec![("set", 1)]);
        // The timed-out waiter blocked for the full 5ms window; its
        // wait is recorded in the stripe's histogram.
        assert!(snap.sites[stripe].wait.p99() >= 5_000_000 / 2);
        // No other stripe saw anything.
        for (i, site) in snap.sites.iter().enumerate() {
            if i != stripe {
                assert_eq!(site.acquisitions + site.timeouts, 0);
            }
        }
    }

    #[test]
    fn is_locked_probe_does_not_create_entries() {
        let map = KeyLockMap::<i64>::new();
        assert!(!map.is_locked(&99));
        assert_eq!(map.table_len(), 0, "diagnostic probe must not insert");
    }

    #[test]
    fn timeout_keeps_entry_while_owner_still_holds() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &7).unwrap();
        let b = tm.begin();
        assert_eq!(map.lock(&b, &7).unwrap_err(), Abort::lock_timeout());
        // The owner's entry must survive the loser's cleanup pass.
        assert_eq!(map.table_len(), 1);
        assert!(map.is_locked(&7));
        tm.commit(a);
        map.lock(&b, &7).unwrap();
        tm.commit(b);
    }

    #[test]
    fn cleanup_removes_orphaned_entries_only() {
        // White-box check of the timeout-cleanup predicate; the race
        // that produces an orphaned entry for real (owner releases
        // between the waiter's timeout decision and its cleanup) is
        // explored by the deterministic-harness regression test.
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let h = map.key_hash(&3);

        // Orphaned entry (no owner, no other handle): removed.
        {
            let handle = map.lock_for_hash(h, &3);
            assert_eq!(map.table_len(), 1);
            map.cleanup_after_timeout(h, &3, &handle);
            assert_eq!(map.table_len(), 0, "orphaned entry must be removed");
        }

        // Owned entry: kept, and the owner is unaffected.
        {
            let a = tm.begin();
            map.lock(&a, &3).unwrap();
            let handle = map.lock_for_hash(h, &3);
            map.cleanup_after_timeout(h, &3, &handle);
            assert_eq!(map.table_len(), 1, "owned entry must survive cleanup");
            assert!(map.is_locked(&3));
            tm.commit(a);
        }

        // Unowned entry with another outstanding handle (a waiter
        // still parked in `lock`): kept until the last handle's own
        // cleanup pass.
        {
            let h1 = map.lock_for_hash(h, &3);
            let h2 = map.lock_for_hash(h, &3);
            map.cleanup_after_timeout(h, &3, &h1);
            assert_eq!(map.table_len(), 1, "entry with other handles kept");
            drop(h2);
            map.cleanup_after_timeout(h, &3, &h1);
            assert_eq!(map.table_len(), 0);
        }
    }

    #[test]
    fn parallel_threads_on_disjoint_keys_all_commit() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let map = std::sync::Arc::new(KeyLockMap::<usize>::new());
        let threads = 8;
        crossbeam::scope(|s| {
            for t in 0..threads {
                let (tm, map) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&map));
                s.spawn(move |_| {
                    for i in 0..100 {
                        tm.run(|txn| map.lock(txn, &(t * 1000 + i))).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(tm.stats().snapshot().committed, threads as u64 * 100);
        assert_eq!(tm.stats().snapshot().aborted, 0);
    }

    #[test]
    fn parallel_reacquires_on_shared_keys_stay_consistent() {
        // Threads hammer a small key set with reacquire-heavy
        // transactions; every commit must have genuinely held its keys.
        let tm = std::sync::Arc::new(manager(1_000));
        let map = std::sync::Arc::new(KeyLockMap::<usize>::new());
        let token = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let (tm, map, token) = (
                    std::sync::Arc::clone(&tm),
                    std::sync::Arc::clone(&map),
                    std::sync::Arc::clone(&token),
                );
                s.spawn(move |_| {
                    for i in 0..200 {
                        let key = i % 3;
                        tm.run(|txn| {
                            map.lock(txn, &key)?;
                            // Reacquire (a cache hit), then a mutual
                            // exclusion check: a non-atomic rmw under
                            // the abstract lock.
                            map.lock(txn, &key)?;
                            let v = token.load(std::sync::atomic::Ordering::Relaxed);
                            std::hint::black_box(v);
                            token.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                            map.lock(txn, &key)?; // and again
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(tm.stats().snapshot().committed, 800);
    }
}
