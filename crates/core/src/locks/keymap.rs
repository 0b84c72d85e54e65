//! `KeyLockMap` — the paper's `LockKey` (Figure 3): one abstract lock
//! per key.
//!
//! # Layout
//!
//! The paper keeps its per-key locks in a `ConcurrentHashMap`, whose
//! lookups take no lock. This table does the same with an insert-only
//! design: an entry, once created, stays at one address until the
//! table drops, so a lookup needs no lock and writes nothing shared.
//!
//! The table has a power-of-two number of shards (picked by the low
//! bits of the key's hash). Each shard holds:
//!
//! * **entries** — the key plus its [`AbstractLock`], stored in
//!   append-only chunks owned by the table. Chunk `c` holds
//!   `FIRST_CHUNK << c` entries, so entry number `n` has a fixed address
//!   computed from `n` alone; chunks never move, and no entry has its
//!   own allocation (no per-entry malloc header, no refcount);
//! * **an index** — an open-addressing (linear probing) array of
//!   `AtomicU32` slots, each 0 (empty) or an entry number plus one,
//!   kept at most half full;
//! * **an insert mutex**, which serializes only first-touch inserts and
//!   index growth. Lookups never take it.
//!
//! Publication is Release/Acquire: an insert writes its entry, then
//! stores the entry's number into an empty index slot with a Release
//! store; a lookup loads the slot with Acquire, so a slot it sees names
//! a fully written entry. An index is published (Release) only after
//! every existing entry has been placed in it. Growth builds a doubled
//! index and publishes it in place of the old one, which stays
//! allocated (chained from the new one) until the table drops, so a
//! lookup still probing it stays valid: it sees every entry inserted
//! before the growth, and a miss always falls through to the insert
//! path, which re-probes the current index under the mutex. The retired
//! indexes of a shard add up to less than its live index.
//!
//! A shard allocates nothing until its first insert; the table grows
//! with the distinct keys ever requested and never shrinks.
//!
//! # Held locks
//!
//! A transaction that acquires a key's lock registers the table-owned
//! lock itself ([`Txn::register_pinned_lock`]) and pins the table once
//! ([`Txn::pin`]): the pin keeps every entry's memory alive until the
//! transaction has released its locks. Acquiring an existing key thus
//! costs one table hash, a few loads, and the CAS on the lock word — no
//! mutex and no per-key refcount.

use super::abstract_lock::{AbstractLock, AcquireOutcome};
use crate::obs::{ContentionRegistry, LockLabel, LockSiteStats};
use crate::pad::{padded, CachePadded};
use crate::{TxResult, Txn};
use parking_lot::Mutex;
use std::hash::{BuildHasher, Hash, RandomState};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const DEFAULT_SHARDS: usize = 64;

/// Entries in a shard's first chunk (as a power of two); chunk `c`
/// holds `FIRST_CHUNK << c` entries.
const FIRST_CHUNK_BITS: u32 = 3;
const FIRST_CHUNK: usize = 1 << FIRST_CHUNK_BITS;

/// Chunks per shard: together they hold more than `u32::MAX` entries,
/// the most an index slot can name.
const CHUNKS: usize = 30;

/// Index slots allocated by a shard's first insert.
const FIRST_INDEX: usize = 8;

/// Process-wide table-id counter. Every `KeyLockMap` gets a unique id,
/// which namespaces its keys' tags in the per-transaction lock cache
/// (see [`super::cache`]) — one transaction may lock keys in many
/// tables without cross-table tag collisions.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// One key and its lock. Written once, before its index slot is
/// published; afterwards only the lock's interior state changes.
struct Entry<K> {
    key: K,
    lock: AbstractLock,
}

/// One open-addressing index of a shard.
struct Index {
    /// 0 = empty, else an entry number plus one. The length is a power
    /// of two and at least twice the number of filled slots.
    slots: Box<[AtomicU32]>,
    /// The index this one replaced; freed with the table, since a
    /// lookup may still be probing it.
    prev: *mut Index,
}

/// One shard: entry chunks, the current index, and the insert mutex.
struct Shard<K> {
    /// The current index; null until the first insert.
    index: AtomicPtr<Index>,
    /// Entry chunks, allocated in order as entries fill them.
    chunks: [AtomicPtr<Entry<K>>; CHUNKS],
    /// Entries written so far. Changed only under `insert`.
    len: AtomicUsize,
    /// Serializes inserts and index growth.
    insert: Mutex<()>,
}

/// Chunk number and offset within it of entry number `n`.
fn locate(n: usize) -> (usize, usize) {
    let m = n + FIRST_CHUNK;
    let top = (usize::BITS - 1 - m.leading_zeros()) as usize;
    let chunk = top - FIRST_CHUNK_BITS as usize;
    (chunk, m - (1 << top))
}

/// First probe position of a key with table hash `h`. The shard was
/// picked by the hash's low bits, so the index uses the high ones.
fn home(h: u64, slots: usize) -> usize {
    (h.rotate_right(32) as usize) & (slots - 1)
}

/// Store `entry + 1` in the first empty slot of the probe run for `h`.
fn place(slots: &[AtomicU32], h: u64, entry: u32, order: Ordering) {
    let mask = slots.len() - 1;
    let mut i = home(h, slots.len());
    while slots[i].load(Ordering::Relaxed) != 0 {
        i = (i + 1) & mask;
    }
    slots[i].store(entry + 1, order);
}

impl<K> Shard<K> {
    fn new() -> Self {
        Shard {
            index: AtomicPtr::new(ptr::null_mut()),
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            len: AtomicUsize::new(0),
            insert: Mutex::new(()),
        }
    }

    /// Entry number `n`.
    ///
    /// # Safety
    /// Entry `n` must have been written, and its writing must happen
    /// before this call: `n + 1` was loaded with Acquire from a slot of
    /// an index loaded with Acquire, or `n < len` under the insert
    /// mutex.
    unsafe fn entry(&self, n: usize) -> &Entry<K> {
        let (c, off) = locate(n);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        // SAFETY: per the contract, entry `n` was written into chunk
        // `c` at `off` (within the chunk's `FIRST_CHUNK << c` entries),
        // and chunks stay allocated and unmoved until the table drops,
        // which the `&self` borrow rules out.
        unsafe { &*chunk.add(off) }
    }

    /// The entry for `key` in `index`, probing from `h`'s home slot.
    fn probe(&self, index: &Index, h: u64, key: &K) -> Option<&Entry<K>>
    where
        K: Eq,
    {
        let mask = index.slots.len() - 1;
        let mut i = home(h, index.slots.len());
        loop {
            let slot = index.slots[i].load(Ordering::Acquire);
            if slot == 0 {
                return None;
            }
            // SAFETY: a nonzero slot was stored (Release) after its
            // entry was written, and the Acquire load above orders this
            // read after that write.
            let entry = unsafe { self.entry(slot as usize - 1) };
            if entry.key == *key {
                return Some(entry);
            }
            i = (i + 1) & mask;
        }
    }

    /// A pointer to where entry number `n` goes, allocating its chunk
    /// if this is the chunk's first entry. Call under `insert` only.
    fn entry_ptr(&self, n: usize) -> *mut Entry<K> {
        let (c, off) = locate(n);
        let mut chunk = self.chunks[c].load(Ordering::Relaxed);
        if chunk.is_null() {
            let fresh: Box<[MaybeUninit<Entry<K>>]> = Box::new_uninit_slice(FIRST_CHUNK << c);
            chunk = Box::into_raw(fresh).cast::<Entry<K>>();
            self.chunks[c].store(chunk, Ordering::Release);
        }
        // SAFETY: `off < FIRST_CHUNK << c`, the chunk's length.
        unsafe { chunk.add(off) }
    }
}

impl<K> Drop for Shard<K> {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        for (c, chunk) in self.chunks.iter_mut().enumerate() {
            let chunk = *chunk.get_mut();
            if chunk.is_null() {
                break; // chunks are allocated in order
            }
            let cap = FIRST_CHUNK << c;
            let first = cap - FIRST_CHUNK;
            let written = len.saturating_sub(first).min(cap);
            // SAFETY: the chunk came from `Box::<[MaybeUninit<_>]>` of
            // `cap` entries in `entry_ptr`, its first `written` entries
            // are initialized, and `&mut self` proves no lookup or held
            // lock refers to any of them any more.
            unsafe {
                ptr::drop_in_place(ptr::slice_from_raw_parts_mut(chunk, written));
                drop(Box::from_raw(ptr::slice_from_raw_parts_mut(
                    chunk.cast::<MaybeUninit<Entry<K>>>(),
                    cap,
                )));
            }
        }
        let mut index = *self.index.get_mut();
        while !index.is_null() {
            // SAFETY: every index came from `Box::into_raw` in `grow`
            // and is reachable exactly once along this chain.
            let boxed = unsafe { Box::from_raw(index) };
            index = boxed.prev;
        }
    }
}

/// The table's storage: the shards. Shared (`Arc`) so that every
/// transaction holding one of its locks can pin it. Aligned to its own
/// 128-byte block so the `Arc`'s refcount, which each locking
/// transaction writes twice, shares no line with the shard pointer
/// every lookup reads.
#[repr(align(128))]
struct Table<K> {
    shards: Box<[CachePadded<Shard<K>>]>,
    /// The table owns (and drops) `K`s through raw chunk pointers.
    _owns: PhantomData<K>,
}

// SAFETY: every field is `Send` except the raw pointers in each
// shard's `index` and `chunks`, which point to allocations (indexes,
// entry chunks) that this table alone owns; moving the table moves that
// ownership. Dropping it drops the keys on the dropping thread, hence
// `K: Send`. (`AbstractLock`s are `Send` and `Sync`.)
unsafe impl<K: Send> Send for Table<K> {}
// SAFETY: through `&Table` threads read keys (`K: Sync`) and insert
// keys cloned on one thread that another thread may drop (`K: Send`).
// The shared fields are atomics and a mutex; the memory behind the
// pointers is written only under the shard's insert mutex, an entry
// only before its index slot is published with Release (read with
// Acquire), and an index only before its pointer is published the
// same way.
unsafe impl<K: Send + Sync> Sync for Table<K> {}

impl<K> std::fmt::Debug for Table<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

impl<K> Table<K> {
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len.load(Ordering::Relaxed))
            .sum()
    }
}

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
/// are created on first use and never removed: the table holds one
/// entry per distinct key ever requested (see the module docs for the
/// layout).
///
/// # Hot path
///
/// [`KeyLockMap::lock`] hashes the key **once** with the table hasher
/// (the hash picks the stripe via a power-of-two mask, the index slot,
/// and tags the per-transaction lock cache), answers *re*-acquisitions
/// entirely from the transaction's `LockCache` (`locks/cache.rs`), and
/// otherwise finds the key's entry with a lock-free probe. Only a
/// first-touch insert takes the shard's mutex and clones the key.
#[derive(Debug)]
pub struct KeyLockMap<K, S = RandomState> {
    table: Arc<Table<K>>,
    /// Table-level key hash: picks the stripe and the index slot, and
    /// tags the lock cache.
    hasher: S,
    /// `shards - 1`; the shard count is a power of two so stripe
    /// selection is a mask, not a division.
    mask: usize,
    /// Unique id namespacing this table's cache tags.
    table_id: u64,
    /// One contention-attribution site per shard ("stripe"), present
    /// only for tables built with a `labeled` constructor. Every lock
    /// created in a shard shares that shard's site, so waits and
    /// timeouts are charged per stripe without a per-key allocation.
    sites: Option<Box<[Arc<LockSiteStats>]>>,
    /// Test-only mutation: inserts skip their re-probe under the shard
    /// mutex (see [`KeyLockMap::skip_insert_reprobe_for_test`]).
    #[cfg(feature = "deterministic")]
    skip_reprobe: std::sync::atomic::AtomicBool,
    /// Lookups whose shard index was replaced while they probed it
    /// (see [`KeyLockMap::stale_lookups_for_test`]).
    #[cfg(feature = "deterministic")]
    stale_lookups: AtomicU64,
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
    /// stays a bit mask). More shards reduce contention on first-touch
    /// inserts.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        KeyLockMap {
            table: Arc::new(Table {
                shards: padded(n, Shard::new),
                _owns: PhantomData,
            }),
            hasher: RandomState::new(),
            mask: n - 1,
            table_id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            sites: None,
            #[cfg(feature = "deterministic")]
            skip_reprobe: std::sync::atomic::AtomicBool::new(false),
            #[cfg(feature = "deterministic")]
            stale_lookups: AtomicU64::new(0),
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
        let sites = (0..=map.mask)
            .map(|i| registry.register(LockLabel::stripe(object, i)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        map.sites = Some(sites);
        map
    }
}

impl<K: Hash + Eq + Clone, S: BuildHasher> KeyLockMap<K, S> {
    /// The table-level hash of `key` — computed once per acquisition
    /// and threaded through stripe selection, the index probe and the
    /// cache tag.
    fn key_hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    fn stripe_of_hash(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    /// The entry for `key` (table hash `h`) if it exists. Takes no lock
    /// and writes nothing shared.
    fn find(&self, h: u64, key: &K) -> Option<&Entry<K>> {
        let shard = &self.table.shards[self.stripe_of_hash(h)];
        let index = shard.index.load(Ordering::Acquire);
        // Let a deterministic schedule run other threads' inserts (and
        // index growths) between loading the index and probing it.
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::LockLookup);
        // SAFETY: a non-null index came from `Box::into_raw` in `grow`
        // and stays allocated until the table drops (a replaced index
        // is kept on the new one's `prev` chain); its publication was a
        // Release store, read here with Acquire.
        let found = shard.probe(unsafe { index.as_ref() }?, h, key);
        #[cfg(feature = "deterministic")]
        if !ptr::eq(shard.index.load(Ordering::Relaxed), index) {
            self.stale_lookups.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Create the entry for `key` (table hash `h`), or return the one a
    /// concurrent insert created first.
    #[cold]
    #[inline(never)]
    fn insert(&self, h: u64, key: &K) -> &Entry<K> {
        let stripe = self.stripe_of_hash(h);
        let shard = &self.table.shards[stripe];
        // Let a deterministic schedule run other threads' inserts
        // between this caller's missed lookup and its insert. None
        // yields while holding the mutex below, so under the scheduler
        // an insert is atomic and never waits for the mutex: a schedule
        // then does not depend on which keys share a shard, which the
        // table's random hash decides anew for every table.
        #[cfg(feature = "deterministic")]
        crate::det::yield_point(crate::det::Point::LockInsert);
        let _guard = shard.insert.lock();
        let mut index = shard.index.load(Ordering::Relaxed);
        // SAFETY: as in `find`; under the insert mutex the index cannot
        // be replaced either.
        let current = unsafe { index.as_ref() };
        // Re-probe: another insert of this key may have run since this
        // caller's lock-free lookup missed.
        #[cfg(feature = "deterministic")]
        let current = current.filter(|_| !self.skip_reprobe.load(Ordering::Relaxed));
        if let Some(found) = current.and_then(|ix| shard.probe(ix, h, key)) {
            return found;
        }
        // Build the entry first: a panicking `Clone` leaves the shard
        // untouched.
        let entry = Entry {
            key: key.clone(),
            lock: match &self.sites {
                Some(sites) => AbstractLock::with_site(Arc::clone(&sites[stripe])),
                None => AbstractLock::new(),
            },
        };
        let n = shard.len.load(Ordering::Relaxed);
        let number = u32::try_from(n)
            .ok()
            .filter(|&n| n < u32::MAX)
            .expect("a KeyLockMap shard holds fewer than u32::MAX keys");
        // SAFETY: `index` is null or live, as above.
        let slots = unsafe { index.as_ref() }.map_or(0, |ix| ix.slots.len());
        if 2 * (n + 1) > slots {
            index = self.grow(shard, index, n);
        }
        let at = shard.entry_ptr(n);
        // SAFETY: `at` is entry `n`'s place in a live chunk; no index
        // slot names entry `n` yet, so nothing else reads it.
        unsafe { at.write(entry) };
        shard.len.store(n + 1, Ordering::Relaxed);
        // SAFETY: `grow` returned (or the mutex kept) a live index.
        let index = unsafe { &*index };
        // Publish: the Release store orders the entry's write before any
        // lookup that loads this slot.
        place(&index.slots, h, number, Ordering::Release);
        // SAFETY: entry `n` was written above, on this thread.
        unsafe { shard.entry(n) }
    }

    /// Replace `shard`'s index (`old`, possibly null) by one twice as
    /// large holding its `len` entries, publish it, and return it. The
    /// old index stays allocated for lookups still probing it.
    fn grow(&self, shard: &Shard<K>, old: *mut Index, len: usize) -> *mut Index {
        // SAFETY: `old` is null or live (see `find`).
        let size = unsafe { old.as_ref() }.map_or(FIRST_INDEX, |ix| 2 * ix.slots.len());
        let slots: Box<[AtomicU32]> = (0..size).map(|_| AtomicU32::new(0)).collect();
        for n in 0..len {
            // SAFETY: `n < len` under the insert mutex.
            let key = unsafe { &shard.entry(n).key };
            // Not yet shared: the publication below orders these
            // stores before any lookup of the new index.
            place(&slots, self.key_hash(key), n as u32, Ordering::Relaxed);
        }
        let index = Box::into_raw(Box::new(Index { slots, prev: old }));
        shard.index.store(index, Ordering::Release);
        index
    }

    /// The stripe (shard index) that locks for `key` live in — and the
    /// stripe their contention is attributed to for labeled tables.
    pub fn stripe_of(&self, key: &K) -> usize {
        self.stripe_of_hash(self.key_hash(key))
    }

    /// Whether any transaction currently holds the lock for `key`
    /// (diagnostics/tests; inherently racy). A pure read: unlike
    /// [`KeyLockMap::lock`], probing a never-locked key does not create
    /// a table entry.
    pub fn is_locked(&self, key: &K) -> bool {
        self.find(self.key_hash(key), key)
            .is_some_and(|e| e.lock.owner().is_some())
    }

    /// Number of distinct keys that have ever been locked
    /// (diagnostics/tests).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }
}

impl<K, S> KeyLockMap<K, S>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    S: BuildHasher,
{
    /// Acquire the abstract lock for `key` on behalf of `txn`, blocking
    /// (up to the transaction's lock timeout) while another transaction
    /// holds it. The lock is held until `txn` commits or aborts.
    ///
    /// Reacquisition — `txn` already holds `key`'s lock — is answered
    /// from the transaction's lock-handle cache without touching the
    /// shared table (see `locks/cache.rs` for the soundness argument).
    /// A first acquisition pins the table to `txn` (once per
    /// transaction) and registers the table-owned lock. A timed-out
    /// acquisition registers nothing; the key's entry, created or not
    /// by this call, stays in the table like every other.
    pub fn lock(&self, txn: &Txn, key: &K) -> TxResult<()> {
        // Reject read-only transactions before touching the table: no
        // per-key entry should be created for an acquisition that is
        // forbidden by construction.
        if txn.is_read_only() {
            return Err(crate::Abort::read_only_violation());
        }
        let h = self.key_hash(key);
        let is_key = |entry: *const ()| {
            // SAFETY: the cache holds, under this table's id, only
            // entries of this table whose lock `txn` acquired; `txn`
            // pinned the table then, and clears its cache before it
            // releases its locks and drops its pins.
            unsafe { &*entry.cast::<Entry<K>>() }.key == *key
        };
        if txn.lock_cache_hit(self.table_id, h, is_key) {
            return Ok(());
        }
        let entry = match self.find(h, key) {
            Some(entry) => entry,
            None => self.insert(h, key),
        };
        let at = ptr::from_ref(entry).cast::<()>();
        match entry.lock.try_acquire_raw(txn.id(), txn.lock_timeout()) {
            AcquireOutcome::Acquired => {
                debug_assert_eq!(entry.lock.owner(), Some(txn.id()));
                txn.pin(&self.table);
                txn.lock_cache_insert(self.table_id, h, at);
                // SAFETY: `entry.lock` lives in a chunk of `self.table`,
                // which `txn` has just pinned; chunks are freed only when
                // the table drops, and the pin keeps it alive until the
                // transaction has released its locks.
                unsafe { txn.register_pinned_lock(&entry.lock) };
                Ok(())
            }
            AcquireOutcome::AlreadyHeld => {
                txn.lock_cache_insert(self.table_id, h, at);
                Ok(())
            }
            AcquireOutcome::TimedOut => Err(crate::Abort::lock_timeout()),
        }
    }

    /// Test-only mutation hook: plant an entry for `key` in `txn`'s
    /// lock cache **without acquiring the lock** — the bug that a
    /// broken cache-invalidation (or tag-collision) scheme would
    /// produce. The deterministic-harness mutation test uses this to
    /// confirm a seeded sweep actually catches the resulting
    /// mutual-exclusion violation. The planted entry is valid only
    /// while this map lives. Never call outside tests.
    #[cfg(feature = "deterministic")]
    #[doc(hidden)]
    pub fn poison_txn_cache_for_test(&self, txn: &Txn, key: &K) {
        let h = self.key_hash(key);
        let entry = self.find(h, key).unwrap_or_else(|| self.insert(h, key));
        txn.poison_lock_cache_for_test(self.table_id, h, ptr::from_ref(entry).cast());
    }

    /// Test-only mutation hook: make every later first-touch insert
    /// skip its re-probe under the shard mutex, so two transactions
    /// that both missed a fresh key each create an entry (and a lock)
    /// for it. The deterministic-harness mutation test uses this to
    /// confirm the first-touch sweep catches the broken insert. Never
    /// call outside tests.
    #[cfg(feature = "deterministic")]
    #[doc(hidden)]
    pub fn skip_insert_reprobe_for_test(&self) {
        self.skip_reprobe.store(true, Ordering::Relaxed);
    }

    /// Test-only diagnostic: how many lookups probed an index that an
    /// insert's growth replaced while they were probing it — the
    /// interleaving the first-touch sweep must reach. Never call
    /// outside tests.
    #[cfg(feature = "deterministic")]
    #[doc(hidden)]
    pub fn stale_lookups_for_test(&self) -> u64 {
        self.stale_lookups.load(Ordering::Relaxed)
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
    fn a_held_lock_mints_no_per_key_refcount() {
        // One pin of the table per transaction, however many of its
        // keys the transaction holds; the lock cache holds a tag, not
        // a handle.
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        assert_eq!(Arc::strong_count(&map.table), 1);
        let a = tm.begin();
        for k in 0..5 {
            map.lock(&a, &k).unwrap();
        }
        map.lock(&a, &3).unwrap(); // a cache hit
        assert_eq!(a.held_lock_count(), 5);
        assert_eq!(Arc::strong_count(&map.table), 2, "one pin per transaction");
        let b = tm.begin();
        map.lock(&b, &9).unwrap();
        assert_eq!(Arc::strong_count(&map.table), 3);
        tm.commit(a);
        tm.commit(b);
        assert_eq!(Arc::strong_count(&map.table), 1, "commit drops the pins");
    }

    #[test]
    fn a_held_lock_outlives_the_dropped_map() {
        // The pin, not the caller's handle, keeps the held lock's
        // memory alive until release.
        let tm = manager(5);
        let map = KeyLockMap::<String>::new();
        let a = tm.begin();
        map.lock(&a, &"k".to_string()).unwrap();
        drop(map);
        tm.commit(a);
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
        assert_eq!(map.table.shards.len(), 1, "1 is already a power of two");
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
        assert_eq!(map.table.shards.len(), 64);
        assert_eq!(map.mask, 63);
        // Stripe selection must agree with the mask for every key.
        for k in 0..1000i64 {
            assert!(map.stripe_of(&k) < 64);
            assert_eq!(map.stripe_of(&k), map.stripe_of_hash(map.key_hash(&k)));
        }
    }

    #[test]
    fn entry_numbers_map_to_consecutive_chunk_places() {
        let mut expect = (0, 0);
        for n in 0..10_000 {
            assert_eq!(locate(n), expect, "entry {n}");
            expect.1 += 1;
            if expect.1 == FIRST_CHUNK << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
        // The last nameable entry still has a chunk.
        assert_eq!(locate(u32::MAX as usize - 1).0, CHUNKS - 1);
    }

    #[test]
    fn growth_keeps_every_key_findable_and_bounds_retired_indexes() {
        let tm = manager(5);
        let map = KeyLockMap::<u64>::with_shards(1);
        let shard = &map.table.shards[0];
        assert!(
            shard.index.load(Ordering::Relaxed).is_null(),
            "no insert, no index"
        );
        assert!(shard.chunks[0].load(Ordering::Relaxed).is_null());
        let keys = 200u64;
        for k in 0..keys {
            let t = tm.begin();
            map.lock(&t, &k).unwrap();
            tm.commit(t);
            assert!(map.find(map.key_hash(&k), &k).is_some());
        }
        assert_eq!(map.table_len(), keys as usize);
        for k in 0..keys {
            let entry = map
                .find(map.key_hash(&k), &k)
                .expect("inserted key is findable");
            assert_eq!(entry.key, k);
        }
        assert!(map.find(map.key_hash(&keys), &keys).is_none());
        // SAFETY: the table is alive and no insert runs concurrently.
        let live = unsafe { &*shard.index.load(Ordering::Relaxed) };
        assert!(
            live.slots.len() >= 2 * keys as usize,
            "index at most half full"
        );
        let mut retired = 0;
        let mut prev = live.prev;
        while !prev.is_null() {
            // SAFETY: as above; retired indexes live until the drop.
            let ix = unsafe { &*prev };
            retired += ix.slots.len();
            prev = ix.prev;
        }
        assert!(retired > 0, "200 keys grew the index");
        assert!(retired < live.slots.len(), "retired {retired} slots");
    }

    /// A key counting its live instances.
    #[derive(Debug)]
    struct Counted(u32, Arc<AtomicUsize>);

    impl Counted {
        fn new(k: u32, live: &Arc<AtomicUsize>) -> Self {
            live.fetch_add(1, Ordering::Relaxed);
            Counted(k, Arc::clone(live))
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            Counted::new(self.0, &self.1)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_sub(1, Ordering::Relaxed);
        }
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }

    impl Eq for Counted {}

    impl Hash for Counted {
        fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
            self.0.hash(h);
        }
    }

    #[test]
    fn dropping_the_map_drops_every_entry() {
        let tm = manager(5);
        let live = Arc::new(AtomicUsize::new(0));
        let map = KeyLockMap::<Counted>::with_shards(2);
        // 100 keys over 2 shards fill several chunks per shard.
        for k in 0..100 {
            let key = Counted::new(k, &live);
            let t = tm.begin();
            map.lock(&t, &key).unwrap();
            map.lock(&t, &key).unwrap();
            tm.commit(t);
        }
        assert_eq!(
            live.load(Ordering::Relaxed),
            100,
            "one stored key per entry"
        );
        drop(map);
        assert_eq!(live.load(Ordering::Relaxed), 0, "every entry dropped");
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
    fn a_timeout_keeps_the_entry_it_found_or_made() {
        // Entries are insert-only: a timed-out acquisition neither
        // removes the owner's entry nor affects the owner.
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &7).unwrap();
        let b = tm.begin();
        assert_eq!(map.lock(&b, &7).unwrap_err(), Abort::lock_timeout());
        assert_eq!(b.held_lock_count(), 0, "a timeout registers nothing");
        assert_eq!(map.table_len(), 1);
        assert!(map.is_locked(&7));
        tm.commit(a);
        map.lock(&b, &7).unwrap();
        tm.commit(b);
        assert_eq!(map.table_len(), 1);
    }

    /// `threads` threads walk the same `keys` (an even number of) fresh
    /// keys of a `shards`-shard table from different offsets, two keys
    /// per transaction, so first-touch inserts of one key race and the
    /// indexes grow under concurrent lookups. Each key's counter is a
    /// non-atomic read-modify-write under its abstract lock: a second
    /// lock for one key would lose increments.
    fn race_on_fresh_keys(threads: usize, keys: usize, shards: usize) {
        let tm = manager(10_000);
        let map = KeyLockMap::<usize>::with_shards(shards);
        let counts: Vec<AtomicUsize> = (0..keys).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..threads {
                let (tm, map, counts) = (&tm, &map, &counts);
                s.spawn(move || {
                    for i in (0..keys).step_by(2) {
                        let a = (i + t * 7) % keys;
                        let b = (a + 1) % keys;
                        let (lo, hi) = (a.min(b), a.max(b)); // one order: no deadlock
                        tm.run(|txn| {
                            map.lock(txn, &lo)?;
                            map.lock(txn, &hi)?;
                            for k in [lo, hi] {
                                let v = counts[k].load(Ordering::Relaxed);
                                std::hint::black_box(v);
                                counts[k].store(v + 1, Ordering::Relaxed);
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(map.table_len(), keys, "one entry per key");
        let total: usize = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, threads * keys, "an increment was lost");
        assert!((0..keys).all(|k| !map.is_locked(&k)));
    }

    #[test]
    fn threads_racing_on_fresh_keys_share_one_entry_per_key() {
        // Small enough for Miri, whose race detector checks the
        // Release/Acquire publication of entries and indexes.
        race_on_fresh_keys(3, 24, 1);
    }

    #[test]
    fn concurrent_first_touch_race_keeps_one_entry_per_key_and_excludes() {
        race_on_fresh_keys(4, 3000, 2);
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
