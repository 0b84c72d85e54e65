//! The per-transaction lock-handle cache.
//!
//! A transaction that touches the same key twice — ubiquitous in the
//! boosted map/set/pqueue scripts and in the server's guarded
//! transfers — would otherwise pay the [`super::KeyLockMap`] lookup and
//! a reentrancy CAS on the shared lock word on every call. That work
//! answers a question the transaction can answer locally: *"do I
//! already hold this lock?"*
//!
//! [`LockCache`] is that local answer: a tiny set-associative cache in
//! [`crate::Txn`] of `(table id, key hash)` tags of held locks. On a
//! hit, `KeyLockMap::lock` returns after reading one key from the held
//! entry, without probing the table or writing anything shared.
//!
//! Entries hold **no** lock handle — only a tag and the address of
//! the held lock's table entry. The transaction's pin of the table
//! (see `locks/keymap.rs`) already keeps that entry alive, so the cache
//! adds no refcount traffic.
//!
//! # Soundness
//!
//! A hit must *prove* the transaction holds the key's lock:
//!
//! * Entries are inserted only **after** a successful acquisition, and
//!   the whole cache is cleared when the transaction releases its locks
//!   (commit or abort) — so a live entry's lock is genuinely held.
//!   Savepoint rollback needs no invalidation: abstract locks stay held
//!   across partial rollback (strict two-phase locking).
//! * The tag is the table's id plus the key's 64-bit table hash, and a
//!   tag match counts only if the key stored in the cached table entry
//!   equals the requested key. Table entries never move while the
//!   transaction's pin keeps their table alive, so the check is exact:
//!   two keys with one hash cannot alias. Distinct tables never share a
//!   tag (ids are unique), so one transaction may use many maps safely.
//! * Eviction (round-robin, on a full cache) and misses are always
//!   safe: the slow path re-checks ownership in the lock itself.

/// Associativity of the cache: how many distinct `(table, key)` pairs a
/// transaction can hold fast-path handles for at once. Eight covers the
/// working set of every in-tree transaction script (transfers touch 2–4
/// keys); larger transactions merely fall back to the shared table.
pub(crate) const LOCK_CACHE_WAYS: usize = 8;

/// One held lock: its table's id, the key's table hash, and the
/// address of its table entry. Table ids start at 1, so table 0 marks
/// an empty way.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    table: u64,
    hash: u64,
    entry: *const (),
}

impl Default for CacheEntry {
    fn default() -> Self {
        CacheEntry {
            table: 0,
            hash: 0,
            entry: std::ptr::null(),
        }
    }
}

/// A small inline set of `(table id, key hash, entry)` records of held
/// locks; see the module docs for the soundness argument.
#[derive(Debug, Default)]
pub(crate) struct LockCache {
    entries: [CacheEntry; LOCK_CACHE_WAYS],
    /// Round-robin eviction cursor.
    next: usize,
    /// Lifetime hit count (diagnostics; exposed as
    /// [`crate::Txn::lock_cache_hits`]).
    hits: u64,
}

impl LockCache {
    /// Whether this transaction already holds the lock tagged
    /// `(table, hash)` whose entry `is_key` accepts (the caller checks
    /// the key stored in the entry). Counts a hit.
    pub(crate) fn hit(
        &mut self,
        table: u64,
        hash: u64,
        is_key: impl Fn(*const ()) -> bool,
    ) -> bool {
        debug_assert_ne!(table, 0, "table ids start at 1");
        let found = self
            .entries
            .iter()
            .any(|e| e.table == table && e.hash == hash && is_key(e.entry));
        if found {
            self.hits += 1;
        }
        found
    }

    /// Record a freshly acquired (or re-confirmed) lock. Call only
    /// after an acquisition succeeded for this transaction.
    pub(crate) fn insert(&mut self, table: u64, hash: u64, entry: *const ()) {
        let entry = CacheEntry { table, hash, entry };
        // Prefer an empty way; otherwise evict round-robin. Eviction
        // only loses the fast path, never correctness.
        if let Some(slot) = self.entries.iter_mut().find(|e| e.table == 0) {
            *slot = entry;
        } else {
            self.entries[self.next % LOCK_CACHE_WAYS] = entry;
            self.next = self.next.wrapping_add(1);
        }
    }

    /// Drop every entry. Called when the transaction releases its locks
    /// (commit or abort); a cleared cache can never claim a released
    /// lock is held.
    pub(crate) fn clear(&mut self) {
        self.entries = [CacheEntry::default(); LOCK_CACHE_WAYS];
    }

    /// Lifetime hit count.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in entry address for way `i`.
    fn at(i: usize) -> *const () {
        std::ptr::without_provenance(i * 8 + 8)
    }

    /// Accepts only the entry at `want`.
    fn is(want: *const ()) -> impl Fn(*const ()) -> bool {
        move |e| e == want
    }

    #[test]
    fn hit_requires_table_hash_and_key_check() {
        let mut c = LockCache::default();
        c.insert(1, 10, at(1));
        assert!(c.hit(1, 10, is(at(1))));
        assert!(!c.hit(2, 10, is(at(1))), "different table");
        assert!(!c.hit(1, 11, is(at(1))), "different hash");
        assert!(!c.hit(1, 10, |_| false), "same hash, other key");
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut c = LockCache::default();
        c.insert(1, 1, at(1));
        assert!(c.hit(1, 1, is(at(1))));
        c.clear();
        assert!(!c.hit(1, 1, |_| true));
        assert_eq!(c.hits(), 1, "hit count survives clear");
    }

    #[test]
    fn eviction_drops_oldest_ways_but_never_misreports() {
        let mut c = LockCache::default();
        for i in 0..(LOCK_CACHE_WAYS + 3) {
            c.insert(1, i as u64, at(i));
        }
        // The newest entries are present…
        let newest = LOCK_CACHE_WAYS + 2;
        assert!(c.hit(1, newest as u64, is(at(newest))));
        // …and evicted ones miss (fall back to the shared table).
        assert!(!c.hit(1, 0, |_| true));
        assert!(!c.hit(1, 1, |_| true));
    }
}
