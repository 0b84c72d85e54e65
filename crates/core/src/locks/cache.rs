//! The per-transaction lock-handle cache.
//!
//! A transaction that touches the same key twice — ubiquitous in the
//! boosted map/set/pqueue scripts and in the server's guarded
//! transfers — used to pay the full [`super::KeyLockMap`] path on every
//! call: shard mutex, `HashMap` probe, `Arc` clone, then a reentrancy
//! check inside the lock itself. All of that work answers a question
//! the transaction could have answered locally: *"do I already hold
//! this lock?"*
//!
//! [`LockCache`] is that local answer: a tiny set-associative cache in
//! [`crate::Txn`] of `(table id, key hash)` tags of held locks. On a
//! hit, `KeyLockMap::lock` returns without touching the shared table at
//! all.
//!
//! Entries hold **no** lock handle — only the tag. The transaction's
//! held-lock list already owns the one `Arc` per acquired lock that
//! keeps the lock alive, so a second handle here would only add a
//! refcount increment at acquisition and a decrement at release, both
//! on the lock's shared line.
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
//! * The tag is the table's id plus **two independent 64-bit hashes**
//!   of the key. Within one table, distinct keys collide only if both
//!   hashes collide simultaneously: with independently seeded
//!   `RandomState` hashers that is a ~2⁻¹²⁸ event per key pair, below
//!   any hardware error rate. Distinct tables never collide (ids are
//!   unique), so one transaction may use many maps safely.
//! * Eviction (round-robin, on a full cache) and misses are always
//!   safe: the slow path re-checks ownership in the lock itself.

/// Associativity of the cache: how many distinct `(table, key)` pairs a
/// transaction can hold fast-path handles for at once. Eight covers the
/// working set of every in-tree transaction script (transfers touch 2–4
/// keys); larger transactions merely fall back to the shared table.
pub(crate) const LOCK_CACHE_WAYS: usize = 8;

/// The tag of one held lock: its table's id and both key hashes. Table
/// ids start at 1, so the all-zero tag marks an empty way.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct CacheEntry {
    table: u64,
    h1: u64,
    h2: u64,
}

/// A small inline set of `(table id, key hash)` tags of held locks;
/// see the module docs for the soundness argument.
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
    /// `(table, h1, h2)`. Counts a hit.
    pub(crate) fn hit(&mut self, table: u64, h1: u64, h2: u64) -> bool {
        debug_assert_ne!(table, 0, "table ids start at 1");
        let tag = CacheEntry { table, h1, h2 };
        let found = self.entries.contains(&tag);
        if found {
            self.hits += 1;
        }
        found
    }

    /// Record a freshly acquired (or re-confirmed) lock. Call only
    /// after an acquisition succeeded for this transaction.
    pub(crate) fn insert(&mut self, table: u64, h1: u64, h2: u64) {
        let entry = CacheEntry { table, h1, h2 };
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

    #[test]
    fn hit_requires_all_three_tag_components() {
        let mut c = LockCache::default();
        c.insert(1, 10, 20);
        assert!(c.hit(1, 10, 20));
        assert!(!c.hit(2, 10, 20), "different table");
        assert!(!c.hit(1, 11, 20), "different h1");
        assert!(!c.hit(1, 10, 21), "different h2");
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut c = LockCache::default();
        c.insert(1, 1, 1);
        assert!(c.hit(1, 1, 1));
        c.clear();
        assert!(!c.hit(1, 1, 1));
        assert_eq!(c.hits(), 1, "hit count survives clear");
    }

    #[test]
    fn eviction_drops_oldest_ways_but_never_misreports() {
        let mut c = LockCache::default();
        for i in 0..(LOCK_CACHE_WAYS as u64 + 3) {
            c.insert(1, i, i);
        }
        // The newest entries are present…
        assert!(c.hit(1, LOCK_CACHE_WAYS as u64 + 2, LOCK_CACHE_WAYS as u64 + 2));
        // …and evicted ones miss (fall back to the shared table).
        assert!(!c.hit(1, 0, 0));
        assert!(!c.hit(1, 1, 1));
    }
}
