//! Deterministic-harness coverage for the hot-path machinery: the
//! CAS-word `AbstractLock`, the per-transaction lock-handle cache, the
//! lock-free `KeyLockMap` lookup with its first-touch inserts and index
//! growth, and their interaction with virtual-time timeouts.
//!
//! Four behaviours are swept across seeds, plus two *mutation checks*:
//! a deliberately broken cache (an entry planted without acquiring the
//! lock) and a broken insert (no re-probe under the shard mutex), each
//! switched on by a test-only hook, must be caught by their sweeps —
//! evidence that these tests have teeth.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use transactional_boosting::prelude::*;
use txboost_core::locks::KeyLockMap;
use txboost_sched::core_det as det;

/// Spin at a named yield point until `flag` is set (the deterministic
/// analogue of a barrier; see `det_deadlock.rs`).
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        det::yield_point(det::Point::User);
    }
}

#[test]
fn reacquire_hits_the_txn_cache_on_every_seed() {
    // Each thread locks its own key and reacquires it twice. On every
    // interleaving the reacquisitions must be answered by the
    // transaction's lock-handle cache (no shard-mutex round trip), and
    // must register no duplicate held lock.
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(100),
        2,
        || W {
            tm: TxnManager::default(),
            map: KeyLockMap::new(),
        },
        |w, tid| {
            let key = tid as i64;
            w.tm.run(|t| {
                w.map.lock(t, &key)?;
                assert_eq!(t.lock_cache_hits(), 0, "first acquire must miss");
                w.map.lock(t, &key)?;
                w.map.lock(t, &key)?;
                assert_eq!(t.lock_cache_hits(), 2, "reacquires must hit the cache");
                assert_eq!(t.held_lock_count(), 1);
                Ok(())
            })
            .unwrap();
            // A fresh transaction starts with a cold cache: the old
            // transaction's (released) locks must not leak into it.
            w.tm.run(|t| {
                w.map.lock(t, &key)?;
                assert_eq!(t.lock_cache_hits(), 0, "new txn must take the slow path");
                Ok(())
            })
            .unwrap();
        },
        |w, _report| {
            let snap = w.tm.stats().snapshot();
            assert_eq!(snap.committed, 4);
            assert_eq!(snap.aborted, 0);
        },
    );
}

#[test]
fn cas_loser_blocks_then_wakes_when_the_owner_commits() {
    // T1 requests the key while T0 provably holds it, so T1 always
    // loses the CAS and enters the contended path; T0 releases well
    // inside T1's virtual-time timeout window, so T1 must wake and
    // commit without ever aborting.
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
        held: AtomicBool,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        2,
        || W {
            tm: TxnManager::default(),
            map: KeyLockMap::new(),
            held: AtomicBool::new(false),
        },
        |w, tid| {
            if tid == 0 {
                w.tm.run(|t| {
                    w.map.lock(t, &7)?;
                    w.held.store(true, Ordering::SeqCst);
                    // Hold across a few scheduling points so the loser
                    // observably blocks before the release.
                    for _ in 0..10 {
                        det::yield_point(det::Point::User);
                    }
                    Ok(())
                })
                .unwrap();
            } else {
                spin_until(&w.held);
                w.tm.run(|t| w.map.lock(t, &7)).unwrap();
            }
        },
        |w, _report| {
            let snap = w.tm.stats().snapshot();
            assert_eq!(snap.committed, 2);
            assert_eq!(
                snap.aborted, 0,
                "the loser must wake on release, not time out"
            );
            assert!(!w.map.is_locked(&7));
        },
    );
}

#[test]
fn contended_acquire_times_out_on_virtual_time() {
    // The owner outlives the waiter's entire virtual-time timeout
    // window, so the waiter's single attempt must abort with
    // `Abort::lock_timeout()` — the CAS-word lock's deadline runs on
    // scheduler ticks, not the wall clock.
    struct W {
        tm: TxnManager,
        tm_once: TxnManager,
        map: KeyLockMap<i64>,
        held: AtomicBool,
    }
    let timeouts = AtomicU64::new(0);
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(100),
        2,
        || W {
            tm: TxnManager::default(),
            tm_once: TxnManager::new(TxnConfig {
                max_retries: Some(0),
                ..TxnConfig::default()
            }),
            map: KeyLockMap::new(),
            held: AtomicBool::new(false),
        },
        |w, tid| {
            if tid == 0 {
                w.tm.run(|t| {
                    w.map.lock(t, &3)?;
                    w.held.store(true, Ordering::SeqCst);
                    // Far past the waiter's ~100 blocked rounds (each
                    // round = one acquire yield + one tick).
                    for _ in 0..400 {
                        det::yield_point(det::Point::User);
                    }
                    Ok(())
                })
                .unwrap();
            } else {
                spin_until(&w.held);
                let err = w.tm_once.run(|t| w.map.lock(t, &3)).unwrap_err();
                assert_eq!(err, TxnError::RetriesExhausted(AbortReason::LockTimeout));
            }
        },
        |w, _report| {
            assert_eq!(w.tm.stats().snapshot().committed, 1);
            let snap = w.tm_once.stats().snapshot();
            assert_eq!(snap.lock_timeouts, 1, "waiter must time out exactly once");
            timeouts.fetch_add(snap.lock_timeouts, Ordering::Relaxed);
            // Recovery: the key is lockable again afterwards.
            w.tm.run(|t| w.map.lock(t, &3)).unwrap();
        },
    );
    assert!(timeouts.load(Ordering::Relaxed) > 0);
}

#[test]
fn poisoned_lock_cache_is_caught_by_the_sweep() {
    // Mutation check: simulate the bug the cache-invalidation rules
    // prevent (a cache entry claiming a lock the transaction does not
    // hold) via the test-only poison hook, and confirm the sweep's
    // detectors actually fire. If this test ever stops detecting the
    // violation, the reacquire/mutual-exclusion tests above have lost
    // their teeth.
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
        held: AtomicBool,
        in_cs: AtomicBool,
        probed: AtomicBool,
    }
    let phantom_grants = AtomicU64::new(0);
    let exclusion_breaks = AtomicU64::new(0);
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(50),
        2,
        || W {
            tm: TxnManager::default(),
            map: KeyLockMap::new(),
            held: AtomicBool::new(false),
            in_cs: AtomicBool::new(false),
            probed: AtomicBool::new(false),
        },
        |w, tid| {
            if tid == 0 {
                w.tm.run(|t| {
                    w.map.lock(t, &0)?;
                    w.in_cs.store(true, Ordering::SeqCst);
                    w.held.store(true, Ordering::SeqCst);
                    // Stay in the critical section until the poisoned
                    // transaction has probed, so the violation window
                    // is open on every seed.
                    spin_until(&w.probed);
                    w.in_cs.store(false, Ordering::SeqCst);
                    Ok(())
                })
                .unwrap();
            } else {
                spin_until(&w.held);
                let txn = w.tm.begin();
                w.map.poison_txn_cache_for_test(&txn, &0);
                // The poisoned cache answers the "reacquire" — the lock
                // is granted without being acquired.
                w.map.lock(&txn, &0).unwrap();
                if txn.held_lock_count() == 0 {
                    phantom_grants.fetch_add(1, Ordering::Relaxed);
                }
                if w.in_cs.load(Ordering::SeqCst) {
                    exclusion_breaks.fetch_add(1, Ordering::Relaxed);
                }
                w.probed.store(true, Ordering::SeqCst);
                w.tm.commit(txn);
            }
        },
        |_w, _report| {},
    );
    assert!(
        phantom_grants.load(Ordering::Relaxed) > 0,
        "poisoning never produced a lock grant without a held lock — \
         the mutation is not reaching the cache fast path"
    );
    assert!(
        exclusion_breaks.load(Ordering::Relaxed) > 0,
        "no seed observed two transactions in the critical section — \
         the sweep cannot catch broken cache invalidation"
    );
}

/// Fresh keys the first-touch sweeps lock, all in one shard: inserts
/// grow its index from 8 to 16 to 32 slots along the way.
const FRESH_KEYS: usize = 12;

/// Shared state of the first-touch sweeps.
struct FirstTouch {
    tm: TxnManager,
    map: KeyLockMap<i64>,
    /// Per key: a transaction is inside its critical section.
    in_cs: Vec<AtomicBool>,
}

fn first_touch_world() -> FirstTouch {
    FirstTouch {
        tm: TxnManager::default(),
        map: KeyLockMap::with_shards(1),
        in_cs: (0..FRESH_KEYS).map(|_| AtomicBool::new(false)).collect(),
    }
}

/// Thread `tid` locks every fresh key once, one per transaction,
/// starting at key `tid`: neighbouring threads race to create the same
/// entries, and lookups of existing keys run while another thread's
/// insert grows the index.
fn first_touch_body(w: &FirstTouch, tid: usize) {
    for i in 0..FRESH_KEYS {
        let k = (i + tid) % FRESH_KEYS;
        w.tm.run(|t| {
            w.map.lock(t, &(k as i64))?;
            assert!(
                !w.in_cs[k].swap(true, Ordering::SeqCst),
                "two transactions hold key {k}"
            );
            det::yield_point(det::Point::User);
            w.in_cs[k].store(false, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
    }
}

/// Post-run check: exactly one entry (one lock) per key, none held.
fn first_touch_coherent(w: &FirstTouch) -> bool {
    w.map.table_len() == FRESH_KEYS && (0..FRESH_KEYS as i64).all(|k| !w.map.is_locked(&k))
}

#[test]
fn first_touch_inserts_and_index_growth_keep_one_lock_per_key() {
    // The lock-free lookup path under every interleaving of three
    // threads: racing first-touch inserts of one key must end with one
    // entry (the later insert re-probes and finds the earlier one's),
    // and a lookup that loaded an index before a growth replaced it
    // must still find every older key (or fall through to the insert
    // path, whose re-probe does).
    let stale_lookups = AtomicU64::new(0);
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(200),
        3,
        first_touch_world,
        first_touch_body,
        |w, _report| {
            assert!(
                first_touch_coherent(&w),
                "{} entries for {FRESH_KEYS} keys",
                w.map.table_len()
            );
            stale_lookups.fetch_add(w.map.stale_lookups_for_test(), Ordering::Relaxed);
        },
    );
    assert!(
        stale_lookups.load(Ordering::Relaxed) > 0,
        "no seed grew the index while another thread was probing it"
    );
}

#[test]
fn insert_without_reprobe_is_caught_by_the_first_touch_sweep() {
    // Mutation check: an insert that skips its re-probe under the shard
    // mutex creates a second entry — a second lock — for a key another
    // thread inserted after this one's lookup missed. The first-touch
    // sweep must catch it, as a mutual-exclusion break or as a table
    // with more entries than keys.
    let mut caught = 0;
    for seed in txboost_sched::seeds_from_env(200) {
        let w = first_touch_world();
        w.map.skip_insert_reprobe_for_test();
        let report = txboost_sched::run_with_seed(seed, 3, |tid| first_touch_body(&w, tid));
        if report.failed() || !first_touch_coherent(&w) {
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "no seed caught the duplicate insert — the first-touch sweep has no teeth"
    );
}
