//! The per-thread striped counters on the transaction path stay exact.
//!
//! `TxnStats`, the lock sites' acquisition counts and the MVCC install
//! and snapshot-read counts are striped per thread so that disjoint
//! transactions share no written cache line. Striping must not cost
//! accuracy: after N threads × M transactions every count is exactly
//! what a single shared counter would hold.

use std::sync::Arc;
use txboost_core::locks::KeyLockMap;
use txboost_core::{ContentionRegistry, MvccDomain, TxnManager, VersionStore};

const THREADS: u64 = 6;
const TXNS: u64 = 400;
const KEYS_PER_TXN: u64 = 3;

#[test]
fn striped_hot_counters_are_exact_across_threads() {
    let tm = TxnManager::default();
    let registry = ContentionRegistry::new();
    let locks = KeyLockMap::<u64>::labeled("counted", &registry);
    // A private domain: its metrics see only this test's installs and
    // reads, whatever other tests commit against the global clock.
    let domain = Arc::new(MvccDomain::new());
    let store = Arc::new(VersionStore::<u64, u64>::new(Arc::clone(&domain), 4));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (tm, locks, store) = (&tm, &locks, &store);
            s.spawn(move || {
                for i in 0..TXNS {
                    tm.run(|txn| {
                        for k in 0..KEYS_PER_TXN {
                            // Disjoint keys per thread, reacquired once
                            // (a cache hit, which is not an acquisition).
                            let key = t * 1_000 + k;
                            locks.lock(txn, &key)?;
                            locks.lock(txn, &key)?;
                        }
                        let pin = txn.pin(store);
                        let key = t * 1_000;
                        txn.log_version_install(move |p| {
                            p.get::<VersionStore<u64, u64>>(pin).install(key, Some(i));
                        });
                        Ok(())
                    })
                    .unwrap();
                    let ts = MvccDomain::global().clock.stable();
                    assert_eq!(store.read_at(&(t * 1_000), ts), Some(i));
                }
            });
        }
    });

    let stats = tm.stats().snapshot();
    assert_eq!(stats.started, THREADS * TXNS);
    assert_eq!(stats.committed, THREADS * TXNS);
    assert_eq!(stats.aborted, 0);
    assert_eq!(tm.stats().attempt_durations().count(), THREADS * TXNS);
    assert_eq!(tm.stats().undo_depth_at_commit().count(), THREADS * TXNS);

    let sites = registry.snapshot();
    let acquisitions: u64 = sites.sites.iter().map(|s| s.acquisitions).sum();
    assert_eq!(acquisitions, THREADS * TXNS * KEYS_PER_TXN);

    let mvcc = domain.metrics.snapshot();
    assert_eq!(mvcc.installs, THREADS * TXNS);
    assert_eq!(mvcc.chain_len.count(), THREADS * TXNS);
    assert_eq!(mvcc.snapshot_reads, THREADS * TXNS);
}
