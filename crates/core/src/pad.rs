//! Cache-line padding and per-thread striping for hot shared state.
//!
//! Two transactions on disjoint keys share no abstract lock, so the
//! only thing that can still couple them is a cache line both write.
//! Every such line on the transaction path is either padded (shards of
//! the lock, version and base tables, so neighbouring shards stop
//! sharing a line) or striped per thread (statistics counters, so each
//! thread bumps a line it owns). A striped counter's `sum` adds every
//! stripe, so counts stay exact; only the reader pays for the spread.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per striped counter or histogram. Threads are assigned
/// stripes round-robin in first-use order, so up to this many threads
/// never share a stripe; more threads share (correctly, just with the
/// old contention).
pub(crate) const STRIPES: usize = 8;

/// A value aligned to (and therefore alone on) its own 128-byte block:
/// two cache lines, because x86's adjacent-line prefetcher couples
/// pairs of 64-byte lines.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Next stripe to hand to a thread that has none yet.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index; `usize::MAX` until first use.
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's stripe, in `0..STRIPES`. Assigned once per
/// thread (one shared `fetch_add` at first use, never again).
#[inline]
pub(crate) fn stripe() -> usize {
    STRIPE.with(|s| {
        let i = s.get();
        if i != usize::MAX {
            return i;
        }
        let i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
        s.set(i);
        i
    })
}

/// Build a boxed slice of `n` padded values.
pub(crate) fn padded<T>(n: usize, mut make: impl FnMut() -> T) -> Box<[CachePadded<T>]> {
    (0..n).map(|_| CachePadded(make())).collect()
}

/// A relaxed event counter striped per thread: `add` writes only the
/// caller's stripe, `sum` reads them all.
#[derive(Debug)]
pub(crate) struct StripedCounter(Box<[CachePadded<AtomicU64>]>);

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter(padded(STRIPES, || AtomicU64::new(0)))
    }
}

impl StripedCounter {
    /// Add `n` to the calling thread's stripe.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.0[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    /// The exact total over every stripe (relaxed; exact once writers
    /// are quiescent, like any relaxed counter).
    pub(crate) fn sum(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_never_share_a_block() {
        let v = padded(4, || AtomicU64::new(0));
        for pair in v.windows(2) {
            let a = std::ptr::from_ref(&pair[0]) as usize;
            let b = std::ptr::from_ref(&pair[1]) as usize;
            assert_eq!(a % 128, 0);
            assert!(b - a >= 128);
        }
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        let s = stripe();
        assert!(s < STRIPES);
        assert_eq!(stripe(), s);
    }

    #[test]
    fn concurrent_striped_adds_sum_exactly() {
        let c = StripedCounter::default();
        std::thread::scope(|s| {
            for _ in 0..(STRIPES + 3) {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.sum(), (STRIPES as u64 + 3) * 10_000);
    }
}
