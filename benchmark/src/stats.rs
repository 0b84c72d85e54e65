//! Exact sample statistics.
//!
//! Every latency the benchmark reports comes from raw per-request
//! samples (nanoseconds), never from the program's power-of-two
//! histograms. Percentiles use the nearest-rank rule on the sorted
//! samples, so a reported value is always one that was measured.

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`
/// samples; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median and 99th percentile of a sample set, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (ns).
    pub p50: u64,
    /// 99th percentile (ns).
    pub p99: u64,
}

impl Summary {
    /// Summarise `samples` (sorted in place).
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        Summary {
            n: samples.len(),
            p50: percentile_sorted(samples, 50.0),
            p99: percentile_sorted(samples, 99.0),
        }
    }
}

/// Median of a small set of floats (set-up repetitions); 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Fewest steal-free slices the throughput estimate is taken over.
pub const MIN_CLEAN_SLICES: usize = 10;

/// Saturation throughput (per second) from per-slice completion counts.
/// A slice is clean when the hypervisor stole no time in it: steal is
/// outside the program and only ever removes throughput. Nothing the
/// program does decides which slices count, so a program that stalls
/// shows its stalls. Returns the median over clean slices and their
/// number; when fewer than [`MIN_CLEAN_SLICES`] were clean, the median
/// over every slice and `false` (the host, not the program, set that
/// run's figure — the caller flags it).
pub fn throughput(counts: &[u64], steal: &[u64], slice: std::time::Duration) -> (f64, usize, bool) {
    let per_s = |n: &u64| *n as f64 / slice.as_secs_f64();
    let clean: Vec<f64> = counts
        .iter()
        .enumerate()
        .filter(|(i, _)| steal.get(*i) == Some(&0))
        .map(|(_, n)| per_s(n))
        .collect();
    if clean.len() >= MIN_CLEAN_SLICES {
        (median_f64(&clean), clean.len(), true)
    } else {
        let all: Vec<f64> = counts.iter().map(per_s).collect();
        (median_f64(&all), all.len(), false)
    }
}

/// A fixed-capacity uniform sample of a stream (Vitter's algorithm R).
/// The buffer is allocated and touched up front, so the resident set
/// does not grow with the number of values offered — the benchmark
/// process's peak RSS is one of its own metrics on `hot_locks`.
#[derive(Debug)]
pub struct Reservoir {
    buf: Vec<u64>,
    len: usize,
    seen: u64,
    rng: crate::gen::Rng,
}

impl Reservoir {
    /// An empty reservoir holding at most `capacity` values.
    pub fn new(capacity: usize, seed: u64) -> Reservoir {
        Reservoir {
            buf: vec![0; capacity.max(1)],
            len: 0,
            seen: 0,
            rng: crate::gen::Rng::new(seed),
        }
    }

    /// Offer one value.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = v;
            self.len += 1;
        } else {
            let j = self.rng.below(self.seen);
            if let Some(slot) = self.buf.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn into_samples(mut self) -> Vec<u64> {
        self.buf.truncate(self.len);
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[1, 2], 50.0), 1);
        assert_eq!(percentile_sorted(&[1, 2], 100.0), 2);
        let mut odd = vec![5, 1, 3];
        assert_eq!(Summary::of(&mut odd).p50, 3);
    }

    #[test]
    fn sample_counts_match_the_input() {
        let mut v: Vec<u64> = (0..999).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 999);
        // Ten samples (990..=998) lie beyond the 99th percentile.
        assert_eq!(s.p99, 989);
        assert_eq!(Summary::of(&mut []).n, 0);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn throughput_skips_slices_with_steal() {
        let slice = std::time::Duration::from_millis(100);
        let mut counts = vec![100u64; 12];
        let mut steal = vec![0u64; 12];
        counts[0] = 10;
        steal[0] = 5;
        counts[1] = 20;
        steal[1] = 2;
        assert_eq!(throughput(&counts, &steal, slice), (1000.0, 10, true));
        // A slow slice without steal is the program's and counts.
        for c in &mut counts[2..8] {
            *c = 30;
        }
        assert_eq!(throughput(&counts, &steal, slice), (300.0, 10, true));
        // Too few steal-free slices: every slice counts, and the run
        // is marked as set by the host.
        let steal = vec![1u64; 12];
        assert_eq!(throughput(&counts, &steal, slice), (300.0, 12, false));
    }

    #[test]
    fn reservoir_counts_every_value_and_keeps_capacity() {
        let mut r = Reservoir::new(100, 1);
        for v in 0..10_000 {
            r.push(v);
        }
        assert_eq!(r.seen(), 10_000);
        let s = r.into_samples();
        assert_eq!(s.len(), 100);
        // A uniform sample of 0..10000 has its median near 5000.
        let mut s = s;
        let m = Summary::of(&mut s).p50;
        assert!((2_000..8_000).contains(&m), "median {m}");
        let mut small = Reservoir::new(100, 1);
        for v in 0..10 {
            small.push(v);
        }
        assert_eq!(small.into_samples(), (0..10).collect::<Vec<_>>());
    }
}
