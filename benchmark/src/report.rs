//! Metric names, units, and the result the benchmark prints.
//!
//! Standard output ends with one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (each `{"value", "unit"}`). The lines before
//! it are for people: a table of every metric with its sample count,
//! then one JSON line of provenance (host, build, seed, rate, input
//! digest) and sample counts.

use crate::json::{number, quote};
use crate::trace::{self, Span};
use txboost_core::{ContentionSnapshot, HistogramSnapshot, MvccSnapshot};

/// The end-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p50_us.write", "us"),
    ("ok_frac", "ratio"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`): name and unit. A 0 with sample
/// count 0 means "not measured on this workload": either the workload
/// bypasses the layer (`hot_locks`: wire, batch, exec, WAL), or the
/// layer does work there that the benchmark cannot wrap from outside
/// (`kv_read_mostly`: `txn.run_us.*`, `txn.abort_time_frac` and
/// `boosted.*` run inside `Executor::execute`). Read such a 0 as
/// missing, not as zero cost. Units ending in `_2x` come from the
/// program's power-of-two histograms: the value is the upper edge of
/// the bucket holding the percentile, so it can over-state by up to 2x.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("lat_p99_us", "us"),
    ("gen.lag_us.p50", "us"),
    ("gen.lag_us.p99", "us"),
    ("gen.cpu_frac", "ratio"),
    ("lat_p50_us.rscan", "us"),
    ("lat_p50_us.read", "us"),
    ("fail_frac", "ratio"),
    ("wal_bytes_per_op", "bytes"),
    ("wire.encode_ns.p50", "ns"),
    ("wire.decode_ns.p50", "ns"),
    ("wire.encode_resp_ns.p50", "ns"),
    ("wire.req_bytes_per_op", "bytes"),
    ("wire.resp_bytes_per_op", "bytes"),
    ("batch.eligible_frac", "ratio"),
    ("batch.scripts_per_batch", "count"),
    ("batch.fallback_frac", "ratio"),
    ("batch.tick_us.p50", "us"),
    ("exec.script_us.p50", "us"),
    ("exec.script_us.p99", "us"),
    ("exec.read_only_us.p50", "us"),
    ("exec.batch_us.p50", "us"),
    ("exec.attempts_per_script", "count"),
    ("exec.status.lock_timeout", "count"),
    ("exec.status.retries_exhausted", "count"),
    ("txn.run_us.p50", "us"),
    ("txn.run_us.p99", "us"),
    ("txn.attempts_per_commit", "count"),
    ("txn.abort_time_frac", "ratio"),
    ("lock.acq_per_txn", "count"),
    ("lock.contended_frac", "ratio"),
    ("lock.wait_us.p50", "us_2x"),
    ("lock.wait_us.p99", "us_2x"),
    ("lock.timeouts", "count"),
    ("boosted.get_ns.p50", "ns"),
    ("boosted.put_ns.p50", "ns"),
    ("boosted.remove_ns.p50", "ns"),
    ("mvcc.snapshot_reads_per_op", "count"),
    ("mvcc.installs_per_op", "count"),
    ("mvcc.chain_len.p99", "count_2x"),
    ("mvcc.gc_reclaimed_per_install", "ratio"),
    ("wal.records_per_fsync", "count"),
    ("wal.fsync_us.p50", "us_2x"),
    ("wal.fsync_us.p99", "us_2x"),
    ("wal.append_us.p50", "us_2x"),
    ("wal.enqueue_ns.p50", "ns"),
    ("wal.ticket_wait_us.p50", "us"),
    ("wal.ticket_wait_us.p99", "us"),
    ("wal.recover_s", "s"),
    ("wal.replay_s", "s"),
    ("io.residual_us.p50", "us"),
    ("self_us_per_op.wire", "us"),
    ("self_us_per_op.batch", "us"),
    ("self_us_per_op.exec", "us"),
    ("self_us_per_op.wal", "us"),
    ("self_us_per_op.txn", "us"),
    ("self_us_per_op.boosted", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.ops", "count"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind it (0 for counters and ratios of counters).
    pub samples: u64,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests or transactions attempted.
    pub attempted: u64,
    /// Attempts that did not commit, failed in transport, or were
    /// never answered.
    pub failed: u64,
    /// Output-check failures; any makes the run fail.
    pub errors: Vec<String>,
    /// Measured values.
    pub metrics: Vec<Metric>,
    /// Provenance and context, printed before the result.
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Record a metric.
    pub fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Record a provenance or context field.
    pub fn info(&mut self, key: &str, value: impl Info) {
        self.info.push((key.to_string(), value.json()));
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Print the table, the provenance line and the result line, after
    /// verifying that exactly the metrics of `spec` are present.
    pub fn print(&self, spec: &[(&'static str, &'static str)]) -> Result<(), String> {
        if !self.errors.is_empty() {
            // A failed check fails the run: no numbers are reported.
            println!("{}", self.provenance_line());
            println!(
                "{{\"correct\":false,\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
                self.attempted.max(1),
                self.failed
            );
            return Err(format!("{} output check(s) failed", self.errors.len()));
        }
        for (name, _) in spec {
            if !self.metrics.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} was not measured"));
            }
        }
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !spec.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!("metric {} is not in this mode's list", m.name));
        }
        let unit = |name: &str| {
            spec.iter()
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.4} {:<9} n={}",
                m.name,
                m.value,
                unit(m.name),
                m.samples
            );
        }
        println!("{}", self.provenance_line());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(m.name),
                    number(m.value),
                    quote(unit(m.name))
                )
            })
            .collect();
        println!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        Ok(())
    }

    /// Lock-site metrics from a registry delta over `txns` commits.
    pub fn lock_metrics(&mut self, locks: &ContentionSnapshot, txns: u64) {
        let acq: u64 = locks.sites.iter().map(|s| s.acquisitions).sum();
        let contended: u64 = locks.sites.iter().map(|s| s.contended).sum();
        let wait = locks.wait_hist();
        self.put("lock.acq_per_txn", ratio(acq as f64, txns as f64), txns);
        self.put(
            "lock.contended_frac",
            ratio(contended as f64, acq as f64),
            acq,
        );
        self.put("lock.wait_us.p50", hist_us(&wait, 0.5), wait.count());
        self.put("lock.wait_us.p99", hist_us(&wait, 0.99), wait.count());
    }

    /// MVCC metrics from two snapshots of the process-wide domain,
    /// per operation over `ops`.
    pub fn mvcc_metrics(&mut self, before: &MvccSnapshot, after: &MvccSnapshot, ops: u64) {
        let reads = after.snapshot_reads - before.snapshot_reads;
        let installs = after.installs - before.installs;
        let reclaimed = after.gc_reclaimed - before.gc_reclaimed;
        let chain = after.chain_len.since(&before.chain_len);
        self.put(
            "mvcc.snapshot_reads_per_op",
            ratio(reads as f64, ops as f64),
            ops,
        );
        self.put(
            "mvcc.installs_per_op",
            ratio(installs as f64, ops as f64),
            ops,
        );
        let chain_p99 = if chain.count() == 0 {
            0.0
        } else {
            chain.p99() as f64
        };
        self.put("mvcc.chain_len.p99", chain_p99, chain.count());
        self.put(
            "mvcc.gc_reclaimed_per_install",
            ratio(reclaimed as f64, installs as f64),
            installs,
        );
    }

    /// Each layer's self time per operation over `ops` traced operations.
    pub fn self_time_metrics(&mut self, spans: &[Span], ops: u64) {
        let per_layer = trace::layer_self_ns(spans);
        for (name, ns) in trace::LAYERS.iter().zip(per_layer) {
            self.put(name, ratio(ns as f64 / 1000.0, ops as f64), ops);
        }
    }

    /// Provenance, sample counts and failed checks as one JSON line.
    fn provenance_line(&self) -> String {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{}:{}", quote(m.name), m.samples))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        format!(
            "{{\"provenance\":{{{}}},\"samples\":{{{}}},\"check_errors\":[{}]}}",
            info.join(","),
            samples.join(","),
            errors.join(",")
        )
    }
}

/// A provenance value, rendered as JSON.
pub trait Info {
    /// The JSON text.
    fn json(&self) -> String;
}

impl Info for &str {
    fn json(&self) -> String {
        quote(self)
    }
}

impl Info for String {
    fn json(&self) -> String {
        quote(self)
    }
}

impl Info for bool {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Info for f64 {
    fn json(&self) -> String {
        number(*self)
    }
}

macro_rules! integer_info {
    ($($t:ty),*) => {$(
        impl Info for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
integer_info!(u8, u64, usize);

/// Microseconds from nanoseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Percentile `p` (0..=1) of a program-side histogram in microseconds:
/// the upper edge of the power-of-two bucket holding it; 0 when empty.
pub fn hist_us(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        us(h.percentile(p))
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(!valid_name("lat p50"));
        assert!(!valid_name(".x"));
    }

    /// The lists compiled in here and the benchmark's manifest at the
    /// repository root must name the same metrics with the same units,
    /// and the same workloads as `main` accepts.
    #[test]
    fn manifest_matches_the_compiled_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                        (Some(Json::Str(n)), None) => (n.clone(), String::new()),
                        other => panic!("bad entry {other:?}"),
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_rejects_missing_or_extra_metrics() {
        let mut r = Report::default();
        r.put("setup_s", 1.0, 3);
        assert!(r.print(&END_TO_END[..1]).is_ok());
        assert!(r.print(&END_TO_END[..2]).is_err());
        r.put("gen.cpu_frac", 0.5, 0);
        assert!(r.print(&END_TO_END[..1]).is_err());
    }
}
