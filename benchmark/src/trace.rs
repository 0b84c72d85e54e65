//! In-memory spans recorded by the benchmark around its calls into
//! each layer's public functions.
//!
//! A span has a name, a start, a duration, the span that caused it
//! (its parent) and the id of the request it serves. Spans stay in a
//! preallocated buffer until the run ends; a layer's self time is its
//! spans' durations minus the parts their child spans cover.

use std::time::Instant;

/// Every span the benchmark records, with the layer it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// `encode_request` + length prefix.
    WireEncode,
    /// `FrameDecoder` feed/next_frame + `decode_request`.
    WireDecode,
    /// `encode_response`.
    WireEncodeResp,
    /// `Batcher::run_tick`.
    BatchTick,
    /// `Executor::execute` of a lone script (a run of one).
    ExecScript,
    /// `Executor::execute_batch` of a joint transaction.
    ExecBatch,
    /// `Executor::execute_read_only`.
    ExecReadOnly,
    /// `GroupCommitWal::enqueue`.
    WalEnqueue,
    /// `TxnManager::run`.
    TxnRun,
    /// One attempt of a transaction body.
    TxnAttempt,
    /// `BoostedHashMap::get`.
    BoostedGet,
    /// `BoostedHashMap::put`.
    BoostedPut,
    /// `BoostedHashMap::remove`.
    BoostedRemove,
}

/// The per-layer metrics that report each layer's self time per
/// operation, in layer order.
pub const LAYERS: [&str; 6] = [
    "self_us_per_op.wire",
    "self_us_per_op.batch",
    "self_us_per_op.exec",
    "self_us_per_op.wal",
    "self_us_per_op.txn",
    "self_us_per_op.boosted",
];

impl Name {
    /// The layer (index into [`LAYERS`]) the span's self time counts
    /// toward.
    pub fn layer(self) -> usize {
        match self {
            Name::WireEncode | Name::WireDecode | Name::WireEncodeResp => 0,
            Name::BatchTick => 1,
            Name::ExecScript | Name::ExecBatch | Name::ExecReadOnly => 2,
            Name::WalEnqueue => 3,
            Name::TxnRun | Name::TxnAttempt => 4,
            Name::BoostedGet | Name::BoostedPut | Name::BoostedRemove => 5,
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in ns after the recorder's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Request (or transaction) the span serves.
    pub req: u32,
    /// What was called.
    pub name: Name,
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder that holds up to `capacity` spans without growing.
    pub fn new(epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Whether the buffer is full (callers stop tracing new work).
    pub fn full(&self) -> bool {
        self.spans.len() + 64 >= self.spans.capacity()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: Name, req: u32) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            start_ns,
            dur_ns: 0,
            parent,
            req,
            name,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one).
    #[inline]
    pub fn end(&mut self, idx: u32) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[idx as usize];
        span.dur_ns = now.saturating_sub(span.start_ns);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx));
    }

    /// Record a closed span with known bounds, nested in the innermost
    /// open one (used for work observed between two callbacks).
    pub fn record(&mut self, name: Name, req: u32, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.ns(start);
        self.spans.push(Span {
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
            parent,
            req,
            name,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child[s.parent as usize] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Total self time per layer (ns), indexed like [`LAYERS`].
pub fn layer_self_ns(spans: &[Span]) -> [u64; LAYERS.len()] {
    let mut out = [0u64; LAYERS.len()];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out[s.name.layer()] += t;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: Name) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 16);
        let t = r.begin(Name::BatchTick, 0);
        let e = r.begin(Name::ExecScript, 1);
        std::thread::sleep(Duration::from_millis(2));
        r.end(e);
        std::thread::sleep(Duration::from_micros(20));
        let now = Instant::now();
        r.record(Name::WireEncodeResp, 1, now - Duration::from_micros(5), now);
        r.end(t);
        let spans = r.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[2].dur_ns, 5_000);
        let st = self_times(spans);
        assert_eq!(st[0], spans[0].dur_ns - spans[1].dur_ns - 5_000);
        assert!(spans[1].dur_ns >= 2_000_000);
        let layers = layer_self_ns(spans);
        assert_eq!(layers[2], spans[1].dur_ns);
        assert_eq!(layers[0], 5_000);
        assert_eq!(durations(spans, Name::ExecScript), vec![spans[1].dur_ns]);
    }
}
