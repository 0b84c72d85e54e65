//! The wire load generator: one thread driving a few nonblocking
//! connections through the server crate's public `epoll` wrapper.
//!
//! Two phase shapes:
//!
//! * **closed loop** ([`Generator::closed`]) — each connection keeps a
//!   fixed window of requests in flight and sends the next one when a
//!   reply arrives; measures throughput at saturation.
//! * **open loop** ([`Generator::open`]) — request `i` is due at
//!   `i / rate` seconds into the phase and is sent then regardless of
//!   replies; latency is timed from the due time, so a stall is
//!   charged to every request it delays. The generator's own lateness
//!   (send time minus due time) and CPU use are reported alongside.
//!
//! Every reply is checked against what its script must return.

use crate::gen::{due_ns, stamp_req_id, Class, Item, Kind, Pool};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};
use txboost_server::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use txboost_wire::{
    decode_response, FrameDecoder, OpResult, Response, ScriptStatus, MAX_FRAME_LEN,
};

struct InFlight {
    req_id: u64,
    item: usize,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    writing: bool,
    inflight: VecDeque<InFlight>,
}

/// Output checks accumulated over every reply.
#[derive(Debug, Default)]
pub struct Checks {
    /// Committed `counter_add` scripts.
    pub counter_adds: u64,
    /// `counter_add` scripts that never got a reply.
    pub unanswered_adds: u64,
    /// Every id an `id_gen` script returned.
    pub ids: Vec<u64>,
    /// Replies whose results contradict their script.
    pub wrong: u64,
    /// The first few contradictions, for the error report.
    pub examples: Vec<String>,
}

impl Checks {
    /// Record a contradiction.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub attempted: u64,
    /// Replies with status `committed`.
    pub committed: u64,
    /// Replies with another status.
    pub not_committed: u64,
    /// Requests without a reply when the phase drained.
    pub unanswered: u64,
    /// Committed replies per [`SLICE`] of the phase (closed loop).
    pub slices: Vec<u64>,
    /// Host steal ticks during each slice.
    pub slice_steal: Vec<u64>,
    /// The server's busy share of each slice.
    pub slice_busy: Vec<f64>,
    /// Phase length.
    pub elapsed: Duration,
    /// Per-request latency (ns) from due time to reply, all kinds.
    pub lat: Vec<u64>,
    /// Latency of `rscan` scripts.
    pub lat_rscan: Vec<u64>,
    /// Latency of `read` scripts.
    pub lat_read: Vec<u64>,
    /// Latency of mutating scripts.
    pub lat_write: Vec<u64>,
    /// Generator lateness (ns): send time minus due time.
    pub lag: Vec<u64>,
    /// Generator thread CPU seconds during the phase.
    pub gen_cpu_s: f64,
    /// Request bytes written.
    pub bytes_sent: u64,
    /// Reply bytes read.
    pub bytes_recv: u64,
}

/// Connect one nonblocking connection and register it under token `i`.
fn open_conn(epoll: &Epoll, addr: &str, i: usize) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    epoll
        .add(stream.as_raw_fd(), EPOLLIN, i as u64)
        .map_err(|e| format!("epoll add: {e}"))?;
    Ok(Conn {
        stream,
        dec: FrameDecoder::new(MAX_FRAME_LEN),
        out: Vec::with_capacity(64 * 1024),
        out_pos: 0,
        writing: false,
        inflight: VecDeque::new(),
    })
}

impl Phase {
    /// Fold a later phase of the same shape into this one.
    pub fn absorb(&mut self, p: Phase) {
        self.attempted += p.attempted;
        self.committed += p.committed;
        self.not_committed += p.not_committed;
        self.unanswered += p.unanswered;
        self.slices.extend(p.slices);
        self.slice_steal.extend(p.slice_steal);
        self.slice_busy.extend(p.slice_busy);
        self.elapsed += p.elapsed;
        self.lat.extend(p.lat);
        self.lat_rscan.extend(p.lat_rscan);
        self.lat_read.extend(p.lat_read);
        self.lat_write.extend(p.lat_write);
        self.lag.extend(p.lag);
        self.gen_cpu_s += p.gen_cpu_s;
        self.bytes_sent += p.bytes_sent;
        self.bytes_recv += p.bytes_recv;
    }
}

/// One generator thread and its connections.
pub struct Generator<'a> {
    epoll: Epoll,
    addr: String,
    server_pid: u32,
    conns: Vec<Conn>,
    pool: &'a Pool,
    next_item: usize,
    next_req_id: u64,
    /// Transport failures (resets, closes, protocol errors, mismatched
    /// reply ids).
    pub transport_errors: u64,
    /// Reply checks.
    pub checks: Checks,
    events: Vec<EpollEvent>,
    rbuf: Vec<u8>,
}

/// Completion sink of one phase.
struct Sink<'p> {
    phase: &'p mut Phase,
    record_latency: bool,
    /// Closed loop: the measured window.
    window: Option<(Instant, Instant)>,
}

/// Closed-loop throughput is counted per slice of this length.
pub const SLICE: Duration = Duration::from_millis(100);

impl<'a> Generator<'a> {
    /// Connect `n` nonblocking connections to the server at `addr`,
    /// whose process is `server_pid`.
    pub fn connect(
        addr: &str,
        server_pid: u32,
        n: usize,
        pool: &'a Pool,
    ) -> Result<Generator<'a>, String> {
        let epoll = Epoll::new().map_err(|e| format!("epoll: {e}"))?;
        let conns = (0..n)
            .map(|i| open_conn(&epoll, addr, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Generator {
            epoll,
            addr: addr.to_string(),
            server_pid,
            conns,
            pool,
            next_item: 0,
            next_req_id: 1,
            transport_errors: 0,
            checks: Checks::default(),
            events: vec![EpollEvent::zeroed(); 16],
            rbuf: vec![0; 256 * 1024],
        })
    }

    /// Buffer the pool's next script on connection `c` (sent by the
    /// next flush).
    fn buffer_next(&mut self, c: usize, due: Instant, phase: &mut Phase) {
        let item = self.next_item;
        self.next_item = (self.next_item + 1) % self.pool.items.len();
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let conn = &mut self.conns[c];
        let start = conn.out.len();
        conn.out.extend_from_slice(&self.pool.items[item].frame);
        stamp_req_id(&mut conn.out[start..], req_id);
        conn.inflight.push_back(InFlight { req_id, item, due });
        phase.attempted += 1;
        phase.bytes_sent += self.pool.items[item].frame.len() as u64;
    }

    /// Write every connection's buffered requests (one syscall each
    /// when the socket has room).
    fn flush_all(&mut self) {
        for c in 0..self.conns.len() {
            self.flush(c);
        }
    }

    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.transport_errors += 1;
                    conn.out.clear();
                    conn.out_pos = 0;
                    return;
                }
            }
        }
        let pending = conn.out_pos < conn.out.len();
        if !pending {
            conn.out.clear();
            conn.out_pos = 0;
        }
        if pending != conn.writing {
            conn.writing = pending;
            let ev = if pending { EPOLLIN | EPOLLOUT } else { EPOLLIN };
            let _ = self.epoll.modify(conn.stream.as_raw_fd(), ev, c as u64);
        }
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Wait up to `timeout` for readiness and process every reply;
    /// returns the connections that completed a request, in order.
    fn poll(&mut self, timeout: Duration, sink: &mut Sink<'_>, done: &mut Vec<usize>) {
        let n = match self.epoll.wait(&mut self.events, Some(timeout)) {
            Ok(n) => n,
            Err(_) => {
                self.transport_errors += 1;
                return;
            }
        };
        for e in 0..n {
            let ev = self.events[e];
            let (flags, c) = (ev.events, ev.data as usize);
            if flags & EPOLLOUT != 0 {
                self.flush(c);
            }
            if flags & !EPOLLOUT != 0 {
                self.read_conn(c, sink, done);
            }
        }
    }

    fn read_conn(&mut self, c: usize, sink: &mut Sink<'_>, done: &mut Vec<usize>) {
        loop {
            let read = self.conns[c].stream.read(&mut self.rbuf);
            let now = Instant::now();
            match read {
                Ok(0) => {
                    if !self.conns[c].inflight.is_empty() {
                        self.transport_errors += 1;
                    }
                    let _ = self.epoll.delete(self.conns[c].stream.as_raw_fd());
                    return;
                }
                Ok(n) => {
                    sink.phase.bytes_recv += n as u64;
                    self.conns[c].dec.feed(&self.rbuf[..n]);
                    loop {
                        let frame = match self.conns[c].dec.next_frame() {
                            Ok(Some(f)) => f,
                            Ok(None) => break,
                            Err(_) => {
                                self.transport_errors += 1;
                                break;
                            }
                        };
                        let Some(fl) = self.conns[c].inflight.pop_front() else {
                            self.transport_errors += 1;
                            continue;
                        };
                        match decode_response(&frame) {
                            Ok(resp) => self.complete(&fl, &resp, now, sink),
                            Err(_) => self.transport_errors += 1,
                        }
                        done.push(c);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.transport_errors += 1;
                    return;
                }
            }
        }
    }

    fn complete(&mut self, fl: &InFlight, resp: &Response, now: Instant, sink: &mut Sink<'_>) {
        let item: &Item = &self.pool.items[fl.item];
        let Response::Script {
            req_id,
            status,
            results,
            ..
        } = resp
        else {
            self.transport_errors += 1;
            self.checks
                .wrong(format!("request {} answered with {resp:?}", fl.req_id));
            return;
        };
        if *req_id != fl.req_id {
            // Replies on one connection must come back in send order.
            self.transport_errors += 1;
            self.checks
                .wrong(format!("reply {req_id} where {} was next", fl.req_id));
            return;
        }
        if *status != ScriptStatus::Committed {
            sink.phase.not_committed += 1;
            return;
        }
        sink.phase.committed += 1;
        if let Some((start, end)) = sink.window {
            if now <= end {
                let slice =
                    (now.saturating_duration_since(start).as_nanos() / SLICE.as_nanos()) as usize;
                if let Some(n) = sink.phase.slices.get_mut(slice) {
                    *n += 1;
                }
            }
        }
        check_results(item.kind, results, &mut self.checks, fl.req_id);
        if sink.record_latency {
            let ns = now.saturating_duration_since(fl.due).as_nanos() as u64;
            sink.phase.lat.push(ns);
            match item.kind.class() {
                Class::Rscan => sink.phase.lat_rscan.push(ns),
                Class::Read => sink.phase.lat_read.push(ns),
                Class::Write => sink.phase.lat_write.push(ns),
            }
        }
    }

    /// Wait until every request has a reply (or `limit` passes; the
    /// rest count as unanswered).
    fn drain(&mut self, sink: &mut Sink<'_>, limit: Duration) {
        let deadline = Instant::now() + limit;
        let mut done = Vec::new();
        while self.in_flight() > 0 && Instant::now() < deadline {
            for c in 0..self.conns.len() {
                self.flush(c);
            }
            self.poll(Duration::from_millis(5), sink, &mut done);
        }
        let left = self.in_flight() as u64;
        if left == 0 {
            return;
        }
        // Give up on the stragglers: count them, and replace their
        // connections so a late reply cannot be matched to a later
        // request.
        sink.phase.unanswered += left;
        for c in 0..self.conns.len() {
            let adds = self.conns[c]
                .inflight
                .iter()
                .filter(|f| self.pool.items[f.item].kind == Kind::CounterAdd)
                .count();
            self.checks.unanswered_adds += adds as u64;
            let _ = self.epoll.delete(self.conns[c].stream.as_raw_fd());
            match open_conn(&self.epoll, &self.addr, c) {
                Ok(conn) => self.conns[c] = conn,
                Err(_) => self.transport_errors += 1,
            }
        }
    }

    /// Closed loop: `window` requests in flight per connection for
    /// `length`; throughput counts replies received within it.
    pub fn closed(&mut self, window: usize, length: Duration) -> Phase {
        let mut phase = Phase {
            slices: vec![0; (length.as_nanos() / SLICE.as_nanos()) as usize],
            ..Phase::default()
        };
        let cpu0 = crate::procfs::cpu_seconds("thread-self");
        let start = Instant::now();
        let end = start + SLICE * phase.slices.len() as u32;
        for c in 0..self.conns.len() {
            for _ in 0..window {
                self.buffer_next(c, start, &mut phase);
            }
        }
        self.flush_all();
        let mut done = Vec::new();
        let mut probe = crate::procfs::SliceProbe::new(phase.slices.len(), Some(self.server_pid));
        loop {
            let mut sink = Sink {
                phase: &mut phase,
                record_latency: false,
                window: Some((start, end)),
            };
            self.poll(Duration::from_millis(5), &mut sink, &mut done);
            let now = Instant::now();
            probe.tick(now.saturating_duration_since(start));
            if now >= end {
                break;
            }
            for c in done.drain(..) {
                self.buffer_next(c, now, &mut phase);
            }
            self.flush_all();
        }
        phase.elapsed = start.elapsed().min(length);
        (phase.slice_steal, phase.slice_busy) = probe.finish();
        let mut sink = Sink {
            phase: &mut phase,
            record_latency: false,
            window: Some((start, end)),
        };
        self.drain(&mut sink, Duration::from_secs(10));
        phase.gen_cpu_s = crate::procfs::cpu_seconds("thread-self") - cpu0;
        phase
    }

    /// Open loop at `rate` requests/s across the connections (request
    /// `i` goes to connection `i mod n`) for `length`.
    pub fn open(&mut self, rate: u64, length: Duration) -> Phase {
        let mut phase = Phase::default();
        let expected = (rate as f64 * length.as_secs_f64()) as usize + 16;
        phase.lat.reserve(expected);
        phase.lag.reserve(expected);
        let cpu0 = crate::procfs::cpu_seconds("thread-self");
        let start = Instant::now();
        let length_ns = length.as_nanos() as u64;
        let mut i: u64 = 0;
        let mut done = Vec::new();
        loop {
            let t = start.elapsed().as_nanos() as u64;
            if t >= length_ns {
                break;
            }
            while due_ns(i, rate) <= t && due_ns(i, rate) < length_ns {
                // Lag is taken when the generator turns to the request;
                // the send syscall that follows is transport, and is
                // charged to the request's latency.
                let due = start + Duration::from_nanos(due_ns(i, rate));
                phase
                    .lag
                    .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                let c = (i % self.conns.len() as u64) as usize;
                self.buffer_next(c, due, &mut phase);
                i += 1;
            }
            self.flush_all();
            let wait_ns = due_ns(i, rate).saturating_sub(start.elapsed().as_nanos() as u64);
            // epoll timeouts are whole milliseconds: block only when
            // the next request is comfortably far off, else poll.
            let timeout = if wait_ns > 2_000_000 {
                Duration::from_millis(wait_ns / 1_000_000 - 1)
            } else {
                Duration::ZERO
            };
            let mut sink = Sink {
                phase: &mut phase,
                record_latency: true,
                window: None,
            };
            self.poll(timeout, &mut sink, &mut done);
            done.clear();
        }
        phase.elapsed = length;
        let mut sink = Sink {
            phase: &mut phase,
            record_latency: true,
            window: None,
        };
        self.drain(&mut sink, Duration::from_secs(10));
        phase.gen_cpu_s = crate::procfs::cpu_seconds("thread-self") - cpu0;
        phase
    }
}

/// Check one committed reply's results against its script.
pub fn check_results(kind: Kind, results: &[OpResult], checks: &mut Checks, req_id: u64) {
    let ok = match kind {
        // Transfers remove and re-insert a key atomically, so every
        // prefilled key is bound in every committed state.
        Kind::Rscan | Kind::Read => {
            results.len() == crate::gen::READ_KEYS
                && results.iter().all(|r| *r == OpResult::Bool(true))
        }
        Kind::Transfer => {
            matches!(results, [OpResult::Value(Some(_)), OpResult::Value(None)])
        }
        Kind::CounterAdd => {
            let ok = results == [OpResult::Unit];
            if ok {
                checks.counter_adds += 1;
            }
            ok
        }
        Kind::IdGen => match results {
            [OpResult::Id(id)] => {
                checks.ids.push(*id);
                true
            }
            _ => false,
        },
    };
    if !ok {
        checks.wrong(format!("request {req_id} ({kind:?}) returned {results:?}"));
    }
}
