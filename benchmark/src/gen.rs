//! Seeded input generation.
//!
//! Every workload's inputs are a pure function of `--seed`: a pool of
//! generated transaction scripts that the load generator cycles
//! through. The program under test only ever sees the encoded scripts.
//! The pool's digest (FNV-1a over the encoded frames) is printed with
//! each result, so two runs can be checked to have fed identical bytes.

use txboost_wire::{encode_request, Op, Request, ScriptOp};

/// SplitMix64: small, fast, and stable across platforms and releases
/// (the benchmark's inputs must not change when a dependency does).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// Scripts per generated pool; the generator cycles through it.
pub const POOL_LEN: usize = 1 << 16;

/// The map every key-value script addresses.
pub const MAP: &str = "accounts";
/// The counter `counter_add` scripts increment.
pub const COUNTER: &str = "adds";
/// The unique-ID generator `id_gen` scripts draw from.
pub const IDS: &str = "ids";
/// Keys prefilled into [`MAP`] (`0..KV_KEYS`).
pub const KV_KEYS: u64 = 100_000;
/// Size of the hot key set.
pub const HOT_KEYS: u64 = 16;
/// Share (%) of key draws taken from the hot set.
pub const HOT_PCT: u64 = 20;
/// Keys per `rscan` / `read` script.
pub const READ_KEYS: usize = 4;

/// What a generated wire script does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-only snapshot script: [`READ_KEYS`] `map_contains`.
    Rscan,
    /// Locked script: [`READ_KEYS`] `map_contains`.
    Read,
    /// `map_remove(k)` then `map_insert(k, v)` on one map, atomically.
    Transfer,
    /// `counter_add(+1)`.
    CounterAdd,
    /// `id_gen`.
    IdGen,
}

/// Latency class a kind is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Snapshot reads.
    Rscan,
    /// Locked reads.
    Read,
    /// Every mutating script.
    Write,
}

impl Kind {
    /// The latency class.
    pub fn class(self) -> Class {
        match self {
            Kind::Rscan => Class::Rscan,
            Kind::Read => Class::Read,
            Kind::Transfer | Kind::CounterAdd | Kind::IdGen => Class::Write,
        }
    }
}

/// Percent shares of each kind (sum 100).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// `rscan` share.
    pub rscan: u64,
    /// `read` share.
    pub read: u64,
    /// `transfer` share.
    pub transfer: u64,
    /// `counter_add` share.
    pub counter_add: u64,
    /// `id_gen` share.
    pub id_gen: u64,
}

impl Mix {
    fn pick(&self, roll: u64) -> Kind {
        let mut edge = self.rscan;
        if roll < edge {
            return Kind::Rscan;
        }
        edge += self.read;
        if roll < edge {
            return Kind::Read;
        }
        edge += self.transfer;
        if roll < edge {
            return Kind::Transfer;
        }
        edge += self.counter_add;
        if roll < edge {
            return Kind::CounterAdd;
        }
        debug_assert!(roll < edge + self.id_gen, "shares must sum to 100");
        Kind::IdGen
    }
}

/// `kv_read_mostly`: snapshot scans beside a minority of writes.
pub const READ_MOSTLY: Mix = Mix {
    rscan: 70,
    read: 10,
    transfer: 15,
    counter_add: 3,
    id_gen: 2,
};

/// One generated script: its kind, the request (req_id 0) and its
/// encoded frame (length prefix + payload; the req_id bytes are
/// stamped per send).
#[derive(Debug, Clone)]
pub struct Item {
    /// What the script does.
    pub kind: Kind,
    /// The request as generated.
    pub req: Request,
    /// Length-prefixed encoding with req_id 0.
    pub frame: Vec<u8>,
}

/// Byte offset of the req_id inside an encoded request frame: 4-byte
/// length prefix, then the 1-byte message kind.
pub const REQ_ID_OFFSET: usize = 5;

/// Length-prefix `payload` into a frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write `req_id` into an encoded request frame.
pub fn stamp_req_id(frame: &mut [u8], req_id: u64) {
    frame[REQ_ID_OFFSET..REQ_ID_OFFSET + 8].copy_from_slice(&req_id.to_le_bytes());
}

/// A request with its req_id replaced.
pub fn with_req_id(req: &Request, id: u64) -> Request {
    match req {
        Request::Script { ops, .. } => Request::Script {
            req_id: id,
            ops: ops.clone(),
        },
        Request::ReadOnlyScript { ops, .. } => Request::ReadOnlyScript {
            req_id: id,
            ops: ops.clone(),
        },
        other => other.clone(),
    }
}

/// The generated script pool of a key-value workload.
#[derive(Debug)]
pub struct Pool {
    /// Scripts in send order (cycled).
    pub items: Vec<Item>,
    /// FNV-1a digest of every frame, in order.
    pub digest: u64,
}

fn contains(key: u64) -> ScriptOp {
    ScriptOp::new(Op::MapContains {
        obj: MAP.into(),
        key: key as i64,
    })
}

/// Generate the `kv_read_mostly` pool from `seed`.
pub fn kv_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed);
    let hot: Vec<u64> = (0..HOT_KEYS).map(|_| rng.below(KV_KEYS)).collect();
    let key = |rng: &mut Rng| {
        if rng.below(100) < HOT_PCT {
            hot[rng.below(HOT_KEYS) as usize]
        } else {
            rng.below(KV_KEYS)
        }
    };
    let mut items = Vec::with_capacity(POOL_LEN);
    let mut digest = FNV_START;
    for _ in 0..POOL_LEN {
        let kind = READ_MOSTLY.pick(rng.below(100));
        let req = match kind {
            Kind::Rscan => Request::ReadOnlyScript {
                req_id: 0,
                ops: (0..READ_KEYS).map(|_| contains(key(&mut rng))).collect(),
            },
            Kind::Read => Request::Script {
                req_id: 0,
                ops: (0..READ_KEYS).map(|_| contains(key(&mut rng))).collect(),
            },
            Kind::Transfer => {
                let k = key(&mut rng) as i64;
                let v = rng.below(1_000_000) as i64;
                Request::Script {
                    req_id: 0,
                    ops: vec![
                        ScriptOp::new(Op::MapRemove {
                            obj: MAP.into(),
                            key: k,
                        }),
                        ScriptOp::new(Op::MapInsert {
                            obj: MAP.into(),
                            key: k,
                            val: v,
                        }),
                    ],
                }
            }
            Kind::CounterAdd => Request::Script {
                req_id: 0,
                ops: vec![ScriptOp::new(Op::CounterAdd {
                    obj: COUNTER.into(),
                    delta: 1,
                })],
            },
            Kind::IdGen => Request::Script {
                req_id: 0,
                ops: vec![ScriptOp::new(Op::IdGen { obj: IDS.into() })],
            },
        };
        let frame = frame(&encode_request(&req));
        digest = fnv1a(digest, &frame);
        items.push(Item { kind, req, frame });
    }
    Pool { items, digest }
}

/// Inserts per prefill script.
pub const PREFILL_BATCH: u64 = 64;

/// The prefill scripts for [`MAP`]: keys `0..KV_KEYS`, value = key,
/// [`PREFILL_BATCH`] inserts per script.
pub fn prefill_scripts() -> Vec<Vec<ScriptOp>> {
    (0..KV_KEYS)
        .step_by(PREFILL_BATCH as usize)
        .map(|start| {
            (start..(start + PREFILL_BATCH).min(KV_KEYS))
                .map(|k| {
                    ScriptOp::new(Op::MapInsert {
                        obj: MAP.into(),
                        key: k as i64,
                        val: k as i64,
                    })
                })
                .collect()
        })
        .collect()
}

/// Nanoseconds after the start of an open-loop phase at which request
/// `i` is due, for `rate` requests per second.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate.max(1))) as u64
}

/// Keys in the `hot_locks` map.
pub const LOCK_KEYS: u64 = 256;
/// Keys each `hot_locks` transaction touches.
pub const LOCK_TXN_KEYS: usize = 8;
/// Share (%) of `hot_locks` transactions that increment.
pub const LOCK_INC_PCT: u64 = 20;

/// One `hot_locks` transaction: distinct keys in ascending order, and
/// whether it increments them (else it reads them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockTxn {
    /// Ascending, distinct keys.
    pub keys: [u64; LOCK_TXN_KEYS],
    /// `remove`+`put` increments instead of `get`s.
    pub inc: bool,
}

/// One worker thread's `hot_locks` transaction pool, with its digest.
pub fn lock_pool(seed: u64, thread: u64, len: usize) -> (Vec<LockTxn>, u64) {
    let mut rng = Rng::new(seed ^ (thread + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut digest = FNV_START;
    let pool = (0..len)
        .map(|_| {
            let mut keys = [0u64; LOCK_TXN_KEYS];
            let mut n = 0;
            while n < LOCK_TXN_KEYS {
                let k = rng.below(LOCK_KEYS);
                if !keys[..n].contains(&k) {
                    keys[n] = k;
                    n += 1;
                }
            }
            keys.sort_unstable();
            let inc = rng.below(100) < LOCK_INC_PCT;
            for k in keys {
                digest = fnv1a(digest, &(k as u16).to_le_bytes());
            }
            digest = fnv1a(digest, &[u8::from(inc)]);
            LockTxn { keys, inc }
        })
        .collect();
    (pool, digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = kv_pool(7);
        let b = kv_pool(7);
        assert_eq!(a.digest, b.digest);
        assert!(a
            .items
            .iter()
            .zip(&b.items)
            .all(|(x, y)| x.frame == y.frame));
        assert_ne!(a.digest, kv_pool(8).digest);
        assert_eq!(lock_pool(3, 0, 1000).1, lock_pool(3, 0, 1000).1);
        assert_ne!(lock_pool(3, 0, 1000).1, lock_pool(4, 0, 1000).1);
        assert_ne!(lock_pool(3, 0, 1000).1, lock_pool(3, 1, 1000).1);
    }

    #[test]
    fn mix_shares_hold() {
        let pool = kv_pool(1);
        let share = |k: Kind| {
            pool.items.iter().filter(|i| i.kind == k).count() as f64 / pool.items.len() as f64
        };
        let m = READ_MOSTLY;
        assert_eq!(
            m.rscan + m.read + m.transfer + m.counter_add + m.id_gen,
            100
        );
        for (kind, pct) in [
            (Kind::Rscan, m.rscan),
            (Kind::Read, m.read),
            (Kind::Transfer, m.transfer),
            (Kind::CounterAdd, m.counter_add),
            (Kind::IdGen, m.id_gen),
        ] {
            assert!((share(kind) - pct as f64 / 100.0).abs() < 0.01, "{kind:?}");
        }
    }

    #[test]
    fn stamped_frames_decode_to_the_request() {
        let pool = kv_pool(2);
        for item in pool.items.iter().take(200) {
            let mut f = item.frame.clone();
            stamp_req_id(&mut f, 4242);
            let req = txboost_wire::decode_request(&f[4..]).unwrap();
            assert_eq!(req, with_req_id(&item.req, 4242));
        }
    }

    #[test]
    fn lock_txns_are_ascending_and_distinct() {
        let (pool, _) = lock_pool(9, 0, 5000);
        for t in &pool {
            assert!(t.keys.windows(2).all(|w| w[0] < w[1]));
            assert!(t.keys.iter().all(|k| *k < LOCK_KEYS));
        }
        let inc = pool.iter().filter(|t| t.inc).count() as f64 / pool.len() as f64;
        assert!((inc - 0.20).abs() < 0.02);
    }

    #[test]
    fn open_loop_schedule_is_evenly_spaced() {
        assert_eq!(due_ns(0, 1000), 0);
        assert_eq!(due_ns(1, 1000), 1_000_000);
        assert_eq!(due_ns(1000, 1000), 1_000_000_000);
        assert_eq!(due_ns(3, 3), 1_000_000_000);
        // Integer division never drifts: the n-th request of a rate-r
        // phase is due exactly n/r seconds in.
        for r in [7, 41_000, 123_457] {
            assert_eq!(due_ns(r, r), 1_000_000_000);
            assert!(due_ns(1, r) <= due_ns(2, r) - due_ns(1, r) + 1);
        }
    }

    #[test]
    fn prefill_covers_every_key_once() {
        let scripts = prefill_scripts();
        let total: usize = scripts.iter().map(Vec::len).sum();
        assert_eq!(total as u64, KV_KEYS);
        assert!(scripts.iter().all(|s| s.len() as u64 <= PREFILL_BATCH));
    }
}
