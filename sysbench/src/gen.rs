//! Seeded op generators. `--seed` reaches only this module: the program
//! under test receives generated ops, never the seed or a workload name.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use txkv::KvOp;

/// Generator lane `lane` of `seed`: the repository's `SmallRng`
/// (xoshiro256** seeded through splitmix64, so nearby seeds and lanes give
/// unrelated streams).
pub fn lane_rng(seed: u64, lane: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Keys per scan: `ScanPrefix { shift: 5 }` covers one aligned block.
pub const SCAN_KEYS: u64 = 32;
pub const MULTI_GET_KEYS: usize = 4;

/// `kv_read_uds` mix over keys `[0, keys)`, all loaded with value == key:
/// 85.5 % `Get`, 4.75 % `MultiGet`(4), 4.75 % `ScanPrefix`(32) and 5 %
/// `Put { key, val: key }` — ROT writers that leave every value in place,
/// so each read has one right answer however requests interleave.
pub struct KvReadGen {
    rng: SmallRng,
    keys: u64,
}

impl KvReadGen {
    pub fn new(seed: u64, lane: u64, keys: u64) -> Self {
        assert!(keys >= SCAN_KEYS && keys.is_multiple_of(SCAN_KEYS));
        KvReadGen { rng: lane_rng(seed, lane), keys }
    }

    pub fn next_op(&mut self) -> KvOp {
        let key = self.rng.gen_range(0..self.keys);
        match self.rng.gen_range(0..10_000) {
            0..=8_549 => KvOp::Get { key },
            8_550..=9_024 => {
                let mut keys = vec![key];
                keys.extend((1..MULTI_GET_KEYS).map(|_| self.rng.gen_range(0..self.keys)));
                KvOp::MultiGet { keys }
            }
            9_025..=9_499 => KvOp::ScanPrefix { prefix: key >> 5, shift: 5, limit: SCAN_KEYS },
            _ => KvOp::Put { key, val: key },
        }
    }
}

/// Key ranges of the `kv_write_sync` store: `[0, put_end)` takes blind
/// `Put`s, `[put_end, cas_end)` takes `Cas` (value stays == key, so every
/// `Cas` succeeds however requests interleave), `[cas_end, keys)` is the
/// bank whose balances `MultiAdd` transfers conserve.
#[derive(Clone, Copy)]
pub struct KvWriteLayout {
    pub keys: u64,
    pub put_end: u64,
    pub cas_end: u64,
}

pub const BANK_BALANCE: u64 = 1_000_000;

impl KvWriteLayout {
    pub fn new(keys: u64) -> Self {
        let bank = (keys / 64).max(2);
        KvWriteLayout { keys, put_end: keys / 2, cas_end: keys - bank }
    }

    pub fn initial(&self, key: u64) -> u64 {
        if key >= self.cas_end {
            BANK_BALANCE
        } else {
            key
        }
    }

    pub fn bank_total(&self) -> u64 {
        (self.keys - self.cas_end) * BANK_BALANCE
    }
}

/// `kv_write_sync` mix, 100 % updates: 50 % `Put`, 30 % two-key
/// conserving `MultiAdd`, 20 % `Cas`.
pub struct KvWriteGen {
    rng: SmallRng,
    layout: KvWriteLayout,
}

impl KvWriteGen {
    pub fn new(seed: u64, lane: u64, layout: KvWriteLayout) -> Self {
        KvWriteGen { rng: lane_rng(seed, lane), layout }
    }

    pub fn next_op(&mut self) -> KvOp {
        let l = self.layout;
        match self.rng.gen_range(0..100) {
            0..=49 => {
                KvOp::Put { key: self.rng.gen_range(0..l.put_end), val: self.rng.gen::<u64>() }
            }
            50..=79 => {
                let bank = l.keys - l.cas_end;
                let from = self.rng.gen_range(0..bank);
                let to = (from + 1 + self.rng.gen_range(0..bank - 1)) % bank;
                let x = 1 + self.rng.gen_range(0..100) as i64;
                KvOp::MultiAdd { deltas: vec![(l.cas_end + from, -x), (l.cas_end + to, x)] }
            }
            _ => {
                let key = l.put_end + self.rng.gen_range(0..l.cas_end - l.put_end);
                KvOp::Cas { key, expect: Some(key), new: key }
            }
        }
    }
}

/// The key-value stream a workload drives and the store contents it
/// expects — what the layer ladder replays on its private instances.
#[derive(Clone, Copy)]
pub enum KvStream {
    Read { keys: u64 },
    Write(KvWriteLayout),
}

impl KvStream {
    pub fn keys(&self) -> u64 {
        match self {
            KvStream::Read { keys } => *keys,
            KvStream::Write(l) => l.keys,
        }
    }

    /// Loaded value of `key`.
    pub fn initial(&self, key: u64) -> u64 {
        match self {
            KvStream::Read { .. } => key,
            KvStream::Write(l) => l.initial(key),
        }
    }

    /// The first `n` ops of generator lane 0.
    pub fn head(&self, seed: u64, n: usize) -> Vec<KvOp> {
        match *self {
            KvStream::Read { keys } => {
                let mut g = KvReadGen::new(seed, 0, keys);
                (0..n).map(|_| g.next_op()).collect()
            }
            KvStream::Write(l) => {
                let mut g = KvWriteGen::new(seed, 0, l);
                (0..n).map(|_| g.next_op()).collect()
            }
        }
    }
}

/// One hash-map transaction (paper §4.1): a lookup of a populated key, or
/// the thread's alternating insert / remove of a fresh key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    Lookup(u64),
    Insert(u64),
    Remove(u64),
}

/// `tm_hashmap_large` mix: 50 % lookups, 50 % insert-then-remove pairs on
/// fresh keys strided by thread, so the map size stays stationary.
pub struct MapGen {
    rng: SmallRng,
    initial_keys: u64,
    next_key: u64,
    stride: u64,
    pending_remove: Option<u64>,
}

impl MapGen {
    pub fn new(seed: u64, thread: u64, threads: u64, initial_keys: u64) -> Self {
        MapGen {
            rng: lane_rng(seed, thread),
            initial_keys,
            next_key: initial_keys + 1 + thread,
            stride: threads,
            pending_remove: None,
        }
    }

    pub fn next_op(&mut self) -> MapOp {
        if self.rng.gen_range(0..2) == 0 {
            return MapOp::Lookup(1 + self.rng.gen_range(0..self.initial_keys));
        }
        match self.pending_remove.take() {
            Some(key) => MapOp::Remove(key),
            None => {
                let key = self.next_key;
                self.next_key += self.stride;
                self.pending_remove = Some(key);
                MapOp::Insert(key)
            }
        }
    }
}

/// FNV-1a over the wire encoding of ops: printed as `env.stream_hash`, so
/// two records can be checked to have driven identical inputs.
#[derive(Clone, Copy)]
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn op(&mut self, op: &KvOp, buf: &mut Vec<u8>) {
        buf.clear();
        txkv_net::frame::encode_op(op, buf);
        self.bytes(buf);
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

/// Ops hashed into `env.stream_hash` (the head of generator lane 0).
pub const HASHED_OPS: usize = 100_000;

pub fn hash_kv_stream(mut next: impl FnMut() -> KvOp) -> u64 {
    let mut h = StreamHash::new();
    let mut buf = Vec::new();
    for _ in 0..HASHED_OPS {
        h.op(&next(), &mut buf);
    }
    h.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(n: u64, total: u64) -> f64 {
        n as f64 / total as f64
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let hash = |seed| {
            let mut g = KvReadGen::new(seed, 0, 1 << 16);
            hash_kv_stream(|| g.next_op())
        };
        assert_eq!(hash(7), hash(7));
        assert_ne!(hash(7), hash(8));
        let layout = KvWriteLayout::new(1 << 14);
        let whash = |seed| {
            let mut g = KvWriteGen::new(seed, 0, layout);
            hash_kv_stream(|| g.next_op())
        };
        assert_eq!(whash(7), whash(7));
        assert_ne!(whash(7), whash(8));
        let ops = |seed| {
            let mut g = MapGen::new(seed, 1, 2, 1000);
            (0..1000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(3), ops(3));
        assert_ne!(ops(3), ops(4));
    }

    #[test]
    fn kv_read_mix_within_one_percent() {
        let n = 400_000u64;
        let mut g = KvReadGen::new(11, 0, 1 << 16);
        let (mut get, mut mget, mut scan, mut put) = (0, 0, 0, 0);
        for _ in 0..n {
            match g.next_op() {
                KvOp::Get { key } => {
                    assert!(key < 1 << 16);
                    get += 1
                }
                KvOp::MultiGet { keys } => {
                    assert_eq!(keys.len(), MULTI_GET_KEYS);
                    mget += 1
                }
                KvOp::ScanPrefix { prefix, shift: 5, limit: SCAN_KEYS } => {
                    assert!(prefix < (1 << 16) / 32);
                    scan += 1
                }
                KvOp::Put { key, val } => {
                    assert_eq!(key, val);
                    put += 1
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((share(get, n) - 0.855).abs() < 0.01);
        assert!((share(mget, n) - 0.0475).abs() < 0.01);
        assert!((share(scan, n) - 0.0475).abs() < 0.01);
        assert!((share(put, n) - 0.05).abs() < 0.01);
    }

    #[test]
    fn kv_write_mix_within_one_percent_and_conserving() {
        let n = 400_000u64;
        let layout = KvWriteLayout::new(1 << 14);
        let mut g = KvWriteGen::new(5, 0, layout);
        let (mut put, mut add, mut cas) = (0, 0, 0);
        for _ in 0..n {
            match g.next_op() {
                KvOp::Put { key, .. } => {
                    assert!(key < layout.put_end);
                    put += 1
                }
                KvOp::MultiAdd { deltas } => {
                    assert_eq!(deltas.len(), 2);
                    assert_ne!(deltas[0].0, deltas[1].0);
                    assert_eq!(deltas[0].1 + deltas[1].1, 0);
                    assert!(deltas.iter().all(|&(k, _)| k >= layout.cas_end && k < layout.keys));
                    add += 1
                }
                KvOp::Cas { key, expect, new } => {
                    assert!(key >= layout.put_end && key < layout.cas_end);
                    assert_eq!((expect, new), (Some(key), key));
                    cas += 1
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((share(put, n) - 0.50).abs() < 0.01);
        assert!((share(add, n) - 0.30).abs() < 0.01);
        assert!((share(cas, n) - 0.20).abs() < 0.01);
    }

    #[test]
    fn map_mix_is_half_lookups_and_alternates_insert_remove() {
        let n = 200_000u64;
        let mut g = MapGen::new(9, 0, 2, 1000);
        let mut lookups = 0;
        let mut last_insert = None;
        for _ in 0..n {
            match g.next_op() {
                MapOp::Lookup(k) => {
                    assert!((1..=1000).contains(&k));
                    lookups += 1
                }
                MapOp::Insert(k) => {
                    assert!(k > 1000 && last_insert.is_none());
                    last_insert = Some(k)
                }
                MapOp::Remove(k) => assert_eq!(last_insert.take(), Some(k)),
            }
        }
        assert!((share(lookups, n) - 0.5).abs() < 0.01);
    }
}
