//! `tm_hashmap_large`: the raw TM layer, no `txkv`.
//!
//! `workloads::hashmap` in the paper's §4.1 large-footprint, low-contention
//! shape (chain 200), 50 % lookups (read-only) and 50 % insert + remove,
//! two worker threads on `SiHtm` through `tm-api` only. About 100
//! simulated reads per transaction: `htm-sim` access cost, the line
//! directory, ROT begin/commit and the si-htm safety wait are all the
//! work; everything above `tm-api` does none. Reads exceed the 64-line
//! TMCAM, so it is also the paper's capacity-stretch scenario. A
//! service-layer change must not move it; an `htm-sim`/`si-htm` change
//! must show here first.
//!
//! `BUCKETS` is raised from the paper's 1 000 (never `chain`, the
//! footprint knob) so that set-up and resident memory are dominated by
//! real work rather than by allocator and page-fault noise.

use super::{si_htm, tm_counts, Cfg, Finish, Workload};
use crate::gen::{MapGen, MapOp, StreamHash, HASHED_OPS};
use crate::harness::{blocking_loop, Ctl, GenLog};
use si_htm::SiHtm;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tm_api::{stats, Outcome, ThreadStats, TmBackend, TmThread, TxKind};
use txmem::{Addr, LineAlloc};
use workloads::hashmap::{HashMapConfig, TxHashMap};

pub const BUCKETS: u64 = 16_000;
pub const CHAIN: u64 = 200;
const THREADS: usize = 2;

pub struct TmHashmapLarge {
    cfg: HashMapConfig,
    backend: SiHtm,
    map: TxHashMap,
    alloc: Arc<LineAlloc>,
    inserts: AtomicU64,
    removes: AtomicU64,
    thread_stats: Mutex<Vec<ThreadStats>>,
}

/// Run one map transaction; `Err` when the map answers wrongly.
pub fn exec_op<T: TmThread>(
    map: TxHashMap,
    alloc: &LineAlloc,
    free: &mut Vec<Addr>,
    t: &mut T,
    op: MapOp,
) -> Result<(), String> {
    match op {
        MapOp::Lookup(key) => {
            let mut found = None;
            t.exec(TxKind::ReadOnly, &mut |tx| {
                found = map.lookup(tx, key)?;
                Ok(())
            });
            (found == Some(key)).then_some(()).ok_or_else(|| format!("lookup({key}) = {found:?}"))
        }
        MapOp::Insert(key) => {
            let node = free.pop().unwrap_or_else(|| alloc.alloc_lines(1));
            let mut inserted = false;
            let out = t.exec(TxKind::Update, &mut |tx| {
                inserted = map.insert(tx, key, key, node)?;
                Ok(())
            });
            (out == Outcome::Committed && inserted)
                .then_some(())
                .ok_or_else(|| format!("insert({key}) found the fresh key present"))
        }
        MapOp::Remove(key) => {
            let mut removed = None;
            let out = t.exec(TxKind::Update, &mut |tx| {
                removed = map.remove(tx, key)?;
                Ok(())
            });
            match (out, removed) {
                (Outcome::Committed, Some(node)) => {
                    free.push(node);
                    Ok(())
                }
                _ => Err(format!("remove({key}) did not find the inserted key")),
            }
        }
    }
}

impl Workload for TmHashmapLarge {
    const NAME: &'static str = "tm_hashmap_large";
    const GENERATORS: usize = THREADS;

    fn setup(cfg: &Cfg) -> Self {
        let hcfg = HashMapConfig { buckets: BUCKETS / cfg.shrink, chain: CHAIN, ro_fraction: 0.5 };
        let backend = si_htm(hcfg.memory_words(THREADS + 1));
        let (map, alloc) = TxHashMap::build(backend.memory(), &hcfg);
        let first =
            exec_op(map, &alloc, &mut Vec::new(), &mut backend.register_thread(), MapOp::Lookup(1));
        assert_eq!(first, Ok(()), "first request");
        TmHashmapLarge {
            cfg: hcfg,
            backend,
            map,
            alloc,
            inserts: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            thread_stats: Mutex::new(Vec::new()),
        }
    }

    fn stream_hash(cfg: &Cfg) -> u64 {
        let mut g = MapGen::new(cfg.seed, 0, THREADS as u64, BUCKETS / cfg.shrink * CHAIN);
        let mut h = StreamHash::new();
        for _ in 0..HASHED_OPS {
            let (tag, key) = match g.next_op() {
                MapOp::Lookup(k) => (0u8, k),
                MapOp::Insert(k) => (1, k),
                MapOp::Remove(k) => (2, k),
            };
            h.bytes(&[tag]);
            h.bytes(&key.to_le_bytes());
        }
        h.get()
    }

    fn generate(&self, cfg: &Cfg, idx: usize, ctl: &Ctl, log: &mut GenLog) {
        let mut g = MapGen::new(cfg.seed, idx as u64, THREADS as u64, self.cfg.initial_keys());
        let mut t = self.backend.register_thread();
        let mut free: Vec<Addr> = Vec::new();
        let (mut inserts, mut removes) = (0u64, 0u64);
        blocking_loop(
            ctl,
            log,
            || g.next_op(),
            |op| {
                let done = exec_op(self.map, &self.alloc, &mut free, &mut t, op);
                if done.is_ok() {
                    inserts += u64::from(matches!(op, MapOp::Insert(_)));
                    removes += u64::from(matches!(op, MapOp::Remove(_)));
                }
                done
            },
        );
        self.inserts.fetch_add(inserts, Ordering::Relaxed);
        self.removes.fetch_add(removes, Ordering::Relaxed);
        self.thread_stats.lock().expect("stats lock").push(t.stats().clone());
    }

    fn teardown(self) {}

    fn finish(self, _cfg: &Cfg, logs: &[GenLog]) -> Finish {
        let (ins, rem) = (self.inserts.into_inner(), self.removes.into_inner());
        let count = self.map.count(self.backend.memory());
        let want = self.cfg.initial_keys() + ins - rem;
        let oracle = if count != want {
            Err(format!("map holds {count} keys, expected {want} ({ins} inserts, {rem} removes)"))
        } else if let Some(i) = logs.iter().position(|l| l.attempted == 0) {
            Err(format!("worker {i} was starved for the whole run"))
        } else {
            Ok(())
        };
        let per_thread = self.thread_stats.into_inner().expect("stats lock");
        Finish { oracle, counts: tm_counts(&stats::aggregate(per_thread.iter())) }
    }
}
