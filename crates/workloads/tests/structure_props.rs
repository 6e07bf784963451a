//! Property-based tests of the transactional data structures against
//! reference models (`std::collections`): random operation sequences must
//! produce exactly the same observable state, and the structures' own
//! invariant audits must hold after every sequence.

use proptest::prelude::*;
use si_htm::SiHtm;
use std::collections::BTreeMap;
use tm_api::{TmBackend, TmThread, TxKind};
use txmem::LineAlloc;
use workloads::btree::{memory_words, NodeScratch, TxBTree};
use workloads::hashmap::{HashMapConfig, TxHashMap};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Lookup(u64),
    Range(u64, u64),
}

/// A B+-tree alone in its own simulated memory, with one thread on it.
struct Twin {
    backend: SiHtm,
    thread: <SiHtm as TmBackend>::Thread,
    alloc: LineAlloc,
    tree: TxBTree,
    scratch: NodeScratch,
}

impl Twin {
    fn new(words: usize) -> Twin {
        let backend = SiHtm::with_defaults(words);
        let alloc = LineAlloc::new(0, words as u64);
        let tree = TxBTree::build(backend.memory(), &alloc, 0..0);
        let scratch = NodeScratch::new(&alloc);
        Twin { thread: backend.register_thread(), backend, alloc, tree, scratch }
    }

    fn insert(&mut self, k: u64, v: u64) {
        let (tree, scratch) = (self.tree, &mut self.scratch);
        self.thread.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            tree.insert(tx, k, v, scratch).map(|_| ())
        });
        self.scratch.refill(&self.alloc);
    }

    fn remove(&mut self, k: u64) {
        let tree = self.tree;
        self.thread.exec(TxKind::Update, &mut |tx| tree.remove(tx, k).map(|_| ()));
    }

    fn words(&self) -> Vec<u64> {
        let mem = self.backend.memory();
        (0..mem.len() as u64).map(|a| mem.load(a)).collect()
    }
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = MapOp> {
    let key = 1..=key_space;
    prop_oneof![
        3 => (key.clone(), 1..1000u64).prop_map(|(k, v)| MapOp::Insert(k, v)),
        2 => key.clone().prop_map(MapOp::Remove),
        3 => key.clone().prop_map(MapOp::Lookup),
        1 => (key, 1..32u64).prop_map(|(k, n)| MapOp::Range(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B+-tree agrees with `BTreeMap` on every operation of a random
    /// sequence, and its structural audit passes afterwards.
    #[test]
    fn btree_matches_btreemap(ops in proptest::collection::vec(op_strategy(64), 1..250)) {
        let words = memory_words(4096);
        let backend = SiHtm::with_defaults(words);
        let alloc = LineAlloc::new(0, words as u64);
        let tree = TxBTree::build(backend.memory(), &alloc, 0..0);
        let mut t = backend.register_thread();
        let mut scratch = NodeScratch::new(&alloc);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in &ops {
            match *op {
                MapOp::Insert(k, v) => {
                    let mut inserted = false;
                    t.exec(TxKind::Update, &mut |tx| {
                        scratch.reset();
                        inserted = tree.insert(tx, k, v, &mut scratch)?;
                        Ok(())
                    });
                    scratch.refill(&alloc);
                    prop_assert_eq!(inserted, model.insert(k, v).is_none());
                }
                MapOp::Remove(k) => {
                    let mut removed = false;
                    t.exec(TxKind::Update, &mut |tx| {
                        removed = tree.remove(tx, k)?;
                        Ok(())
                    });
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                MapOp::Lookup(k) => {
                    let mut found = None;
                    t.exec(TxKind::ReadOnly, &mut |tx| {
                        found = tree.lookup(tx, k)?;
                        Ok(())
                    });
                    prop_assert_eq!(found, model.get(&k).copied());
                }
                MapOp::Range(from, n) => {
                    let mut got = (0, 0);
                    t.exec(TxKind::ReadOnly, &mut |tx| {
                        got = tree.range(tx, from, n)?;
                        Ok(())
                    });
                    let expect: Vec<u64> =
                        model.range(from..).take(n as usize).map(|(_, v)| *v).collect();
                    prop_assert_eq!(got.0, expect.len() as u64);
                    prop_assert_eq!(got.1, expect.iter().fold(0u64, |a, v| a.wrapping_add(*v)));
                }
            }
        }
        let keys = tree.audit(backend.memory());
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(keys, expect);
    }

    /// `update_run` is a per-key overwrite done in one descent. Twin trees
    /// are built by the same random inserts and removes (removes leave
    /// holes and underfull or empty leaves); then each run goes to one
    /// twin as `update_run` and to the other as per-key `insert`s of the
    /// same new values. A run with every key present must leave the two
    /// memories word-for-word equal, having called its closure once per
    /// key in order with the old value. A run with a hole must return
    /// `false`, never call the closure, and change no word. The audit
    /// holds at the end.
    #[test]
    fn btree_update_run_matches_per_key_inserts(
        inserts in proptest::collection::vec(1..=160u64, 1..400),
        removes in proptest::collection::vec(1..=160u64, 0..24),
        runs in proptest::collection::vec((1..=170u64, 1..=48u64, any::<u64>()), 1..16),
    ) {
        let words = memory_words(512);
        let (mut run, mut reference) = (Twin::new(words), Twin::new(words));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &inserts {
            run.insert(k, k);
            reference.insert(k, k);
            model.insert(k, k);
        }
        for &k in &removes {
            run.remove(k);
            reference.remove(k);
            model.remove(&k);
        }
        for &(from, n, salt) in &runs {
            let new_val = |key: u64, old: u64| old ^ salt.wrapping_mul(key);
            let before = run.words();
            let mut calls = Vec::new();
            let mut done = false;
            let tree = run.tree;
            run.thread.exec(TxKind::Update, &mut |tx| {
                calls.clear();
                done = tree.update_run(tx, from, n, &mut |key, old| {
                    calls.push((key, old));
                    new_val(key, old)
                })?;
                Ok(())
            });
            let olds: Option<Vec<(u64, u64)>> =
                (from..from + n).map(|k| model.get(&k).map(|&v| (k, v))).collect();
            match olds {
                Some(olds) => {
                    prop_assert!(done, "run [{from}, {}) is present", from + n);
                    prop_assert_eq!(&calls, &olds);
                    for (k, old) in olds {
                        reference.insert(k, new_val(k, old));
                        model.insert(k, new_val(k, old));
                    }
                    prop_assert!(run.words() == reference.words(), "run != per-key inserts");
                }
                None => {
                    prop_assert!(!done, "run [{from}, {}) has a hole", from + n);
                    prop_assert!(calls.is_empty());
                    prop_assert!(run.words() == before, "a refused run wrote memory");
                }
            }
        }
        let keys = run.tree.audit(run.backend.memory());
        prop_assert_eq!(keys, model.keys().copied().collect::<Vec<_>>());
        for (&k, &v) in &model {
            prop_assert_eq!(run.tree.lookup_raw(run.backend.memory(), k), Some(v));
        }
    }

    /// The hash map agrees with `BTreeMap` over random insert/remove/lookup
    /// sequences (fresh nodes provisioned per insert, recycled on remove).
    #[test]
    fn hashmap_matches_model(ops in proptest::collection::vec(op_strategy(48), 1..250)) {
        let cfg = HashMapConfig { buckets: 8, chain: 0, ro_fraction: 0.0 };
        let backend = SiHtm::with_defaults(cfg.memory_words(1) + 16 * 600);
        let (map, alloc) = TxHashMap::build(backend.memory(), &cfg);
        let mut t = backend.register_thread();
        let mut free: Vec<u64> = Vec::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in &ops {
            match *op {
                MapOp::Insert(k, v) => {
                    let node = free.pop().unwrap_or_else(|| alloc.alloc_lines(1));
                    let mut inserted = false;
                    t.exec(TxKind::Update, &mut |tx| {
                        inserted = map.insert(tx, k, v, node)?;
                        Ok(())
                    });
                    if !inserted {
                        free.push(node);
                    }
                    prop_assert_eq!(inserted, model.insert(k, v).is_none());
                }
                MapOp::Remove(k) => {
                    let mut removed = None;
                    t.exec(TxKind::Update, &mut |tx| {
                        removed = map.remove(tx, k)?;
                        Ok(())
                    });
                    if let Some(node) = removed {
                        free.push(node);
                    }
                    prop_assert_eq!(removed.is_some(), model.remove(&k).is_some());
                }
                MapOp::Lookup(k) | MapOp::Range(k, _) => {
                    let mut found = None;
                    t.exec(TxKind::ReadOnly, &mut |tx| {
                        found = map.lookup(tx, k)?;
                        Ok(())
                    });
                    prop_assert_eq!(found, model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(map.count(backend.memory()), model.len() as u64);
    }
}
