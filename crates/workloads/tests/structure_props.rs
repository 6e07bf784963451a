//! Property-based tests of the transactional data structures against
//! reference models (`std::collections`): random operation sequences must
//! produce exactly the same observable state, and the structures' own
//! invariant audits must hold after every sequence.

use proptest::prelude::*;
use si_htm::SiHtm;
use std::collections::BTreeMap;
use tm_api::{Abort, TmBackend, TmThread, Tx, TxKind};
use txmem::LineAlloc;
use workloads::btree::{memory_words, Finger, NodeScratch, TxBTree};
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

/// One step of a multi-op transaction on a B+-tree.
#[derive(Debug, Clone)]
enum FingerOp {
    Get(u64),
    Put(u64, u64),
    Delete(u64),
    /// Remove `n` consecutive keys one by one (empties whole leaves).
    DeleteRun(u64, u64),
    /// `range_entries` over `[from, from + span)`, at most `limit`.
    Scan(u64, u64, u64),
    /// `update_run` over `[from, from + n)`, adding `delta` to each value.
    Run(u64, u64, u64),
}

/// What one [`FingerOp`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Value(Option<u64>),
    Changed(bool),
    Entries(Vec<(u64, u64)>),
}

impl FingerOp {
    /// Run on the tree; `finger` is either the transaction's one finger
    /// or a fresh one per op.
    fn on_tree(
        &self,
        tree: TxBTree,
        tx: &mut dyn Tx,
        scratch: &mut NodeScratch,
        finger: &mut Finger,
    ) -> Result<Seen, Abort> {
        Ok(match *self {
            FingerOp::Get(k) => Seen::Value(tree.lookup_with(tx, k, finger)?),
            FingerOp::Put(k, v) => Seen::Changed(tree.insert_with(tx, k, v, scratch, finger)?),
            FingerOp::Delete(k) => Seen::Changed(tree.remove_with(tx, k, finger)?),
            FingerOp::DeleteRun(from, n) => {
                let mut any = false;
                for k in from..from + n {
                    any |= tree.remove_with(tx, k, finger)?;
                }
                Seen::Changed(any)
            }
            FingerOp::Scan(from, span, limit) => {
                let mut out = Vec::new();
                let mut push = |k, v| out.push((k, v));
                tree.range_entries_with(tx, from, from + span, limit, &mut push, finger)?;
                Seen::Entries(out)
            }
            FingerOp::Run(from, n, delta) => {
                let mut add = |_, old: u64| old.wrapping_add(delta);
                Seen::Changed(tree.update_run_with(tx, from, n, &mut add, finger)?)
            }
        })
    }

    fn on_model(&self, model: &mut BTreeMap<u64, u64>) -> Seen {
        match *self {
            FingerOp::Get(k) => Seen::Value(model.get(&k).copied()),
            FingerOp::Put(k, v) => Seen::Changed(model.insert(k, v).is_none()),
            FingerOp::Delete(k) => Seen::Changed(model.remove(&k).is_some()),
            FingerOp::DeleteRun(from, n) => Seen::Changed(
                (from..from + n).fold(false, |any, k| model.remove(&k).is_some() | any),
            ),
            FingerOp::Scan(from, span, limit) => Seen::Entries(
                model
                    .range(from..from + span)
                    .take(limit as usize)
                    .map(|(&k, &v)| (k, v))
                    .collect(),
            ),
            FingerOp::Run(from, n, delta) => {
                let present = (from..from + n).all(|k| model.contains_key(&k));
                if present {
                    for k in from..from + n {
                        let v = model.get_mut(&k).unwrap();
                        *v = v.wrapping_add(delta);
                    }
                }
                Seen::Changed(present)
            }
        }
    }
}

/// Run `ops` as **one** update transaction on a tree bulk-loaded with
/// `initial` (value = key), sharing one finger across the ops or giving
/// each a fresh one. Returns what each op saw, the tree's `dump()` and
/// the audited keys with their values.
fn one_transaction(
    initial: &[u64],
    ops: &[FingerOp],
    shared: bool,
) -> (Vec<Seen>, String, Vec<(u64, u64)>) {
    let words = memory_words((initial.len() + 16 * ops.len()) as u64 + 1024);
    let backend = SiHtm::with_defaults(words);
    let alloc = LineAlloc::new(0, words as u64);
    let tree = TxBTree::build(backend.memory(), &alloc, initial.iter().copied());
    let mut scratch = NodeScratch::with_capacity(&alloc, 16 + 3 * ops.len());
    let mut t = backend.register_thread();
    let mut seen = Vec::new();
    t.exec(TxKind::Update, &mut |tx| {
        scratch.reset();
        seen.clear();
        let mut finger = Finger::new();
        for op in ops {
            let fresh = &mut Finger::new();
            let f = if shared { &mut finger } else { fresh };
            seen.push(op.on_tree(tree, tx, &mut scratch, f)?);
        }
        Ok(())
    });
    let memory = backend.memory();
    let entries =
        tree.audit(memory).into_iter().map(|k| (k, tree.lookup_raw(memory, k).unwrap())).collect();
    (seen, tree.dump(memory), entries)
}

/// The shared-finger run agrees with `BTreeMap` op by op, and leaves the
/// same tree, node for node, as the same ops with a fresh finger each.
fn check_one_finger(initial: &[u64], ops: &[FingerOp]) {
    let mut model: BTreeMap<u64, u64> = initial.iter().map(|&k| (k, k)).collect();
    let expect: Vec<Seen> = ops.iter().map(|op| op.on_model(&mut model)).collect();
    let (seen, dump, entries) = one_transaction(initial, ops, true);
    for (i, (got, want)) in seen.iter().zip(&expect).enumerate() {
        prop_assert_eq!(got, want, "op {} {:?}", i, &ops[i]);
    }
    prop_assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
    let (fresh_seen, fresh_dump, _) = one_transaction(initial, ops, false);
    prop_assert_eq!(fresh_seen, seen);
    prop_assert_eq!(fresh_dump, dump);
}

fn finger_op_strategy(key_space: u64) -> impl Strategy<Value = FingerOp> {
    let key = 0..key_space;
    prop_oneof![
        3 => key.clone().prop_map(FingerOp::Get),
        4 => (key.clone(), 1..1000u64).prop_map(|(k, v)| FingerOp::Put(k, v)),
        2 => key.clone().prop_map(FingerOp::Delete),
        1 => (key.clone(), 1..24u64).prop_map(|(k, n)| FingerOp::DeleteRun(k, n)),
        2 => (key.clone(), 1..64u64, 1..40u64).prop_map(|(k, s, l)| FingerOp::Scan(k, s, l)),
        2 => (key, 1..24u64, 1..9u64).prop_map(|(k, n, d)| FingerOp::Run(k, n, d)),
    ]
}

/// A scripted sequence that hits every case the finger must survive in
/// one transaction: root growth from a lone leaf and again from a full
/// internal root, splits between reads of neighbouring keys, leaves
/// emptied by deletes, scans and runs starting mid-leaf and crossing
/// leaves (and the emptied ones), and runs refused for a hole.
#[test]
fn one_finger_survives_a_scripted_transaction() {
    use FingerOp::*;
    let mut ops = Vec::new();
    for k in 0..200u64 {
        ops.push(Put(3 * k, k));
        if k % 10 == 9 {
            ops.extend([Get(3 * k - 3), Get(3 * k - 1), Scan(3 * k - 20, 30, 8)]);
        }
    }
    ops.extend([Get(301), DeleteRun(30, 60), Scan(31, 100, 50), Run(300, 30, 7)]);
    ops.extend((400..460).map(|k| Put(k, k)));
    ops.extend([Run(405, 40, 7), Run(455, 10, 1), Scan(401, 50, 100)]);
    for k in [301, 302, 304, 305, 307, 308, 310, 311, 313, 314, 316, 317, 319, 320] {
        ops.extend([Get(k - 1), Put(k, k), Get(k + 1), Run(k, 2, 1)]);
    }
    ops.extend([DeleteRun(0, 700), Get(5), Put(5, 5), Scan(0, 10, 10)]);
    check_one_finger(&[], &ops);
    let initial: Vec<u64> = (0..300).collect();
    let mut ops = vec![Scan(51, 40, 100), DeleteRun(140, 30), Scan(130, 60, 100), Run(50, 40, 3)];
    ops.extend([Run(130, 50, 1), Get(150), Put(150, 1), Get(151), Run(150, 1, 1)]);
    check_one_finger(&initial, &ops);
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

    /// Random get, put, delete, scan and run sequences inside **one**
    /// transaction, sharing one finger: every op agrees with `BTreeMap`,
    /// and the tree ends identical, node for node, to the one the same
    /// ops leave with a fresh finger each.
    #[test]
    fn btree_one_finger_per_transaction_matches_btreemap(
        mut initial in proptest::collection::vec(0..600u64, 0..300),
        ops in proptest::collection::vec(finger_op_strategy(640), 1..200),
    ) {
        initial.sort_unstable();
        initial.dedup();
        check_one_finger(&initial, &ops);
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
