//! A transactional B+-tree over simulated memory — the index-structure
//! workload of the IMDB setting the paper targets ("IMDBs that store named
//! records accessed by a set-oriented language, making use of efficient
//! indexes", §3).
//!
//! Nodes are two cache lines (order 14): lookups touch `depth` nodes
//! (≈ 2·depth lines), inserts a handful more on splits, and **range scans
//! walk the leaf chain** — an unbounded read footprint that plain HTM
//! cannot track but SI-HTM's read paths handle for free.
//!
//! Deletion is leaf-local (no rebalancing): keys are removed from their
//! leaf, which may leave nodes underfull but preserves every search
//! invariant — the classic relaxed B-tree used by TM benchmarks, where
//! rebalancing would only add artificial conflicts.

use tm_api::{Abort, Tx};
use txmem::{Addr, LineAlloc, TxMemory, WORDS_PER_LINE};

/// Max keys per node. With this layout a node is exactly 2 cache lines.
pub const ORDER: usize = 14;

const LEAF_BIT: u64 = 1 << 63;
/// Word offsets within a node.
const H_HEADER: u64 = 0;
const H_KEYS: u64 = 1; // keys[0..ORDER] at words 1..=14
const H_VALS: u64 = 15; // leaf values[0..ORDER] at words 15..=28
const H_CHILDREN: u64 = 15; // internal children[0..=ORDER] at words 15..=29
const H_NEXT: u64 = 30; // leaf: next-leaf pointer
/// Words per node (2 cache lines).
pub const NODE_WORDS: u64 = 2 * WORDS_PER_LINE as u64;
const NIL: u64 = 0;

#[inline]
fn pack_header(leaf: bool, count: u64) -> u64 {
    count | if leaf { LEAF_BIT } else { 0 }
}

#[inline]
fn unpack_header(h: u64) -> (bool, u64) {
    (h & LEAF_BIT != 0, h & !LEAF_BIT)
}

/// Pre-allocated node addresses for one insert attempt. Splits consume
/// nodes from here; the same addresses are safely reused across retries of
/// the same transaction (aborted writes never reach memory).
pub struct NodeScratch {
    spares: Vec<Addr>,
    used: usize,
}

impl NodeScratch {
    /// Enough spares for a full root-to-leaf split cascade of any tree
    /// with fewer than ~10^9 keys, plus the new root.
    pub fn new(alloc: &LineAlloc) -> Self {
        Self::with_capacity(alloc, 12)
    }

    /// Scratch with room for `spares` splits — multi-key write transactions
    /// (several inserts per attempt) need more than one cascade's worth.
    pub fn with_capacity(alloc: &LineAlloc, spares: usize) -> Self {
        let spares = (0..spares).map(|_| alloc.alloc(NODE_WORDS)).collect();
        NodeScratch { spares, used: 0 }
    }

    /// Reset at the start of every attempt (addresses are reused).
    pub fn reset(&mut self) {
        self.used = 0;
    }

    fn take(&mut self) -> Addr {
        let a = self.spares[self.used];
        self.used += 1;
        a
    }

    /// Refill consumed spares from the arena (call after a commit).
    pub fn refill(&mut self, alloc: &LineAlloc) {
        for i in 0..self.used {
            self.spares[i] = alloc.alloc(NODE_WORDS);
        }
        self.used = 0;
    }
}

/// Result of a recursive insert.
enum Ins {
    /// Inserted (`true`) or updated in place (`false`).
    Done(bool),
    /// The child split: hoist `sep` with the new right sibling.
    Split { sep: u64, right: Addr, inserted: bool },
}

/// Handle to a B+-tree laid out in simulated memory. `Copy` so closures
/// capture it freely. The root pointer lives in its own cache line so
/// root splits are ordinary transactional writes.
#[derive(Debug, Clone, Copy)]
pub struct TxBTree {
    root_ptr: Addr,
}

impl TxBTree {
    /// Create an empty tree: a root-pointer line plus an empty leaf.
    pub fn create(memory: &TxMemory, alloc: &LineAlloc) -> TxBTree {
        let root_ptr = alloc.alloc_lines(1);
        let leaf = alloc.alloc(NODE_WORDS);
        memory.store(leaf + H_HEADER, pack_header(true, 0));
        memory.store(leaf + H_NEXT, NIL);
        memory.store(root_ptr, leaf);
        TxBTree { root_ptr }
    }

    /// Populate with `keys` (value = key) using raw stores (build phase).
    pub fn build(memory: &TxMemory, alloc: &LineAlloc, keys: impl Iterator<Item = u64>) -> TxBTree {
        Self::build_pairs(memory, alloc, keys.map(|k| (k, k)))
    }

    /// Populate with explicit `(key, value)` pairs using raw stores.
    pub fn build_pairs(
        memory: &TxMemory,
        alloc: &LineAlloc,
        entries: impl Iterator<Item = (u64, u64)>,
    ) -> TxBTree {
        let tree = TxBTree::create(memory, alloc);
        let mut raw = RawTx { memory };
        let mut scratch = NodeScratch::new(alloc);
        for (k, v) in entries {
            scratch.reset();
            tree.insert(&mut raw, k, v, &mut scratch).expect("raw tx cannot abort");
            scratch.refill(alloc);
        }
        tree
    }

    /// Non-transactional point lookup straight off memory (population
    /// checks and end-of-run audits; not for use during runs).
    pub fn lookup_raw(&self, memory: &TxMemory, key: u64) -> Option<u64> {
        let mut raw = RawTx { memory };
        self.lookup(&mut raw, key).expect("raw tx cannot abort")
    }

    /// Point lookup.
    pub fn lookup(&self, tx: &mut dyn Tx, key: u64) -> Result<Option<u64>, Abort> {
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
            if leaf {
                for i in 0..count {
                    if tx.read(node + H_KEYS + i)? == key {
                        return Ok(Some(tx.read(node + H_VALS + i)?));
                    }
                }
                return Ok(None);
            }
            let idx = self.child_index(tx, node, count, key)?;
            node = tx.read(node + H_CHILDREN + idx)?;
        }
    }

    /// Number of separator keys ≤ `key` (the child slot to descend into).
    fn child_index(&self, tx: &mut dyn Tx, node: Addr, count: u64, key: u64) -> Result<u64, Abort> {
        let mut i = 0;
        while i < count && tx.read(node + H_KEYS + i)? <= key {
            i += 1;
        }
        Ok(i)
    }

    /// Insert or update. Returns `true` when a new key was inserted.
    pub fn insert(
        &self,
        tx: &mut dyn Tx,
        key: u64,
        value: u64,
        scratch: &mut NodeScratch,
    ) -> Result<bool, Abort> {
        let root = tx.read(self.root_ptr)?;
        match self.insert_rec(tx, root, key, value, scratch)? {
            Ins::Done(inserted) => Ok(inserted),
            Ins::Split { sep, right, inserted } => {
                // Root split: grow the tree by one level.
                let new_root = scratch.take();
                tx.write(new_root + H_HEADER, pack_header(false, 1))?;
                tx.write(new_root + H_KEYS, sep)?;
                tx.write(new_root + H_CHILDREN, root)?;
                tx.write(new_root + H_CHILDREN + 1, right)?;
                tx.write(self.root_ptr, new_root)?;
                Ok(inserted)
            }
        }
    }

    fn insert_rec(
        &self,
        tx: &mut dyn Tx,
        node: Addr,
        key: u64,
        value: u64,
        scratch: &mut NodeScratch,
    ) -> Result<Ins, Abort> {
        let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
        if leaf {
            return self.insert_leaf(tx, node, count, key, value, scratch);
        }
        let idx = self.child_index(tx, node, count, key)?;
        let child = tx.read(node + H_CHILDREN + idx)?;
        match self.insert_rec(tx, child, key, value, scratch)? {
            Ins::Done(inserted) => Ok(Ins::Done(inserted)),
            Ins::Split { sep, right, inserted } => {
                if count < ORDER as u64 {
                    // Shift keys/children right of idx and splice in.
                    let mut i = count;
                    while i > idx {
                        let k = tx.read(node + H_KEYS + i - 1)?;
                        tx.write(node + H_KEYS + i, k)?;
                        let c = tx.read(node + H_CHILDREN + i)?;
                        tx.write(node + H_CHILDREN + i + 1, c)?;
                        i -= 1;
                    }
                    tx.write(node + H_KEYS + idx, sep)?;
                    tx.write(node + H_CHILDREN + idx + 1, right)?;
                    tx.write(node + H_HEADER, pack_header(false, count + 1))?;
                    return Ok(Ins::Done(inserted));
                }
                // Split this internal node: temporarily materialise the
                // ORDER+1 keys / ORDER+2 children, then redistribute.
                let mut keys = Vec::with_capacity(ORDER + 1);
                let mut children = Vec::with_capacity(ORDER + 2);
                for i in 0..count {
                    keys.push(tx.read(node + H_KEYS + i)?);
                }
                for i in 0..=count {
                    children.push(tx.read(node + H_CHILDREN + i)?);
                }
                keys.insert(idx as usize, sep);
                children.insert(idx as usize + 1, right);
                let mid = keys.len() / 2;
                let up = keys[mid];
                let right_node = scratch.take();
                // Left keeps keys[..mid], children[..=mid].
                for (i, k) in keys[..mid].iter().enumerate() {
                    tx.write(node + H_KEYS + i as u64, *k)?;
                }
                for (i, c) in children[..=mid].iter().enumerate() {
                    tx.write(node + H_CHILDREN + i as u64, *c)?;
                }
                tx.write(node + H_HEADER, pack_header(false, mid as u64))?;
                // Right takes keys[mid+1..], children[mid+1..].
                let rkeys = &keys[mid + 1..];
                let rchildren = &children[mid + 1..];
                for (i, k) in rkeys.iter().enumerate() {
                    tx.write(right_node + H_KEYS + i as u64, *k)?;
                }
                for (i, c) in rchildren.iter().enumerate() {
                    tx.write(right_node + H_CHILDREN + i as u64, *c)?;
                }
                tx.write(right_node + H_HEADER, pack_header(false, rkeys.len() as u64))?;
                Ok(Ins::Split { sep: up, right: right_node, inserted })
            }
        }
    }

    fn insert_leaf(
        &self,
        tx: &mut dyn Tx,
        node: Addr,
        count: u64,
        key: u64,
        value: u64,
        scratch: &mut NodeScratch,
    ) -> Result<Ins, Abort> {
        // Position of the first key ≥ `key`.
        let mut pos = 0;
        while pos < count {
            let k = tx.read(node + H_KEYS + pos)?;
            if k == key {
                tx.write(node + H_VALS + pos, value)?;
                return Ok(Ins::Done(false));
            }
            if k > key {
                break;
            }
            pos += 1;
        }
        if count < ORDER as u64 {
            let mut i = count;
            while i > pos {
                let k = tx.read(node + H_KEYS + i - 1)?;
                tx.write(node + H_KEYS + i, k)?;
                let v = tx.read(node + H_VALS + i - 1)?;
                tx.write(node + H_VALS + i, v)?;
                i -= 1;
            }
            tx.write(node + H_KEYS + pos, key)?;
            tx.write(node + H_VALS + pos, value)?;
            tx.write(node + H_HEADER, pack_header(true, count + 1))?;
            return Ok(Ins::Done(true));
        }
        // Leaf split.
        let mut keys = Vec::with_capacity(ORDER + 1);
        let mut vals = Vec::with_capacity(ORDER + 1);
        for i in 0..count {
            keys.push(tx.read(node + H_KEYS + i)?);
            vals.push(tx.read(node + H_VALS + i)?);
        }
        keys.insert(pos as usize, key);
        vals.insert(pos as usize, value);
        let mid = keys.len() / 2;
        let right = scratch.take();
        for (i, (k, v)) in keys[mid..].iter().zip(&vals[mid..]).enumerate() {
            tx.write(right + H_KEYS + i as u64, *k)?;
            tx.write(right + H_VALS + i as u64, *v)?;
        }
        tx.write(right + H_HEADER, pack_header(true, (keys.len() - mid) as u64))?;
        let old_next = tx.read(node + H_NEXT)?;
        tx.write(right + H_NEXT, old_next)?;
        tx.write(node + H_NEXT, right)?;
        tx.write(node + H_HEADER, pack_header(true, mid as u64))?;
        // Write the left half back: when the new key landed in it, the
        // stored prefix shifted.
        for (i, (k, v)) in keys[..mid].iter().zip(&vals[..mid]).enumerate() {
            tx.write(node + H_KEYS + i as u64, *k)?;
            tx.write(node + H_VALS + i as u64, *v)?;
        }
        Ok(Ins::Split { sep: keys[mid], right, inserted: true })
    }

    /// Remove a key (leaf-local, no rebalancing). Returns whether it existed.
    pub fn remove(&self, tx: &mut dyn Tx, key: u64) -> Result<bool, Abort> {
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
            if !leaf {
                let idx = self.child_index(tx, node, count, key)?;
                node = tx.read(node + H_CHILDREN + idx)?;
                continue;
            }
            for i in 0..count {
                if tx.read(node + H_KEYS + i)? == key {
                    for j in i..count - 1 {
                        let k = tx.read(node + H_KEYS + j + 1)?;
                        tx.write(node + H_KEYS + j, k)?;
                        let v = tx.read(node + H_VALS + j + 1)?;
                        tx.write(node + H_VALS + j, v)?;
                    }
                    tx.write(node + H_HEADER, pack_header(true, count - 1))?;
                    return Ok(true);
                }
            }
            return Ok(false);
        }
    }

    /// Range scan: `(matches, sum-of-values)` over up to `limit` entries
    /// with key ≥ `from`, walking the leaf chain. Unbounded read footprint.
    pub fn range(&self, tx: &mut dyn Tx, from: u64, limit: u64) -> Result<(u64, u64), Abort> {
        // Descend to the leaf that would contain `from`.
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
            if leaf {
                break;
            }
            let idx = self.child_index(tx, node, count, from)?;
            node = tx.read(node + H_CHILDREN + idx)?;
        }
        let mut n = 0;
        let mut sum = 0u64;
        while node != NIL && n < limit {
            let (_, count) = unpack_header(tx.read(node + H_HEADER)?);
            for i in 0..count {
                if n >= limit {
                    break;
                }
                let k = tx.read(node + H_KEYS + i)?;
                if k >= from {
                    sum = sum.wrapping_add(tx.read(node + H_VALS + i)?);
                    n += 1;
                }
            }
            node = tx.read(node + H_NEXT)?;
        }
        Ok((n, sum))
    }

    /// Half-open range scan: `(matches, sum-of-values)` over up to `limit`
    /// entries with `from ≤ key < to`, walking the leaf chain. The `to`
    /// bound is what turns the open-ended [`range`](Self::range) into a
    /// *prefix* scan (`[p·2ᵏ, (p+1)·2ᵏ)`).
    pub fn range_between(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        to: u64,
        limit: u64,
    ) -> Result<(u64, u64), Abort> {
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
            if leaf {
                break;
            }
            let idx = self.child_index(tx, node, count, from)?;
            node = tx.read(node + H_CHILDREN + idx)?;
        }
        let mut n = 0;
        let mut sum = 0u64;
        'chain: while node != NIL && n < limit {
            let (_, count) = unpack_header(tx.read(node + H_HEADER)?);
            for i in 0..count {
                if n >= limit {
                    break 'chain;
                }
                let k = tx.read(node + H_KEYS + i)?;
                if k >= to {
                    break 'chain;
                }
                if k >= from {
                    sum = sum.wrapping_add(tx.read(node + H_VALS + i)?);
                    n += 1;
                }
            }
            node = tx.read(node + H_NEXT)?;
        }
        Ok((n, sum))
    }

    /// Entry-yielding half-open range scan: calls `f(key, value)` for up
    /// to `limit` entries with `from ≤ key < to` in key order and returns
    /// how many were yielded. Same leaf-chain walk as
    /// [`range_between`](Self::range_between), but surfacing the entries
    /// themselves — what ordered merges (cross-shard scans) and secondary
    /// index lookups need, where a count/sum digest is not enough.
    pub fn range_entries(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> Result<u64, Abort> {
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
            if leaf {
                break;
            }
            let idx = self.child_index(tx, node, count, from)?;
            node = tx.read(node + H_CHILDREN + idx)?;
        }
        let mut n = 0;
        'chain: while node != NIL && n < limit {
            let (_, count) = unpack_header(tx.read(node + H_HEADER)?);
            for i in 0..count {
                if n >= limit {
                    break 'chain;
                }
                let k = tx.read(node + H_KEYS + i)?;
                if k >= to {
                    break 'chain;
                }
                if k >= from {
                    f(k, tx.read(node + H_VALS + i)?);
                    n += 1;
                }
            }
            node = tx.read(node + H_NEXT)?;
        }
        Ok(n)
    }

    /// In-place read-modify-write of the run of `n` consecutive keys
    /// `[from, from + n)`: one descent to the leaf that would hold `from`,
    /// then the leaf chain. The whole run is checked first; if any key is
    /// absent nothing is written, `f` is never called, and the result is
    /// `false`. Otherwise `f(key, old)` gives each key's new value, called
    /// in key order, and the result is `true`. Only value slots change —
    /// the same words [`insert`](Self::insert) overwrites for a present
    /// key — so no node splits and no scratch.
    pub fn update_run(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        n: u64,
        f: &mut dyn FnMut(u64, u64) -> u64,
    ) -> Result<bool, Abort> {
        if n == 0 {
            return Ok(true);
        }
        let last = from + (n - 1);
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, count) = unpack_header(tx.read(node + H_HEADER)?);
            if leaf {
                break;
            }
            let idx = self.child_index(tx, node, count, from)?;
            node = tx.read(node + H_CHILDREN + idx)?;
        }
        // Pass 1: every key of the run, in order and without gaps.
        let mut start = None;
        let mut found = 0;
        'chain: while node != NIL {
            let (_, count) = unpack_header(tx.read(node + H_HEADER)?);
            for i in 0..count {
                let k = tx.read(node + H_KEYS + i)?;
                if k < from {
                    continue;
                }
                if k != from + found {
                    return Ok(false);
                }
                start.get_or_insert((node, i, count));
                found += 1;
                if found == n {
                    break 'chain;
                }
            }
            node = tx.read(node + H_NEXT)?;
        }
        let Some((mut node, mut pos, mut count)) = start.filter(|_| found == n) else {
            return Ok(false);
        };
        // Pass 2: rewrite the value slots pass 1 found.
        for key in from..=last {
            while pos == count {
                node = tx.read(node + H_NEXT)?;
                count = unpack_header(tx.read(node + H_HEADER)?).1;
                pos = 0;
            }
            let old = tx.read(node + H_VALS + pos)?;
            tx.write(node + H_VALS + pos, f(key, old))?;
            pos += 1;
        }
        Ok(true)
    }

    /// Transactional whole-tree walk in key order: `f(key, value)` per
    /// entry, along the leaf chain. The read footprint is the entire
    /// tree — on SI-HTM this runs on the unbounded, never-aborting
    /// read-only fast path, which is what makes consistent full-store
    /// snapshots (checkpointing) affordable during a run.
    pub fn for_each(&self, tx: &mut dyn Tx, f: &mut dyn FnMut(u64, u64)) -> Result<(), Abort> {
        let mut node = tx.read(self.root_ptr)?;
        loop {
            let (leaf, _) = unpack_header(tx.read(node + H_HEADER)?);
            if leaf {
                break;
            }
            node = tx.read(node + H_CHILDREN)?;
        }
        while node != NIL {
            let (_, count) = unpack_header(tx.read(node + H_HEADER)?);
            for i in 0..count {
                let k = tx.read(node + H_KEYS + i)?;
                let v = tx.read(node + H_VALS + i)?;
                f(k, v);
            }
            node = tx.read(node + H_NEXT)?;
        }
        Ok(())
    }

    /// Non-transactional whole-tree audit: returns all keys in order and
    /// checks every B+-tree invariant (sortedness, separator bounds, leaf
    /// chain coverage). Panics on violations. Not for use during runs.
    pub fn audit(&self, memory: &TxMemory) -> Vec<u64> {
        let root = memory.load(self.root_ptr);
        let mut keys = Vec::new();
        self.audit_rec(memory, root, u64::MIN, u64::MAX, &mut keys);
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "keys out of order: {} !< {}", w[0], w[1]);
        }
        // The leaf chain must enumerate the same keys.
        let mut chain = Vec::new();
        let mut node = root;
        loop {
            let (leaf, count) = unpack_header(memory.load(node + H_HEADER));
            if leaf {
                break;
            }
            let _ = count;
            node = memory.load(node + H_CHILDREN);
        }
        while node != NIL {
            let (_, count) = unpack_header(memory.load(node + H_HEADER));
            for i in 0..count {
                chain.push(memory.load(node + H_KEYS + i));
            }
            node = memory.load(node + H_NEXT);
        }
        assert_eq!(keys, chain, "leaf chain disagrees with tree order");
        keys
    }

    /// Debug rendering of the tree structure (tests/troubleshooting).
    pub fn dump(&self, memory: &TxMemory) -> String {
        let mut out = String::new();
        self.dump_rec(memory, memory.load(self.root_ptr), 0, &mut out);
        out
    }

    fn dump_rec(&self, memory: &TxMemory, node: Addr, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let (leaf, count) = unpack_header(memory.load(node + H_HEADER));
        let keys: Vec<u64> = (0..count).map(|i| memory.load(node + H_KEYS + i)).collect();
        let _ = writeln!(
            out,
            "{}{} @{node} keys {:?}",
            "  ".repeat(depth),
            if leaf { "leaf" } else { "node" },
            keys
        );
        if !leaf {
            for i in 0..=count {
                self.dump_rec(memory, memory.load(node + H_CHILDREN + i), depth + 1, out);
            }
        }
    }

    fn audit_rec(&self, memory: &TxMemory, node: Addr, lo: u64, hi: u64, out: &mut Vec<u64>) {
        let (leaf, count) = unpack_header(memory.load(node + H_HEADER));
        assert!(count <= ORDER as u64, "node overfull");
        if leaf {
            for i in 0..count {
                let k = memory.load(node + H_KEYS + i);
                assert!(k >= lo && k < hi, "leaf key {k} outside ({lo}, {hi})");
                out.push(k);
            }
            return;
        }
        assert!(count >= 1, "internal node without separators");
        let mut lower = lo;
        for i in 0..count {
            let sep = memory.load(node + H_KEYS + i);
            assert!(sep >= lo && sep <= hi, "separator {sep} outside ({lo}, {hi})");
            let child = memory.load(node + H_CHILDREN + i);
            self.audit_rec(memory, child, lower, sep, out);
            lower = sep;
        }
        let last = memory.load(node + H_CHILDREN + count);
        self.audit_rec(memory, last, lower, hi, out);
    }
}

/// Per-thread B+-tree benchmark client: `ro_fraction` of operations are
/// lookups, `scan_fraction` are leaf-chain range scans, the rest alternate
/// insert/remove on fresh keys (keeping the population stationary).
pub struct BTreeWorker {
    tree: TxBTree,
    alloc: std::sync::Arc<LineAlloc>,
    scratch: NodeScratch,
    rng_state: u64,
    ro_fraction: f64,
    scan_fraction: f64,
    scan_limit: u64,
    key_space: u64,
    next_key: u64,
    stride: u64,
    pending_remove: Option<u64>,
}

impl BTreeWorker {
    pub fn new(
        tree: TxBTree,
        alloc: std::sync::Arc<LineAlloc>,
        key_space: u64,
        ro_fraction: f64,
        scan_fraction: f64,
        thread_index: usize,
        total_threads: usize,
    ) -> Self {
        let scratch = NodeScratch::new(&alloc);
        BTreeWorker {
            tree,
            alloc,
            scratch,
            rng_state: 0xB7EE ^ (thread_index as u64) << 17,
            ro_fraction,
            scan_fraction,
            scan_limit: 500,
            key_space,
            next_key: key_space + 1 + thread_index as u64,
            stride: total_threads as u64,
            pending_remove: None,
        }
    }

    /// Override the range-scan length (default 500 entries).
    pub fn with_scan_limit(mut self, limit: u64) -> Self {
        self.scan_limit = limit;
        self
    }

    fn next_rand(&mut self) -> u64 {
        self.rng_state =
            self.rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.rng_state >> 11
    }

    /// Execute one benchmark transaction.
    pub fn run_op<T: tm_api::TmThread>(&mut self, thread: &mut T) {
        use tm_api::TxKind;
        let roll = self.next_rand() as f64 / (u64::MAX >> 11) as f64;
        let tree = self.tree;
        if roll < self.scan_fraction {
            let from = self.next_rand() % self.key_space + 1;
            let limit = self.scan_limit;
            thread.exec(TxKind::ReadOnly, &mut |tx| {
                tree.range(tx, from, limit)?;
                Ok(())
            });
        } else if roll < self.scan_fraction + self.ro_fraction {
            let key = self.next_rand() % self.key_space + 1;
            thread.exec(TxKind::ReadOnly, &mut |tx| {
                tree.lookup(tx, key)?;
                Ok(())
            });
        } else if let Some(key) = self.pending_remove.take() {
            thread.exec(TxKind::Update, &mut |tx| {
                tree.remove(tx, key)?;
                Ok(())
            });
        } else {
            let key = self.next_key;
            self.next_key += self.stride;
            let scratch = &mut self.scratch;
            let out = thread.exec(TxKind::Update, &mut |tx| {
                scratch.reset();
                tree.insert(tx, key, key, scratch)?;
                Ok(())
            });
            if out == tm_api::Outcome::Committed {
                self.scratch.refill(&self.alloc);
                self.pending_remove = Some(key);
            }
        }
    }
}

/// Raw (non-transactional) `Tx` over memory — used by the bulk builder.
struct RawTx<'a> {
    memory: &'a TxMemory,
}

impl Tx for RawTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        Ok(self.memory.load(addr))
    }

    fn write(&mut self, addr: Addr, val: u64) -> Result<(), Abort> {
        self.memory.store(addr, val);
        Ok(())
    }
}

/// Memory sizing helper: words for a tree of `n` keys with headroom.
pub fn memory_words(n: u64) -> usize {
    // Worst-case ~2 nodes per ORDER/2 keys, plus scratch headroom.
    let nodes = n / (ORDER as u64 / 2) + 64;
    ((nodes + 16) * NODE_WORDS + WORDS_PER_LINE as u64) as usize * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_htm::SiHtm;
    use tm_api::{TmBackend, TmThread, TxKind};

    fn setup(n: u64) -> (SiHtm, TxBTree, std::sync::Arc<LineAlloc>) {
        let words = memory_words(n.max(64));
        let backend = SiHtm::with_defaults(words);
        let alloc = std::sync::Arc::new(LineAlloc::new(0, words as u64));
        let tree = TxBTree::build(backend.memory(), &alloc, 0..0);
        let _ = n;
        (backend, tree, alloc)
    }

    #[test]
    fn empty_tree_lookup_and_audit() {
        let (backend, tree, _a) = setup(0);
        let mut t = backend.register_thread();
        let mut found = Some(0);
        t.exec(TxKind::ReadOnly, &mut |tx| {
            found = tree.lookup(tx, 42)?;
            Ok(())
        });
        assert_eq!(found, None);
        assert!(tree.audit(backend.memory()).is_empty());
    }

    #[test]
    fn sequential_inserts_split_correctly() {
        let (backend, tree, alloc) = setup(2000);
        let mut t = backend.register_thread();
        let mut scratch = NodeScratch::new(&alloc);
        for k in 1..=500u64 {
            let mut inserted = false;
            t.exec(TxKind::Update, &mut |tx| {
                scratch.reset();
                inserted = tree.insert(tx, k, k * 10, &mut scratch)?;
                Ok(())
            });
            assert!(inserted, "key {k} should be new");
            scratch.refill(&alloc);
        }
        let keys = tree.audit(backend.memory());
        assert_eq!(keys, (1..=500).collect::<Vec<_>>());
        let mut v = None;
        t.exec(TxKind::ReadOnly, &mut |tx| {
            v = tree.lookup(tx, 250)?;
            Ok(())
        });
        assert_eq!(v, Some(2500));
    }

    #[test]
    fn random_order_inserts_and_updates() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (backend, tree, alloc) = setup(2000);
        let mut t = backend.register_thread();
        let mut scratch = NodeScratch::new(&alloc);
        let mut keys: Vec<u64> = (1..=400).collect();
        keys.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(5));
        for &k in &keys {
            t.exec(TxKind::Update, &mut |tx| {
                scratch.reset();
                tree.insert(tx, k, k, &mut scratch)?;
                Ok(())
            });
            scratch.refill(&alloc);
        }
        // Update half of them in place.
        for k in 1..=200u64 {
            let mut inserted = true;
            t.exec(TxKind::Update, &mut |tx| {
                scratch.reset();
                inserted = tree.insert(tx, k, k + 7, &mut scratch)?;
                Ok(())
            });
            assert!(!inserted, "key {k} already existed");
            scratch.refill(&alloc);
        }
        assert_eq!(tree.audit(backend.memory()).len(), 400);
        let mut v = None;
        t.exec(TxKind::ReadOnly, &mut |tx| {
            v = tree.lookup(tx, 100)?;
            Ok(())
        });
        assert_eq!(v, Some(107));
    }

    #[test]
    fn remove_and_reinsert() {
        let (backend, tree, alloc) = setup(1000);
        let mut t = backend.register_thread();
        let mut scratch = NodeScratch::new(&alloc);
        for k in 1..=200u64 {
            t.exec(TxKind::Update, &mut |tx| {
                scratch.reset();
                tree.insert(tx, k, k, &mut scratch)?;
                Ok(())
            });
            scratch.refill(&alloc);
        }
        // Remove the odd keys.
        for k in (1..=200u64).step_by(2) {
            let mut removed = false;
            t.exec(TxKind::Update, &mut |tx| {
                removed = tree.remove(tx, k)?;
                Ok(())
            });
            assert!(removed);
        }
        let keys = tree.audit(backend.memory());
        assert_eq!(keys, (2..=200).step_by(2).collect::<Vec<_>>());
        // Removing again finds nothing.
        let mut removed = true;
        t.exec(TxKind::Update, &mut |tx| {
            removed = tree.remove(tx, 1)?;
            Ok(())
        });
        assert!(!removed);
        // Reinsert works.
        t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            tree.insert(tx, 1, 11, &mut scratch)?;
            Ok(())
        });
        scratch.refill(&alloc);
        let mut v = None;
        t.exec(TxKind::ReadOnly, &mut |tx| {
            v = tree.lookup(tx, 1)?;
            Ok(())
        });
        assert_eq!(v, Some(11));
    }

    #[test]
    fn range_scans_walk_the_leaf_chain() {
        let (backend, tree, alloc) = setup(2000);
        let tree2 = TxBTree::build(backend.memory(), &alloc, 1..=300);
        let mut t = backend.register_thread();
        let _ = tree;
        let mut res = (0, 0);
        t.exec(TxKind::ReadOnly, &mut |tx| {
            res = tree2.range(tx, 100, 50)?;
            Ok(())
        });
        assert_eq!(res.0, 50);
        assert_eq!(res.1, (100..150u64).sum::<u64>());
        // Open-ended tail scan.
        t.exec(TxKind::ReadOnly, &mut |tx| {
            res = tree2.range(tx, 290, 1000)?;
            Ok(())
        });
        assert_eq!(res.0, 11);
    }

    #[test]
    fn bounded_range_stops_at_the_upper_key() {
        let (backend, _tree, alloc) = setup(2000);
        let tree = TxBTree::build_pairs(backend.memory(), &alloc, (1..=300).map(|k| (k, k * 2)));
        let mut t = backend.register_thread();
        let mut res = (0, 0);
        t.exec(TxKind::ReadOnly, &mut |tx| {
            res = tree.range_between(tx, 100, 120, 1000)?;
            Ok(())
        });
        assert_eq!(res.0, 20);
        assert_eq!(res.1, (100..120u64).map(|k| k * 2).sum::<u64>());
        // Limit still applies inside the bounds.
        t.exec(TxKind::ReadOnly, &mut |tx| {
            res = tree.range_between(tx, 100, 120, 5)?;
            Ok(())
        });
        assert_eq!(res.0, 5);
        // Raw lookup agrees with the builder's pairs.
        assert_eq!(tree.lookup_raw(backend.memory(), 7), Some(14));
        assert_eq!(tree.lookup_raw(backend.memory(), 1000), None);
    }

    #[test]
    fn bulk_builder_matches_transactional_inserts() {
        let words = memory_words(1024);
        let backend = SiHtm::with_defaults(words);
        let alloc = LineAlloc::new(0, words as u64);
        let tree = TxBTree::build(backend.memory(), &alloc, 1..=321);
        assert_eq!(tree.audit(backend.memory()), (1..=321).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_preserve_invariants() {
        let words = memory_words(8192);
        let backend = SiHtm::with_defaults(words);
        let alloc = std::sync::Arc::new(LineAlloc::new(0, words as u64));
        let tree = TxBTree::build(backend.memory(), &alloc, 0..0);
        let threads = 4u64;
        let per = 150u64;
        crossbeam_utils::thread::scope(|s| {
            for part in 0..threads {
                let backend = backend.clone();
                let alloc = std::sync::Arc::clone(&alloc);
                s.spawn(move |_| {
                    let mut t = backend.register_thread();
                    let mut scratch = NodeScratch::new(&alloc);
                    for i in 0..per {
                        let k = part + i * threads + 1; // disjoint strided keys
                        t.exec(TxKind::Update, &mut |tx| {
                            scratch.reset();
                            tree.insert(tx, k, k, &mut scratch)?;
                            Ok(())
                        });
                        scratch.refill(&alloc);
                    }
                });
            }
        })
        .unwrap();
        let keys = tree.audit(backend.memory());
        assert_eq!(keys, (1..=threads * per).collect::<Vec<_>>());
    }
}
