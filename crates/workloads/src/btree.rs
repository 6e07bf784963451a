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
//! Every node is **binary-searched**: an internal node by the upper bound
//! of the key among its separators, a leaf by the lower bound plus an
//! equality flag, and range walks start at the lower bound of `from`.
//! The keys share line 0 with the header, so the search reads fewer words
//! of the same lines a linear scan touched.
//!
//! Every operation runs through one descent that records its root-to-leaf
//! path in a [`Finger`]. The public operations come in pairs: the plain
//! form (`lookup`, `insert`, …) descends from the root with a fresh
//! finger; the `*_with` form takes the caller's finger and re-descends
//! only from the deepest recorded node whose key range covers the new
//! key — one descent per neighbourhood rather than one per key, for
//! bodies that touch consecutive keys in one transaction attempt.
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

/// Deepest path a [`Finger`] records. Internal nodes are born with at
/// least 8 children and never lose one (deletes are leaf-local), so a
/// deeper tree would need more than 8^14 nodes.
const MAX_DEPTH: usize = 16;

/// One level of a recorded descent: the node and the key range
/// `lo..=last` its ancestors' separators confine it to; for an internal
/// node also its separator count and the child slot taken.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    node: Addr,
    lo: u64,
    last: u64,
    leaf: bool,
    count: u8,
    slot: u8,
}

impl Step {
    fn covers(&self, key: u64) -> bool {
        self.lo <= key && key <= self.last
    }
}

/// A root-to-leaf path cached across the operations of one transaction
/// attempt, so a key near the previous one re-descends only from the
/// deepest node whose key range covers it. Three invariants make the
/// cached nodes exactly what a fresh descent would read:
///
/// * **one finger per attempt** — every node on the path was read in
///   this attempt, and the backend's snapshot makes re-reading it
///   return the same words; a new attempt needs a new finger;
/// * **cleared on split** — a split is the only write that changes an
///   internal node, the root pointer or a leaf's key range (deletes are
///   leaf-local and nodes never merge), and every split clears it;
/// * **tied to one tree** — it records the tree's root pointer, and a
///   finger from another tree starts over at the root.
///
/// A fixed array: recording a descent allocates nothing.
#[cfg_attr(test, derive(Clone))]
pub struct Finger {
    /// Root pointer of the tree the path belongs to.
    tree: Addr,
    len: usize,
    path: [Step; MAX_DEPTH],
}

impl Finger {
    pub fn new() -> Self {
        Finger { tree: 0, len: 0, path: [Step::default(); MAX_DEPTH] }
    }
}

impl Default for Finger {
    fn default() -> Self {
        Self::new()
    }
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
        let mut finger = Finger::new();
        for (k, v) in entries {
            scratch.reset();
            tree.insert_with(&mut raw, k, v, &mut scratch, &mut finger)
                .expect("raw tx cannot abort");
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

    /// Walk to the leaf that would hold `key`, starting from the deepest
    /// step of `finger` whose range covers it (the root when none does),
    /// and record the path in `finger`. Returns the leaf and its key
    /// count, which is always read afresh: the attempt's own inserts and
    /// deletes change it without clearing the finger.
    fn descend(
        &self,
        tx: &mut dyn Tx,
        key: u64,
        finger: &mut Finger,
    ) -> Result<(Addr, u64), Abort> {
        let mut depth = if finger.tree == self.root_ptr { finger.len } else { 0 };
        while depth > 0 && !finger.path[depth - 1].covers(key) {
            depth -= 1;
        }
        let (mut node, mut lo, mut last, mut cached) = match depth.checked_sub(1) {
            None => {
                finger.tree = self.root_ptr;
                (tx.read(self.root_ptr)?, 0, u64::MAX, None)
            }
            Some(d) => {
                depth = d;
                let s = finger.path[d];
                (s.node, s.lo, s.last, (!s.leaf).then_some(s.count as u64))
            }
        };
        loop {
            let (leaf, count) = match cached.take() {
                Some(count) => (false, count),
                None => unpack_header(tx.read(node + H_HEADER)?),
            };
            finger.path[depth] = Step { node, lo, last, leaf, count: count as u8, slot: 0 };
            finger.len = depth + 1;
            if leaf {
                return Ok((node, count));
            }
            let slot;
            (slot, lo, last) = Self::child_slot(tx, node, count, key, lo, last)?;
            finger.path[depth].slot = slot as u8;
            node = tx.read(node + H_CHILDREN + slot)?;
            depth += 1;
        }
    }

    /// Binary upper bound of `key` among an internal node's separators:
    /// the child slot to descend into, and that child's range. The last
    /// separator probed ≤ `key` and the last probed > `key` are the
    /// slot's two neighbours, so the range costs no extra read.
    fn child_slot(
        tx: &mut dyn Tx,
        node: Addr,
        count: u64,
        key: u64,
        mut lo: u64,
        mut last: u64,
    ) -> Result<(u64, u64, u64), Abort> {
        let (mut l, mut h) = (0, count);
        while l < h {
            let mid = (l + h) / 2;
            let sep = tx.read(node + H_KEYS + mid)?;
            if sep <= key {
                (l, lo) = (mid + 1, sep);
            } else {
                (h, last) = (mid, sep - 1);
            }
        }
        Ok((l, lo, last))
    }

    /// Binary lower bound of `key` among a leaf's keys: the first slot
    /// whose key is ≥ `key`, and whether that key equals it (the last
    /// probe that moved the upper end read exactly that slot).
    fn leaf_slot(tx: &mut dyn Tx, node: Addr, count: u64, key: u64) -> Result<(u64, bool), Abort> {
        let (mut l, mut h, mut hit) = (0, count, false);
        while l < h {
            let mid = (l + h) / 2;
            let k = tx.read(node + H_KEYS + mid)?;
            if k < key {
                l = mid + 1;
            } else {
                (h, hit) = (mid, k == key);
            }
        }
        Ok((l, hit))
    }

    /// Point lookup.
    pub fn lookup(&self, tx: &mut dyn Tx, key: u64) -> Result<Option<u64>, Abort> {
        self.lookup_with(tx, key, &mut Finger::new())
    }

    /// [`lookup`](Self::lookup) resuming from, and updating, `finger`.
    pub fn lookup_with(
        &self,
        tx: &mut dyn Tx,
        key: u64,
        finger: &mut Finger,
    ) -> Result<Option<u64>, Abort> {
        let (leaf, count) = self.descend(tx, key, finger)?;
        match Self::leaf_slot(tx, leaf, count, key)? {
            (pos, true) => Ok(Some(tx.read(leaf + H_VALS + pos)?)),
            (_, false) => Ok(None),
        }
    }

    /// Insert or update. Returns `true` when a new key was inserted.
    pub fn insert(
        &self,
        tx: &mut dyn Tx,
        key: u64,
        value: u64,
        scratch: &mut NodeScratch,
    ) -> Result<bool, Abort> {
        self.insert_with(tx, key, value, scratch, &mut Finger::new())
    }

    /// [`insert`](Self::insert) resuming from, and updating, `finger`: one
    /// descent, the leaf insert, then any split sent up the recorded path
    /// (which the split then clears).
    pub fn insert_with(
        &self,
        tx: &mut dyn Tx,
        key: u64,
        value: u64,
        scratch: &mut NodeScratch,
        finger: &mut Finger,
    ) -> Result<bool, Abort> {
        let (leaf, count) = self.descend(tx, key, finger)?;
        let (pos, hit) = Self::leaf_slot(tx, leaf, count, key)?;
        if hit {
            tx.write(leaf + H_VALS + pos, value)?;
            return Ok(false);
        }
        let Some(mut split) = Self::insert_leaf(tx, leaf, count, pos, key, value, scratch)? else {
            return Ok(true);
        };
        // A split moves keys between nodes: forget the path once it has
        // carried the split up.
        let above = finger.len - 1;
        finger.len = 0;
        for step in finger.path[..above].iter().rev() {
            match Self::insert_internal(tx, step, split, scratch)? {
                Some(up) => split = up,
                None => return Ok(true),
            }
        }
        // The root split: grow the tree by one level.
        let (sep, right) = split;
        let new_root = scratch.take();
        tx.write(new_root + H_HEADER, pack_header(false, 1))?;
        tx.write(new_root + H_KEYS, sep)?;
        tx.write(new_root + H_CHILDREN, finger.path[0].node)?;
        tx.write(new_root + H_CHILDREN + 1, right)?;
        tx.write(self.root_ptr, new_root)?;
        Ok(true)
    }

    /// Put `key` at slot `pos` of a leaf holding `count` keys. Returns
    /// the separator and new right sibling when the leaf split.
    fn insert_leaf(
        tx: &mut dyn Tx,
        node: Addr,
        count: u64,
        pos: u64,
        key: u64,
        value: u64,
        scratch: &mut NodeScratch,
    ) -> Result<Option<(u64, Addr)>, Abort> {
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
            return Ok(None);
        }
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
        Ok(Some((keys[mid], right)))
    }

    /// Splice a child's split `(sep, right)` into the internal node of
    /// `step`, right of the slot the descent took. Returns the node's own
    /// split when it was full.
    fn insert_internal(
        tx: &mut dyn Tx,
        step: &Step,
        (sep, right): (u64, Addr),
        scratch: &mut NodeScratch,
    ) -> Result<Option<(u64, Addr)>, Abort> {
        let (node, count, idx) = (step.node, step.count as u64, step.slot as u64);
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
            return Ok(None);
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
        Ok(Some((up, right_node)))
    }

    /// Remove a key (leaf-local, no rebalancing). Returns whether it existed.
    pub fn remove(&self, tx: &mut dyn Tx, key: u64) -> Result<bool, Abort> {
        self.remove_with(tx, key, &mut Finger::new())
    }

    /// [`remove`](Self::remove) resuming from, and updating, `finger`.
    pub fn remove_with(
        &self,
        tx: &mut dyn Tx,
        key: u64,
        finger: &mut Finger,
    ) -> Result<bool, Abort> {
        let (node, count) = self.descend(tx, key, finger)?;
        let (pos, true) = Self::leaf_slot(tx, node, count, key)? else {
            return Ok(false);
        };
        for j in pos..count - 1 {
            let k = tx.read(node + H_KEYS + j + 1)?;
            tx.write(node + H_KEYS + j, k)?;
            let v = tx.read(node + H_VALS + j + 1)?;
            tx.write(node + H_VALS + j, v)?;
        }
        tx.write(node + H_HEADER, pack_header(true, count - 1))?;
        Ok(true)
    }

    /// Range scan: `(matches, sum-of-values)` over up to `limit` entries
    /// with key ≥ `from`, walking the leaf chain. Unbounded read footprint.
    pub fn range(&self, tx: &mut dyn Tx, from: u64, limit: u64) -> Result<(u64, u64), Abort> {
        let mut sum = 0u64;
        let n = self.walk(
            tx,
            from,
            u64::MAX,
            limit,
            &mut |_, v| sum = sum.wrapping_add(v),
            &mut Finger::new(),
        )?;
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
        let mut sum = 0u64;
        let n = self.range_entries(tx, from, to, limit, &mut |_, v| sum = sum.wrapping_add(v))?;
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
        self.range_entries_with(tx, from, to, limit, f, &mut Finger::new())
    }

    /// [`range_entries`](Self::range_entries) resuming from, and
    /// updating, `finger`.
    pub fn range_entries_with(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
        finger: &mut Finger,
    ) -> Result<u64, Abort> {
        match to.checked_sub(1) {
            Some(last) => self.walk(tx, from, last, limit, f, finger),
            None => Ok(0),
        }
    }

    /// The leaf-chain walk behind every range scan: `f(key, value)` for
    /// up to `limit` entries with `from ≤ key ≤ last`, starting at the
    /// lower bound of `from` in its leaf.
    fn walk(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        last: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
        finger: &mut Finger,
    ) -> Result<u64, Abort> {
        let (mut node, mut count) = self.descend(tx, from, finger)?;
        let mut pos = Self::leaf_slot(tx, node, count, from)?.0;
        let mut n = 0;
        while n < limit {
            if pos == count {
                node = tx.read(node + H_NEXT)?;
                if node == NIL {
                    break;
                }
                count = unpack_header(tx.read(node + H_HEADER)?).1;
                pos = 0;
                continue;
            }
            let k = tx.read(node + H_KEYS + pos)?;
            if k > last {
                break;
            }
            f(k, tx.read(node + H_VALS + pos)?);
            (n, pos) = (n + 1, pos + 1);
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
        self.update_run_with(tx, from, n, f, &mut Finger::new())
    }

    /// [`update_run`](Self::update_run) resuming from, and updating,
    /// `finger`.
    pub fn update_run_with(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        n: u64,
        f: &mut dyn FnMut(u64, u64) -> u64,
        finger: &mut Finger,
    ) -> Result<bool, Abort> {
        if n == 0 {
            return Ok(true);
        }
        let last = from + (n - 1);
        let (leaf, count) = self.descend(tx, from, finger)?;
        let (start, true) = Self::leaf_slot(tx, leaf, count, from)? else {
            return Ok(false);
        };
        // Pass 1: the rest of the run follows `from` without gaps.
        let (mut node, mut pos, mut count_at) = (leaf, start + 1, count);
        for key in from + 1..=last {
            while pos == count_at {
                node = tx.read(node + H_NEXT)?;
                if node == NIL {
                    return Ok(false);
                }
                (count_at, pos) = (unpack_header(tx.read(node + H_HEADER)?).1, 0);
            }
            if tx.read(node + H_KEYS + pos)? != key {
                return Ok(false);
            }
            pos += 1;
        }
        // Pass 2: rewrite the value slots pass 1 found.
        let (mut node, mut pos, mut count_at) = (leaf, start, count);
        for key in from..=last {
            while pos == count_at {
                node = tx.read(node + H_NEXT)?;
                (count_at, pos) = (unpack_header(tx.read(node + H_HEADER)?).1, 0);
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

    /// The clear on split is load-bearing: a finger copied before a
    /// split and reused after it, as if the split had not cleared it,
    /// still routes keys that moved to the new right sibling into the old
    /// leaf, where a lookup answers "absent" for a present key.
    #[test]
    fn finger_kept_across_a_split_gives_wrong_answers() {
        let words = memory_words(4096);
        let memory = TxMemory::new(words);
        let alloc = LineAlloc::new(0, words as u64);
        let tree = TxBTree::build(&memory, &alloc, (0..200).map(|k| k * 100));
        let mut tx = RawTx { memory: &memory };
        let mut scratch = NodeScratch::new(&alloc);
        let mut finger = Finger::new();
        assert_eq!(tree.lookup_with(&mut tx, 5_000, &mut finger).unwrap(), Some(5_000));
        let kept = finger.clone();
        // Fill 5 000's leaf until it splits (the gap up to 5 100 is all
        // its own range).
        let mut key = 5_000;
        while scratch.used == 0 {
            key += 1;
            assert!(tree.insert_with(&mut tx, key, key, &mut scratch, &mut finger).unwrap());
        }
        assert_eq!(finger.len, 0, "the split cleared the finger");
        let keys = tree.audit(&memory);
        let mut wrong = 0;
        for &k in &keys {
            assert_eq!(tree.lookup_with(&mut tx, k, &mut finger).unwrap(), Some(k));
            match tree.lookup_with(&mut tx, k, &mut kept.clone()).unwrap() {
                Some(v) => assert_eq!(v, k),
                None => wrong += 1,
            }
        }
        assert!(wrong > 0, "a stale finger found every key: the clear would not matter");
        assert_eq!(tree.lookup_with(&mut tx, key, &mut kept.clone()).unwrap(), None);
    }

    /// A finger records which tree its path belongs to: handed to another
    /// tree it starts over at that tree's root instead of walking the
    /// first tree's nodes.
    #[test]
    fn finger_moves_between_trees_from_the_root() {
        let words = memory_words(4096);
        let memory = TxMemory::new(words);
        let alloc = LineAlloc::new(0, words as u64);
        let evens = TxBTree::build(&memory, &alloc, (0..300).map(|k| 2 * k));
        let odds = TxBTree::build(&memory, &alloc, (0..300).map(|k| 2 * k + 1));
        let mut tx = RawTx { memory: &memory };
        let mut finger = Finger::new();
        for k in 0..600 {
            let (hit, miss) = if k % 2 == 0 { (evens, odds) } else { (odds, evens) };
            assert_eq!(hit.lookup_with(&mut tx, k, &mut finger).unwrap(), Some(k));
            assert_eq!(miss.lookup_with(&mut tx, k, &mut finger).unwrap(), None);
        }
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
