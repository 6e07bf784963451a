//! The embedded transactional key-value store and the service vocabulary
//! ([`KvOp`] / [`KvReply`] / [`OpClass`]).
//!
//! Keys and values are `u64` (the whole tree is word-addressable). The
//! store is an ordered index — a [`TxBTree`] — so *prefix scans* come for
//! free: the keys matching a bit-prefix `p` with `shift` free low bits
//! are exactly the range `[p·2^shift, (p+1)·2^shift)`, walked along the
//! leaf chain with an unbounded read footprint that SI-HTM's
//! non-transactional read paths absorb without capacity aborts.
//!
//! Every operation comes in two forms:
//!
//! * `*_in` — runs *inside* an existing transaction (`&mut dyn Tx`), used
//!   by the pipeline to pack many read-only requests into one transaction
//!   and to compose multi-key read-write transactions;
//! * a whole-transaction convenience over [`TmThread::exec`] — what a
//!   library user (and the semantics tests) call directly. The ones that
//!   touch several keys make one B-tree [`Finger`] inside the body and
//!   share it across the keys of that attempt.

use std::sync::Arc;
use tm_api::{Abort, Outcome, TmThread, Tx, TxKind};
use txmem::{Addr, LineAlloc, TxMemory};
use workloads::btree::{Finger, NodeScratch, TxBTree};

/// Handle to a KV store laid out in simulated memory. Cheap to clone;
/// clones share the tree and its node arena.
#[derive(Clone)]
pub struct KvStore {
    /// [`crate::ProcCtx`] calls the tree's `*_with` forms with its own
    /// finger.
    pub(crate) tree: TxBTree,
    alloc: Arc<LineAlloc>,
}

impl KvStore {
    /// Create an empty store whose nodes live in `[base, base + words)`.
    pub fn create(memory: &TxMemory, base: Addr, words: u64) -> KvStore {
        Self::create_with(memory, base, words, std::iter::empty())
    }

    /// Create and bulk-load with `(key, value)` pairs (raw stores; build
    /// phase only, before any threads run).
    pub fn create_with(
        memory: &TxMemory,
        base: Addr,
        words: u64,
        entries: impl Iterator<Item = (u64, u64)>,
    ) -> KvStore {
        let alloc = Arc::new(LineAlloc::new(base, words));
        let tree = TxBTree::build_pairs(memory, &alloc, entries);
        KvStore { tree, alloc }
    }

    /// The node arena (executors refill their scratch from it).
    pub fn alloc(&self) -> &Arc<LineAlloc> {
        &self.alloc
    }

    /// A scratch sized for single-key writes.
    pub fn new_scratch(&self) -> NodeScratch {
        NodeScratch::new(&self.alloc)
    }

    /// A scratch sized for multi-key write transactions of up to
    /// `max_keys` inserts (each insert may split a root-to-leaf cascade).
    pub fn new_batch_scratch(&self, max_keys: usize) -> NodeScratch {
        NodeScratch::with_capacity(&self.alloc, 12 + 6 * max_keys)
    }

    /// Non-transactional read straight off memory (population checks and
    /// end-of-run audits; not for use during runs).
    pub fn load_raw(&self, memory: &TxMemory, key: u64) -> Option<u64> {
        self.tree.lookup_raw(memory, key)
    }

    // ---- in-transaction primitives ------------------------------------

    pub fn get_in(&self, tx: &mut dyn Tx, key: u64) -> Result<Option<u64>, Abort> {
        self.tree.lookup(tx, key)
    }

    /// Scan the prefix range `[prefix << shift, (prefix + 1) << shift)`,
    /// up to `limit` entries; returns `(matches, sum-of-values)`.
    pub fn scan_prefix_in(
        &self,
        tx: &mut dyn Tx,
        prefix: u64,
        shift: u32,
        limit: u64,
    ) -> Result<(u64, u64), Abort> {
        let (from, to) = Self::prefix_range(prefix, shift);
        self.tree.range_between(tx, from, to, limit)
    }

    /// Half-open range scan `[from, to)` (one ordered index walk),
    /// `(matches, sum-of-values)` over up to `limit` entries.
    pub fn scan_range_in(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        to: u64,
        limit: u64,
    ) -> Result<(u64, u64), Abort> {
        self.tree.range_between(tx, from, to, limit)
    }

    /// Entry-yielding half-open range scan `[from, to)`: `f(key, value)`
    /// per match in key order, up to `limit`; returns the match count.
    /// What cross-shard ordered merges and secondary-index lookups use —
    /// they need the entries, not a count/sum digest.
    pub fn scan_range_entries_in(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> Result<u64, Abort> {
        self.tree.range_entries(tx, from, to, limit, f)
    }

    /// The `[from, to)` range a `ScanPrefix { prefix, shift }` covers.
    pub fn prefix_range(prefix: u64, shift: u32) -> (u64, u64) {
        let from = prefix << shift;
        let to = match (prefix + 1).checked_shl(shift) {
            Some(t) if t != 0 => t,
            _ => u64::MAX,
        };
        (from, to)
    }

    /// Insert or overwrite; `true` when the key was newly created.
    pub fn put_in(
        &self,
        tx: &mut dyn Tx,
        scratch: &mut NodeScratch,
        key: u64,
        val: u64,
    ) -> Result<bool, Abort> {
        self.tree.insert(tx, key, val, scratch)
    }

    /// Read-modify-write the run of present keys `[from, from + n)` in
    /// place, with one descent plus the leaf chain: `f(key, old)` gives
    /// each new value, in key order. `false`, with nothing written, when
    /// any key of the run is absent ([`TxBTree::update_run`]).
    pub fn update_run_in(
        &self,
        tx: &mut dyn Tx,
        from: u64,
        n: u64,
        f: &mut dyn FnMut(u64, u64) -> u64,
    ) -> Result<bool, Abort> {
        self.tree.update_run(tx, from, n, f)
    }

    /// Remove; `true` when the key existed.
    pub fn delete_in(&self, tx: &mut dyn Tx, key: u64) -> Result<bool, Abort> {
        self.tree.remove(tx, key)
    }

    /// Every `(key, value)` entry, in key order, inside an existing
    /// transaction (the checkpoint scan).
    pub fn snapshot_in(&self, tx: &mut dyn Tx, out: &mut Vec<(u64, u64)>) -> Result<(), Abort> {
        self.tree.for_each(tx, &mut |k, v| out.push((k, v)))
    }

    // ---- whole-transaction conveniences -------------------------------

    /// Consistent full-store snapshot in **one** read-only transaction —
    /// on SI-HTM the unbounded, never-aborting RO fast path, so
    /// checkpointing a large store never capacity-aborts and never
    /// blocks writers beyond the caller's own serialization.
    pub fn snapshot<T: TmThread + ?Sized>(&self, t: &mut T) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        t.exec(TxKind::ReadOnly, &mut |tx| {
            out.clear();
            self.snapshot_in(tx, &mut out)
        });
        out
    }

    /// Point read (one read-only transaction).
    pub fn get<T: TmThread + ?Sized>(&self, t: &mut T, key: u64) -> Option<u64> {
        let mut out = None;
        t.exec(TxKind::ReadOnly, &mut |tx| {
            out = self.get_in(tx, key)?;
            Ok(())
        });
        out
    }

    /// Multi-key read in **one** read-only transaction: on SI-HTM all
    /// values come from a single consistent snapshot.
    pub fn multi_get<T: TmThread + ?Sized>(&self, t: &mut T, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        t.exec(TxKind::ReadOnly, &mut |tx| {
            out.clear();
            let finger = &mut Finger::new();
            for &k in keys {
                out.push(self.tree.lookup_with(tx, k, finger)?);
            }
            Ok(())
        });
        out
    }

    /// Prefix scan (one read-only transaction).
    pub fn scan_prefix<T: TmThread + ?Sized>(
        &self,
        t: &mut T,
        prefix: u64,
        shift: u32,
        limit: u64,
    ) -> (u64, u64) {
        let mut out = (0, 0);
        t.exec(TxKind::ReadOnly, &mut |tx| {
            out = self.scan_prefix_in(tx, prefix, shift, limit)?;
            Ok(())
        });
        out
    }

    /// Insert or overwrite; `true` when the key was newly created.
    pub fn put<T: TmThread + ?Sized>(
        &self,
        t: &mut T,
        scratch: &mut NodeScratch,
        key: u64,
        val: u64,
    ) -> bool {
        let mut created = false;
        let out = t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            created = self.put_in(tx, scratch, key, val)?;
            Ok(())
        });
        if out == Outcome::Committed {
            scratch.refill(&self.alloc);
        }
        created
    }

    /// Remove; `true` when the key existed.
    pub fn delete<T: TmThread + ?Sized>(&self, t: &mut T, key: u64) -> bool {
        let mut existed = false;
        t.exec(TxKind::Update, &mut |tx| {
            existed = self.delete_in(tx, key)?;
            Ok(())
        });
        existed
    }

    /// Compare-and-set: if the current value equals `expect` (`None` =
    /// absent), write `new` and return `Ok(())`; otherwise change nothing
    /// and return the observed value. Linearizable on every backend: the
    /// read and the conditional write share one update transaction, and
    /// two racing CAS on a key collide write-write (first committer
    /// wins — under SI exactly like under serializability, because the
    /// write set guards the read).
    pub fn cas<T: TmThread + ?Sized>(
        &self,
        t: &mut T,
        scratch: &mut NodeScratch,
        key: u64,
        expect: Option<u64>,
        new: u64,
    ) -> Result<(), Option<u64>> {
        let mut observed = None;
        let out = t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            let finger = &mut Finger::new();
            let cur = self.tree.lookup_with(tx, key, finger)?;
            if cur != expect {
                observed = cur;
                return Err(Abort::User); // semantic rollback, not retried
            }
            self.tree.insert_with(tx, key, new, scratch, finger)?;
            Ok(())
        });
        match out {
            Outcome::Committed => {
                scratch.refill(&self.alloc);
                Ok(())
            }
            Outcome::UserAborted => Err(observed),
        }
    }

    /// Atomic multi-key blind write (one update transaction).
    pub fn multi_put<T: TmThread + ?Sized>(
        &self,
        t: &mut T,
        scratch: &mut NodeScratch,
        pairs: &[(u64, u64)],
    ) {
        let out = t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            let finger = &mut Finger::new();
            for &(k, v) in pairs {
                self.tree.insert_with(tx, k, v, scratch, finger)?;
            }
            Ok(())
        });
        if out == Outcome::Committed {
            scratch.refill(&self.alloc);
        }
    }

    /// Atomic multi-key read-modify-write: add each delta to its key's
    /// current value (absent keys count as 0) in one update transaction.
    /// The canonical conserving transfer is
    /// `multi_add(&[(from, -x), (to, x)])`.
    pub fn multi_add<T: TmThread + ?Sized>(
        &self,
        t: &mut T,
        scratch: &mut NodeScratch,
        deltas: &[(u64, i64)],
    ) {
        let out = t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            let finger = &mut Finger::new();
            for &(k, d) in deltas {
                let cur = self.tree.lookup_with(tx, k, finger)?.unwrap_or(0);
                self.tree.insert_with(tx, k, cur.wrapping_add(d as u64), scratch, finger)?;
            }
            Ok(())
        });
        if out == Outcome::Committed {
            scratch.refill(&self.alloc);
        }
    }

    /// [`KvStore::multi_add`] that also reports the committed post-image
    /// (`writes`), for write-ahead logging: replaying the post-image in
    /// commit order reproduces the read-modify-write without
    /// re-executing it. Captured inside the transaction body (and reset
    /// per attempt), so it matches exactly the attempt that committed.
    pub fn multi_add_logged<T: TmThread + ?Sized>(
        &self,
        t: &mut T,
        scratch: &mut NodeScratch,
        deltas: &[(u64, i64)],
        writes: &mut Vec<(u64, Option<u64>)>,
    ) {
        let out = t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            writes.clear();
            let finger = &mut Finger::new();
            for &(k, d) in deltas {
                let cur = self.tree.lookup_with(tx, k, finger)?.unwrap_or(0);
                let v = cur.wrapping_add(d as u64);
                self.tree.insert_with(tx, k, v, scratch, finger)?;
                writes.push((k, Some(v)));
            }
            Ok(())
        });
        if out == Outcome::Committed {
            scratch.refill(&self.alloc);
        } else {
            writes.clear();
        }
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore").finish_non_exhaustive()
    }
}

/// One service request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    Get {
        key: u64,
    },
    MultiGet {
        keys: Vec<u64>,
    },
    ScanPrefix {
        prefix: u64,
        shift: u32,
        limit: u64,
    },
    /// Half-open ordered range scan `[from, to)` — the shape encoded
    /// tuple prefixes produce when the range is not 2ᵏ-aligned.
    ScanRange {
        from: u64,
        to: u64,
        limit: u64,
    },
    Put {
        key: u64,
        val: u64,
    },
    Delete {
        key: u64,
    },
    Cas {
        key: u64,
        expect: Option<u64>,
        new: u64,
    },
    MultiPut {
        pairs: Vec<(u64, u64)>,
    },
    MultiAdd {
        deltas: Vec<(u64, i64)>,
    },
    /// Invoke a registered server-side procedure (see [`crate::proc`]).
    /// `footprint` is the routing hint: representative keys of every
    /// shard the procedure touches (replicated keys excluded). `args`
    /// are procedure-defined; `read_only` procedures batch onto the RO
    /// fast path.
    Call {
        proc: u64,
        args: Vec<u64>,
        footprint: Vec<u64>,
        read_only: bool,
    },
}

impl KvOp {
    pub fn class(&self) -> OpClass {
        match self {
            KvOp::Get { .. } => OpClass::Get,
            KvOp::MultiGet { .. } => OpClass::MultiGet,
            KvOp::ScanPrefix { .. } => OpClass::Scan,
            KvOp::ScanRange { .. } => OpClass::Scan,
            KvOp::Put { .. } => OpClass::Put,
            KvOp::Delete { .. } => OpClass::Delete,
            KvOp::Cas { .. } => OpClass::Cas,
            KvOp::MultiPut { .. } => OpClass::MultiPut,
            KvOp::MultiAdd { .. } => OpClass::MultiAdd,
            KvOp::Call { .. } => OpClass::Call,
        }
    }

    /// Read-only ops are batchable onto the RO fast path. `Call` is
    /// read-only exactly when the submitter declared it so (the
    /// registered procedure asserts the declaration at execution).
    pub fn read_only(&self) -> bool {
        match self {
            KvOp::Call { read_only, .. } => *read_only,
            _ => self.class().read_only(),
        }
    }
}

/// Operation class, the granularity of the latency SLO report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Get,
    MultiGet,
    Scan,
    Put,
    Delete,
    Cas,
    MultiPut,
    MultiAdd,
    /// Server-side procedure call (RO or update; the per-procedure
    /// latency report splits it further).
    Call,
}

impl OpClass {
    pub const ALL: [OpClass; 9] = [
        OpClass::Get,
        OpClass::MultiGet,
        OpClass::Scan,
        OpClass::Put,
        OpClass::Delete,
        OpClass::Cas,
        OpClass::MultiPut,
        OpClass::MultiAdd,
        OpClass::Call,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::MultiGet => "multi_get",
            OpClass::Scan => "scan",
            OpClass::Put => "put",
            OpClass::Delete => "delete",
            OpClass::Cas => "cas",
            OpClass::MultiPut => "multi_put",
            OpClass::MultiAdd => "multi_add",
            OpClass::Call => "call",
        }
    }

    pub fn index(self) -> usize {
        OpClass::ALL.iter().position(|&c| c == self).unwrap()
    }

    pub fn read_only(self) -> bool {
        matches!(self, OpClass::Get | OpClass::MultiGet | OpClass::Scan)
    }
}

/// The answer to one [`KvOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvReply {
    /// `Get` result.
    Value(Option<u64>),
    /// `MultiGet` result, positionally matching the requested keys.
    Values(Vec<Option<u64>>),
    /// `ScanPrefix` result.
    Scan { count: u64, sum: u64 },
    /// `Put` (`created`) / `Delete` (`existed`) / `MultiPut` / `MultiAdd`.
    Done { changed: bool },
    /// `Cas` succeeded.
    CasOk,
    /// `Cas` failed; the observed current value.
    CasFail(Option<u64>),
    /// `Call` committed; per-leg outputs concatenated in ascending
    /// participant-shard order.
    CallOk(Vec<u64>),
    /// `Call` rolled back semantically ([`Abort::User`] from a leg):
    /// nothing was changed, the request is answered, and nothing was
    /// logged.
    CallAborted,
    /// The request was accepted but shed during shutdown before being
    /// served (drain deadline passed). Never silently dropped.
    Shed,
    /// The request's shard has a degraded (read-only or failed) log:
    /// the update was shed un-acked — reads on the shard still serve —
    /// and the shard rejoins automatically once its storage heals.
    Unavailable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_htm::SiHtm;
    use tm_api::TmBackend;

    #[test]
    fn point_ops_roundtrip() {
        let backend = SiHtm::with_defaults(1 << 14);
        let store = KvStore::create(backend.memory(), 0, 1 << 14);
        let mut t = backend.register_thread();
        let mut scratch = store.new_scratch();
        assert!(store.put(&mut t, &mut scratch, 10, 100));
        assert!(!store.put(&mut t, &mut scratch, 10, 200), "overwrite is not a create");
        assert_eq!(store.get(&mut t, 10), Some(200));
        assert_eq!(store.get(&mut t, 11), None);
        assert!(store.delete(&mut t, 10));
        assert!(!store.delete(&mut t, 10));
        assert_eq!(store.get(&mut t, 10), None);
    }

    #[test]
    fn cas_matches_and_mismatches() {
        let backend = SiHtm::with_defaults(1 << 14);
        let store = KvStore::create(backend.memory(), 0, 1 << 14);
        let mut t = backend.register_thread();
        let mut scratch = store.new_scratch();
        // Absent-expectation insert.
        assert_eq!(store.cas(&mut t, &mut scratch, 5, None, 1), Ok(()));
        // Wrong expectation reports the observed value and changes nothing.
        assert_eq!(store.cas(&mut t, &mut scratch, 5, Some(9), 2), Err(Some(1)));
        assert_eq!(store.get(&mut t, 5), Some(1));
        // Right expectation swings it.
        assert_eq!(store.cas(&mut t, &mut scratch, 5, Some(1), 2), Ok(()));
        assert_eq!(store.get(&mut t, 5), Some(2));
    }

    #[test]
    fn multi_ops_and_prefix_scan() {
        let backend = SiHtm::with_defaults(1 << 16);
        let store = KvStore::create_with(backend.memory(), 0, 1 << 16, (0..64u64).map(|k| (k, 1)));
        let mut t = backend.register_thread();
        let mut scratch = store.new_batch_scratch(4);
        store.multi_put(&mut t, &mut scratch, &[(100, 7), (101, 8)]);
        assert_eq!(store.multi_get(&mut t, &[100, 101, 102]), vec![Some(7), Some(8), None]);
        store.multi_add(&mut t, &mut scratch, &[(100, -2), (101, 2)]);
        assert_eq!(store.multi_get(&mut t, &[100, 101]), vec![Some(5), Some(10)]);
        // Prefix 0 with shift 5 = keys 0..32, all value 1.
        assert_eq!(store.scan_prefix(&mut t, 0, 5, 1000), (32, 32));
        // Prefix 1 with shift 5 = keys 32..64.
        assert_eq!(store.scan_prefix(&mut t, 1, 5, 1000), (32, 32));
        // Limit truncates.
        assert_eq!(store.scan_prefix(&mut t, 0, 6, 10).0, 10);
        // Raw audit agrees.
        assert_eq!(store.load_raw(backend.memory(), 100), Some(5));
    }

    #[test]
    fn op_classes_partition_read_only() {
        for class in OpClass::ALL {
            assert_eq!(OpClass::ALL[class.index()], class);
        }
        assert!(KvOp::Get { key: 1 }.read_only());
        assert!(KvOp::MultiGet { keys: vec![1] }.read_only());
        assert!(KvOp::ScanPrefix { prefix: 0, shift: 4, limit: 8 }.read_only());
        assert!(!KvOp::Put { key: 1, val: 2 }.read_only());
        assert!(!KvOp::Cas { key: 1, expect: None, new: 2 }.read_only());
        assert!(!KvOp::MultiAdd { deltas: vec![] }.read_only());
    }
}
