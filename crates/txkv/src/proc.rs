//! Server-side procedures: multi-step transactions registered with the
//! pipeline and invoked by name through [`crate::KvOp::Call`].
//!
//! A procedure is the service-side unit a typed schema layer compiles a
//! transaction class down to (see the `txkv-schema` crate): a body that
//! reads and writes store keys *inside* one backend transaction, so the
//! whole class inherits the backend's isolation, the WAL's durability,
//! and — when its footprint spans shards — the 2PC machinery, without
//! the client shipping reads back and forth.
//!
//! ## Execution shapes
//!
//! * **Single-shard** (footprint routes to one shard): one update or
//!   read-only transaction on that shard's executor; the post-image is
//!   captured in-transaction and logged exactly like a `MultiPut`.
//! * **Cross-shard**: the procedure body runs once per participant
//!   shard — a *leg* — inside that shard's own transaction, with
//!   [`ProcCtx::is_local`] gating which keys the leg may touch. Legs
//!   must not need data read on another shard: everything a leg writes
//!   is derived from `args` plus its own local reads (replicated tables
//!   below [`ProcRegistry::replicated_below`] read locally everywhere).
//!   The legs run through [`crate::shard::coordinate`], the same
//!   coordinator as a cross-shard `MultiPut`: each leg's pre-image is
//!   captured in-transaction, so an incomplete call is compensated (live
//!   or at recovery) by restoring images (DESIGN.md §11.2, §12.3).
//! * **Read-only** (`read_only() == true`): batched with the other RO
//!   requests into one snapshot transaction — on SI-HTM the unbounded,
//!   never-aborting RO fast path.
//!
//! Returning [`Abort::User`] from any leg rolls the whole call back
//! semantically ([`crate::KvReply::CallAborted`]): committed legs are
//! compensated, nothing is acked as done, and the request is answered.

use crate::durability::Writes;
use crate::shard::{ShardMap, UndoImage};
use crate::store::KvStore;
use std::sync::Arc;
use tm_api::{Abort, Tx};
use workloads::btree::{Finger, NodeScratch};

/// Upper bound on keys a single procedure leg may insert or delete.
/// Executor scratches (and WAL write-set buffers) are pre-sized to it.
pub const PROC_WRITE_MAX: usize = 192;

/// The in-transaction surface a procedure body (or a typed layer above
/// it) programs against. Implemented by [`ProcCtx`] on the service path
/// and by [`LocalTx`] for embedded/direct use.
pub trait KvTx {
    fn get(&mut self, key: u64) -> Result<Option<u64>, Abort>;
    /// Insert or overwrite. On capturing contexts this also records the
    /// pre-image (2PC undo) and post-image (WAL) of the write.
    fn put(&mut self, key: u64, val: u64) -> Result<(), Abort>;
    /// Remove; `true` when the key existed.
    fn delete(&mut self, key: u64) -> Result<bool, Abort>;
    /// Ordered entry scan over `[from, to)`, up to `limit` matches;
    /// returns the match count.
    fn scan_range(
        &mut self,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> Result<u64, Abort>;
    /// Read-modify-write the run of present keys `[from, from + n)` in
    /// place: `f(key, old)` gives each new value, in key order. Returns
    /// `false`, having written nothing and called `f` never, when any key
    /// of the run is absent; the caller then falls back to per-key
    /// [`put`](KvTx::put)s. On capturing contexts the images are exactly
    /// those of the equivalent `put`s. The default is "not done": it
    /// returns `false`, so every caller takes its per-key path.
    fn update_run(
        &mut self,
        from: u64,
        n: u64,
        f: &mut dyn FnMut(u64, u64) -> u64,
    ) -> Result<bool, Abort> {
        let _ = (from, n, f);
        Ok(false)
    }
    /// Whether `key` is readable/writable in this leg. Single-shard and
    /// embedded contexts own everything; a cross-shard leg owns its
    /// shard's keys plus the replicated prefix (read-only).
    fn is_local(&self, key: u64) -> bool;
}

/// One registered server-side transaction class.
pub trait Procedure: Send + Sync {
    /// Stable identifier clients put in [`crate::KvOp::Call`].
    fn id(&self) -> u64;
    /// Human-readable name (per-procedure latency report rows).
    fn name(&self) -> &'static str;
    /// Read-only procedures batch onto the RO fast path and must not
    /// write; update procedures may do both.
    fn read_only(&self) -> bool {
        false
    }
    /// Execute one leg. For single-shard and RO calls this runs exactly
    /// once with every key local; for cross-shard calls it runs once per
    /// participant shard and must gate writes with [`KvTx::is_local`].
    /// Returned words are concatenated across legs in ascending shard
    /// order into [`crate::KvReply::CallOk`].
    fn run(&self, ctx: &mut ProcCtx<'_>, args: &[u64]) -> Result<Vec<u64>, Abort>;
}

/// The procedures a pipeline serves, plus the shared routing facts the
/// executors need to run their legs.
#[derive(Clone, Default)]
pub struct ProcRegistry {
    procs: Vec<Arc<dyn Procedure>>,
    replicated_below: u64,
}

impl ProcRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Keys `< below` are replicated into **every** shard's store at
    /// load time (small read-mostly dimension tables). They are local to
    /// all legs, must never be written by procedures, and must not
    /// appear in call footprints.
    pub fn with_replicated_below(mut self, below: u64) -> Self {
        self.replicated_below = below;
        self
    }

    pub fn register(mut self, proc: Arc<dyn Procedure>) -> Self {
        debug_assert!(
            self.procs.iter().all(|p| p.id() != proc.id()),
            "duplicate procedure id {}",
            proc.id()
        );
        self.procs.push(proc);
        self
    }

    pub fn get(&self, id: u64) -> Option<&Arc<dyn Procedure>> {
        self.procs.iter().find(|p| p.id() == id)
    }

    /// Dense report slot for a procedure id (registration order).
    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.procs.iter().position(|p| p.id() == id)
    }

    pub fn procs(&self) -> &[Arc<dyn Procedure>] {
        &self.procs
    }

    pub fn len(&self) -> usize {
        self.procs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    pub fn replicated_below(&self) -> u64 {
        self.replicated_below
    }
}

impl std::fmt::Debug for ProcRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcRegistry")
            .field("procs", &self.procs.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("replicated_below", &self.replicated_below)
            .finish()
    }
}

/// Which keys a [`ProcCtx`] owns: the shard it runs on, the replicated
/// prefix, and — for one leg of a cross-shard call — the map that marks
/// every other shard's keys foreign.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'a> {
    /// `None`: the whole call runs in this one transaction, so every key
    /// is local.
    map: Option<&'a ShardMap>,
    shard: usize,
    /// Keys below this are replicated into every shard: local to all
    /// legs, never written ([`ProcRegistry::with_replicated_below`]).
    replicated_below: u64,
}

impl<'a> Scope<'a> {
    /// A call that runs whole on `shard`.
    pub fn single(shard: usize, replicated_below: u64) -> Self {
        Scope { map: None, shard, replicated_below }
    }

    /// Shard `shard`'s leg of a cross-shard call.
    pub fn leg(map: &'a ShardMap, shard: usize, replicated_below: u64) -> Self {
        Scope { map: Some(map), shard, replicated_below }
    }
}

/// The execution context the pipeline hands a procedure leg: the shard's
/// store and transaction, a B-tree [`Finger`] shared by every access of
/// the leg, plus optional pre-/post-image capture. Built by the pipeline;
/// [`ProcCtx::new`] is public so tests can drive a capturing context
/// inside a plain transaction.
pub struct ProcCtx<'a> {
    store: &'a KvStore,
    tx: &'a mut dyn Tx,
    scratch: &'a mut NodeScratch,
    /// The leg's last descent: consecutive keys (a row read then
    /// written, neighbouring order lines) re-descend from their common
    /// subtree instead of the root.
    finger: Finger,
    scope: Scope<'a>,
    /// WAL post-image capture (update legs under durability).
    writes: Option<&'a mut Writes>,
    /// 2PC pre-image capture (cross-shard legs): first-write-wins per
    /// key, so restoring the image in order undoes the leg.
    undo: Option<&'a mut UndoImage>,
}

impl<'a> ProcCtx<'a> {
    /// Invariant: **one `ProcCtx` per attempt.** Build it inside the
    /// transaction body, never outside `exec`: its finger caches nodes
    /// read in this attempt, which a retry must read again.
    pub fn new(
        store: &'a KvStore,
        tx: &'a mut dyn Tx,
        scratch: &'a mut NodeScratch,
        scope: Scope<'a>,
        writes: Option<&'a mut Writes>,
        undo: Option<&'a mut UndoImage>,
    ) -> Self {
        ProcCtx { store, tx, scratch, finger: Finger::new(), scope, writes, undo }
    }

    /// The shard this leg runs on.
    pub fn shard(&self) -> usize {
        self.scope.shard
    }
}

impl KvTx for ProcCtx<'_> {
    fn get(&mut self, key: u64) -> Result<Option<u64>, Abort> {
        debug_assert!(
            self.is_local(key),
            "leg on shard {} read foreign key {key:#x}",
            self.scope.shard
        );
        self.store.tree.lookup_with(self.tx, key, &mut self.finger)
    }

    fn put(&mut self, key: u64, val: u64) -> Result<(), Abort> {
        debug_assert!(
            self.is_local(key),
            "leg on shard {} wrote foreign key {key:#x}",
            self.scope.shard
        );
        debug_assert!(
            key >= self.scope.replicated_below,
            "procedure wrote replicated key {key:#x}"
        );
        if let Some(undo) = self.undo.as_deref_mut() {
            if !undo.iter().any(|&(k, _)| k == key) {
                let old = self.store.tree.lookup_with(self.tx, key, &mut self.finger)?;
                undo.push((key, old));
            }
        }
        self.store.tree.insert_with(self.tx, key, val, self.scratch, &mut self.finger)?;
        if let Some(writes) = self.writes.as_deref_mut() {
            writes.push((key, Some(val)));
        }
        Ok(())
    }

    fn delete(&mut self, key: u64) -> Result<bool, Abort> {
        debug_assert!(
            self.is_local(key),
            "leg on shard {} wrote foreign key {key:#x}",
            self.scope.shard
        );
        debug_assert!(
            key >= self.scope.replicated_below,
            "procedure wrote replicated key {key:#x}"
        );
        if let Some(undo) = self.undo.as_deref_mut() {
            if !undo.iter().any(|&(k, _)| k == key) {
                let old = self.store.tree.lookup_with(self.tx, key, &mut self.finger)?;
                undo.push((key, old));
            }
        }
        let existed = self.store.tree.remove_with(self.tx, key, &mut self.finger)?;
        if let Some(writes) = self.writes.as_deref_mut() {
            writes.push((key, None));
        }
        Ok(existed)
    }

    fn scan_range(
        &mut self,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> Result<u64, Abort> {
        self.store.tree.range_entries_with(self.tx, from, to, limit, f, &mut self.finger)
    }

    /// The same images `put` captures, taken from the slots the run
    /// overwrites instead of a second lookup: pre-image first-write-wins,
    /// post-image per key in key order.
    fn update_run(
        &mut self,
        from: u64,
        n: u64,
        f: &mut dyn FnMut(u64, u64) -> u64,
    ) -> Result<bool, Abort> {
        debug_assert!(
            n == 0 || (self.is_local(from) && self.is_local(from + (n - 1))),
            "leg on shard {} wrote a foreign run at {from:#x}",
            self.scope.shard
        );
        debug_assert!(
            from >= self.scope.replicated_below,
            "procedure wrote replicated key {from:#x}"
        );
        let (mut undo, mut writes) = (self.undo.as_deref_mut(), self.writes.as_deref_mut());
        let mut capture = |key, old| {
            let new = f(key, old);
            if let Some(undo) = undo.as_deref_mut() {
                if !undo.iter().any(|&(k, _)| k == key) {
                    undo.push((key, Some(old)));
                }
            }
            if let Some(writes) = writes.as_deref_mut() {
                writes.push((key, Some(new)));
            }
            new
        };
        self.store.tree.update_run_with(self.tx, from, n, &mut capture, &mut self.finger)
    }

    fn is_local(&self, key: u64) -> bool {
        let Scope { map, shard, replicated_below } = self.scope;
        key < replicated_below || map.is_none_or(|m| m.shard_of(key) == shard)
    }
}

/// Direct (non-pipelined) transaction surface over a store: what
/// embedded callers — the typed schema layer's unit tests, tm-check
/// scenario bodies — use to run the same code paths inside a plain
/// [`tm_api::Tx`] body.
pub struct LocalTx<'a> {
    pub store: &'a KvStore,
    pub tx: &'a mut dyn Tx,
    pub scratch: &'a mut NodeScratch,
}

impl KvTx for LocalTx<'_> {
    fn get(&mut self, key: u64) -> Result<Option<u64>, Abort> {
        self.store.get_in(self.tx, key)
    }

    fn put(&mut self, key: u64, val: u64) -> Result<(), Abort> {
        self.store.put_in(self.tx, self.scratch, key, val).map(|_| ())
    }

    fn delete(&mut self, key: u64) -> Result<bool, Abort> {
        self.store.delete_in(self.tx, key)
    }

    fn scan_range(
        &mut self,
        from: u64,
        to: u64,
        limit: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> Result<u64, Abort> {
        self.store.scan_range_entries_in(self.tx, from, to, limit, f)
    }

    fn update_run(
        &mut self,
        from: u64,
        n: u64,
        f: &mut dyn FnMut(u64, u64) -> u64,
    ) -> Result<bool, Abort> {
        self.store.update_run_in(self.tx, from, n, f)
    }

    fn is_local(&self, _key: u64) -> bool {
        true
    }
}
