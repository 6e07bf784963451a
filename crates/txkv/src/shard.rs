//! Sharding: keyspace partitioning, cross-shard routing, and the
//! two-phase-commit core for multi-shard read-write transactions.
//!
//! Each shard is a *complete, independent* backend instance — its own
//! simulated memory, conflict directory, TMCAM pool, `StateArray`, and
//! (critically, for SI-HTM) its own quiescence domain. A writer's
//! commit-time safety wait scans only the threads active *in its shard*,
//! so partitioning the keyspace turns the paper's main scaling cost from
//! O(total writers) into O(writers per shard). The [`ShardMap`] decides
//! which shard owns which key; the pipeline routes single-shard requests
//! to a shard-affine executor so the common case pays zero cross-shard
//! coordination.
//!
//! ## Cross-shard transactions
//!
//! A multi-key update whose keys span shards cannot run as one backend
//! transaction — there is no backend that sees both memories.
//! [`coordinate`] is the one two-phase protocol every cross-shard update
//! runs through: the pipeline's `MultiPut`, `MultiAdd` and `Call`
//! requests, and tm-check's `xshard` and `recovery` scenarios. It takes
//! the participants' coordination locks ([`XLock`]) in ascending shard
//! order (deadlock-free) and then:
//!
//! 1. **legs** — one [`Leg`] per participant, in shard order, back to
//!    back, each one update transaction under the shard's commit lock
//!    that applies the participant's part and captures in-transaction its
//!    pre-image (the undo image, first write wins) and post-image. With a
//!    WAL the leg's `XBegin` (participant set + undo image) and `XApply`
//!    (post-image) are appended together before the commit lock drops. If
//!    a leg escalated to its serialized fall-back path (an
//!    `sgl_acquisitions` delta), the remaining legs are pinned to
//!    [`TmThread::exec_escalated`] — once the protocol is half-applied,
//!    optimism only risks more mid-protocol aborts.
//! 2. **one durable round** — a single wait until every leg's LSN is
//!    durable (one [`WalSet::wait_durable`] ticket per leg, each leading
//!    a flush unless the log writer's already covered it), so no
//!    decision can be durable before every leg is.
//! 3. **decision** — an `XDecide` goes to every participant, each under
//!    its commit lock; the first durable one commits the transaction
//!    everywhere at recovery. In Async mode nothing waits for it: the
//!    decisions ride the next group commit. In Sync mode the coordinator
//!    waits, still under the [`XLock`]s, for the first participant's
//!    decision only: that one is the commit point the ack rests on.
//!
//! If a leg unwinds (the chaos injector panics inside a transaction
//! body), a call leg returns [`Abort::User`], or the log refuses a record
//! before any decision is appended, the committed legs are rolled back
//! and each rollback is logged as one `XAbort`, which rides group commit
//! like the decisions, so an accepted cross-shard update either fully
//! applies or fully aborts.
//!
//! ## What the locks do and don't serialize
//!
//! Single-shard operations never touch an [`XLock`]: within one shard the
//! backend's own concurrency control is complete. The locks mutually
//! exclude *cross-shard* operations with overlapping participant sets —
//! a cross-shard audit (multi-shard `MultiGet`) therefore cannot observe
//! a half-applied cross-shard transfer. Concurrent single-shard updates
//! can still commit between a cross-shard reader's per-shard snapshots;
//! that is admissible exactly because local operations are atomic per
//! shard (a conserving local transfer keeps its shard's total fixed, so
//! the audit's per-shard sums still add up). Undo for `MultiAdd` is
//! delta-form (apply the negated deltas), which commutes with concurrent
//! local adds; undo for `MultiPut` restores the leg's pre-images, which is
//! admissible for blind writes (a concurrent racing blind write to the
//! same key has no serialization-order claim either way). Local calls
//! take their shard's `XLock`, so nothing commits between a call leg and
//! its image-restoring rollback.

use crate::durability::{Append, CrashSite, DurabilityMode, WalError, WalSet, Writes};
use crate::proc::{KvTx, ProcCtx, Procedure, Scope};
use crate::store::{KvOp, KvStore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use tm_api::{Abort, Outcome, TmThread, TwoPcStats, Tx, TxKind};
use txmem::hooks::{self, Event};
use workloads::btree::NodeScratch;

/// How the keyspace is partitioned across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Multiplicative hashing: keys scatter uniformly; range scans touch
    /// every shard.
    Hash,
    /// Contiguous ranges of `keys_per_shard` keys per shard (the tail
    /// shard absorbs the rest of the keyspace); range scans touch only
    /// the shards covering the range.
    Range { keys_per_shard: u64 },
}

/// Key → shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    part: Partitioning,
}

/// Where one [`KvOp`] must execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// All keys live in one shard: backend-native execution, no
    /// coordination.
    Single(usize),
    /// Participant shards, ascending and deduplicated. Read-only ops run
    /// one read-only transaction per shard; updates run two-phase commit.
    Cross(Vec<usize>),
}

impl ShardMap {
    /// Hash partitioning over `shards` shards.
    pub fn hash(shards: usize) -> ShardMap {
        assert!(shards > 0, "need at least one shard");
        ShardMap { shards, part: Partitioning::Hash }
    }

    /// Range partitioning: shard `i` owns `[i*keys_per_shard, (i+1)*keys_per_shard)`
    /// (last shard unbounded above).
    pub fn range(shards: usize, keys_per_shard: u64) -> ShardMap {
        assert!(shards > 0, "need at least one shard");
        assert!(keys_per_shard > 0, "keys_per_shard must be nonzero");
        ShardMap { shards, part: Partitioning::Range { keys_per_shard } }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn partitioning(&self) -> Partitioning {
        self.part
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: u64) -> usize {
        if self.shards == 1 {
            return 0;
        }
        match self.part {
            Partitioning::Hash => {
                // Fibonacci multiplicative mix; low bits of the product are
                // poorly mixed, so fold the high half down first.
                let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 32) % self.shards as u64) as usize
            }
            Partitioning::Range { keys_per_shard } => {
                ((key / keys_per_shard) as usize).min(self.shards - 1)
            }
        }
    }

    /// Shards covering the key range `[from, to)`, ascending and deduped.
    /// Under hash partitioning a wide range touches every shard; a narrow
    /// one (≤ 64 keys) is resolved exactly.
    pub fn shards_for_range(&self, from: u64, to: u64) -> Vec<usize> {
        if self.shards == 1 || from >= to {
            return vec![0];
        }
        match self.part {
            Partitioning::Hash => {
                if to - from <= 64 {
                    let mut set: Vec<usize> = (from..to).map(|k| self.shard_of(k)).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                } else {
                    (0..self.shards).collect()
                }
            }
            Partitioning::Range { .. } => {
                let lo = self.shard_of(from);
                let hi = self.shard_of(to - 1);
                (lo..=hi).collect()
            }
        }
    }

    /// Shard set of a key list, ascending and deduped (empty list → shard 0).
    fn shards_of_keys(&self, keys: impl Iterator<Item = u64>) -> Vec<usize> {
        let mut set: Vec<usize> = keys.map(|k| self.shard_of(k)).collect();
        if set.is_empty() {
            return vec![0];
        }
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Route one operation.
    pub fn route(&self, op: &KvOp) -> Route {
        if self.shards == 1 {
            return Route::Single(0);
        }
        let set = match op {
            KvOp::Get { key }
            | KvOp::Put { key, .. }
            | KvOp::Delete { key }
            | KvOp::Cas { key, .. } => return Route::Single(self.shard_of(*key)),
            KvOp::MultiGet { keys } => self.shards_of_keys(keys.iter().copied()),
            KvOp::MultiPut { pairs } => self.shards_of_keys(pairs.iter().map(|&(k, _)| k)),
            KvOp::MultiAdd { deltas } => self.shards_of_keys(deltas.iter().map(|&(k, _)| k)),
            KvOp::ScanPrefix { prefix, shift, .. } => {
                let (from, to) = KvStore::prefix_range(*prefix, *shift);
                self.shards_for_range(from, to)
            }
            KvOp::ScanRange { from, to, .. } => self.shards_for_range(*from, *to),
            KvOp::Call { footprint, .. } => self.shards_of_keys(footprint.iter().copied()),
        };
        match set.as_slice() {
            [one] => Route::Single(*one),
            _ => Route::Cross(set),
        }
    }
}

/// Cross-shard coordination lock: a plain test-and-set spinlock whose
/// spin emits [`Event::Poll`], so it works both under free-running OS
/// threads (yield between probes) and under `tm-check`'s cooperative
/// baton scheduler (the emit *is* the yield point — an OS mutex would
/// deadlock the baton). No poisoning: an unwinding holder releases via
/// the guard's `Drop`, and the lock state cannot be corrupted mid-flight
/// because the flag is the entire state.
#[derive(Debug, Default)]
pub struct XLock {
    locked: AtomicBool,
}

impl XLock {
    pub fn new() -> XLock {
        XLock { locked: AtomicBool::new(false) }
    }

    /// Non-blocking acquire.
    pub fn try_lock(&self) -> Option<XGuard<'_>> {
        if self.locked.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
            Some(XGuard(self))
        } else {
            None
        }
    }

    /// Spin until acquired, yielding (and emitting [`Event::Poll`]) each
    /// probe. Callers must acquire multiple locks in ascending shard
    /// order; that global order makes the protocol deadlock-free.
    pub fn lock(&self) -> XGuard<'_> {
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            if hooks::active() {
                hooks::emit(Event::Poll);
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }
}

/// RAII release handle for [`XLock`].
#[derive(Debug)]
pub struct XGuard<'a>(&'a XLock);

impl Drop for XGuard<'_> {
    fn drop(&mut self) {
        self.0.locked.store(false, Ordering::Release);
    }
}

/// One participant's slice of a cross-shard `MultiPut`/`MultiAdd`, as
/// its `XBegin` record carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XUpdate {
    /// Blind writes (`MultiPut` keys owned by this shard).
    Put(Vec<(u64, u64)>),
    /// Read-modify-write deltas (`MultiAdd` keys owned by this shard).
    Add(Vec<(u64, i64)>),
}

/// A leg's pre-image, one entry per key it wrote, first write wins
/// (`None` = the key was absent).
pub type UndoImage = Vec<(u64, Option<u64>)>;

/// One participant's part of a cross-shard update.
pub enum Leg<'a> {
    /// This shard's slice of a `MultiPut` or `MultiAdd`.
    Update(XUpdate),
    /// This shard's run of a procedure body; `scope` marks the other
    /// shards' keys foreign.
    Call { proc: &'a dyn Procedure, args: &'a [u64], scope: Scope<'a> },
}

/// The update half of a call leg's `XBegin`: its undo image carries the
/// whole rollback.
static NO_UPDATE: XUpdate = XUpdate::Put(Vec::new());

impl Leg<'_> {
    fn record(&self) -> &XUpdate {
        match self {
            Leg::Update(upd) => upd,
            Leg::Call { .. } => &NO_UPDATE,
        }
    }

    fn scope(&self, s: usize) -> Scope<'_> {
        match self {
            Leg::Update(_) => Scope::single(s, 0),
            Leg::Call { scope, .. } => *scope,
        }
    }

    fn run(&self, ctx: &mut ProcCtx<'_>) -> Result<Vec<u64>, Abort> {
        match self {
            Leg::Update(XUpdate::Put(pairs)) => {
                for &(k, v) in pairs {
                    ctx.put(k, v)?;
                }
            }
            Leg::Update(XUpdate::Add(deltas)) => {
                for &(k, d) in deltas {
                    let v = ctx.get(k)?.unwrap_or(0).wrapping_add(d as u64);
                    ctx.put(k, v)?;
                }
            }
            Leg::Call { proc, args, .. } => return proc.run(ctx, args),
        }
        Ok(Vec::new())
    }

    /// Roll the committed leg back. `Add` legs undo in delta form, which
    /// commutes with concurrent local adds (those take no `XLock`); `Put`
    /// and `Call` legs restore their pre-image.
    fn undo(&self, ctx: &mut ProcCtx<'_>, image: &UndoImage) -> Result<(), Abort> {
        match self {
            Leg::Update(XUpdate::Add(deltas)) => {
                for &(k, d) in deltas {
                    let v = ctx.get(k)?.unwrap_or(0).wrapping_sub(d as u64);
                    ctx.put(k, v)?;
                }
            }
            _ => {
                for &(k, old) in image {
                    match old {
                        Some(v) => ctx.put(k, v)?,
                        None => {
                            ctx.delete(k)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Borrowed execution context for one participant shard.
pub struct ShardPart<'a> {
    pub store: &'a KvStore,
    pub thread: &'a mut dyn TmThread,
    pub scratch: &'a mut NodeScratch,
}

/// How [`coordinate`] reaches the participants. The pipeline's executor
/// (monomorphic backend handles) and the tm-check scenarios (boxed
/// handles) each own a registered thread handle and a write scratch per
/// shard, and know the shards' coordination locks.
pub trait Participants<'x> {
    /// Shard `s`'s store, thread handle and write scratch.
    fn part(&mut self, s: usize) -> ShardPart<'_>;
    /// Replace shard `s`'s thread handle and scratch after a caught panic
    /// left them mid-transaction.
    fn reset(&mut self, s: usize);
    /// Shard `s`'s coordination lock.
    fn xlock(&self, s: usize) -> &'x XLock;
}

/// How a [`coordinate`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XOutcome {
    /// Every leg committed (and, with a Sync WAL, a decision is durable);
    /// the legs' outputs, concatenated in shard order.
    Committed(Vec<u64>),
    /// A call leg returned [`Abort::User`]; the committed legs were rolled
    /// back.
    UserAborted,
    /// A leg unwound, or the log refused a record before any decision was
    /// appended: the committed legs were rolled back. Or, in Sync mode, no
    /// appended decision could be made durable: the legs stay applied and
    /// recovery resolves the transaction. Either way the client gets no
    /// ack. `degraded`: the refusal came from a degraded shard
    /// ([`WalError::Unavailable`]).
    Failed { degraded: bool },
}

/// A leg that committed in memory, with what rolling it back needs.
struct Applied {
    undo: UndoImage,
    /// Its `XBegin` was appended, so its rollback must append an `XAbort`.
    logged: bool,
}

/// Run `body` as one update transaction on `part` (pinned to the
/// serialized path when `escalated`) through a [`ProcCtx`] that captures
/// post-images into `writes` and, when given, pre-images into `undo`;
/// both are reset per attempt.
fn exec_leg(
    part: &mut ShardPart<'_>,
    scope: Scope<'_>,
    escalated: bool,
    writes: &mut Writes,
    mut undo: Option<&mut UndoImage>,
    body: &mut dyn FnMut(&mut ProcCtx<'_>) -> Result<(), Abort>,
) -> Outcome {
    let store = part.store;
    let scratch = &mut *part.scratch;
    let mut tx_body = |tx: &mut dyn Tx| {
        scratch.reset();
        writes.clear();
        if let Some(undo) = undo.as_deref_mut() {
            undo.clear();
        }
        body(&mut ProcCtx::new(store, tx, scratch, scope, Some(&mut *writes), undo.as_deref_mut()))
    };
    let out = if escalated {
        part.thread.exec_escalated(&mut tx_body)
    } else {
        part.thread.exec(TxKind::Update, &mut tx_body)
    };
    if out == Outcome::Committed {
        part.scratch.refill(store.alloc());
    }
    out
}

/// Run one cross-shard update over `set` (ascending, deduplicated; one
/// leg per shard, in the same order) by the protocol of the module docs,
/// writing the WAL record sequence of DESIGN.md §12.3 when `wal` is
/// given. This is the only place `XBegin`, `XApply`, `XDecide` and
/// `XAbort` records are made.
pub fn coordinate<'x>(
    parts: &mut impl Participants<'x>,
    set: &[usize],
    legs: &[Leg<'_>],
    wal: Option<&WalSet>,
    stats: &mut TwoPcStats,
) -> XOutcome {
    debug_assert_eq!(set.len(), legs.len(), "one leg per participant");
    let _guards: Vec<_> = set.iter().map(|&s| parts.xlock(s).lock()).collect();
    stats.prepares += 1;
    let xid = wal.map_or(0, |w| w.next_xid());
    let mut applied: Vec<Applied> = Vec::with_capacity(legs.len());
    let mut outputs: Vec<u64> = Vec::new();
    let mut inflight = None; // the shard whose transaction was running
    let mut decided = false; // an XDecide is appended: no rollback from here
    let run = catch_unwind(AssertUnwindSafe(|| -> Result<Outcome, WalError> {
        let mut escalated = false;
        let mut writes = Writes::new();
        let mut tickets = Vec::with_capacity(legs.len());
        for (&s, leg) in set.iter().zip(legs) {
            inflight = Some(s);
            // The commit lock spans the transaction and both appends, so
            // the XBegin/XApply pair sits at the leg's commit position.
            let cl = wal.map(|w| w.commit_lock(s));
            let mut part = parts.part(s);
            let sgl_before = part.thread.stats().sgl_acquisitions;
            let mut undo = UndoImage::new();
            let mut out = Vec::new();
            let outcome = exec_leg(
                &mut part,
                leg.scope(s),
                escalated,
                &mut writes,
                Some(&mut undo),
                &mut |ctx| {
                    out = leg.run(ctx)?;
                    Ok(())
                },
            );
            if outcome == Outcome::UserAborted {
                return Ok(outcome);
            }
            if !escalated && part.thread.stats().sgl_acquisitions > sgl_before {
                escalated = true;
                stats.escalations += 1;
            }
            outputs.extend(out);
            applied.push(Applied { undo, logged: false });
            if let Some(w) = wal {
                let leg_state = applied.last_mut().expect("just pushed");
                let upd = leg.record();
                w.append(s, Append::XBegin { xid, parts: set, upd, undo: &leg_state.undo })?;
                // Logged at append, not at flush: if the flush fails, the
                // frames stay buffered for a rejoin, and the rollback's
                // XAbort must land behind them.
                leg_state.logged = true;
                tickets.push((s, w.append(s, Append::XApply { xid, writes: &writes })?));
            }
            drop(cl);
            // Leg → leg seam: the chaos injector's crash window.
            if hooks::active() {
                hooks::emit(Event::Poll);
            }
        }
        inflight = None;
        let Some(w) = wal else { return Ok(Outcome::Committed) };
        // One durable round for every leg, so no decision can be durable
        // before every leg is. "Durably prepared" and "applied" are one
        // instant for a combined leg, so both crash windows arm here.
        for &(s, lsn) in &tickets {
            w.wait_durable(s, lsn)?;
        }
        w.crash_point(CrashSite::AfterPrepare);
        w.crash_point(CrashSite::AfterApply);
        // The first durable XDecide commits the transaction everywhere at
        // recovery; write it to every participant so any one log suffices,
        // and so every later record on a participant lies behind it. Once
        // one is appended the transaction can no longer roll back: only a
        // dead log refuses the rest.
        tickets.clear();
        for &s in set {
            let _cl = w.commit_lock(s);
            match w.append(s, Append::XDecide { xid }) {
                Ok(lsn) => tickets.push((s, lsn)),
                Err(_) if decided => break,
                Err(e) => return Err(e),
            }
            decided = true;
        }
        // Async acks do not wait: the decisions ride the next group
        // commit. A Sync ack waits for the first participant's decision,
        // the commit point.
        if w.mode() == DurabilityMode::Sync {
            let (s, lsn) = tickets[0];
            w.wait_durable(s, lsn)?;
        }
        w.crash_point(CrashSite::AfterDecision);
        Ok(Outcome::Committed)
    }));
    let failed = match run {
        Ok(Ok(Outcome::Committed)) => return XOutcome::Committed(outputs),
        Ok(Ok(Outcome::UserAborted)) => None,
        // A Sync decision that could not be made durable: the decisions
        // are in the logs, so the legs stay applied and recovery resolves
        // the transaction; the client gets no ack.
        Ok(Err(e)) if decided => {
            stats.aborts += 1;
            return XOutcome::Failed { degraded: e == WalError::Unavailable };
        }
        Ok(Err(e)) => Some(e == WalError::Unavailable),
        Err(_) => {
            // The injector fires inside transaction bodies, so the
            // unwinding leg did not commit, but its handle is
            // mid-transaction.
            if let Some(s) = inflight {
                parts.reset(s);
            }
            Some(false)
        }
    };
    let mut comp = Writes::new();
    for ((&s, leg), a) in set.iter().zip(legs).zip(&applied) {
        // The rollback must land even if chaos keeps firing: retry,
        // replacing the handle after each caught panic.
        for attempt in 1.. {
            let undone = catch_unwind(AssertUnwindSafe(|| {
                let _cl = wal.map(|w| w.commit_lock(s));
                let body = &mut |ctx: &mut ProcCtx<'_>| leg.undo(ctx, &a.undo);
                exec_leg(&mut parts.part(s), leg.scope(s), false, &mut comp, None, body);
                if let (Some(w), true) = (wal, a.logged) {
                    // One atomic record at the rollback's commit position:
                    // abort marker + compensation post-image. It rides the
                    // next group commit, and is best-effort on a dead log:
                    // recovery compensates any leg whose XAbort did not
                    // land.
                    let _ = w.append(s, Append::XAbort { xid, writes: &comp });
                }
            }));
            if undone.is_ok() {
                break;
            }
            parts.reset(s);
            assert!(attempt < 1000, "2PC rollback could not complete");
        }
    }
    match failed {
        None => XOutcome::UserAborted,
        Some(degraded) => {
            stats.aborts += 1;
            XOutcome::Failed { degraded }
        }
    }
}

/// Build one `(backend, store)` domain per shard: `mk_backend(s)`
/// constructs shard `s`'s instance (own memory, own quiescence domain),
/// and its store is bulk-loaded with exactly the `entries` the
/// [`ShardMap`] assigns to it. Node arenas span `[base, base + words)`
/// of each shard's private memory.
pub fn build_domains<B: tm_api::TmBackend>(
    map: &ShardMap,
    mut mk_backend: impl FnMut(usize) -> B,
    base: txmem::Addr,
    words: u64,
    entries: impl Iterator<Item = (u64, u64)> + Clone,
) -> Vec<(B, KvStore)> {
    (0..map.shards())
        .map(|s| {
            let backend = mk_backend(s);
            let store = KvStore::create_with(
                tm_api::TmBackend::memory(&backend),
                base,
                words,
                entries.clone().filter(|&(k, _)| map.shard_of(k) == s),
            );
            (backend, store)
        })
        .collect()
}

/// Group `MultiPut` pairs by owning shard, in `set` order.
pub fn group_puts(map: &ShardMap, set: &[usize], pairs: &[(u64, u64)]) -> Vec<XUpdate> {
    set.iter()
        .map(|&s| {
            XUpdate::Put(pairs.iter().copied().filter(|&(k, _)| map.shard_of(k) == s).collect())
        })
        .collect()
}

/// Group `MultiAdd` deltas by owning shard, in `set` order.
pub fn group_adds(map: &ShardMap, set: &[usize], deltas: &[(u64, i64)]) -> Vec<XUpdate> {
    set.iter()
        .map(|&s| {
            XUpdate::Add(deltas.iter().copied().filter(|&(k, _)| map.shard_of(k) == s).collect())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::record::decode_all;
    use crate::durability::{recover, DurabilityConfig, DurabilityMode, Record};
    use si_htm::SiHtm;
    use std::path::Path;
    use tm_api::TmBackend;

    const WORDS: u64 = 1 << 14;

    /// Two range-mapped shards of 8 keys, values equal to keys.
    struct TwoShards<'a> {
        domains: Vec<(SiHtm, KvStore)>,
        threads: Vec<<SiHtm as TmBackend>::Thread>,
        scratches: Vec<NodeScratch>,
        xlocks: &'a [XLock; 2],
    }

    impl<'a> Participants<'a> for TwoShards<'a> {
        fn part(&mut self, s: usize) -> ShardPart<'_> {
            ShardPart {
                store: &self.domains[s].1,
                thread: &mut self.threads[s],
                scratch: &mut self.scratches[s],
            }
        }

        fn reset(&mut self, _s: usize) {
            unreachable!("no panics are injected")
        }

        fn xlock(&self, s: usize) -> &'a XLock {
            &self.xlocks[s]
        }
    }

    /// args `[a, b, cap]`: each leg adds 1 to whichever of `a` and `b` it
    /// owns and returns the new value, user-aborting past `cap`.
    struct Bump;

    impl Procedure for Bump {
        fn id(&self) -> u64 {
            1
        }
        fn name(&self) -> &'static str {
            "bump"
        }
        fn run(&self, ctx: &mut ProcCtx<'_>, args: &[u64]) -> Result<Vec<u64>, Abort> {
            let mut outs = Vec::new();
            for &k in &args[..2] {
                if ctx.is_local(k) {
                    let v = ctx.get(k)?.unwrap_or(0) + 1;
                    if v > args[2] {
                        return Err(Abort::User);
                    }
                    ctx.put(k, v)?;
                    outs.push(v);
                }
            }
            Ok(outs)
        }
    }

    /// The record kinds in shard `s`'s log, in LSN order.
    fn kinds(dir: &Path, s: usize) -> Vec<&'static str> {
        let mut segments: Vec<_> = std::fs::read_dir(dir.join(format!("shard-{s}")))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .collect();
        segments.sort();
        let records = segments.iter().flat_map(|p| decode_all(&std::fs::read(p).unwrap()).0);
        records
            .map(|r| match r {
                Record::Write { .. } => "Write",
                Record::XBegin { .. } => "XBegin",
                Record::XApply { .. } => "XApply",
                Record::XDecide { .. } => "XDecide",
                Record::XAbort { .. } => "XAbort",
            })
            .collect()
    }

    /// Recover a copy of `dir` (recovery compacts the log it reads, and
    /// the live WAL still writes to this one) and compare every shard
    /// with live memory.
    fn assert_recovers_live(shards: &mut TwoShards<'_>, dir: &Path, map: &ShardMap) {
        let copy = dir.with_extension("copy");
        let _ = std::fs::remove_dir_all(&copy);
        for s in 0..2 {
            let (from, to) = (dir.join(format!("shard-{s}")), copy.join(format!("shard-{s}")));
            std::fs::create_dir_all(&to).unwrap();
            for e in std::fs::read_dir(from).unwrap() {
                let e = e.unwrap();
                std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
            }
        }
        let (domains, _) = recover(&copy, map, |_| SiHtm::with_defaults(WORDS as usize), 0, WORDS)
            .expect("recovery");
        for (s, (b, st)) in domains.iter().enumerate() {
            let live = shards.domains[s].1.snapshot(&mut shards.threads[s]);
            assert_eq!(st.snapshot(&mut b.register_thread()), live, "shard {s}: recovered != live");
        }
        let _ = std::fs::remove_dir_all(&copy);
    }

    #[test]
    fn coordinate_logs_one_record_sequence_for_every_leg_kind() {
        let dir = std::env::temp_dir().join(format!("txkv-coordinate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = WalSet::open(&DurabilityConfig::new(DurabilityMode::Sync, &dir), 2).unwrap();
        let map = ShardMap::range(2, 8);
        let entries = (0..16u64).map(|k| (k, k));
        let domains = build_domains(
            &map,
            |_| SiHtm::with_defaults(WORDS as usize),
            0,
            WORDS,
            entries.clone(),
        );
        for s in 0..2 {
            let seed: Vec<_> = entries.clone().filter(|&(k, _)| map.shard_of(k) == s).collect();
            wal.install_checkpoint(s, &seed).unwrap();
        }
        let xlocks = [XLock::new(), XLock::new()];
        let mut shards = TwoShards {
            threads: domains.iter().map(|(b, _)| b.register_thread()).collect(),
            scratches: domains.iter().map(|(_, st)| st.new_batch_scratch(4)).collect(),
            domains,
            xlocks: &xlocks,
        };
        let set = [0, 1];
        let updates = |ups: Vec<XUpdate>| ups.into_iter().map(Leg::Update).collect::<Vec<_>>();
        let bump = |args| {
            let leg = |s| Leg::Call { proc: &Bump, args, scope: Scope::leg(&map, s, 0) };
            set.iter().map(|&s| leg(s)).collect::<Vec<_>>()
        };
        let mut stats = TwoPcStats::default();
        let mut run = |shards: &mut TwoShards<'_>, legs: &[Leg<'_>]| {
            coordinate(shards, &set, legs, Some(&wal), &mut stats)
        };
        let puts = updates(group_puts(&map, &set, &[(1, 100), (9, 900)]));
        assert_eq!(run(&mut shards, &puts), XOutcome::Committed(vec![]));
        let adds = updates(group_adds(&map, &set, &[(2, -2), (10, 2)]));
        assert_eq!(run(&mut shards, &adds), XOutcome::Committed(vec![]));
        assert_eq!(run(&mut shards, &bump(&[3, 11, 20])), XOutcome::Committed(vec![4, 12]));
        // Only the first decision is waited for; the rest, and a
        // rollback's XAbort, ride the next group commit.
        let logged = |s| wal.flush(s).map(|_| kinds(&dir, s)).unwrap();
        let committed = ["XBegin", "XApply", "XDecide"].repeat(3);
        for s in 0..2 {
            assert_eq!(logged(s), committed, "shard {s} after three commits");
        }
        assert_recovers_live(&mut shards, &dir, &map);
        // Leg 0 takes key 3 to 5; leg 1 would take key 11 to 13 > 12.
        assert_eq!(run(&mut shards, &bump(&[3, 11, 12])), XOutcome::UserAborted);
        assert_eq!(logged(0)[9..], ["XBegin", "XApply", "XAbort"], "shard 0 after the abort");
        assert_eq!(logged(1), committed, "the aborting leg logs nothing");
        let (b0, st0) = &shards.domains[0];
        assert_eq!(st0.load_raw(b0.memory(), 3), Some(4), "leg 0 rolled back");
        assert_recovers_live(&mut shards, &dir, &map);
        assert_eq!((stats.prepares, stats.aborts, stats.escalations), (4, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hash_map_covers_all_shards_and_is_stable() {
        let map = ShardMap::hash(4);
        let mut seen = [false; 4];
        for k in 0..256u64 {
            let s = map.shard_of(k);
            assert!(s < 4);
            assert_eq!(s, map.shard_of(k), "assignment must be deterministic");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b), "256 keys must hit all 4 shards");
    }

    #[test]
    fn range_map_is_contiguous() {
        let map = ShardMap::range(4, 100);
        assert_eq!(map.shard_of(0), 0);
        assert_eq!(map.shard_of(99), 0);
        assert_eq!(map.shard_of(100), 1);
        assert_eq!(map.shard_of(399), 3);
        assert_eq!(map.shard_of(u64::MAX), 3, "tail shard absorbs the rest");
        assert_eq!(map.shards_for_range(50, 250), vec![0, 1, 2]);
        assert_eq!(map.shards_for_range(100, 200), vec![1]);
    }

    #[test]
    fn routing_classifies_single_vs_cross() {
        let map = ShardMap::range(2, 100);
        assert_eq!(map.route(&KvOp::Get { key: 5 }), Route::Single(0));
        assert_eq!(map.route(&KvOp::Put { key: 150, val: 1 }), Route::Single(1));
        assert_eq!(map.route(&KvOp::MultiGet { keys: vec![1, 2] }), Route::Single(0));
        assert_eq!(
            map.route(&KvOp::MultiAdd { deltas: vec![(1, -5), (150, 5)] }),
            Route::Cross(vec![0, 1])
        );
        // One shard → everything is Single, even wide scans.
        let one = ShardMap::hash(1);
        assert_eq!(
            one.route(&KvOp::ScanPrefix { prefix: 0, shift: 60, limit: 10 }),
            Route::Single(0)
        );
    }

    #[test]
    fn grouping_partitions_without_loss() {
        let map = ShardMap::range(2, 100);
        let adds = vec![(10u64, -3i64), (150, 3), (20, 1)];
        let set = vec![0, 1];
        let grouped = group_adds(&map, &set, &adds);
        assert_eq!(grouped[0], XUpdate::Add(vec![(10, -3), (20, 1)]));
        assert_eq!(grouped[1], XUpdate::Add(vec![(150, 3)]));
    }

    #[test]
    fn xlock_excludes_and_releases_on_drop() {
        let l = XLock::new();
        let g = l.try_lock().expect("uncontended acquire");
        assert!(l.try_lock().is_none(), "held lock must refuse");
        drop(g);
        assert!(l.try_lock().is_some(), "drop must release");
    }
}
