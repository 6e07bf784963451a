//! The request pipeline: per-shard submission queues in front of
//! shard-affine executor threads, each owning one backend thread handle
//! *per shard*.
//!
//! ```text
//!  clients ──route──▶ shard 0 SubmitQueue ──▶ executor 0 ─▶ shard 0 backend
//!   (any #)           shard 1 SubmitQueue ──▶ executor 1 ─▶ shard 1 backend
//!                     ...                          ...
//!                     xqueue (cross-shard) ──▶ any executor, 2PC over shards
//! ```
//!
//! The [`crate::ShardMap`] routes every request whose keys live in one
//! shard to that shard's queue; the executors serving that shard run it
//! as a plain backend transaction with zero cross-shard coordination.
//! Each shard is an independent backend instance — its own conflict
//! directory and quiescence domain — so SI-HTM's commit-time safety wait
//! scans only the threads active *in that shard*. With one executor per
//! shard the wait finds no peers at all, which is where sharded
//! throughput comes from on an oversubscribed machine: no cross-executor
//! quiescence spinning.
//!
//! Requests spanning shards go to a shared cross-shard queue; whichever
//! executor pops one coordinates it — per-shard read-only transactions
//! under the shards' [`crate::shard::XLock`]s for reads, and for updates
//! the one two-phase-commit coordinator, [`crate::shard::coordinate`],
//! with SGL escalation pinning the remaining legs once any leg falls back
//! and a rollback of the committed legs if the chaos injector unwinds one
//! mid-protocol (the request is then answered [`KvReply::Shed`]: fully
//! aborted, never half-applied).
//!
//! Each executor iteration serves **one** update request and then **one
//! batch** of read-only requests per shard it owns (everything queued,
//! up to `ro_batch_max`), so neither lane can starve the other. The
//! whole RO batch runs inside a single `TxKind::ReadOnly` transaction:
//! on SI-HTM that is the unbounded, never-aborting read-only fast path,
//! so batching amortizes the one quiescence interaction over the entire
//! batch — and every request in the batch reads the same snapshot.
//!
//! Latency is recorded per op class in two [`LatencyHist`]s: *end-to-end*
//! (enqueue → reply, the number a client observes) and *service-only*
//! (the transaction execution, what the backend is responsible for). The
//! gap between them is queueing delay — the quantity admission control
//! bounds.
//!
//! Every accepted request is eventually answered: served normally, or
//! filled with [`KvReply::Shed`] when the drain grace expires at
//! shutdown. A `Drop` backstop on the internal request envelope
//! guarantees this even if an executor unwinds.
//!
//! ## Group commit
//!
//! A durable pipeline's group-commit I/O runs on one log-writer thread
//! (`txkv-wal-writer`). Executors append and, on the group-commit edges
//! (buffer full, update lane momentarily empty, about to park), kick the
//! writer, which flushes every shard with buffered frames while they keep
//! executing. A Sync reply is withheld on a per-shard list until the
//! writer sees its shard's durable watermark cover it. The 2PC
//! coordinator's leg round and Sync decision, and a checkpoint's wait
//! for every shard, are tickets ([`WalSet::wait_durable`]): they return
//! at once when the watermark covers them and otherwise lead one flush
//! (DESIGN.md §12.1).

use crate::durability::{Append, CrashSite, DurabilityMode, WalError, WalSet, Writes};
use crate::proc::{ProcCtx, ProcRegistry, Scope, PROC_WRITE_MAX};
use crate::queue::{PushError, SubmitQueue};
use crate::shard::{
    coordinate, group_adds, group_puts, Leg, Participants, Route, ShardMap, ShardPart, XLock,
    XOutcome,
};
use crate::store::{KvOp, KvReply, KvStore, OpClass};
use crate::KvError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};
use tm_api::{Abort, AbortReason, BackoffPolicy, ContentionManager, LatencyHist};
use tm_api::{Outcome, ThreadStats, TmBackend, TmThread, TwoPcStats, TxKind, WalStats};
use txmem::hooks::{self, Event};
use workloads::btree::NodeScratch;

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Executor threads. Each registers one backend thread handle per
    /// shard; executor `e` *serves* (polls queues of) shard `e % shards`
    /// when executors ≥ shards, or shards `{s : s % executors == e}`
    /// otherwise, so every shard is served and affinity is maximal.
    pub executors: usize,
    /// Read-only submission-lane capacity (admission control bound),
    /// per shard queue.
    pub ro_queue_cap: usize,
    /// Update submission-lane capacity, per shard queue.
    pub rw_queue_cap: usize,
    /// Most read-only requests folded into one RO transaction.
    pub ro_batch_max: usize,
    /// Largest multi-key write op accepted ([`KvError::TooLarge`] above).
    pub multi_key_max: usize,
    /// How long an idle executor parks before re-polling.
    pub idle_wait: Duration,
    /// Contention-manager policy for the executors (abort backoff +
    /// idle-repoll jitter). `BackoffPolicy::none()` disables both.
    pub backoff: BackoffPolicy,
    /// Flat jitter ceiling for idle re-polls, in ns (anti-stampede).
    pub idle_jitter_ns: u64,
    /// Graceful-drain budget at shutdown before in-flight work is shed.
    pub drain_grace: Duration,
}

impl PipelineConfig {
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        PipelineConfig {
            executors: cores.min(8),
            ro_queue_cap: 1024,
            rw_queue_cap: 1024,
            ro_batch_max: 64,
            multi_key_max: 16,
            idle_wait: Duration::from_millis(2),
            backoff: BackoffPolicy::none(),
            idle_jitter_ns: 0,
            drain_grace: Duration::from_secs(2),
        }
    }

    /// Small pool for tests and doc examples.
    pub fn quick() -> Self {
        PipelineConfig { executors: 2, ro_queue_cap: 256, rw_queue_cap: 256, ..Self::new() }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Completion callback registered on a [`ReplySlot`]; runs exactly once,
/// at fill time (or immediately on registration if the slot is already
/// filled). Boxed because each request carries at most one.
type FillHook<T> = Box<dyn FnOnce(T) + Send>;

/// Write-once reply cell with one consumer, which either blocks on it
/// ([`ReplySlot::wait`]) or registers a completion hook
/// ([`ReplySlot::on_fill`]) so a network front end is called back instead
/// of parking a thread per in-flight request. One mechanism serves both
/// styles — the pipeline's [`PendingReply`] over a [`KvReply`], and a
/// wire client's pending call over its typed outcome — and a fill costs a
/// wake-up syscall only when a thread is actually parked: `unpark` of a
/// running thread is a single atomic swap.
pub struct ReplySlot<T = KvReply> {
    state: Mutex<SlotState<T>>,
}

enum SlotState<T> {
    Empty,
    /// `wait()` registered this thread and parks until `Filled`.
    Waiting(Thread),
    /// `on_fill` got here before the reply did.
    Hook(FillHook<T>),
    Filled(T),
    /// The reply was handed to its hook; nothing is left to read.
    Done,
}

/// Hooks run on whichever thread fills the slot — an executor, or an
/// unwinding `Request::drop` — so a panicking hook must not take down
/// the service path (a panic inside `Drop` during unwind aborts the
/// process). Catch it; the slot itself is already filled either way.
fn run_fill_hook<T>(hook: FillHook<T>, reply: T) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || hook(reply)));
}

impl<T: Clone> ReplySlot<T> {
    pub fn new() -> Self {
        ReplySlot { state: Mutex::new(SlotState::Empty) }
    }

    /// First write wins; later fills are no-ops (the `Drop` backstop).
    /// The hook, if any, is taken under the lock but invoked outside it:
    /// a hook is arbitrary caller code.
    pub fn fill(&self, reply: T) {
        let mut g = self.state.lock().unwrap();
        match std::mem::replace(&mut *g, SlotState::Done) {
            SlotState::Empty => *g = SlotState::Filled(reply),
            SlotState::Waiting(waiter) => {
                *g = SlotState::Filled(reply);
                drop(g);
                waiter.unpark();
            }
            SlotState::Hook(hook) => {
                drop(g);
                run_fill_hook(hook, reply);
            }
            answered => *g = answered,
        }
    }

    /// Register the completion hook. If the reply already landed the hook
    /// fires right here on the caller's thread — registration can race
    /// with a fast executor, and "exactly once" must survive that race.
    pub fn on_fill(&self, hook: FillHook<T>) {
        let mut g = self.state.lock().unwrap();
        match std::mem::replace(&mut *g, SlotState::Done) {
            SlotState::Filled(reply) => {
                drop(g);
                run_fill_hook(hook, reply);
            }
            _ => *g = SlotState::Hook(hook),
        }
    }

    /// Block until the slot is filled.
    pub fn wait(&self) -> T {
        loop {
            {
                let mut g = self.state.lock().unwrap();
                match &*g {
                    SlotState::Filled(reply) => return reply.clone(),
                    SlotState::Empty => *g = SlotState::Waiting(std::thread::current()),
                    // Still `Waiting`: `park` returned spuriously.
                    _ => {}
                }
            }
            std::thread::park();
        }
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<T> {
        match &*self.state.lock().unwrap() {
            SlotState::Filled(reply) => Some(reply.clone()),
            _ => None,
        }
    }
}

impl<T: Clone> Default for ReplySlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Internal request envelope. The `Drop` impl guarantees the slot is
/// always answered: any envelope destroyed unanswered (executor panic,
/// shed path, aborted cross-shard transaction) resolves to
/// [`KvReply::Shed`].
struct Request {
    op: KvOp,
    slot: Arc<ReplySlot>,
    enqueued: Instant,
}

impl Drop for Request {
    fn drop(&mut self) {
        self.slot.fill(KvReply::Shed);
    }
}

/// One shard's service-side state: its submission queue and the
/// cross-shard coordination lock.
struct ShardCtx {
    queue: SubmitQueue<Request>,
    xlock: XLock,
}

struct Shared {
    shards: Vec<ShardCtx>,
    /// Requests spanning shards (any executor coordinates them).
    xqueue: SubmitQueue<Request>,
    map: ShardMap,
    hard_stop: AtomicBool,
    overloaded: AtomicU64,
    multi_key_max: usize,
    /// Per-shard commit-ordered WAL ([`Pipeline::start_durable`]); `None`
    /// runs the pipeline exactly as before — zero durability overhead.
    wal: Option<Arc<WalSet>>,
    /// The log writer's handle and the Sync acks it settles (idle
    /// without a WAL).
    group: GroupCommit,
    /// Server-side procedures ([`KvOp::Call`] targets); `None` answers
    /// every call [`KvReply::CallAborted`].
    procs: Option<Arc<ProcRegistry>>,
}

/// Cheap cloneable submission handle (no backend type parameter, so it
/// crosses thread and API boundaries freely). Routing happens here, at
/// admission: single-shard requests go straight to their shard's queue.
#[derive(Clone)]
pub struct KvClient {
    shared: Arc<Shared>,
}

impl KvClient {
    /// Submit and block for the reply.
    pub fn call(&self, op: KvOp) -> Result<KvReply, KvError> {
        Ok(self.submit(op)?.wait())
    }

    /// Submit without blocking; the returned handle can be waited on (or
    /// dropped — open-loop load generators fire and forget, and the
    /// pipeline still records the end-to-end latency at reply time).
    pub fn submit(&self, op: KvOp) -> Result<PendingReply, KvError> {
        let too_large = |keys: usize| KvError::TooLarge {
            class: op.class(),
            keys: keys as u32,
            max: self.shared.multi_key_max as u32,
        };
        match &op {
            KvOp::MultiPut { pairs } if pairs.len() > self.shared.multi_key_max => {
                return Err(too_large(pairs.len()))
            }
            KvOp::MultiAdd { deltas } if deltas.len() > self.shared.multi_key_max => {
                return Err(too_large(deltas.len()))
            }
            _ => {}
        }
        let class = op.class();
        let read_only = op.read_only();
        let route = self.shared.map.route(&op);
        // Health-based admission: an update routed to a shard whose log
        // is degraded is refused up front with the typed outcome (reads
        // still flow; a halted WAL keeps the serve-time shed path so
        // crash semantics are unchanged).
        if !read_only {
            if let Some(w) = &self.shared.wal {
                if w.alive() {
                    let degraded = match &route {
                        Route::Single(s) if !w.health(*s).writable() => Some(*s as u32),
                        Route::Cross(set) => {
                            set.iter().find(|&&s| !w.health(s).writable()).map(|&s| s as u32)
                        }
                        _ => None,
                    };
                    if let Some(shard) = degraded {
                        w.note_degraded_shed();
                        return Err(KvError::Unavailable { class, shard });
                    }
                }
            }
        }
        let slot = Arc::new(ReplySlot::new());
        let req = Request { op, slot: slot.clone(), enqueued: Instant::now() };
        let (pushed, refused_shard) = match route {
            Route::Single(s) => {
                (self.shared.shards[s].queue.try_push(read_only, req), Some(s as u32))
            }
            Route::Cross(_) => {
                let r = self.shared.xqueue.try_push(read_only, req);
                if r.is_ok() {
                    // Executors park on their primary shard's queue, not
                    // the xqueue: wake them all (cross-shard is rare).
                    for ctx in &self.shared.shards {
                        ctx.queue.wake_all();
                    }
                }
                (r, None)
            }
        };
        match pushed {
            Ok(()) => Ok(PendingReply { slot }),
            Err(PushError::Full(req)) => {
                self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                // Forget nothing: the envelope's Drop fills Shed, but the
                // slot is ours and unreturned, so nobody observes it.
                drop(req);
                Err(KvError::Overloaded { class, shard: refused_shard })
            }
            Err(PushError::Closed(_)) => Err(KvError::ShuttingDown),
        }
    }

    /// `(read-only, update)` submission-lane depths summed over all shard
    /// queues and the cross-shard queue.
    pub fn queue_depths(&self) -> (usize, usize) {
        let (mut ro, mut rw) = self.shared.xqueue.depths();
        for ctx in &self.shared.shards {
            let (r, w) = ctx.queue.depths();
            ro += r;
            rw += w;
        }
        (ro, rw)
    }
}

/// Handle to one in-flight request.
pub struct PendingReply {
    slot: Arc<ReplySlot>,
}

impl PendingReply {
    /// Block until the request is answered (or shed at shutdown).
    pub fn wait(self) -> KvReply {
        self.slot.wait()
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<KvReply> {
        self.slot.try_get()
    }

    /// Register a completion callback instead of blocking. The callback
    /// runs **exactly once** with the final reply — including the
    /// `Drop`-backstop [`KvReply::Shed`] when the request is shed at
    /// shutdown or executor panic — on whichever thread fills the slot
    /// (an executor, usually). If the reply already landed, the callback
    /// fires immediately on the calling thread. This is the network front
    /// end's completion path: no parked thread per in-flight request.
    ///
    /// A panicking callback is caught and discarded (fills can happen
    /// inside `Drop` during unwind; a second panic there would abort).
    pub fn on_reply(self, f: impl FnOnce(KvReply) + Send + 'static) {
        self.slot.on_fill(Box::new(f));
    }
}

/// End-to-end and service-only latency for one op class.
#[derive(Debug, Clone)]
pub struct ClassLat {
    pub class: OpClass,
    /// Enqueue → reply.
    pub e2e: LatencyHist,
    /// Transaction execution only (a whole RO batch's service time is
    /// attributed to every request it carried).
    pub service: LatencyHist,
}

impl ClassLat {
    fn new(class: OpClass) -> Self {
        ClassLat { class, e2e: LatencyHist::new(), service: LatencyHist::new() }
    }

    pub fn count(&self) -> u64 {
        self.e2e.count()
    }
}

/// End-to-end and service-only latency for one registered procedure —
/// the per-transaction-class SLO rows of a typed workload (every call
/// also lands in the coarse [`OpClass::Call`] bucket).
#[derive(Debug, Clone)]
pub struct ProcLat {
    /// The procedure's [`crate::Procedure::id`].
    pub proc: u64,
    pub name: &'static str,
    pub e2e: LatencyHist,
    pub service: LatencyHist,
}

impl ProcLat {
    fn new(proc: u64, name: &'static str) -> Self {
        ProcLat { proc, name, e2e: LatencyHist::new(), service: LatencyHist::new() }
    }

    pub fn count(&self) -> u64 {
        self.e2e.count()
    }
}

fn proc_lats(reg: Option<&ProcRegistry>) -> Vec<ProcLat> {
    reg.map(|r| r.procs().iter().map(|p| ProcLat::new(p.id(), p.name())).collect())
        .unwrap_or_default()
}

/// What one executor, or the log writer, hands back at join time.
struct ExecOut {
    classes: Vec<ClassLat>,
    procs: Vec<ProcLat>,
    /// Replies this thread filled.
    served: u64,
    /// Sync updates this executor served and handed to the log writer,
    /// which fills (and counts) their replies.
    withheld: u64,
    shed: u64,
    ro_batches: u64,
    ro_batch_ops: u64,
    max_ro_batch: u64,
    ro_batch_aborts: u64,
    backoffs: u64,
    twopc: TwoPcStats,
    /// Backend thread handles this executor re-registered after catching
    /// a mid-protocol panic (chaos recovery).
    handle_resets: u64,
    /// Requests served per shard by this executor.
    shard_served: Vec<u64>,
    /// Backend statistics per shard (this executor's handles).
    shard_stats: Vec<ThreadStats>,
}

impl ExecOut {
    fn new(shards: usize, reg: Option<&ProcRegistry>) -> Self {
        ExecOut {
            classes: OpClass::ALL.iter().map(|&c| ClassLat::new(c)).collect(),
            procs: proc_lats(reg),
            served: 0,
            withheld: 0,
            shed: 0,
            ro_batches: 0,
            ro_batch_ops: 0,
            max_ro_batch: 0,
            ro_batch_aborts: 0,
            backoffs: 0,
            twopc: TwoPcStats::default(),
            handle_resets: 0,
            shard_served: vec![0; shards],
            shard_stats: vec![ThreadStats::default(); shards],
        }
    }

    /// Record latency and answer the client.
    fn finish(&mut self, req: Request, reply: KvReply, service: Duration) {
        let e2e = req.enqueued.elapsed();
        let cl = &mut self.classes[req.op.class().index()];
        cl.e2e.record(e2e);
        cl.service.record(service);
        if let KvOp::Call { proc, .. } = &req.op {
            if let Some(pl) = self.procs.iter_mut().find(|pl| pl.proc == *proc) {
                pl.e2e.record(e2e);
                pl.service.record(service);
            }
        }
        req.slot.fill(reply);
        self.served += 1;
        // `req` drops here with the slot already filled: the backstop no-ops.
    }

    /// Answer `req` unserved because of its shard's log: the typed
    /// `Unavailable` for a degraded shard, the drop backstop's `Shed` for
    /// a dead one (the write was never acked).
    fn refuse(&mut self, req: Request, wal: &WalSet, why: WalError) {
        self.shed += 1;
        match why {
            WalError::Dead => wal.note_dead_shed(),
            WalError::Unavailable => {
                wal.note_degraded_shed();
                req.slot.fill(KvReply::Unavailable);
            }
        }
    }
}

/// Aggregated pipeline report returned by [`Pipeline::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    pub backend: &'static str,
    pub executors: usize,
    /// Shard count (1 = unsharded).
    pub shards: usize,
    /// Requests answered with a real result.
    pub replies: u64,
    /// Requests answered with [`KvReply::Shed`] at shutdown (plus any
    /// cross-shard transactions aborted by chaos recovery).
    pub shed: u64,
    /// Requests refused at admission ([`KvError::Overloaded`]).
    pub overloaded: u64,
    /// Read-only transactions executed for batches.
    pub ro_batches: u64,
    /// Read-only requests carried by those transactions.
    pub ro_batch_ops: u64,
    /// Largest single batch.
    pub max_ro_batch: u64,
    /// Backend aborts observed across all RO batch transactions (must be
    /// 0 on SI-HTM: the RO fast path never aborts).
    pub ro_batch_aborts: u64,
    /// Executors that served zero requests (load-balance check).
    pub starved_executors: usize,
    /// Executors, or the log writer, that panicked (their in-flight
    /// requests resolve Shed).
    pub panicked_executors: usize,
    /// Contention-manager delays executed by executors.
    pub executor_backoffs: u64,
    /// Cross-shard two-phase-commit activity, summed over executors.
    pub twopc: TwoPcStats,
    /// Backend handles re-registered after caught mid-protocol panics.
    pub handle_resets: u64,
    /// Requests served per shard (shard-affinity / balance check).
    pub shard_served: Vec<u64>,
    /// Backend statistics per shard, summed over executors. Each shard is
    /// an independent quiescence domain, so `quiesce_waits` here shows
    /// exactly where commit-time safety waits happen.
    pub shard_stats: Vec<ThreadStats>,
    /// Per-op-class latency, in [`OpClass::ALL`] order.
    pub class: Vec<ClassLat>,
    /// Per-procedure latency (registration order; empty without a
    /// procedure registry).
    pub procs: Vec<ProcLat>,
    /// Backend-side statistics summed over all executor threads and
    /// shards.
    pub backend_stats: ThreadStats,
    /// Durability mode the pipeline ran with (`"off"` without a WAL).
    pub durability: &'static str,
    /// WAL / checkpoint / recovery counters (all zero without a WAL).
    pub wal: WalStats,
    /// Final per-shard storage health, by [`crate::ShardHealth`] name
    /// (empty without a WAL).
    pub shard_health: Vec<&'static str>,
}

impl ServiceReport {
    fn new(backend: &'static str, executors: usize, shards: usize) -> Self {
        ServiceReport {
            backend,
            executors,
            shards,
            replies: 0,
            shed: 0,
            overloaded: 0,
            ro_batches: 0,
            ro_batch_ops: 0,
            max_ro_batch: 0,
            ro_batch_aborts: 0,
            starved_executors: 0,
            panicked_executors: 0,
            executor_backoffs: 0,
            twopc: TwoPcStats::default(),
            handle_resets: 0,
            shard_served: vec![0; shards],
            shard_stats: vec![ThreadStats::default(); shards],
            class: OpClass::ALL.iter().map(|&c| ClassLat::new(c)).collect(),
            procs: Vec::new(),
            backend_stats: ThreadStats::default(),
            durability: "off",
            wal: WalStats::default(),
            shard_health: Vec::new(),
        }
    }

    /// Fold in one thread's counters. Replies are counted where they were
    /// filled, so a withheld Sync ack counts once: on the log writer.
    fn merge(&mut self, out: ExecOut) {
        self.replies += out.served;
        self.shed += out.shed;
        self.ro_batches += out.ro_batches;
        self.ro_batch_ops += out.ro_batch_ops;
        self.max_ro_batch = self.max_ro_batch.max(out.max_ro_batch);
        self.ro_batch_aborts += out.ro_batch_aborts;
        self.executor_backoffs += out.backoffs;
        self.twopc += &out.twopc;
        self.handle_resets += out.handle_resets;
        for (mine, theirs) in self.shard_served.iter_mut().zip(&out.shard_served) {
            *mine += theirs;
        }
        for (mine, theirs) in self.shard_stats.iter_mut().zip(&out.shard_stats) {
            *mine += theirs;
            self.backend_stats += theirs;
        }
        for (mine, theirs) in self.class.iter_mut().zip(&out.classes) {
            mine.e2e.merge(&theirs.e2e);
            mine.service.merge(&theirs.service);
        }
        for (mine, theirs) in self.procs.iter_mut().zip(&out.procs) {
            mine.e2e.merge(&theirs.e2e);
            mine.service.merge(&theirs.service);
        }
    }

    /// The latency record for one op class.
    pub fn class(&self, class: OpClass) -> &ClassLat {
        &self.class[class.index()]
    }

    /// The latency record for one registered procedure, by name.
    pub fn proc(&self, name: &str) -> Option<&ProcLat> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Mean read-only requests per RO transaction (the batching payoff;
    /// > 1 means batching actually happened).
    pub fn mean_ro_batch(&self) -> f64 {
        if self.ro_batches == 0 {
            0.0
        } else {
            self.ro_batch_ops as f64 / self.ro_batches as f64
        }
    }

    /// Human-readable per-class SLO table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}: {} shard(s), {} replies, {} shed, {} overloaded; RO batches {} (mean {:.1}, max {}, aborts {})",
            self.backend,
            self.shards,
            self.replies,
            self.shed,
            self.overloaded,
            self.ro_batches,
            self.mean_ro_batch(),
            self.max_ro_batch,
            self.ro_batch_aborts,
        );
        if self.shards > 1 {
            let _ = writeln!(
                s,
                "  2PC: {} prepares, {} aborts, {} escalations, {} cross-shard RO; served/shard {:?}",
                self.twopc.prepares,
                self.twopc.aborts,
                self.twopc.escalations,
                self.twopc.ro_multi,
                self.shard_served,
            );
        }
        if self.durability != "off" {
            let _ = writeln!(
                s,
                "  wal[{}]: {} appends, {} fsync batches (mean group {:.1}), {} checkpoints, recovered {} records (+{} torn tails), {} dead-log sheds",
                self.durability,
                self.wal.wal_appends,
                self.wal.fsync_batches,
                self.wal.mean_group_commit(),
                self.wal.checkpoints,
                self.wal.recovery_replayed,
                self.wal.recovery_torn,
                self.wal.wal_dead_sheds,
            );
            let w = &self.wal;
            let unhealthy = self.shard_health.iter().any(|&h| h != "healthy");
            if unhealthy
                || w.wal_retries + w.degraded_sheds + w.wal_rejoins + w.scrub_corruptions > 0
            {
                let _ = writeln!(
                    s,
                    "  health {:?}: {} flush retries, {} degraded sheds, {} rejoins, {} ckpt failures; scrub {} passes / {} corruptions",
                    self.shard_health,
                    w.wal_retries,
                    w.degraded_sheds,
                    w.wal_rejoins,
                    w.checkpoint_failures,
                    w.scrub_passes,
                    w.scrub_corruptions,
                );
            }
        }
        for cl in &self.class {
            if cl.count() == 0 {
                continue;
            }
            let (p50, p90, p99, p999) = cl.e2e.percentiles();
            let (s50, _, s99, _) = cl.service.percentiles();
            let _ = writeln!(
                s,
                "  {:<9} n={:<8} e2e p50/p90/p99/p999 = {}/{}/{}/{} ns  service p50/p99 = {}/{} ns",
                cl.class.name(),
                cl.count(),
                p50,
                p90,
                p99,
                p999,
                s50,
                s99,
            );
        }
        for pl in &self.procs {
            if pl.count() == 0 {
                continue;
            }
            let (p50, p90, p99, p999) = pl.e2e.percentiles();
            let (s50, _, s99, _) = pl.service.percentiles();
            let _ = writeln!(
                s,
                "  call:{:<12} n={:<8} e2e p50/p90/p99/p999 = {}/{}/{}/{} ns  service p50/p99 = {}/{} ns",
                pl.name,
                pl.count(),
                p50,
                p90,
                p99,
                p999,
                s50,
                s99,
            );
        }
        s
    }
}

/// The running service: executor pool + per-shard submission queues.
pub struct Pipeline<B: TmBackend> {
    domains: Arc<Vec<(B, KvStore)>>,
    shared: Arc<Shared>,
    cfg: PipelineConfig,
    handles: Vec<JoinHandle<ExecOut>>,
    /// The log writer; spawned for durable pipelines only.
    writer: Option<JoinHandle<ExecOut>>,
    /// Storage-health maintenance loop (rejoin probes + scrubber); only
    /// spawned for durable pipelines with a nonzero maintenance cadence.
    maint: Option<JoinHandle<()>>,
}

impl<B: TmBackend> Pipeline<B> {
    /// Spawn the executor pool over a single unsharded backend (the
    /// 1-shard special case of [`Pipeline::start_sharded`]).
    pub fn start(backend: B, store: KvStore, cfg: PipelineConfig) -> Pipeline<B> {
        Self::start_sharded(vec![(backend, store)], ShardMap::hash(1), cfg)
    }

    /// Spawn the executor pool over one independent backend instance per
    /// shard. `map` must agree with `domains` on the shard count, and
    /// each store must have been loaded with only its shard's keys
    /// (see [`crate::shard::build_domains`]).
    pub fn start_sharded(
        domains: Vec<(B, KvStore)>,
        map: ShardMap,
        cfg: PipelineConfig,
    ) -> Pipeline<B> {
        Self::start_inner(domains, map, cfg, None, None)
    }

    /// Spawn a **durable** sharded pipeline: every update is appended to
    /// the shard's commit-ordered WAL (under the shard commit lock, after
    /// the backend transaction committed — on SI-HTM that is after the
    /// pre-commit quiescence wait, strictly outside the hardware
    /// transaction), group-commit fsynced, and — in
    /// [`DurabilityMode::Sync`] — acked only once durable. Cross-shard
    /// updates additionally write 2PC `XBegin`/`XApply`/`XDecide` records
    /// so recovery resolves them all-or-nothing. The read-only lane never
    /// touches the WAL: the SI-HTM RO fast path stays untouched.
    ///
    /// `wal` usually comes from [`crate::recover_and_open`], which also
    /// rebuilds `domains` from the latest checkpoint + log tail.
    pub fn start_durable(
        domains: Vec<(B, KvStore)>,
        map: ShardMap,
        cfg: PipelineConfig,
        wal: Arc<WalSet>,
    ) -> Pipeline<B> {
        assert_eq!(wal.shards(), map.shards(), "one WAL per shard");
        Self::start_inner(domains, map, cfg, Some(wal), None)
    }

    /// Spawn a pipeline with every optional subsystem chosen explicitly:
    /// a per-shard commit-ordered WAL (or `None` for in-memory service)
    /// and a [`ProcRegistry`] of server-side procedures answering
    /// [`KvOp::Call`] (or `None` to answer every call
    /// [`KvReply::CallAborted`]). The other constructors are shorthands
    /// for this one.
    pub fn start_with(
        domains: Vec<(B, KvStore)>,
        map: ShardMap,
        cfg: PipelineConfig,
        wal: Option<Arc<WalSet>>,
        procs: Option<Arc<ProcRegistry>>,
    ) -> Pipeline<B> {
        if let Some(w) = &wal {
            assert_eq!(w.shards(), map.shards(), "one WAL per shard");
        }
        Self::start_inner(domains, map, cfg, wal, procs)
    }

    fn start_inner(
        domains: Vec<(B, KvStore)>,
        map: ShardMap,
        cfg: PipelineConfig,
        wal: Option<Arc<WalSet>>,
        procs: Option<Arc<ProcRegistry>>,
    ) -> Pipeline<B> {
        assert!(cfg.executors > 0, "pipeline needs at least one executor");
        assert!(cfg.ro_batch_max > 0, "ro_batch_max must be nonzero");
        assert_eq!(map.shards(), domains.len(), "one backend domain per shard");
        let domains = Arc::new(domains);
        let shared = Arc::new(Shared {
            shards: (0..map.shards())
                .map(|_| ShardCtx {
                    queue: SubmitQueue::new(cfg.ro_queue_cap, cfg.rw_queue_cap),
                    xlock: XLock::new(),
                })
                .collect(),
            xqueue: SubmitQueue::new(cfg.ro_queue_cap, cfg.rw_queue_cap),
            map,
            hard_stop: AtomicBool::new(false),
            overloaded: AtomicU64::new(0),
            multi_key_max: cfg.multi_key_max,
            group: GroupCommit::new(map.shards()),
            wal,
            procs,
        });
        // The writer's handle is published before any executor can kick.
        let writer = shared.wal.clone().map(|w| {
            let sh = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name("txkv-wal-writer".into())
                .spawn(move || sh.group.run_writer(&w, sh.procs.as_deref()))
                .expect("spawn wal writer");
            let _ = shared.group.writer.set(h.thread().clone());
            h
        });
        let handles = (0..cfg.executors)
            .map(|i| {
                let domains = Arc::clone(&domains);
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("txkv-exec-{i}"))
                    .spawn(move || Executor::new(i, &domains, &shared, &cfg).run())
                    .expect("spawn executor")
            })
            .collect();
        // Background storage maintenance: probe degraded shards back to
        // health, scrub checkpoints + log tails for latent corruption.
        let maint = shared.wal.as_ref().filter(|w| w.maintenance_interval_ms() > 0).map(|w| {
            let w = Arc::clone(w);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("txkv-wal-maint".into())
                .spawn(move || {
                    let tick = Duration::from_millis(w.maintenance_interval_ms());
                    let scrub_every = Duration::from_millis(w.scrub_interval_ms().max(1));
                    let mut last_scrub = Instant::now();
                    while !shared.hard_stop.load(Ordering::Acquire) {
                        for s in 0..w.shards() {
                            if !w.health(s).writable() {
                                w.probe(s);
                            }
                        }
                        if w.scrub_interval_ms() > 0 && last_scrub.elapsed() >= scrub_every {
                            last_scrub = Instant::now();
                            for s in 0..w.shards() {
                                w.scrub(s);
                            }
                        }
                        std::thread::sleep(tick);
                    }
                })
                .expect("spawn wal maintenance")
        });
        Pipeline { domains, shared, cfg, handles, writer, maint }
    }

    /// A new submission handle (clone freely, share across threads).
    pub fn client(&self) -> KvClient {
        KvClient { shared: Arc::clone(&self.shared) }
    }

    /// Shard 0's backend (the only one when unsharded).
    pub fn backend(&self) -> &B {
        &self.domains[0].0
    }

    /// Shard 0's store (the only one when unsharded).
    pub fn store(&self) -> &KvStore {
        &self.domains[0].1
    }

    /// Shard `s`'s backend instance.
    pub fn shard_backend(&self, s: usize) -> &B {
        &self.domains[s].0
    }

    /// Shard `s`'s store.
    pub fn shard_store(&self, s: usize) -> &KvStore {
        &self.domains[s].1
    }

    /// The WAL set, when running durably (crash tests pull the plug
    /// through this: [`WalSet::halt_all`]).
    pub fn wal(&self) -> Option<&Arc<WalSet>> {
        self.shared.wal.as_ref()
    }

    /// Graceful shutdown: close admission, give queued work `drain_grace`
    /// to complete, then shed the rest ([`KvReply::Shed`]) and join.
    pub fn shutdown(self) -> ServiceReport {
        for ctx in &self.shared.shards {
            ctx.queue.close();
        }
        self.shared.xqueue.close();
        let drained = |shared: &Shared| {
            shared.xqueue.is_empty() && shared.shards.iter().all(|c| c.queue.is_empty())
        };
        let deadline = Instant::now() + self.cfg.drain_grace;
        while !drained(&self.shared) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.hard_stop.store(true, Ordering::Release);
        for ctx in &self.shared.shards {
            ctx.queue.wake_all();
        }
        self.shared.xqueue.wake_all();
        if let Some(m) = self.maint {
            let _ = m.join();
        }
        let mut report = ServiceReport::new(
            self.domains[0].0.name(),
            self.cfg.executors,
            self.shared.map.shards(),
        );
        report.procs = proc_lats(self.shared.procs.as_deref());
        for h in self.handles {
            match h.join() {
                Ok(out) => {
                    if out.served + out.withheld == 0 {
                        report.starved_executors += 1;
                    }
                    report.merge(out);
                }
                Err(_) => report.panicked_executors += 1,
            }
        }
        // Every executor is out, so no ack can be withheld after this: the
        // writer's last round flushes, settles, and sheds the rest.
        if let Some(h) = self.writer {
            self.shared.group.stop.store(true, Ordering::Release);
            h.thread().unpark();
            match h.join() {
                Ok(out) => report.merge(out),
                Err(_) => report.panicked_executors += 1,
            }
        }
        report.overloaded = self.shared.overloaded.load(Ordering::Relaxed);
        if let Some(w) = &self.shared.wal {
            report.durability = w.mode().name();
            report.wal = w.stats();
            report.shard_health = w.health_names();
        }
        report
    }
}

/// Shards executor `idx` polls (it holds registered handles for *all*
/// shards regardless, for cross-shard coordination).
fn served_shards(idx: usize, executors: usize, shards: usize) -> Vec<usize> {
    if executors <= shards {
        (0..shards).filter(|s| s % executors == idx).collect()
    } else {
        vec![idx % shards]
    }
}

/// A served update whose reply is withheld until its WAL record is
/// durable ([`DurabilityMode::Sync`]).
struct PendingAck {
    req: Request,
    reply: KvReply,
    service: Duration,
    lsn: u64,
}

/// The durable pipeline's group commit (module docs): the Sync acks the
/// executors withhold, one list per shard, and the log writer that
/// flushes the WAL and settles them. `writer` is set before any executor
/// starts, and never without a WAL. `stop` asks for the writer's last
/// round: stored (Release) by `shutdown` once every executor is joined,
/// loaded (Acquire) by the writer after each wake-up.
struct GroupCommit {
    acks: Vec<Mutex<Vec<PendingAck>>>,
    writer: OnceLock<Thread>,
    stop: AtomicBool,
}

impl GroupCommit {
    fn new(shards: usize) -> Self {
        GroupCommit {
            acks: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            writer: OnceLock::new(),
            stop: AtomicBool::new(false),
        }
    }

    /// Ask the writer for a flush round. A kick during a round is kept
    /// (the `unpark` token), so the next round follows straight on.
    fn kick(&self) {
        if let Some(t) = self.writer.get() {
            t.unpark();
        }
    }

    /// Shard `s`'s withheld acks. No holder can panic (pushes and the
    /// settle step's extraction only), so the lock is never poisoned.
    fn list(&self, s: usize) -> MutexGuard<'_, Vec<PendingAck>> {
        self.acks[s].lock().expect("ack-list holders do not panic")
    }

    fn any_withheld(&self) -> bool {
        (0..self.acks.len()).any(|s| !self.list(s).is_empty())
    }

    /// The log writer: park until kicked, flush every shard with buffered
    /// frames, settle. A failed flush degrades its shard or kills the log,
    /// and settling answers the acks it strands. After `stop`, one last
    /// round sheds whatever it could not make durable: an un-durable Sync
    /// ack never escapes, not even at shutdown.
    fn run_writer(&self, wal: &WalSet, procs: Option<&ProcRegistry>) -> ExecOut {
        let mut out = ExecOut::new(wal.shards(), procs);
        loop {
            std::thread::park();
            let last = self.stop.load(Ordering::Acquire);
            for s in (0..wal.shards()).filter(|&s| wal.buffered(s) > 0) {
                let _ = wal.flush(s);
            }
            let durable: Vec<u64> = (0..wal.shards()).map(|s| wal.durable_lsn(s)).collect();
            self.settle(&mut out, wal, &durable, last);
            if last {
                return out;
            }
        }
    }

    /// Fill every withheld ack that is ready, outside the list lock: acked
    /// once `durable` (the caller's watermark per shard) covers it, refused
    /// `Unavailable` when its shard degraded under it (the frame stays
    /// retained and may persist at rejoin: indeterminate, like any
    /// un-acked write), shed when the log died or on the `last` round.
    /// An ack filled above its shard's live watermark is counted in
    /// `sync_acks_early`.
    fn settle(&self, out: &mut ExecOut, wal: &WalSet, durable: &[u64], last: bool) {
        let alive = wal.alive();
        for (s, &durable) in durable.iter().enumerate() {
            let writable = wal.health(s).writable();
            let fate = |p: &PendingAck| match (alive, p.lsn <= durable, writable, last) {
                (false, ..) => Some(Err(WalError::Dead)),
                (_, true, ..) => Some(Ok(())),
                (_, _, false, _) => Some(Err(WalError::Unavailable)),
                (_, _, _, true) => Some(Err(WalError::Dead)),
                _ => None,
            };
            let ready: Vec<PendingAck> =
                self.list(s).extract_if(.., |p| fate(p).is_some()).collect();
            let now = wal.durable_lsn(s);
            for p in ready {
                match fate(&p).expect("extracted as ready") {
                    Ok(()) => {
                        if p.lsn > now {
                            wal.note_sync_ack_early();
                        }
                        out.finish(p.req, p.reply, p.service);
                    }
                    Err(why) => out.refuse(p.req, wal, why),
                }
            }
        }
    }
}

/// One executor thread: a registered backend handle and a write scratch
/// per shard (any executor may coordinate a cross-shard request), its
/// contention manager, reusable buffers, and the report it hands back at
/// join time.
struct Executor<'a, B: TmBackend> {
    domains: &'a [(B, KvStore)],
    shared: &'a Shared,
    cfg: &'a PipelineConfig,
    /// Shards whose queues this executor polls.
    served: Vec<usize>,
    threads: Vec<B::Thread>,
    scratches: Vec<NodeScratch>,
    /// Scratch capacity: procedure legs can write far more keys than a
    /// client multi-op ([`PROC_WRITE_MAX`] vs `multi_key_max`), so a
    /// pipeline serving calls pre-sizes for the larger bound.
    scratch_keys: usize,
    cm: ContentionManager,
    /// Post-image capture buffer for the update lane.
    writes: Writes,
    /// Read-only batch buffer.
    batch: Vec<Request>,
    out: ExecOut,
}

impl<'a, B: TmBackend> Executor<'a, B> {
    fn new(
        idx: usize,
        domains: &'a [(B, KvStore)],
        shared: &'a Shared,
        cfg: &'a PipelineConfig,
    ) -> Self {
        let scratch_keys = match shared.procs {
            Some(_) => cfg.multi_key_max.max(PROC_WRITE_MAX),
            None => cfg.multi_key_max,
        };
        Executor {
            domains,
            shared,
            cfg,
            served: served_shards(idx, cfg.executors, domains.len()),
            threads: domains.iter().map(|(b, _)| b.register_thread()).collect(),
            scratches: domains.iter().map(|(_, st)| st.new_batch_scratch(scratch_keys)).collect(),
            scratch_keys,
            cm: ContentionManager::new(cfg.backoff, 0x9E37_79B9_7F4A_7C15 ^ (idx as u64 + 1)),
            writes: Vec::new(),
            batch: Vec::with_capacity(cfg.ro_batch_max),
            out: ExecOut::new(domains.len(), shared.procs.as_deref()),
        }
    }

    fn run(mut self) -> ExecOut {
        let (shared, cfg) = (self.shared, self.cfg);
        let wal = shared.wal.as_deref();
        let served = self.served.clone();
        loop {
            let mut did_work = false;
            for &s in &served {
                // One update, then one RO batch, per shard per iteration:
                // neither lane can starve the other regardless of mix.
                // Both serves are unwind barriers: a panic inside a
                // transaction body (chaos) must not kill the executor —
                // in a sharded pipeline that would orphan the executor's
                // whole shard. The in-flight request(s) resolve Shed via
                // the drop backstop and the mid-transaction handle is
                // replaced, exactly as on the cross-shard paths.
                if let Some(req) = shared.shards[s].queue.try_pop_update() {
                    if catch_unwind(AssertUnwindSafe(|| self.serve_update(s, req))).is_err() {
                        self.out.shed += 1;
                        self.reset(s);
                    }
                    self.out.shard_served[s] += 1;
                    did_work = true;
                }
                if shared.shards[s].queue.try_pop_ro_batch(cfg.ro_batch_max, &mut self.batch) > 0 {
                    self.out.shard_served[s] += self.batch.len() as u64;
                    if catch_unwind(AssertUnwindSafe(|| self.serve_ro_batch(s))).is_err() {
                        self.out.shed += self.batch.len() as u64;
                        self.batch.clear(); // drop backstop answers Shed
                        self.reset(s);
                    }
                    did_work = true;
                }
            }
            // Cross-shard work: any executor coordinates (contention on the
            // xqueue is negligible — cross-shard traffic is the rare case).
            if let Some(req) = shared.xqueue.try_pop_update() {
                self.serve_xshard(req);
                did_work = true;
            }
            if shared.xqueue.try_pop_ro_batch(1, &mut self.batch) > 0 {
                let req = self.batch.pop().expect("popped one");
                self.serve_xshard_ro(req);
                did_work = true;
            }
            // Durability every iteration: kick the writer on a
            // group-commit edge, take due checkpoints.
            if let Some(w) = wal {
                self.kick_if_due(w, false);
                for &s in &served {
                    if w.wants_checkpoint(s) {
                        self.checkpoint(w, s);
                    }
                }
            }
            if did_work {
                continue;
            }
            let served_done = served.iter().all(|&s| shared.shards[s].queue.is_done());
            if shared.hard_stop.load(Ordering::Acquire) || (served_done && shared.xqueue.is_done())
            {
                break;
            }
            // Idle: nothing to batch behind, so have the writer push the
            // group commit out before parking (bounds Sync ack latency at
            // light load).
            if let Some(w) = wal {
                self.kick_if_due(w, true);
            }
            // Give the chaos injector its seam, jitter the re-poll so a
            // large pool doesn't stampede the queue lock, then park briefly.
            if hooks::active() {
                hooks::emit(Event::Poll);
            }
            self.cm.admission_jitter(cfg.idle_jitter_ns);
            shared.shards[served[0]].queue.wait_for_work(cfg.idle_wait);
        }
        self.shed_queued();
        self.out.backoffs = self.cm.backoffs;
        for (slot, th) in self.out.shard_stats.iter_mut().zip(&self.threads) {
            *slot = th.stats().clone();
        }
        self.out
    }

    /// Hard stop (or post-drain sweep): everything still queued is shed —
    /// answered with [`KvReply::Shed`] by the drop backstop, never
    /// silently dropped.
    fn shed_queued(&mut self) {
        let shared = self.shared;
        let queues = self.served.iter().map(|&s| &shared.shards[s].queue).chain([&shared.xqueue]);
        loop {
            let mut any = false;
            for q in queues.clone() {
                if let Some(req) = q.try_pop_update() {
                    drop(req);
                    self.out.shed += 1;
                    any = true;
                }
                if q.try_pop_ro_batch(usize::MAX, &mut self.batch) > 0 {
                    self.out.shed += self.batch.len() as u64;
                    self.batch.clear();
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Kick the log writer on a group-commit edge: a served shard's buffer
    /// is full or its update lane has gone idle (no later commit to ride
    /// with), or the executor is about to park (`idle`) with frames
    /// buffered or acks withheld — the latter may already be durable
    /// through another flusher and only need settling.
    fn kick_if_due(&self, wal: &WalSet, idle: bool) {
        let due = |s: usize| {
            let buffered = wal.buffered(s);
            buffered > 0
                && (idle
                    || buffered >= wal.group_commit_max()
                    || self.shared.shards[s].queue.depths().1 == 0)
        };
        let group = &self.shared.group;
        if self.served.iter().any(|&s| due(s)) || (idle && group.any_withheld()) {
            group.kick();
        }
    }

    /// Take one shard's checkpoint: quiesce its writers (xlock, then the
    /// commit lock — the same order 2PC uses), wait until every shard's
    /// log is durable through what it has appended — this shard's, so the
    /// snapshot and the durable log agree on exactly which transactions
    /// are included, and every other shard's, so the decisions this
    /// checkpoint prunes are durable on their other participants too —
    /// snapshot via one RO transaction (the SI-HTM fast path), and install
    /// atomically. A shard that cannot become durable (degraded, or a dead
    /// log) skips the round; so does a chaos panic inside the snapshot,
    /// after replacing the poisoned handle (the trigger re-fires).
    fn checkpoint(&mut self, wal: &WalSet, s: usize) {
        let shared = self.shared;
        let _x = shared.shards[s].xlock.lock();
        let _cl = wal.commit_lock(s);
        // Re-check under the locks: another executor serving this shard may
        // have just checkpointed it.
        if !wal.wants_checkpoint(s) || wal.wait_all_appended().is_err() {
            return;
        }
        let (store, thread) = (&self.domains[s].1, &mut self.threads[s]);
        match catch_unwind(AssertUnwindSafe(|| store.snapshot(thread))) {
            Ok(entries) => {
                let _ = wal.install_checkpoint(s, &entries);
            }
            Err(_) => self.reset(s),
        }
    }

    /// Serve one update request in its own update transaction.
    ///
    /// With a WAL, the shard's commit lock spans execute + append, so the
    /// log is a commit-ordered journal of post-images: on SI-HTM the append
    /// happens after the pre-commit quiescence wait — strictly outside the
    /// hardware transaction (the DUMBO discipline) — and on the fall-back
    /// paths after the SGL/commit-lock serialization point. In Sync mode the
    /// reply is handed to the log writer, which fills it once the record's
    /// fsync lands.
    ///
    /// Procedure calls additionally take the shard's [`XLock`] for the
    /// duration of the serve. A procedure read-modify-writes keys that
    /// cross-shard call legs may also touch, and a rolled-back cross-shard
    /// call restores pre-images — admissible only if no acked local call
    /// committed in between. Mutual exclusion against in-flight 2PC on this
    /// shard (same lock, acquired before the commit lock, matching the
    /// coordinator's order) closes that window; plain single-key ops keep
    /// their lock-free path (their blind/delta semantics never needed it).
    fn serve_update(&mut self, s: usize, req: Request) {
        let (domains, shared) = (self.domains, self.shared);
        let wal = shared.wal.as_deref();
        if let Some(w) = wal {
            // A dead log (simulated power loss) can make nothing durable,
            // so accepting updates would hand out un-loggable acks; a
            // degraded shard sheds updates with the typed outcome (reads
            // still serve; the maintenance probe rejoins the shard when its
            // medium heals).
            if let Err(why) = w.admits(s) {
                self.out.refuse(req, w, why);
                return;
            }
        }
        let procs = shared.procs.as_deref();
        let store = &domains[s].1;
        let (thread, scratch, writes) =
            (&mut self.threads[s], &mut self.scratches[s], &mut self.writes);
        let aborts_before = thread.stats().aborts();
        let t0 = Instant::now();
        let xguard = matches!(req.op, KvOp::Call { .. }).then(|| shared.shards[s].xlock.lock());
        let guard = wal.map(|w| w.commit_lock(s));
        writes.clear();
        let reply = match &req.op {
            KvOp::Put { key, val } => {
                let changed = store.put(thread, scratch, *key, *val);
                writes.push((*key, Some(*val)));
                KvReply::Done { changed }
            }
            KvOp::Delete { key } => {
                let changed = store.delete(thread, *key);
                writes.push((*key, None));
                KvReply::Done { changed }
            }
            KvOp::Cas { key, expect, new } => {
                match store.cas(thread, scratch, *key, *expect, *new) {
                    Ok(()) => {
                        writes.push((*key, Some(*new)));
                        KvReply::CasOk
                    }
                    // A failed CAS committed nothing: no record, immediate ack.
                    Err(observed) => KvReply::CasFail(observed),
                }
            }
            KvOp::MultiPut { pairs } => {
                store.multi_put(thread, scratch, pairs);
                writes.extend(pairs.iter().map(|&(k, v)| (k, Some(v))));
                KvReply::Done { changed: true }
            }
            KvOp::MultiAdd { deltas } => {
                // Add post-images depend on the read values, so they must be
                // captured inside the transaction body (reset per attempt).
                if wal.is_some() {
                    store.multi_add_logged(thread, scratch, deltas, writes);
                } else {
                    store.multi_add(thread, scratch, deltas);
                }
                KvReply::Done { changed: true }
            }
            KvOp::Call { proc, args, .. } => match procs.and_then(|r| r.get(*proc)) {
                None => KvReply::CallAborted,
                Some(p) => {
                    let scope = Scope::single(s, procs.map_or(0, |r| r.replicated_below()));
                    let capture = wal.is_some();
                    let mut outv: Vec<u64> = Vec::new();
                    let outcome = thread.exec(TxKind::Update, &mut |tx| {
                        // Post-images depend on in-transaction reads: reset
                        // the capture per attempt, like MultiAdd.
                        scratch.reset();
                        writes.clear();
                        outv.clear();
                        let w = capture.then_some(&mut *writes);
                        outv =
                            p.run(&mut ProcCtx::new(store, tx, scratch, scope, w, None), args)?;
                        Ok(())
                    });
                    match outcome {
                        Outcome::Committed => {
                            scratch.refill(store.alloc());
                            KvReply::CallOk(outv)
                        }
                        Outcome::UserAborted => {
                            // Nothing committed: no record, immediate ack.
                            writes.clear();
                            KvReply::CallAborted
                        }
                    }
                }
            },
            ro => unreachable!("read-only op {ro:?} in the update lane"),
        };
        let appended = match wal {
            Some(w) if !writes.is_empty() => {
                w.crash_point(CrashSite::AfterCommit);
                Some(w.append(s, Append::Write(writes)))
            }
            _ => None,
        };
        drop(guard);
        drop(xguard);
        let service = t0.elapsed();
        // Abort-aware pacing: a serve that needed backend retries backs the
        // executor off before the next pop; a clean one resets the ceiling.
        if thread.stats().aborts() > aborts_before {
            self.cm.backoff(AbortReason::Conflict);
        } else {
            self.cm.reset();
        }
        match (wal, appended) {
            (Some(w), Some(Ok(lsn))) if w.mode() == DurabilityMode::Sync => {
                self.out.withheld += 1;
                shared.group.list(s).push(PendingAck { req, reply, service, lsn });
            }
            // Committed in memory, but the record never made it: the log
            // died before the fsync (shed, never acked — exactly what
            // recovery shows) or the shard degraded between admission and
            // append (the typed outcome, un-acked: indeterminate for the
            // client, like any timeout).
            (Some(w), Some(Err(why))) if w.mode() == DurabilityMode::Sync => {
                self.out.refuse(req, w, why);
            }
            _ => self.out.finish(req, reply, service),
        }
    }

    /// Serve shard `s`'s popped batch of read-only requests in ONE
    /// read-only transaction (the SI-HTM RO fast path: unbounded, never
    /// aborts, one shared snapshot for the entire batch). Read-only
    /// procedure calls ride in the same transaction — a typed workload's
    /// whole read mix shares the batch's snapshot and its single
    /// quiescence interaction.
    fn serve_ro_batch(&mut self, s: usize) {
        let procs = self.shared.procs.as_deref();
        let scope = Scope::single(s, procs.map_or(0, |r| r.replicated_below()));
        let store = &self.domains[s].1;
        let (thread, scratch, batch) =
            (&mut self.threads[s], &mut self.scratches[s], &mut self.batch);
        let aborts_before = thread.stats().aborts();
        let t0 = Instant::now();
        let mut replies: Vec<KvReply> = Vec::with_capacity(batch.len());
        thread.exec(TxKind::ReadOnly, &mut |tx| {
            replies.clear(); // idempotent across retries on fallback paths
            for req in batch.iter() {
                let r = match &req.op {
                    KvOp::Get { key } => KvReply::Value(store.get_in(tx, *key)?),
                    KvOp::MultiGet { keys } => {
                        let mut vals = Vec::with_capacity(keys.len());
                        for &k in keys {
                            vals.push(store.get_in(tx, k)?);
                        }
                        KvReply::Values(vals)
                    }
                    KvOp::ScanPrefix { prefix, shift, limit } => {
                        let (count, sum) = store.scan_prefix_in(tx, *prefix, *shift, *limit)?;
                        KvReply::Scan { count, sum }
                    }
                    KvOp::ScanRange { from, to, limit } => {
                        let (count, sum) = store.scan_range_in(tx, *from, *to, *limit)?;
                        KvReply::Scan { count, sum }
                    }
                    KvOp::Call { proc, args, .. } => match procs.and_then(|r| r.get(*proc)) {
                        None => KvReply::CallAborted,
                        Some(p) => {
                            let mut ctx = ProcCtx::new(store, tx, scratch, scope, None, None);
                            match p.run(&mut ctx, args) {
                                Ok(outs) => KvReply::CallOk(outs),
                                // A user abort in a read-only call answers
                                // just that request; the batch's snapshot
                                // (and the other requests) are unaffected.
                                Err(Abort::User) => KvReply::CallAborted,
                                Err(e) => return Err(e),
                            }
                        }
                    },
                    up => unreachable!("update op {up:?} in the read-only lane"),
                };
                replies.push(r);
            }
            Ok::<(), Abort>(())
        });
        let service = t0.elapsed();
        let out = &mut self.out;
        out.ro_batches += 1;
        out.ro_batch_ops += batch.len() as u64;
        out.max_ro_batch = out.max_ro_batch.max(batch.len() as u64);
        out.ro_batch_aborts += thread.stats().aborts() - aborts_before;
        for (req, reply) in batch.drain(..).zip(replies) {
            out.finish(req, reply, service);
        }
    }

    /// Serve one cross-shard update — a `MultiPut`, `MultiAdd` or `Call`
    /// — through [`coordinate`], the one 2PC coordinator (DESIGN.md §11.2,
    /// §12.3). A commit answers `Done` or `CallOk`; a call leg's user
    /// abort answers `CallAborted` (a served semantic reply, not a 2PC
    /// abort). A failed protocol is fully rolled back and answered with the
    /// typed `Unavailable` when a participant's log degraded, `Shed`
    /// otherwise — never half-applied.
    fn serve_xshard(&mut self, req: Request) {
        let shared = self.shared;
        let wal = shared.wal.as_deref();
        let Route::Cross(set) = shared.map.route(&req.op) else {
            unreachable!("only cross-shard requests reach the xqueue")
        };
        if let Some(w) = wal {
            // 2PC never starts against a dead log or a degraded
            // participant: one shard's bad disk must not burn leg and
            // rollback work on the others.
            let refused = if !w.alive() {
                Some(WalError::Dead)
            } else {
                set.iter().any(|&s| !w.health(s).writable()).then_some(WalError::Unavailable)
            };
            if let Some(why) = refused {
                self.out.refuse(req, w, why);
                return;
            }
        }
        let procs = shared.procs.as_deref();
        let legs: Vec<Leg<'_>> = match &req.op {
            KvOp::MultiPut { pairs } => {
                group_puts(&shared.map, &set, pairs).into_iter().map(Leg::Update).collect()
            }
            KvOp::MultiAdd { deltas } => {
                group_adds(&shared.map, &set, deltas).into_iter().map(Leg::Update).collect()
            }
            KvOp::Call { proc, args, .. } => {
                let Some(p) = procs.and_then(|r| r.get(*proc)) else {
                    self.out.finish(req, KvReply::CallAborted, Duration::ZERO);
                    return;
                };
                let below = procs.map_or(0, |r| r.replicated_below());
                let leg =
                    |s| Leg::Call { proc: &**p, args, scope: Scope::leg(&shared.map, s, below) };
                set.iter().map(|&s| leg(s)).collect()
            }
            up => unreachable!("non-update op {up:?} in the cross-shard update lane"),
        };
        let t0 = Instant::now();
        let mut twopc = TwoPcStats::default();
        let outcome = coordinate(self, &set, &legs, wal, &mut twopc);
        self.out.twopc += &twopc;
        for &s in &set {
            self.out.shard_served[s] += 1;
        }
        match outcome {
            // Sync-on-ack already holds: the coordinator waited for a
            // durable decision, so the reply needs no pending delay.
            XOutcome::Committed(outs) => {
                let reply = match req.op {
                    KvOp::Call { .. } => KvReply::CallOk(outs),
                    _ => KvReply::Done { changed: true },
                };
                self.out.finish(req, reply, t0.elapsed());
            }
            XOutcome::UserAborted => self.out.finish(req, KvReply::CallAborted, t0.elapsed()),
            // A participant's log degraded mid-protocol (it won the race
            // against the admission check): the same typed refusal.
            XOutcome::Failed { degraded: true } => {
                self.out.refuse(req, wal.expect("degraded implies a WAL"), WalError::Unavailable);
            }
            // Dead log or caught panic: the drop backstop answers Shed.
            XOutcome::Failed { degraded: false } => self.out.shed += 1,
        }
    }

    /// Serve one cross-shard read-only request: per-shard read-only
    /// transactions under the participants' xlocks (so no half-applied
    /// cross-shard update can be observed). Point reads merge positionally;
    /// scans merge into one globally key-ordered result.
    fn serve_xshard_ro(&mut self, req: Request) {
        let shared = self.shared;
        let Route::Cross(set) = shared.map.route(&req.op) else {
            unreachable!("only cross-shard requests reach the xqueue")
        };
        let t0 = Instant::now();
        let _guards: Vec<_> = set.iter().map(|&s| shared.shards[s].xlock.lock()).collect();
        self.out.twopc.ro_multi += 1;
        let mut inflight = None;
        let (domains, threads, scratches) = (self.domains, &mut self.threads, &mut self.scratches);
        let attempt = catch_unwind(AssertUnwindSafe(|| match &req.op {
            KvOp::MultiGet { keys } => {
                let mut vals: Vec<Option<u64>> = vec![None; keys.len()];
                for &s in &set {
                    inflight = Some(s);
                    let store = &domains[s].1;
                    let map = &shared.map;
                    threads[s].exec(TxKind::ReadOnly, &mut |tx| {
                        for (i, &k) in keys.iter().enumerate() {
                            if map.shard_of(k) == s {
                                vals[i] = store.get_in(tx, k)?;
                            }
                        }
                        Ok(())
                    });
                }
                KvReply::Values(vals)
            }
            KvOp::ScanPrefix { .. } | KvOp::ScanRange { .. } => {
                let (from, to, limit) = match &req.op {
                    KvOp::ScanPrefix { prefix, shift, limit } => {
                        let (f, t) = KvStore::prefix_range(*prefix, *shift);
                        (f, t, *limit)
                    }
                    KvOp::ScanRange { from, to, limit } => (*from, *to, *limit),
                    _ => unreachable!(),
                };
                // Merge the per-shard scans into ONE key-ordered result cut
                // at the client's limit. Each shard is scanned with the full
                // limit (any one of them might hold the first `limit`
                // matches); summing per-shard-limited views would over-count
                // whenever the range spans a shard boundary.
                let mut entries: Vec<(u64, u64)> = Vec::new();
                for &s in &set {
                    inflight = Some(s);
                    let store = &domains[s].1;
                    let start = entries.len();
                    threads[s].exec(TxKind::ReadOnly, &mut |tx| {
                        entries.truncate(start); // idempotent across retries
                        store.scan_range_entries_in(tx, from, to, limit, &mut |k, v| {
                            entries.push((k, v));
                        })?;
                        Ok(())
                    });
                }
                // Under range partitioning ascending shards already yield
                // ascending keys (the sort is a linear no-op pass); hash
                // partitioning interleaves and genuinely needs it.
                entries.sort_unstable_by_key(|&(k, _)| k);
                entries.truncate(limit.min(usize::MAX as u64) as usize);
                let count = entries.len() as u64;
                let sum = entries.iter().fold(0u64, |a, &(_, v)| a.wrapping_add(v));
                KvReply::Scan { count, sum }
            }
            KvOp::Call { proc, args, .. } => {
                // Read-only cross-shard call: one RO leg per participant
                // under the xlocks; leg outputs concatenate in ascending
                // shard order, like update legs.
                let procs = shared.procs.as_deref();
                let Some(p) = procs.and_then(|r| r.get(*proc)) else {
                    return KvReply::CallAborted;
                };
                let below = procs.map_or(0, |r| r.replicated_below());
                let mut outs: Vec<u64> = Vec::new();
                for &s in &set {
                    inflight = Some(s);
                    let store = &domains[s].1;
                    let scratch = &mut scratches[s];
                    let scope = Scope::leg(&shared.map, s, below);
                    let mut leg: Option<Vec<u64>> = None;
                    threads[s].exec(TxKind::ReadOnly, &mut |tx| {
                        let mut ctx = ProcCtx::new(store, tx, scratch, scope, None, None);
                        leg = match p.run(&mut ctx, args) {
                            Ok(v) => Some(v),
                            Err(Abort::User) => None,
                            Err(e) => return Err(e),
                        };
                        Ok(())
                    });
                    match leg {
                        Some(v) => outs.extend(v),
                        None => return KvReply::CallAborted,
                    }
                }
                KvReply::CallOk(outs)
            }
            up => unreachable!("update op {up:?} in the cross-shard read-only lane"),
        }));
        for &s in &set {
            self.out.shard_served[s] += 1;
        }
        match attempt {
            Ok(reply) => self.out.finish(req, reply, t0.elapsed()),
            Err(_) => {
                if let Some(s) = inflight {
                    self.reset(s);
                }
                self.out.shed += 1; // the drop backstop answers Shed
            }
        }
    }
}

impl<'a, B: TmBackend> Participants<'a> for Executor<'a, B> {
    fn part(&mut self, s: usize) -> ShardPart<'_> {
        ShardPart {
            store: &self.domains[s].1,
            thread: &mut self.threads[s],
            scratch: &mut self.scratches[s],
        }
    }

    /// Replace a backend thread handle (and its scratch) after a caught
    /// panic left it mid-transaction: dropping the old handle runs the
    /// backend's unwind cleanup (abort in-flight tx, release state-array
    /// slot / SGL), and the fresh registration starts clean.
    fn reset(&mut self, s: usize) {
        self.threads[s] = self.domains[s].0.register_thread();
        self.scratches[s] = self.domains[s].1.new_batch_scratch(self.scratch_keys);
        self.out.handle_resets += 1;
    }

    fn xlock(&self, s: usize) -> &'a XLock {
        &self.shared.shards[s].xlock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{KvTx, Procedure};
    use crate::shard::build_domains;
    use si_htm::SiHtm;

    /// args `[from, to, amount, cap?]`: moves `amount` from `from` to
    /// `to`, user-aborting on insufficient funds or when the destination
    /// would exceed `cap`. Each leg touches only its local keys, so the
    /// same body serves single-shard and cross-shard calls.
    struct Transfer;

    impl Procedure for Transfer {
        fn id(&self) -> u64 {
            1
        }
        fn name(&self) -> &'static str {
            "transfer"
        }
        fn run(&self, ctx: &mut ProcCtx<'_>, args: &[u64]) -> Result<Vec<u64>, Abort> {
            let (from, to, amt) = (args[0], args[1], args[2]);
            let cap = args.get(3).copied().unwrap_or(u64::MAX);
            let mut outs = Vec::new();
            if ctx.is_local(from) {
                let v = ctx.get(from)?.unwrap_or(0);
                if v < amt {
                    return Err(Abort::User);
                }
                ctx.put(from, v - amt)?;
                outs.push(v - amt);
            }
            if ctx.is_local(to) {
                let v = ctx.get(to)?.unwrap_or(0);
                if v.saturating_add(amt) > cap {
                    return Err(Abort::User);
                }
                ctx.put(to, v + amt)?;
                outs.push(v + amt);
            }
            Ok(outs)
        }
    }

    /// Read-only: returns the value of every local key in `args`.
    struct ReadVals;

    impl Procedure for ReadVals {
        fn id(&self) -> u64 {
            2
        }
        fn name(&self) -> &'static str {
            "read_vals"
        }
        fn read_only(&self) -> bool {
            true
        }
        fn run(&self, ctx: &mut ProcCtx<'_>, args: &[u64]) -> Result<Vec<u64>, Abort> {
            let mut outs = Vec::new();
            for &k in args {
                if ctx.is_local(k) {
                    outs.push(ctx.get(k)?.unwrap_or(0));
                }
            }
            Ok(outs)
        }
    }

    fn registry() -> Arc<ProcRegistry> {
        Arc::new(ProcRegistry::new().register(Arc::new(Transfer)).register(Arc::new(ReadVals)))
    }

    fn proc_pipeline(shards: usize, executors: usize) -> Pipeline<SiHtm> {
        // Each executor pre-sizes a write scratch of `PROC_WRITE_MAX`
        // splits per shard (≈ 37 k words of arena): two executors would
        // exhaust a 64 k-word arena and die at start-up.
        let words = 1 << 18;
        let map = ShardMap::range(shards, 64);
        let domains = build_domains(
            &map,
            |_| SiHtm::with_defaults(words as usize),
            0,
            words,
            (0..64 * shards as u64).map(|k| (k, k)),
        );
        let cfg = PipelineConfig { executors, ..PipelineConfig::quick() };
        Pipeline::start_with(domains, map, cfg, None, Some(registry()))
    }

    fn transfer_op(from: u64, to: u64, amt: u64, cap: Option<u64>) -> KvOp {
        let mut args = vec![from, to, amt];
        if let Some(c) = cap {
            args.push(c);
        }
        KvOp::Call { proc: 1, args, footprint: vec![from, to], read_only: false }
    }

    fn pipeline(executors: usize) -> Pipeline<SiHtm> {
        let backend = SiHtm::with_defaults(1 << 16);
        let store = KvStore::create_with(
            tm_api::TmBackend::memory(&backend),
            0,
            1 << 16,
            (0..128u64).map(|k| (k, k)),
        );
        let cfg = PipelineConfig { executors, ..PipelineConfig::quick() };
        Pipeline::start(backend, store, cfg)
    }

    fn sharded_pipeline(shards: usize, executors: usize) -> Pipeline<SiHtm> {
        let map = ShardMap::range(shards, 64);
        let domains = build_domains(
            &map,
            |_| SiHtm::with_defaults(1 << 16),
            0,
            1 << 16,
            (0..64 * shards as u64).map(|k| (k, k)),
        );
        let cfg = PipelineConfig { executors, ..PipelineConfig::quick() };
        Pipeline::start_sharded(domains, map, cfg)
    }

    /// A helper thread that fills every slot it is sent with the paired
    /// value, so a test can race `fill` against its own `wait`/`on_fill`
    /// without spawning a thread per round.
    fn filler() -> (std::sync::mpsc::Sender<(Arc<ReplySlot>, u64)>, JoinHandle<()>) {
        let (tx, rx) = std::sync::mpsc::channel::<(Arc<ReplySlot>, u64)>();
        let t = std::thread::spawn(move || {
            for (slot, v) in rx {
                slot.fill(KvReply::Value(Some(v)));
            }
        });
        (tx, t)
    }

    #[test]
    fn slot_wait_racing_fill_always_sees_the_reply() {
        // No barrier: the channel hand-off lands the fill before, during
        // and after `wait` registers itself, depending on the round. A
        // fill that misses a registered waiter parks this thread forever.
        let (tx, t) = filler();
        for i in 0..100_000u64 {
            let slot = Arc::new(ReplySlot::new());
            tx.send((slot.clone(), i)).unwrap();
            assert_eq!(slot.wait(), KvReply::Value(Some(i)));
            assert_eq!(slot.try_get(), Some(KvReply::Value(Some(i))));
        }
        drop(tx);
        t.join().unwrap();
    }

    fn counting_hook(
        fired: &Arc<AtomicU64>,
        seen: &Arc<Mutex<Option<KvReply>>>,
    ) -> FillHook<KvReply> {
        let (fired, seen) = (fired.clone(), seen.clone());
        Box::new(move |reply| {
            // Publish the reply before the count a waiting test polls on.
            *seen.lock().unwrap() = Some(reply);
            fired.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn on_reply_fires_exactly_once_however_it_races_the_fill() {
        let fired = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(Mutex::new(None));
        // Registered before the fill; a second fill (the envelope's Drop
        // backstop after a served reply) must not fire it again.
        let slot = ReplySlot::new();
        slot.on_fill(counting_hook(&fired, &seen));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        slot.fill(KvReply::CasOk);
        slot.fill(KvReply::Shed);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(seen.lock().unwrap().take(), Some(KvReply::CasOk));
        assert_eq!(slot.try_get(), None, "the reply moved into the hook");
        // Registered after the fill: fires on the registering thread.
        let slot = ReplySlot::new();
        slot.fill(KvReply::CasOk);
        slot.on_fill(counting_hook(&fired, &seen));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(seen.lock().unwrap().take(), Some(KvReply::CasOk));
        // Registered while the fill runs on another thread.
        let (tx, t) = filler();
        for i in 0..20_000u64 {
            let slot = Arc::new(ReplySlot::new());
            tx.send((slot.clone(), i)).unwrap();
            slot.on_fill(counting_hook(&fired, &seen));
            // The hook may still be running on the filler; wait it out.
            while fired.load(Ordering::SeqCst) < 3 + i {
                std::thread::yield_now();
            }
            assert_eq!(fired.load(Ordering::SeqCst), 3 + i);
            assert_eq!(seen.lock().unwrap().take(), Some(KvReply::Value(Some(i))));
        }
        drop(tx);
        t.join().unwrap();
    }

    #[test]
    fn request_dropped_during_unwind_sheds_through_the_hook_once() {
        let fired = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(Mutex::new(None));
        let slot = Arc::new(ReplySlot::new());
        let req =
            Request { op: KvOp::Get { key: 1 }, slot: slot.clone(), enqueued: Instant::now() };
        PendingReply { slot }.on_reply(counting_hook(&fired, &seen));
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _in_flight = req;
            panic!("executor dies mid-request");
        }));
        assert!(unwound.is_err());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(seen.lock().unwrap().take(), Some(KvReply::Shed));
    }

    #[test]
    fn serves_point_ops_end_to_end() {
        let p = pipeline(2);
        let client = p.client();
        assert_eq!(client.call(KvOp::Get { key: 5 }), Ok(KvReply::Value(Some(5))));
        assert_eq!(
            client.call(KvOp::Put { key: 500, val: 1 }),
            Ok(KvReply::Done { changed: true })
        );
        assert_eq!(client.call(KvOp::Get { key: 500 }), Ok(KvReply::Value(Some(1))));
        assert_eq!(client.call(KvOp::Delete { key: 500 }), Ok(KvReply::Done { changed: true }));
        assert_eq!(client.call(KvOp::Get { key: 500 }), Ok(KvReply::Value(None)));
        let report = p.shutdown();
        assert_eq!(report.replies, 5);
        assert_eq!(report.shed, 0);
        assert!(report.class(OpClass::Get).count() == 3);
        assert!(report.class(OpClass::Get).e2e.quantile(0.5) > 0);
    }

    /// 180 gets and 20 puts submitted without waiting, over two executors
    /// and `wal` if any: the first half as one pile, so the queue has depth
    /// when an executor next pops, the second half in ticks of five, 1 ms
    /// apart, so both executors' idle polls meet arrivals.
    fn ro_batches_form<B: TmBackend>(backend: B, wal: Option<Arc<WalSet>>) -> ServiceReport {
        let store = KvStore::create_with(backend.memory(), 0, 1 << 16, (0..128u64).map(|k| (k, k)));
        let cfg = PipelineConfig { executors: 2, ..PipelineConfig::quick() };
        let p = Pipeline::start_with(vec![(backend, store)], ShardMap::hash(1), cfg, wal, None);
        let client = p.client();
        let pending: Vec<_> = (0..200u64)
            .map(|i| {
                let key = i % 64;
                let op =
                    if i % 10 == 9 { KvOp::Put { key, val: 1000 + i } } else { KvOp::Get { key } };
                if i >= 100 && i % 5 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                client.submit(op).unwrap()
            })
            .collect();
        for pr in pending {
            assert!(matches!(pr.wait(), KvReply::Value(Some(_)) | KvReply::Done { .. }));
        }
        let report = p.shutdown();
        let name = report.backend;
        assert_eq!(report.replies, 200, "{name}");
        assert_eq!(report.panicked_executors, 0, "{name}");
        assert_eq!(report.starved_executors, 0, "{name}: an executor served nothing");
        assert!(
            report.ro_batches < 180,
            "{name}: 180 gets must not take 180 RO transactions (got {})",
            report.ro_batches
        );
        assert!(report.mean_ro_batch() > 1.0, "{name}: batching never engaged");
        report
    }

    /// The per-backend RO expectations: SI-HTM's RO fast path never
    /// aborts (§3.3), durable or not, because logging sits after commit;
    /// P8TM's RO path must at least be taken; HTM-SGL runs RO batches as
    /// ordinary transactions, so its aborts are legal.
    #[test]
    fn ro_batches_form_under_concurrent_submission() {
        let r = ro_batches_form(SiHtm::with_defaults(1 << 16), None);
        assert_eq!(r.ro_batch_aborts, 0, "SI-HTM RO fast path must never abort");
        ro_batches_form(htm_sgl::HtmSgl::with_defaults(1 << 16), None);
        let r = ro_batches_form(p8tm::P8tm::with_defaults(1 << 16), None);
        assert!(r.backend_stats.ro_commits > 0, "P8TM served RO batches without its RO path");
        for mode in [DurabilityMode::Async, DurabilityMode::Sync] {
            let dir = tmpdir(&format!("ro-batches-{}", mode.name()));
            let wal = WalSet::open(&crate::DurabilityConfig::new(mode, &dir), 1).expect("open wal");
            let r = ro_batches_form(SiHtm::with_defaults(1 << 16), Some(wal));
            assert_eq!(r.wal.wal_appends, 20, "every put logged at {}", mode.name());
            assert_eq!(r.ro_batch_aborts, 0, "SI-HTM RO fast path aborted at {}", mode.name());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn overload_sheds_with_typed_error_and_bounded_queue() {
        let backend = SiHtm::with_defaults(1 << 16);
        let store = KvStore::create(tm_api::TmBackend::memory(&backend), 0, 1 << 16);
        // Zero-throughput trick: executors=1 with a huge idle wait would
        // still serve; instead choke capacity so floods must shed.
        let cfg = PipelineConfig {
            executors: 1,
            ro_queue_cap: 8,
            rw_queue_cap: 8,
            ..PipelineConfig::quick()
        };
        let p = Pipeline::start(backend, store, cfg);
        let client = p.client();
        let mut overloaded = 0u64;
        let mut accepted = Vec::new();
        for i in 0..5_000u64 {
            match client.submit(KvOp::Put { key: i, val: i }) {
                Ok(pr) => accepted.push(pr),
                Err(KvError::Overloaded { class, shard }) => {
                    assert_eq!(class, OpClass::Put);
                    assert_eq!(shard, Some(0), "single-shard refusal names its shard");
                    overloaded += 1;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
            let (ro, rw) = client.queue_depths();
            assert!(ro <= 8 && rw <= 8, "queue depth exceeded its bound");
        }
        assert!(overloaded > 0, "flood against a tiny queue must shed");
        for pr in accepted {
            assert!(!matches!(pr.wait(), KvReply::Shed));
        }
        let report = p.shutdown();
        assert_eq!(report.overloaded, overloaded);
        assert_eq!(report.panicked_executors, 0);

        // Sharded: gets, puts and cross-shard transfers flood four shard
        // queues and the cross-shard queue, 64 deep per lane; each lane's
        // total depth stays within 64 per queue.
        let shards = 4;
        let keys = 64 * shards as u64;
        let map = ShardMap::range(shards, 64);
        let domains = build_domains(
            &map,
            |_| SiHtm::with_defaults(1 << 16),
            0,
            1 << 16,
            (0..keys).map(|k| (k, k)),
        );
        let cfg = PipelineConfig {
            executors: 1,
            ro_queue_cap: 64,
            rw_queue_cap: 64,
            ..PipelineConfig::quick()
        };
        let p = Pipeline::start_sharded(domains, map, cfg);
        let client = p.client();
        let cap = 64 * shards + 64;
        let mut overloaded = 0u64;
        for i in 0..50_000u64 {
            let key = (i * 37) % keys;
            let op = match i % 10 {
                0 => KvOp::Put { key, val: i },
                1 => KvOp::MultiAdd { deltas: vec![(key, -1), ((key + 64) % keys, 1)] },
                _ => KvOp::Get { key },
            };
            match client.submit(op) {
                Ok(_) => {}
                Err(KvError::Overloaded { .. }) => overloaded += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
            let (ro, rw) = client.queue_depths();
            assert!(ro <= cap && rw <= cap, "queue depth exceeded its cap: ro={ro} rw={rw}");
        }
        assert!(overloaded > 0, "a sharded flood against 64-deep queues must shed");
        let report = p.shutdown();
        assert!(report.replies > 0, "nothing was served");
        assert_eq!(report.overloaded, overloaded);
        assert_eq!(report.panicked_executors, 0);
    }

    #[test]
    fn too_large_multi_ops_are_rejected_at_admission() {
        let p = pipeline(1);
        let client = p.client();
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i, i)).collect();
        assert_eq!(
            client.call(KvOp::MultiPut { pairs }),
            Err(KvError::TooLarge { class: OpClass::MultiPut, keys: 64, max: 16 })
        );
        let deltas: Vec<(u64, i64)> = (0..64).map(|i| (i, 1)).collect();
        assert_eq!(
            client.call(KvOp::MultiAdd { deltas }),
            Err(KvError::TooLarge { class: OpClass::MultiAdd, keys: 64, max: 16 })
        );
        let report = p.shutdown();
        assert_eq!(report.replies, 0);
    }

    #[test]
    fn shutdown_rejects_new_work_and_sheds_nothing_when_drained() {
        let p = pipeline(2);
        let client = p.client();
        client.call(KvOp::Put { key: 1, val: 1 }).unwrap();
        let report = p.shutdown();
        assert_eq!(report.shed, 0);
        assert_eq!(client.call(KvOp::Get { key: 1 }), Err(KvError::ShuttingDown));
    }

    #[test]
    fn sharded_pipeline_serves_single_and_cross_shard_ops() {
        // 2 shards of 64 keys each, range-partitioned: 100 is shard 1.
        let p = sharded_pipeline(2, 2);
        let client = p.client();
        // Single-shard point ops on both shards.
        assert_eq!(client.call(KvOp::Get { key: 5 }), Ok(KvReply::Value(Some(5))));
        assert_eq!(client.call(KvOp::Get { key: 100 }), Ok(KvReply::Value(Some(100))));
        assert_eq!(
            client.call(KvOp::Put { key: 10, val: 999 }),
            Ok(KvReply::Done { changed: false })
        );
        // Cross-shard read: positional, spanning both shards.
        assert_eq!(
            client.call(KvOp::MultiGet { keys: vec![5, 100, 10] }),
            Ok(KvReply::Values(vec![Some(5), Some(100), Some(999)]))
        );
        // Cross-shard transfer via 2PC: conserved.
        assert_eq!(
            client.call(KvOp::MultiAdd { deltas: vec![(5, -3), (100, 3)] }),
            Ok(KvReply::Done { changed: true })
        );
        assert_eq!(
            client.call(KvOp::MultiGet { keys: vec![5, 100] }),
            Ok(KvReply::Values(vec![Some(2), Some(103)]))
        );
        // Cross-shard scan: keys 0..128 present, values mutated above.
        match client.call(KvOp::ScanPrefix { prefix: 0, shift: 7, limit: 1000 }) {
            Ok(KvReply::Scan { count, .. }) => assert_eq!(count, 128),
            other => panic!("unexpected scan reply {other:?}"),
        }
        let report = p.shutdown();
        assert_eq!(report.shards, 2);
        assert_eq!(report.twopc.prepares, 1, "exactly one cross-shard update ran 2PC");
        assert_eq!(report.twopc.aborts, 0);
        assert!(report.twopc.ro_multi >= 3, "cross-shard reads coordinated");
        assert!(report.shard_served.iter().all(|&n| n > 0), "both shards served work");
        assert_eq!(report.shed, 0);
    }

    #[test]
    fn call_procedures_execute_single_shard() {
        let p = proc_pipeline(1, 2);
        let client = p.client();
        // 5 -> 9, amount 3: both keys shard 0, one update transaction.
        assert_eq!(client.call(transfer_op(5, 9, 3, None)), Ok(KvReply::CallOk(vec![2, 12])));
        // Insufficient funds: semantic abort, nothing changed.
        assert_eq!(client.call(transfer_op(5, 9, 100, None)), Ok(KvReply::CallAborted));
        assert_eq!(
            client.call(KvOp::MultiGet { keys: vec![5, 9] }),
            Ok(KvReply::Values(vec![Some(2), Some(12)]))
        );
        // Read-only call batches onto the RO lane.
        assert_eq!(
            client.call(KvOp::Call {
                proc: 2,
                args: vec![5, 9],
                footprint: vec![5, 9],
                read_only: true,
            }),
            Ok(KvReply::CallOk(vec![2, 12]))
        );
        // Unknown procedure: answered, not wedged.
        assert_eq!(
            client.call(KvOp::Call {
                proc: 99,
                args: vec![],
                footprint: vec![5],
                read_only: false
            }),
            Ok(KvReply::CallAborted)
        );
        let report = p.shutdown();
        assert_eq!(report.shed, 0);
        let tl = report.proc("transfer").expect("registered");
        assert_eq!(tl.count(), 2, "both transfer calls (ok + user abort) recorded");
        assert_eq!(report.proc("read_vals").expect("registered").count(), 1);
        assert!(report.class(OpClass::Call).count() >= 4);
    }

    #[test]
    fn call_procedures_execute_cross_shard_with_rollback() {
        // Range map, 64 keys/shard: key 5 is shard 0, key 100 is shard 1.
        let p = proc_pipeline(2, 2);
        let client = p.client();
        assert_eq!(client.call(transfer_op(5, 100, 3, None)), Ok(KvReply::CallOk(vec![2, 103])));
        // Second leg user-aborts (cap exceeded) AFTER the first leg
        // committed: the first leg must be compensated back to 2.
        assert_eq!(client.call(transfer_op(5, 100, 1, Some(10))), Ok(KvReply::CallAborted));
        assert_eq!(
            client.call(KvOp::MultiGet { keys: vec![5, 100] }),
            Ok(KvReply::Values(vec![Some(2), Some(103)]))
        );
        // Cross-shard read-only call under the xlocks.
        assert_eq!(
            client.call(KvOp::Call {
                proc: 2,
                args: vec![5, 100],
                footprint: vec![5, 100],
                read_only: true,
            }),
            Ok(KvReply::CallOk(vec![2, 103]))
        );
        let report = p.shutdown();
        assert_eq!(report.shed, 0, "user aborts are served replies, not sheds");
        assert_eq!(report.twopc.prepares, 2, "both cross-shard calls coordinated");
        assert_eq!(report.twopc.aborts, 0, "semantic rollback is not a 2PC failure");
        assert_eq!(report.proc("transfer").expect("registered").count(), 2);
    }

    #[test]
    fn cross_shard_scans_merge_ordered_and_respect_limit() {
        // 2 shards, range-partitioned at 64, values == keys.
        let p = sharded_pipeline(2, 2);
        let client = p.client();
        // The whole keyspace with a limit smaller than either shard's
        // share: the answer is the first 10 keys GLOBALLY (0..10), not
        // 10 per shard summed.
        match client.call(KvOp::ScanPrefix { prefix: 0, shift: 7, limit: 10 }) {
            Ok(KvReply::Scan { count, sum }) => {
                assert_eq!(count, 10, "global limit, not per-shard limit summed");
                assert_eq!(sum, (0..10).sum::<u64>());
            }
            other => panic!("unexpected scan reply {other:?}"),
        }
        // A range straddling the shard boundary merges both sides.
        match client.call(KvOp::ScanRange { from: 60, to: 70, limit: 100 }) {
            Ok(KvReply::Scan { count, sum }) => {
                assert_eq!(count, 10);
                assert_eq!(sum, (60..70).sum::<u64>());
            }
            other => panic!("unexpected scan reply {other:?}"),
        }
        // Straddling range cut mid-merge: first 5 keys of 60..70.
        match client.call(KvOp::ScanRange { from: 60, to: 70, limit: 5 }) {
            Ok(KvReply::Scan { count, sum }) => {
                assert_eq!(count, 5);
                assert_eq!(sum, (60..65).sum::<u64>());
            }
            other => panic!("unexpected scan reply {other:?}"),
        }
        // Single-shard range routes shard-affine and needs no xlocks.
        match client.call(KvOp::ScanRange { from: 0, to: 64, limit: 1000 }) {
            Ok(KvReply::Scan { count, .. }) => assert_eq!(count, 64),
            other => panic!("unexpected scan reply {other:?}"),
        }
        let report = p.shutdown();
        assert_eq!(report.shed, 0);
        assert!(report.twopc.ro_multi >= 3, "boundary-spanning scans coordinated");
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("txkv-pipeline-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// An update call that spins inside its transaction, holding the
    /// shard's commit lock, until `HOLD` is cleared: it pins one executor
    /// so that the other must take the next update.
    struct Hold;

    static HOLD: AtomicBool = AtomicBool::new(false);
    static HELD: AtomicBool = AtomicBool::new(false);

    impl Procedure for Hold {
        fn id(&self) -> u64 {
            3
        }
        fn name(&self) -> &'static str {
            "hold"
        }
        fn run(&self, _: &mut ProcCtx<'_>, _: &[u64]) -> Result<Vec<u64>, Abort> {
            HELD.store(true, Ordering::SeqCst);
            while HOLD.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            Ok(Vec::new())
        }
    }

    fn durable_pipeline(mode: DurabilityMode, tag: &str) -> (Pipeline<SiHtm>, std::path::PathBuf) {
        let dir = tmpdir(tag);
        let wal = WalSet::open(&crate::DurabilityConfig::new(mode, &dir), 1).expect("open wal");
        let backend = SiHtm::with_defaults(1 << 18);
        let store = KvStore::create_with(
            tm_api::TmBackend::memory(&backend),
            0,
            1 << 18,
            (0..1024u64).map(|k| (k, k)),
        );
        let procs = Arc::new(ProcRegistry::new().register(Arc::new(Hold)));
        let cfg = PipelineConfig { executors: 2, rw_queue_cap: 1024, ..PipelineConfig::quick() };
        let domains = vec![(backend, store)];
        (Pipeline::start_with(domains, ShardMap::hash(1), cfg, Some(wal), Some(procs)), dir)
    }

    /// `n` each of Put, Cas and MultiAdd on a 1-shard pipeline, with both
    /// executors made to serve: a `Hold` call pins one of them until the
    /// other has popped an update. Every update commits and writes one
    /// record (each Cas expects its key's initial value). Returns the
    /// update count; the `Hold` call is answered too.
    fn submit_updates(client: &KvClient, n: u64) -> u64 {
        HOLD.store(true, Ordering::SeqCst);
        HELD.store(false, Ordering::SeqCst);
        let hold = KvOp::Call { proc: 3, args: vec![], footprint: vec![0], read_only: false };
        let held = client.submit(hold).unwrap();
        while !HELD.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut pending = Vec::new();
        for i in 0..n {
            pending.push(client.submit(KvOp::Put { key: i, val: i + 1 }).unwrap());
            let k = 256 + i;
            pending.push(client.submit(KvOp::Cas { key: k, expect: Some(k), new: 0 }).unwrap());
            let deltas = vec![(512 + i % 64, 1), (768 + i % 64, -1)];
            pending.push(client.submit(KvOp::MultiAdd { deltas }).unwrap());
        }
        while client.queue_depths().1 >= pending.len() {
            std::thread::yield_now();
        }
        HOLD.store(false, Ordering::SeqCst);
        assert_eq!(held.wait(), KvReply::CallOk(Vec::new()));
        for pr in pending {
            let reply = pr.wait();
            assert!(matches!(reply, KvReply::Done { .. } | KvReply::CasOk), "{reply:?}");
        }
        3 * n
    }

    /// Both durable accounting tests pin an executor through `HOLD`, so
    /// they take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn sync_acks_settled_by_the_writer_count_once() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (p, dir) = durable_pipeline(DurabilityMode::Sync, "sync-accounting");
        let n = submit_updates(&p.client(), 100);
        let report = p.shutdown();
        assert_eq!(report.replies, n + 1, "each reply counted once, where it was filled");
        assert_eq!(report.shed, 0);
        assert_eq!(report.starved_executors, 0, "handing an ack to the writer is serving it");
        let classes = [OpClass::Put, OpClass::Cas, OpClass::MultiAdd];
        assert_eq!(classes.iter().map(|&c| report.class(c).e2e.count()).sum::<u64>(), n);
        assert_eq!(report.wal.wal_appends, n);
        assert_eq!(report.wal.sync_acks_early, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_shutdown_leaves_every_update_logged_and_flushed() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (p, dir) = durable_pipeline(DurabilityMode::Async, "async-accounting");
        let n = submit_updates(&p.client(), 100);
        let report = p.shutdown();
        assert_eq!(report.replies, n + 1);
        assert_eq!(report.wal.wal_appends, n);
        assert_eq!(report.wal.fsynced_records, n, "the writer's last round flushes the tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Negative control for `sync_acks_early`: a settle step handed a
    /// watermark ahead of the log fills the ack, and the fill-time check
    /// against the live watermark counts it.
    #[test]
    fn settle_counts_an_ack_that_outran_its_fsync() {
        let dir = tmpdir("early-ack");
        let wal = WalSet::open(&crate::DurabilityConfig::new(DurabilityMode::Sync, &dir), 1)
            .expect("open wal");
        let lsn = wal.append(0, Append::Write(&vec![(1, Some(1))])).expect("append");
        let group = GroupCommit::new(1);
        let slot = Arc::new(ReplySlot::new());
        let req = Request {
            op: KvOp::Put { key: 1, val: 1 },
            slot: slot.clone(),
            enqueued: Instant::now(),
        };
        let reply = KvReply::Done { changed: true };
        group.list(0).push(PendingAck { req, reply, service: Duration::ZERO, lsn });
        let mut out = ExecOut::new(1, None);
        group.settle(&mut out, &wal, &[wal.durable_lsn(0)], false);
        assert_eq!(slot.try_get(), None, "not durable: the ack stays withheld");
        assert_eq!(wal.stats().sync_acks_early, 0);
        group.settle(&mut out, &wal, &[lsn], false);
        assert_eq!(slot.try_get(), Some(KvReply::Done { changed: true }));
        assert_eq!(wal.stats().sync_acks_early, 1, "the early fill went uncounted");
        assert_eq!(out.served, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_routing_is_shard_affine_for_single_shard_ops() {
        let p = sharded_pipeline(4, 4);
        let client = p.client();
        for k in 0..256u64 {
            client.call(KvOp::Get { key: k % 200 }).unwrap();
        }
        let report = p.shutdown();
        assert_eq!(report.twopc.prepares, 0, "point gets never enter 2PC");
        assert_eq!(report.twopc.ro_multi, 0, "point gets never take xlocks");
        assert_eq!(report.replies, 256);
    }
}
