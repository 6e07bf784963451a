//! Checkable scenarios: a backend, a workload with per-thread bodies, the
//! watched address range, the initial memory image, and the end-of-run
//! invariants.
//!
//! Bodies are **schedule-independent**: each thread's operation sequence
//! is a pure function of `(seed, tid)`, so the only source of variation
//! between runs of the same seed is the scheduler's choice trace — which
//! is exactly what replay pins down.

use crate::sched::FaultPlan;
use htm_sgl::{HtmSgl, HtmSglConfig};
use htm_sim::HtmConfig;
use p8tm::{P8tm, P8tmConfig};
use si_htm::{SiHtm, SiHtmConfig};
use silo::Silo;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tm_api::{Abort, TmBackend, TmThread, TwoPcStats, TxKind};
use txkv::durability::{Append, CrashSite, CrashSpec, DurabilityConfig, DurabilityMode, WalSet};
use txkv::shard::{coordinate, group_adds, Leg, Participants, ShardPart, XOutcome};
use txkv::{recover, KvStore, ProcCtx, PushError, Scope, ShardMap, SubmitQueue, XLock};
use txkv_schema::{def_key, def_row, Index, Table};
use txmem::hooks::{self, Event};
use txmem::{round_up_to_line, Addr, LineAlloc, TxMemory, WORDS_PER_LINE};
use workloads::bank::Bank;
use workloads::btree::{NodeScratch, TxBTree};

/// Which TM backend to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Plain best-effort HTM + single global lock (`htm-sgl`).
    Htm,
    /// SI-HTM (the paper's system).
    SiHtm,
    /// P8TM comparator (serializable, instrumented reads).
    P8tm,
    /// Silo-style software OCC.
    Silo,
}

impl BackendKind {
    pub const ALL: [BackendKind; 4] =
        [BackendKind::Htm, BackendKind::SiHtm, BackendKind::P8tm, BackendKind::Silo];

    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Htm => "htm",
            BackendKind::SiHtm => "si-htm",
            BackendKind::P8tm => "p8tm",
            BackendKind::Silo => "silo",
        }
    }

    /// The consistency model the oracle holds this backend to.
    pub fn is_si(self) -> bool {
        matches!(self, BackendKind::SiHtm)
    }
}

/// Which workload the threads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Disjoint counters + read-only sums; invariant: no lost updates.
    Counter,
    /// Bank transfers + full-sweep audits; invariant: conservation, and
    /// every committed audit observes the conserved total.
    Bank,
    /// Concurrent B+-tree; invariant: structural well-formedness.
    Btree,
    /// txkv submission-queue handoff: client threads push transfer /
    /// audit requests through a bounded [`txkv::SubmitQueue`]; an
    /// executor thread serves updates one-by-one and read-only audits as
    /// snapshot batches. Invariants: every accepted request is served,
    /// balances conserved, and every committed audit batch observed the
    /// conserved total.
    Txkv,
    /// Cross-shard 2PC: TWO independent backend instances (one per
    /// shard, globally disjoint address ranges); threads mix shard-local
    /// transfers, cross-shard transfers run as two-phase commit over
    /// per-shard transactions (the txkv sharding protocol), and global
    /// audits under both coordination locks. Invariants: no audit
    /// observes a half-applied cross-shard transfer, and the global
    /// balance is conserved.
    XShard,
    /// Durability: the xshard shape plus a real per-shard WAL
    /// ([`txkv::WalSet`]) driven through the full commit-ordered logging
    /// protocol — local updates append post-images under the commit
    /// lock, cross-shard transfers write the 2PC record sequence
    /// (XBegin / XApply / XDecide / XAbort), and a seed-scripted
    /// [`txkv::CrashSpec`] cuts the power mid-run at a
    /// schedule-dependent point. Invariants: after recovery from the
    /// surviving logs, balances are conserved (no torn cross-shard
    /// state) and every sync-acked write is present.
    Recovery,
    /// Typed table + secondary index (`txkv-schema`): threads move rows
    /// between groups, maintaining the multi-valued `by_group` index in
    /// the **same** transaction as the base-column write; read-only
    /// transactions check base ↔ index agreement inside one snapshot.
    /// Invariants: no committed reader sees them disagree, every
    /// committed row is reachable through the index, no index entry
    /// dangles, and no group move is lost.
    TypedIndex,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Counter,
        WorkloadKind::Bank,
        WorkloadKind::Btree,
        WorkloadKind::Txkv,
        WorkloadKind::XShard,
        WorkloadKind::Recovery,
        WorkloadKind::TypedIndex,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Counter => "counter",
            WorkloadKind::Bank => "bank",
            WorkloadKind::Btree => "btree",
            WorkloadKind::Txkv => "txkv",
            WorkloadKind::XShard => "xshard",
            WorkloadKind::Recovery => "recovery",
            WorkloadKind::TypedIndex => "typed-index",
        }
    }
}

/// Full configuration of one check run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    pub backend: BackendKind,
    pub workload: WorkloadKind,
    pub threads: usize,
    pub txns_per_thread: usize,
    /// Yield-point budget before the run degrades to free-running
    /// (inconclusive) execution.
    pub max_steps: u64,
    pub faults: FaultPlan,
    /// Seeded bug: disable SI-HTM's pre-commit quiescence ("the safety
    /// wait"), which tm-check must expose as an SI violation.
    pub break_si: bool,
    /// Seeded bug, for the xshard and recovery workloads: the 2PC
    /// coordinator is handed only the first of a transfer's two legs —
    /// the second never runs and nothing rolls back. tm-check must catch
    /// the half-applied transfer (torn audit or broken conservation).
    pub break_2pc: bool,
    /// Seeded bug: the typed-index workload skips secondary-index
    /// maintenance when moving a row between groups (base write only).
    /// tm-check must catch the unreachable row / dangling entry.
    pub break_index: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            backend: BackendKind::SiHtm,
            workload: WorkloadKind::Bank,
            threads: 3,
            txns_per_thread: 8,
            max_steps: 500_000,
            faults: FaultPlan::default(),
            break_si: false,
            break_2pc: false,
            break_index: false,
        }
    }
}

/// Type-erased backend handle.
#[derive(Clone)]
pub enum AnyBackend {
    Htm(HtmSgl),
    Si(SiHtm),
    P8(P8tm),
    Silo(Silo),
}

impl AnyBackend {
    pub fn memory(&self) -> &TxMemory {
        match self {
            AnyBackend::Htm(b) => b.memory(),
            AnyBackend::Si(b) => b.memory(),
            AnyBackend::P8(b) => b.memory(),
            AnyBackend::Silo(b) => b.memory(),
        }
    }

    fn register(&self) -> Box<dyn TmThread + Send> {
        match self {
            AnyBackend::Htm(b) => Box::new(b.register_thread()),
            AnyBackend::Si(b) => Box::new(b.register_thread()),
            AnyBackend::P8(b) => Box::new(b.register_thread()),
            AnyBackend::Silo(b) => Box::new(b.register_thread()),
        }
    }
}

/// A ready-to-run scenario.
pub struct Scenario {
    pub backend: AnyBackend,
    pub watched: Range<Addr>,
    /// Non-zero initial values of the watched range.
    pub init: HashMap<Addr, u64>,
    pub bodies: Vec<Box<dyn FnOnce() + Send>>,
    /// End-of-run workload invariants; `Some(message)` on violation.
    pub check_invariants: Box<dyn FnOnce() -> Option<String>>,
}

/// Deterministic per-thread operation generator (split-mix style).
struct OpRng(u64);

impl OpRng {
    fn new(seed: u64, tid: usize) -> Self {
        OpRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tid as u64) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn make_backend(cfg: &CheckConfig, mem_words: usize) -> AnyBackend {
    // A small SMT-2 topology keeps the schedule space dense while still
    // exercising TMCAM sharing between SMT siblings.
    let htm_config =
        HtmConfig { cores: 2, smt: cfg.threads.div_ceil(2).max(1), ..HtmConfig::default() };
    match cfg.backend {
        BackendKind::Htm => {
            AnyBackend::Htm(HtmSgl::new(htm_config, mem_words, HtmSglConfig::default()))
        }
        BackendKind::SiHtm => {
            let si = SiHtmConfig { quiescence: !cfg.break_si, ..SiHtmConfig::default() };
            AnyBackend::Si(SiHtm::new(htm_config, mem_words, si))
        }
        BackendKind::P8tm => {
            AnyBackend::P8(P8tm::new(htm_config, mem_words, P8tmConfig::default()))
        }
        BackendKind::Silo => AnyBackend::Silo(Silo::new(mem_words)),
    }
}

fn snapshot_init(memory: &TxMemory, watched: &Range<Addr>) -> HashMap<Addr, u64> {
    let mut init = HashMap::new();
    for addr in watched.clone() {
        let v = memory.load(addr);
        if v != 0 {
            init.insert(addr, v);
        }
    }
    init
}

/// Build the scenario for `cfg` and `seed`.
pub fn build(cfg: &CheckConfig, seed: u64) -> Scenario {
    match cfg.workload {
        WorkloadKind::Counter => build_counter(cfg, seed),
        WorkloadKind::Bank => build_bank(cfg, seed),
        WorkloadKind::Btree => build_btree(cfg, seed),
        WorkloadKind::Txkv => build_txkv(cfg, seed),
        WorkloadKind::XShard => build_xshard(cfg, seed),
        WorkloadKind::Recovery => build_recovery(cfg, seed),
        WorkloadKind::TypedIndex => build_typed_index(cfg, seed),
    }
}

const COUNTERS: u64 = 4;

fn build_counter(cfg: &CheckConfig, seed: u64) -> Scenario {
    let mem_words = (COUNTERS as usize) * WORDS_PER_LINE;
    let backend = make_backend(cfg, mem_words);
    let watched = 0..round_up_to_line(mem_words as u64);
    let init = HashMap::new();
    let increments = Arc::new(AtomicU64::new(0));
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for tid in 0..cfg.threads {
        let mut thread = backend.register();
        let mut rng = OpRng::new(seed, tid);
        let txns = cfg.txns_per_thread;
        let increments = Arc::clone(&increments);
        bodies.push(Box::new(move || {
            for _ in 0..txns {
                if rng.below(5) < 4 {
                    let c = rng.below(COUNTERS);
                    let addr = c * WORDS_PER_LINE as u64;
                    let out = thread.exec(TxKind::Update, &mut |tx| {
                        let v = tx.read(addr)?;
                        tx.write(addr, v + 1)
                    });
                    if out == tm_api::Outcome::Committed {
                        increments.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    thread.exec(TxKind::ReadOnly, &mut |tx| {
                        let mut sum = 0;
                        for c in 0..COUNTERS {
                            sum += tx.read(c * WORDS_PER_LINE as u64)?;
                        }
                        std::hint::black_box(sum);
                        Ok(())
                    });
                }
            }
        }));
    }
    let b2 = backend.clone();
    Scenario {
        backend,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            let done = increments.load(Ordering::Relaxed);
            let sum: u64 = (0..COUNTERS).map(|c| b2.memory().load(c * WORDS_PER_LINE as u64)).sum();
            (sum != done).then(|| {
                format!("lost updates: {done} committed increments but counters sum to {sum}")
            })
        }),
    }
}

const ACCOUNTS: u64 = 4;
const INITIAL_BALANCE: u64 = 1000;

fn build_bank(cfg: &CheckConfig, seed: u64) -> Scenario {
    let mem_words = Bank::memory_words(ACCOUNTS);
    let backend = make_backend(cfg, mem_words);
    let bank = Bank::build(backend.memory(), 0, ACCOUNTS, INITIAL_BALANCE);
    let watched = 0..round_up_to_line(mem_words as u64);
    let init = snapshot_init(backend.memory(), &watched);
    let expected_total = ACCOUNTS * INITIAL_BALANCE;
    let broken_audits = Arc::new(AtomicU64::new(0));
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for tid in 0..cfg.threads {
        let mut thread = backend.register();
        let mut rng = OpRng::new(seed, tid);
        let txns = cfg.txns_per_thread;
        let broken = Arc::clone(&broken_audits);
        bodies.push(Box::new(move || {
            for _ in 0..txns {
                if rng.below(5) < 3 {
                    let from = rng.below(ACCOUNTS);
                    let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = 1 + rng.below(10);
                    thread.exec(TxKind::Update, &mut |tx| {
                        bank.transfer(tx, from, to, amount)?;
                        Ok(())
                    });
                } else {
                    let mut sum = 0;
                    let out = thread.exec(TxKind::ReadOnly, &mut |tx| {
                        sum = bank.audit(tx)?;
                        Ok(())
                    });
                    if out == tm_api::Outcome::Committed && sum != expected_total {
                        broken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    let b2 = backend.clone();
    Scenario {
        backend,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            let broken = broken_audits.load(Ordering::Relaxed);
            if broken > 0 {
                return Some(format!(
                    "{broken} committed audit(s) observed a torn total (expected {expected_total})"
                ));
            }
            let total = bank.total(b2.memory());
            (total != expected_total)
                .then(|| format!("balance not conserved: {total} != {expected_total}"))
        }),
    }
}

fn build_btree(cfg: &CheckConfig, seed: u64) -> Scenario {
    const INITIAL_KEYS: u64 = 24;
    const KEY_SPACE: u64 = 64;
    let total_txns = (cfg.threads * cfg.txns_per_thread) as u64;
    let mem_words = workloads::btree::memory_words(INITIAL_KEYS + total_txns + 64);
    let backend = make_backend(cfg, mem_words);
    let alloc = Arc::new(LineAlloc::new(0, round_up_to_line(mem_words as u64)));
    let tree = TxBTree::build(
        backend.memory(),
        &alloc,
        (0..INITIAL_KEYS).map(|k| k * KEY_SPACE / INITIAL_KEYS),
    );
    let watched = 0..round_up_to_line(mem_words as u64);
    let init = snapshot_init(backend.memory(), &watched);
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for tid in 0..cfg.threads {
        let mut thread = backend.register();
        let mut rng = OpRng::new(seed, tid);
        let txns = cfg.txns_per_thread;
        let alloc = Arc::clone(&alloc);
        bodies.push(Box::new(move || {
            let mut scratch = NodeScratch::new(&alloc);
            for _ in 0..txns {
                let dice = rng.below(10);
                let key = rng.below(KEY_SPACE);
                if dice < 4 {
                    thread.exec(TxKind::ReadOnly, &mut |tx| {
                        std::hint::black_box(tree.lookup(tx, key)?);
                        Ok(())
                    });
                } else if dice < 7 {
                    let out = thread.exec(TxKind::Update, &mut |tx| {
                        scratch.reset();
                        tree.insert(tx, key, key + 1, &mut scratch)?;
                        Ok(())
                    });
                    if out == tm_api::Outcome::Committed {
                        scratch.refill(&alloc);
                    }
                } else if dice < 9 {
                    thread.exec(TxKind::Update, &mut |tx| {
                        tree.remove(tx, key)?;
                        Ok(())
                    });
                } else {
                    thread.exec(TxKind::ReadOnly, &mut |tx| {
                        std::hint::black_box(tree.range(tx, key, 8)?);
                        Ok(())
                    });
                }
            }
        }));
    }
    let b2 = backend.clone();
    Scenario {
        backend,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            // `audit` panics on any structural malformation.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                std::hint::black_box(tree.audit(b2.memory()));
            }))
            .err()
            .map(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "malformed".to_string());
                format!("btree audit failed: {msg}")
            })
        }),
    }
}

/// A request travelling through the txkv scenario's submission queue.
enum KvReq {
    /// Read-write multi-key transaction: move `amount` between accounts.
    Transfer { from: u64, to: u64, amount: u64 },
    /// Read-only full-sweep balance audit (served batched).
    Audit,
}

const KV_ACCOUNTS: u64 = 4;
const KV_INITIAL: u64 = 100;
/// At most this many audits are folded into one read-only transaction.
const KV_RO_BATCH: usize = 3;

/// The executor's serve loop: drain the queue until it is closed *and*
/// empty, serving updates one-by-one and read-only audits as a batch
/// inside **one** read-only transaction (the pipeline's batching rule).
/// Spins only through `Event::Poll` yield points, never a condvar — the
/// baton scheduler owns all blocking.
fn kv_serve_loop(
    queue: &SubmitQueue<KvReq>,
    store: &KvStore,
    thread: &mut (dyn TmThread + Send),
    served: &AtomicU64,
    broken_audits: &AtomicU64,
    expected_total: u64,
) {
    let mut scratch = store.new_batch_scratch(2);
    let mut batch: Vec<KvReq> = Vec::new();
    let mut sums: Vec<u64> = Vec::new();
    loop {
        if let Some(req) = queue.try_pop_update() {
            if let KvReq::Transfer { from, to, amount } = req {
                store.multi_add(
                    thread,
                    &mut scratch,
                    &[(from, -(amount as i64)), (to, amount as i64)],
                );
            }
            served.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        batch.clear();
        let n = queue.try_pop_ro_batch(KV_RO_BATCH, &mut batch);
        if n > 0 {
            let out = thread.exec(TxKind::ReadOnly, &mut |tx| {
                sums.clear();
                for _ in 0..n {
                    let mut sum = 0u64;
                    for k in 0..KV_ACCOUNTS {
                        sum = sum.wrapping_add(store.get_in(tx, k)?.unwrap_or(0));
                    }
                    sums.push(sum);
                }
                Ok(())
            });
            if out == tm_api::Outcome::Committed {
                for &s in &sums {
                    if s != expected_total {
                        broken_audits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            served.fetch_add(n as u64, Ordering::Relaxed);
            continue;
        }
        if queue.is_done() {
            break;
        }
        hooks::emit(Event::Poll);
    }
}

/// txkv handoff scenario: thread 0 is an executor serving a bounded
/// [`SubmitQueue`]; the other threads are clients pushing transfer
/// (read-write) and audit (read-only) requests, retrying through `Poll`
/// yield points on backpressure. A single-thread run degenerates to
/// enqueue-whole-script-then-serve (caps sized to fit). Invariants:
/// every accepted request is served, balances are conserved, and every
/// committed audit batch observed the conserved total.
fn build_txkv(cfg: &CheckConfig, seed: u64) -> Scenario {
    let mem_words = workloads::btree::memory_words(64);
    let backend = make_backend(cfg, mem_words);
    let store = KvStore::create_with(
        backend.memory(),
        0,
        round_up_to_line(mem_words as u64),
        (0..KV_ACCOUNTS).map(|k| (k, KV_INITIAL)),
    );
    let watched = 0..round_up_to_line(mem_words as u64);
    let init = snapshot_init(backend.memory(), &watched);
    let expected_total = KV_ACCOUNTS * KV_INITIAL;

    let single = cfg.threads == 1;
    let clients = if single { 1 } else { cfg.threads - 1 };
    // Tiny caps exercise Full-backpressure under schedule exploration;
    // the single-thread run instead needs room for its whole script.
    let cap = if single { cfg.txns_per_thread.max(1) } else { 4 };
    let queue = Arc::new(SubmitQueue::new(cap, cap));
    let submitted = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let broken_audits = Arc::new(AtomicU64::new(0));
    let clients_left = Arc::new(AtomicU64::new(clients as u64));

    // Client scripts are a pure function of (seed, tid): 60 % transfers,
    // 40 % audits.
    let make_ops = |tid: usize| -> Vec<KvReq> {
        let mut rng = OpRng::new(seed, tid);
        (0..cfg.txns_per_thread)
            .map(|_| {
                if rng.below(5) < 3 {
                    let from = rng.below(KV_ACCOUNTS);
                    let to = (from + 1 + rng.below(KV_ACCOUNTS - 1)) % KV_ACCOUNTS;
                    KvReq::Transfer { from, to, amount: 1 + rng.below(10) }
                } else {
                    KvReq::Audit
                }
            })
            .collect()
    };

    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        // Thread 0: the executor (in the single-thread case it enqueues
        // its whole script first, then serves it).
        let mut thread = backend.register();
        let queue = Arc::clone(&queue);
        let submitted = Arc::clone(&submitted);
        let served = Arc::clone(&served);
        let broken = Arc::clone(&broken_audits);
        let store = store.clone();
        let ops = single.then(|| make_ops(0));
        bodies.push(Box::new(move || {
            if let Some(ops) = ops {
                for op in ops {
                    let ro = matches!(op, KvReq::Audit);
                    queue.try_push(ro, op).unwrap_or_else(|_| {
                        panic!("single-thread caps sized to hold the whole script")
                    });
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
                queue.close();
            }
            kv_serve_loop(&queue, &store, &mut *thread, &served, &broken, expected_total);
        }));
    }
    for tid in 1..cfg.threads {
        let ops = make_ops(tid);
        let queue = Arc::clone(&queue);
        let submitted = Arc::clone(&submitted);
        let clients_left = Arc::clone(&clients_left);
        bodies.push(Box::new(move || {
            for op in ops {
                let ro = matches!(op, KvReq::Audit);
                let mut item = op;
                loop {
                    match queue.try_push(ro, item) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            // Backpressure: yield so the executor drains.
                            item = back;
                            hooks::emit(Event::Poll);
                        }
                        Err(PushError::Closed(_)) => {
                            unreachable!("the last client closes the queue after its script")
                        }
                    }
                }
                submitted.fetch_add(1, Ordering::Relaxed);
                // One yield point per accepted request enriches the
                // explored interleavings of the handoff itself.
                hooks::emit(Event::Poll);
            }
            if clients_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                queue.close();
            }
        }));
    }

    let b2 = backend.clone();
    Scenario {
        backend,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            let broken = broken_audits.load(Ordering::Relaxed);
            if broken > 0 {
                return Some(format!(
                    "{broken} committed audit(s) observed a torn total (expected {expected_total})"
                ));
            }
            let sub = submitted.load(Ordering::Relaxed);
            let srv = served.load(Ordering::Relaxed);
            if sub != srv {
                return Some(format!("handoff dropped requests: {sub} accepted, {srv} served"));
            }
            let mut total = 0u64;
            for k in 0..KV_ACCOUNTS {
                total = total.wrapping_add(store.load_raw(b2.memory(), k).unwrap_or(0));
            }
            (total != expected_total)
                .then(|| format!("balances not conserved: {total} != {expected_total}"))
        }),
    }
}

/// Accounts per shard in the xshard scenario (shard 0 owns keys
/// `[0, XKV_PER_SHARD)`, shard 1 owns `[XKV_PER_SHARD, 2*XKV_PER_SHARD)`).
const XKV_PER_SHARD: u64 = 4;

/// One thread's view of the two shards of the xshard and recovery
/// scenarios: what [`coordinate`] reaches its participants through.
struct Shards<'a> {
    map: &'a ShardMap,
    backends: &'a [AnyBackend; 2],
    stores: &'a [KvStore; 2],
    threads: &'a mut [Box<dyn TmThread + Send>; 2],
    scratches: &'a mut [NodeScratch; 2],
    xlocks: &'a [XLock; 2],
}

impl<'a> Participants<'a> for Shards<'a> {
    fn part(&mut self, s: usize) -> ShardPart<'_> {
        ShardPart {
            store: &self.stores[s],
            thread: &mut *self.threads[s],
            scratch: &mut self.scratches[s],
        }
    }

    fn reset(&mut self, s: usize) {
        self.threads[s] = self.backends[s].register();
        self.scratches[s] = self.stores[s].new_batch_scratch(2);
    }

    fn xlock(&self, s: usize) -> &'a XLock {
        &self.xlocks[s]
    }
}

/// Move `amount` from `from` (one shard) to `to` (the other) through the
/// service's 2PC coordinator. With `break_2pc` — the seeded bug — the
/// coordinator is handed leg 0 only: the other shard never applies and
/// nothing rolls back.
fn xtransfer(
    shards: &mut Shards<'_>,
    from: u64,
    to: u64,
    amount: u64,
    wal: Option<&WalSet>,
    break_2pc: bool,
) {
    let deltas = [(from, -(amount as i64)), (to, amount as i64)];
    let legs: Vec<Leg<'_>> =
        group_adds(shards.map, &[0, 1], &deltas).into_iter().map(Leg::Update).collect();
    let n = if break_2pc { 1 } else { 2 };
    let out = coordinate(shards, &[0, 1][..n], &legs[..n], wal, &mut TwoPcStats::default());
    // These scenarios inject no panics, so only a dead log may fail a
    // transfer: the rollback must not hide a leg that unwound on a bug.
    assert!(
        !matches!(out, XOutcome::Failed { .. }) || wal.is_some_and(|w| !w.alive()),
        "cross-shard transfer failed with its log alive: {out:?}"
    );
}

/// Cross-shard 2PC scenario: two *independent* backend instances, one per
/// shard, each with its own memory, conflict directory, and quiescence
/// domain — the scale-out shape `txkv::Pipeline::start_sharded` deploys.
///
/// Both memories are sized `2*span` words but shard `s`'s store arena
/// occupies only `[s*span, (s+1)*span)`, so every *data* address is
/// globally unique: the two backends' events interleave into one
/// well-formed history and the SI / serializability oracles never see
/// shard 0's writes aliasing shard 1's. Equal sizing matters for the
/// synthetic addresses too — a backend's lock-subscription reads target
/// `memory_size` (one past the end), so with equal sizes every synthetic
/// address lands at `>= 2*span`, outside the watched range, exactly as
/// in the single-backend scenarios. Each per-shard transaction of a
/// cross-shard 2PC is an
/// individually valid transaction on its own backend, so the oracles
/// hold without modification; *cross-shard atomicity* is checked by the
/// workload invariants (locked global audits + end-of-run conservation),
/// which is exactly the property the 2PC protocol — not any backend —
/// must provide.
///
/// Cross-shard transfers run through [`coordinate`], the pipeline's own
/// coordinator, so the checker explores the protocol that serves
/// traffic. With `cfg.break_2pc` the coordinator gets leg 0 only (no
/// second leg, no rollback), and the checker must flag the half-applied
/// transfer.
fn build_xshard(cfg: &CheckConfig, seed: u64) -> Scenario {
    let span = round_up_to_line(workloads::btree::memory_words(64) as u64);
    let shard0 = make_backend(cfg, 2 * span as usize);
    let shard1 = make_backend(cfg, 2 * span as usize);
    let map = ShardMap::range(2, XKV_PER_SHARD);
    let store0 =
        KvStore::create_with(shard0.memory(), 0, span, (0..XKV_PER_SHARD).map(|k| (k, KV_INITIAL)));
    let store1 = KvStore::create_with(
        shard1.memory(),
        span,
        span,
        (XKV_PER_SHARD..2 * XKV_PER_SHARD).map(|k| (k, KV_INITIAL)),
    );
    let watched = 0..2 * span;
    let mut init = snapshot_init(shard0.memory(), &(0..span));
    init.extend(snapshot_init(shard1.memory(), &(span..2 * span)));
    let expected_total = 2 * XKV_PER_SHARD * KV_INITIAL;
    let xlocks = Arc::new([XLock::new(), XLock::new()]);
    let broken_audits = Arc::new(AtomicU64::new(0));
    let break_2pc = cfg.break_2pc;

    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for tid in 0..cfg.threads {
        let mut threads = [shard0.register(), shard1.register()];
        let backends = [shard0.clone(), shard1.clone()];
        let stores = [store0.clone(), store1.clone()];
        let xlocks = Arc::clone(&xlocks);
        let broken = Arc::clone(&broken_audits);
        let mut rng = OpRng::new(seed, tid);
        let txns = cfg.txns_per_thread;
        bodies.push(Box::new(move || {
            let mut scratches = [stores[0].new_batch_scratch(2), stores[1].new_batch_scratch(2)];
            for _ in 0..txns {
                let dice = rng.below(10);
                if dice < 4 {
                    // Shard-local conserving transfer: backend-native
                    // execution, no coordination lock — the common case
                    // sharding keeps cheap.
                    let s = rng.below(2) as usize;
                    let base = s as u64 * XKV_PER_SHARD;
                    let from = base + rng.below(XKV_PER_SHARD);
                    let to =
                        base + (from - base + 1 + rng.below(XKV_PER_SHARD - 1)) % XKV_PER_SHARD;
                    let amount = 1 + rng.below(10);
                    stores[s].multi_add(
                        &mut *threads[s],
                        &mut scratches[s],
                        &[(from, -(amount as i64)), (to, amount as i64)],
                    );
                } else if dice < 7 {
                    // Cross-shard transfer: 2PC over one per-shard
                    // transaction each, under both XLocks (ascending
                    // order, deadlock-free).
                    let debit = rng.below(2) as usize;
                    let from = debit as u64 * XKV_PER_SHARD + rng.below(XKV_PER_SHARD);
                    let to = (1 - debit) as u64 * XKV_PER_SHARD + rng.below(XKV_PER_SHARD);
                    let amount = 1 + rng.below(10);
                    let mut shards = Shards {
                        map: &map,
                        backends: &backends,
                        stores: &stores,
                        threads: &mut threads,
                        scratches: &mut scratches,
                        xlocks: &xlocks,
                    };
                    xtransfer(&mut shards, from, to, amount, None, break_2pc);
                } else {
                    // Global audit under both locks (no half-applied
                    // cross-shard transfer can be visible): one read-only
                    // transaction per shard; concurrent *local* transfers
                    // between the two snapshots are admissible because
                    // they conserve their shard's sum.
                    let _g0 = xlocks[0].lock();
                    let _g1 = xlocks[1].lock();
                    let mut total = 0u64;
                    let mut all_committed = true;
                    for s in 0..2usize {
                        let store = &stores[s];
                        let mut sum = 0u64;
                        let out = threads[s].exec(TxKind::ReadOnly, &mut |tx| {
                            sum = 0;
                            let base = s as u64 * XKV_PER_SHARD;
                            for k in base..base + XKV_PER_SHARD {
                                sum = sum.wrapping_add(store.get_in(tx, k)?.unwrap_or(0));
                            }
                            Ok(())
                        });
                        all_committed &= out == tm_api::Outcome::Committed;
                        total = total.wrapping_add(sum);
                    }
                    if all_committed && total != expected_total {
                        broken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    let (s0, s1) = (store0.clone(), store1.clone());
    let (m0, m1) = (shard0.clone(), shard1.clone());
    Scenario {
        backend: shard0,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            let broken = broken_audits.load(Ordering::Relaxed);
            if broken > 0 {
                return Some(format!(
                    "{broken} locked audit(s) observed a torn cross-shard total \
                     (expected {expected_total}): a cross-shard transfer was half-applied"
                ));
            }
            let mut total = 0u64;
            for k in 0..XKV_PER_SHARD {
                total = total.wrapping_add(s0.load_raw(m0.memory(), k).unwrap_or(0));
            }
            for k in XKV_PER_SHARD..2 * XKV_PER_SHARD {
                total = total.wrapping_add(s1.load_raw(m1.memory(), k).unwrap_or(0));
            }
            (total != expected_total)
                .then(|| format!("cross-shard balance not conserved: {total} != {expected_total}"))
        }),
    }
}

/// Recovery-workload shard geometry: each shard owns `RKV_ACCOUNTS`
/// conserved bank accounts plus one monotone put-counter key per
/// (possible) thread, so sync-acked-write survival is checkable per key.
const RKV_ACCOUNTS: u64 = 4;
const RKV_COUNTERS: u64 = 8; // one per thread at the CLI's 16-thread cap
const RKV_PER_SHARD: u64 = RKV_ACCOUNTS + RKV_COUNTERS;

/// Durability scenario: the xshard two-backend shape with a live
/// [`WalSet`] wired through the full commit-ordered logging protocol —
/// the record sequences `txkv::Pipeline` writes, cross-shard ones from
/// the same [`coordinate`] — driven under the cooperative scheduler so
/// the crash lands at a *schedule-dependent* point inside the protocol
/// seams.
///
/// Each thread mixes:
/// * shard-local conserving transfers logged as post-image `Write`
///   records under the shard commit lock (append strictly after the
///   backend transaction committed — the DUMBO discipline);
/// * monotone counter puts, sync-acked only once the flush reports the
///   record durable (the acked value is what recovery must preserve);
/// * cross-shard 2PC transfers through [`coordinate`], writing the
///   per-leg `XBegin` + `XApply` / decide record protocol, with an
///   in-memory rollback + `XAbort` when the power cut lands
///   mid-transaction;
/// * locked global audits (read-only; never touch the WAL).
///
/// The seed scripts a [`CrashSpec`] — site and countdown both derived
/// from the seed — so across seeds every [`CrashSite`] is exercised, and
/// schedule exploration varies *where in the interleaving* the power
/// dies. End-of-run invariants recover from the surviving logs into
/// fresh backends and require: no torn audit, live + recovered
/// conservation, and every sync-acked write present (exactly equal when
/// no crash tripped). `cfg.break_2pc` seeds the xshard bug here too.
fn build_recovery(cfg: &CheckConfig, seed: u64) -> Scenario {
    let span = round_up_to_line(workloads::btree::memory_words(64) as u64);
    let shard0 = make_backend(cfg, 2 * span as usize);
    let shard1 = make_backend(cfg, 2 * span as usize);
    let map = ShardMap::range(2, RKV_PER_SHARD);
    let store0 =
        KvStore::create_with(shard0.memory(), 0, span, (0..RKV_ACCOUNTS).map(|k| (k, KV_INITIAL)));
    let store1 = KvStore::create_with(
        shard1.memory(),
        span,
        span,
        (RKV_PER_SHARD..RKV_PER_SHARD + RKV_ACCOUNTS).map(|k| (k, KV_INITIAL)),
    );
    let watched = 0..2 * span;
    let mut init = snapshot_init(shard0.memory(), &(0..span));
    init.extend(snapshot_init(shard1.memory(), &(span..2 * span)));
    let expected_total = 2 * RKV_ACCOUNTS * KV_INITIAL;
    let xlocks = Arc::new([XLock::new(), XLock::new()]);
    let broken_audits = Arc::new(AtomicU64::new(0));
    let break_2pc = cfg.break_2pc;
    // Highest sync-acked value per counter key (what recovery owes us).
    let acked = Arc::new(Mutex::new(HashMap::<u64, u64>::new()));

    // Fresh WAL directory per scenario build: the checker re-builds the
    // scenario for every explored/replayed schedule.
    let dir = {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tm-check-recovery-{}-{n}", std::process::id()))
    };
    let total_ops = (cfg.threads * cfg.txns_per_thread) as u64;
    // Seed-scripted power cut: site and countdown both vary with the
    // seed, so a sweep covers every crash site (and some seeds never
    // trip it at all — the graceful case).
    let crash = CrashSpec {
        site: CrashSite::ALL[(seed % CrashSite::ALL.len() as u64) as usize],
        after: (seed / CrashSite::ALL.len() as u64) % (total_ops / 2).max(1),
    };
    let dcfg = DurabilityConfig {
        group_commit_max: 1,
        crash: Some(crash),
        ..DurabilityConfig::new(DurabilityMode::Sync, dir.clone())
    };
    let wal = WalSet::open(&dcfg, 2).expect("recovery scenario WAL open");
    // Make the seeded balances durable up front (as a base checkpoint,
    // the shape a restarted service inherits): a crash before the first
    // append must still recover the initial state.
    for s in 0..2u64 {
        let entries: Vec<(u64, u64)> =
            (0..RKV_ACCOUNTS).map(|k| (s * RKV_PER_SHARD + k, KV_INITIAL)).collect();
        wal.install_checkpoint(s as usize, &entries).expect("seed checkpoint");
    }

    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for tid in 0..cfg.threads {
        let mut threads = [shard0.register(), shard1.register()];
        let backends = [shard0.clone(), shard1.clone()];
        let stores = [store0.clone(), store1.clone()];
        let xlocks = Arc::clone(&xlocks);
        let broken = Arc::clone(&broken_audits);
        let acked = Arc::clone(&acked);
        let wal = Arc::clone(&wal);
        let mut rng = OpRng::new(seed, tid);
        let txns = cfg.txns_per_thread;
        bodies.push(Box::new(move || {
            let mut scratches = [stores[0].new_batch_scratch(2), stores[1].new_batch_scratch(2)];
            let mut writes: Vec<(u64, Option<u64>)> = Vec::new();
            let mut ctr = 0u64;
            for _ in 0..txns {
                if !wal.alive() {
                    break; // simulated power cut: the machine is gone
                }
                let dice = rng.below(10);
                if dice < 3 {
                    // Shard-local conserving transfer, logged as one
                    // post-image record. Commit lock spans exec + append
                    // so per-shard log order is commit order.
                    let s = rng.below(2) as usize;
                    let base = s as u64 * RKV_PER_SHARD;
                    let from = base + rng.below(RKV_ACCOUNTS);
                    let to = base + (from - base + 1 + rng.below(RKV_ACCOUNTS - 1)) % RKV_ACCOUNTS;
                    let amount = 1 + rng.below(10);
                    let cl = wal.commit_lock(s);
                    writes.clear();
                    stores[s].multi_add_logged(
                        &mut *threads[s],
                        &mut scratches[s],
                        &[(from, -(amount as i64)), (to, amount as i64)],
                        &mut writes,
                    );
                    wal.crash_point(CrashSite::AfterCommit);
                    let lsn = wal.append(s, Append::Write(&writes));
                    drop(cl);
                    if lsn.is_ok() {
                        let _ = wal.flush(s);
                    }
                } else if dice < 5 {
                    // Monotone counter put on this thread's own key:
                    // acked (recorded as owed) only once durable.
                    let c = tid % 2;
                    let key = c as u64 * RKV_PER_SHARD + RKV_ACCOUNTS + (tid as u64 / 2);
                    ctr += 1;
                    let cl = wal.commit_lock(c);
                    stores[c].put(&mut *threads[c], &mut scratches[c], key, ctr);
                    writes.clear();
                    writes.push((key, Some(ctr)));
                    wal.crash_point(CrashSite::AfterCommit);
                    let lsn = wal.append(c, Append::Write(&writes));
                    drop(cl);
                    if let Ok(lsn) = lsn {
                        if matches!(wal.flush(c), Ok(d) if d >= lsn) {
                            acked.lock().unwrap().insert(key, ctr);
                        }
                    }
                } else if dice < 8 {
                    // Cross-shard 2PC transfer through the pipeline's own
                    // coordinator, with its full durable record protocol.
                    let debit = rng.below(2) as usize;
                    let from = debit as u64 * RKV_PER_SHARD + rng.below(RKV_ACCOUNTS);
                    let to = (1 - debit) as u64 * RKV_PER_SHARD + rng.below(RKV_ACCOUNTS);
                    let amount = 1 + rng.below(10);
                    let mut shards = Shards {
                        map: &map,
                        backends: &backends,
                        stores: &stores,
                        threads: &mut threads,
                        scratches: &mut scratches,
                        xlocks: &xlocks,
                    };
                    xtransfer(&mut shards, from, to, amount, Some(&wal), break_2pc);
                } else {
                    // Global audit under both locks: the read-only lane,
                    // which never touches the WAL (DUMBO discipline).
                    let _g0 = xlocks[0].lock();
                    let _g1 = xlocks[1].lock();
                    let mut total = 0u64;
                    let mut all_committed = true;
                    for s in 0..2usize {
                        let store = &stores[s];
                        let mut sum = 0u64;
                        let out = threads[s].exec(TxKind::ReadOnly, &mut |tx| {
                            sum = 0;
                            let base = s as u64 * RKV_PER_SHARD;
                            for k in base..base + RKV_ACCOUNTS {
                                sum = sum.wrapping_add(store.get_in(tx, k)?.unwrap_or(0));
                            }
                            Ok(())
                        });
                        all_committed &= out == tm_api::Outcome::Committed;
                        total = total.wrapping_add(sum);
                    }
                    if all_committed && total != expected_total {
                        broken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    let (s0, s1) = (store0.clone(), store1.clone());
    let (m0, m1) = (shard0.clone(), shard1.clone());
    Scenario {
        backend: shard0,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            let broken = broken_audits.load(Ordering::Relaxed);
            if broken > 0 {
                return Some(format!(
                    "{broken} locked audit(s) observed a torn cross-shard total \
                     (expected {expected_total})"
                ));
            }
            // Live memory must conserve whether or not the power cut
            // tripped: every update path compensates before giving up.
            let mut live = 0u64;
            for k in 0..RKV_ACCOUNTS {
                live = live.wrapping_add(s0.load_raw(m0.memory(), k).unwrap_or(0));
            }
            for k in RKV_PER_SHARD..RKV_PER_SHARD + RKV_ACCOUNTS {
                live = live.wrapping_add(s1.load_raw(m1.memory(), k).unwrap_or(0));
            }
            if live != expected_total {
                return Some(format!("live balances not conserved: {live} != {expected_total}"));
            }
            // Recover the durable state into fresh verification backends
            // (any backend will do: replay is pure data) and hold it to
            // the durability contract.
            let graceful = wal.alive();
            let domains = match recover(&dir, &map, |_| Silo::new(span as usize), 0, span) {
                Ok((domains, _report)) => domains,
                Err(e) => return Some(format!("recovery failed: {e}")),
            };
            let mut total = 0u64;
            for (s, (b, st)) in domains.iter().enumerate() {
                let base = s as u64 * RKV_PER_SHARD;
                for k in base..base + RKV_ACCOUNTS {
                    total = total.wrapping_add(st.load_raw(b.memory(), k).unwrap_or(0));
                }
            }
            if total != expected_total {
                return Some(format!(
                    "recovered balance not conserved: {total} != {expected_total} \
                     (crash site {:?})",
                    crash.site
                ));
            }
            for (&key, &n) in acked.lock().unwrap().iter() {
                let (b, st) = &domains[map.shard_of(key)];
                let got = st.load_raw(b.memory(), key).unwrap_or(0);
                if got < n || (graceful && got != n) {
                    return Some(format!(
                        "sync-acked write lost: key {key} recovered {got}, acked {n} \
                         (crash site {:?}, graceful: {graceful})",
                        crash.site
                    ));
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            None
        }),
    }
}

// ---- typed-index workload ---------------------------------------------

/// Rows in the typed-index workload (fixed id set, never deleted).
const TI_ROWS: u64 = 6;
/// Groups a row can belong to (the indexed column's value space).
const TI_GROUPS: u64 = 4;
/// All rows live at one place; the scenario is single-shard.
const TI_PLACE: u64 = 1;

def_key! {
    /// Typed-index workload secondary key: (group, row id) — the row id
    /// folds into the tuple tail so a group's members scan in id order.
    pub struct GroupKey { g: 10, id: 14 }
}
def_row! {
    /// Typed-index workload row: `group` is the indexed column, `moves`
    /// counts committed group changes (lost-update check), and `stamp`
    /// is [`ti_stamp`] of the two, so a row read from two versions shows.
    pub struct GroupedRow { group, moves, stamp }
}

const TI_ROWS_TABLE: Table<u64, GroupedRow> = Table::new(0, "rows");
const TI_BY_GROUP: Index<GroupKey> = Index::new(1, "rows_by_group", false);
const TI_GROUP_COL: u64 = 0;
const TI_MOVES_COL: u64 = 1;
const TI_STAMP_COL: u64 = 2;

/// The `stamp` column every committed row version carries.
fn ti_stamp(group: u64, moves: u64) -> u64 {
    moves * TI_GROUPS + group
}

/// Typed table + secondary index over one [`KvStore`], driven through
/// [`txkv_schema`]'s schema layer through a [`ProcCtx`] per attempt —
/// the service's own context, so every multi-key body shares one
/// B-tree finger as it does in the pipeline: update transactions
/// move a row to a different group — rewriting the indexed column and
/// relocating its [`TI_BY_GROUP`] entry in the **same** transaction —
/// half of them column by column (`read_col`/`write_col`/`update_col`),
/// half as whole rows (`Table::get`, then `Table::put`: the row-run
/// paths). Read-only transactions pick a group and check, inside one
/// snapshot, that the index's members and the base rows agree in both
/// directions, reading every row whole with `Table::get` and flagging a
/// torn row (a `stamp` that does not match its `group` and `moves`).
/// With `cfg.break_index` the update skips the index move (the seeded
/// bug), which the snapshot checks and the end-of-run
/// reachability/dangling-entry sweep must catch.
fn build_typed_index(cfg: &CheckConfig, seed: u64) -> Scenario {
    let total_txns = (cfg.threads * cfg.txns_per_thread) as u64;
    let mem_words = workloads::btree::memory_words(4 * TI_ROWS + 2 * total_txns + 64);
    let backend = make_backend(cfg, mem_words);
    // Seed rows + their index entries, sorted into key order for the
    // bulk build (rows interleave two table-id prefixes).
    let mut seed_pairs: Vec<(u64, u64)> = Vec::new();
    for id in 0..TI_ROWS {
        let g = id % TI_GROUPS;
        seed_pairs.push((TI_ROWS_TABLE.key(TI_PLACE, id, TI_GROUP_COL), g));
        seed_pairs.push((TI_ROWS_TABLE.key(TI_PLACE, id, TI_MOVES_COL), 0));
        seed_pairs.push((TI_ROWS_TABLE.key(TI_PLACE, id, TI_STAMP_COL), ti_stamp(g, 0)));
        seed_pairs.push((TI_BY_GROUP.key(TI_PLACE, GroupKey { g, id }), id));
    }
    seed_pairs.sort_unstable_by_key(|&(k, _)| k);
    let store = KvStore::create_with(
        backend.memory(),
        0,
        round_up_to_line(mem_words as u64),
        seed_pairs.into_iter(),
    );
    let watched = 0..round_up_to_line(mem_words as u64);
    let init = snapshot_init(backend.memory(), &watched);
    let moves = Arc::new(AtomicU64::new(0));
    let broken_reads = Arc::new(AtomicU64::new(0));
    let break_index = cfg.break_index;

    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for tid in 0..cfg.threads {
        let mut thread = backend.register();
        let store = store.clone();
        let mut rng = OpRng::new(seed, tid);
        let txns = cfg.txns_per_thread;
        let moves = Arc::clone(&moves);
        let broken = Arc::clone(&broken_reads);
        bodies.push(Box::new(move || {
            let mut scratch = store.new_batch_scratch(4);
            for _ in 0..txns {
                if rng.below(10) < 7 {
                    // Move a row to a *different* group: base column and
                    // index entry in one transaction (unless broken).
                    let id = rng.below(TI_ROWS);
                    let hop = 1 + rng.below(TI_GROUPS - 1);
                    let whole_row = rng.below(2) == 0;
                    let out = thread.exec(TxKind::Update, &mut |tx| {
                        scratch.reset();
                        let mut ctx =
                            ProcCtx::new(&store, tx, &mut scratch, Scope::single(0, 0), None, None);
                        let old;
                        let new;
                        if whole_row {
                            let row =
                                TI_ROWS_TABLE.get(&mut ctx, TI_PLACE, id)?.ok_or(Abort::User)?;
                            (old, new) = (row.group, (row.group + hop) % TI_GROUPS);
                            let moves = row.moves + 1;
                            let row = GroupedRow { group: new, moves, stamp: ti_stamp(new, moves) };
                            TI_ROWS_TABLE.put(&mut ctx, TI_PLACE, id, &row)?;
                        } else {
                            old = TI_ROWS_TABLE.read_col(&mut ctx, TI_PLACE, id, TI_GROUP_COL)?;
                            new = (old + hop) % TI_GROUPS;
                            TI_ROWS_TABLE.write_col(&mut ctx, TI_PLACE, id, TI_GROUP_COL, new)?;
                            let moves = TI_ROWS_TABLE.update_col(
                                &mut ctx,
                                TI_PLACE,
                                id,
                                TI_MOVES_COL,
                                |m| m + 1,
                            )?;
                            let stamp = ti_stamp(new, moves);
                            TI_ROWS_TABLE.write_col(&mut ctx, TI_PLACE, id, TI_STAMP_COL, stamp)?;
                        }
                        if !break_index {
                            TI_BY_GROUP.update(
                                &mut ctx,
                                TI_PLACE,
                                Some(GroupKey { g: old, id }),
                                Some((GroupKey { g: new, id }, id)),
                            )?;
                        }
                        Ok(())
                    });
                    if out == tm_api::Outcome::Committed {
                        moves.fetch_add(1, Ordering::Relaxed);
                        scratch.refill(store.alloc());
                    }
                } else {
                    // Snapshot check of one group: index → base (every
                    // member's row carries the group) and base → index
                    // (every row in the group is a member).
                    let g = rng.below(TI_GROUPS);
                    let mut torn = false;
                    let out = thread.exec(TxKind::ReadOnly, &mut |tx| {
                        torn = false;
                        let mut ctx =
                            ProcCtx::new(&store, tx, &mut scratch, Scope::single(0, 0), None, None);
                        let mut members: Vec<u64> = Vec::new();
                        TI_BY_GROUP.scan(
                            &mut ctx,
                            TI_PLACE,
                            GroupKey { g, id: 0 },
                            GroupKey { g: g + 1, id: 0 },
                            u64::MAX,
                            &mut |ik, primary| {
                                if ik.id != primary {
                                    torn = true;
                                }
                                members.push(primary);
                            },
                        )?;
                        for id in 0..TI_ROWS {
                            match TI_ROWS_TABLE.get(&mut ctx, TI_PLACE, id)? {
                                Some(row) => {
                                    torn |= row.stamp != ti_stamp(row.group, row.moves);
                                    torn |= (row.group == g) != members.contains(&id);
                                }
                                None => torn = true,
                            }
                        }
                        torn |= members.iter().any(|&id| id >= TI_ROWS);
                        Ok(())
                    });
                    if out == tm_api::Outcome::Committed && torn {
                        broken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    let b2 = backend.clone();
    Scenario {
        backend,
        watched,
        init,
        bodies,
        check_invariants: Box::new(move || {
            let broken = broken_reads.load(Ordering::Relaxed);
            if broken > 0 {
                return Some(format!(
                    "{broken} committed snapshot(s) saw a torn row or base rows and index \
                     entries disagree"
                ));
            }
            let mem = b2.memory();
            let mut recorded_moves = 0u64;
            for id in 0..TI_ROWS {
                let g = match store.load_raw(mem, TI_ROWS_TABLE.key(TI_PLACE, id, TI_GROUP_COL)) {
                    Some(g) => g,
                    None => return Some(format!("row {id} lost its presence column")),
                };
                let moves =
                    store.load_raw(mem, TI_ROWS_TABLE.key(TI_PLACE, id, TI_MOVES_COL)).unwrap_or(0);
                recorded_moves += moves;
                if store.load_raw(mem, TI_ROWS_TABLE.key(TI_PLACE, id, TI_STAMP_COL))
                    != Some(ti_stamp(g, moves))
                {
                    return Some(format!("row {id} is torn: its stamp disagrees with its columns"));
                }
                if store.load_raw(mem, TI_BY_GROUP.key(TI_PLACE, GroupKey { g, id })) != Some(id) {
                    return Some(format!(
                        "committed row {id} (group {g}) is unreachable through the index"
                    ));
                }
            }
            for g in 0..TI_GROUPS {
                for id in 0..TI_ROWS {
                    let Some(primary) =
                        store.load_raw(mem, TI_BY_GROUP.key(TI_PLACE, GroupKey { g, id }))
                    else {
                        continue;
                    };
                    let row_g =
                        store.load_raw(mem, TI_ROWS_TABLE.key(TI_PLACE, primary, TI_GROUP_COL));
                    if primary != id || row_g != Some(g) {
                        return Some(format!(
                            "dangling index entry ({g}, {id}) -> row {primary} in group {row_g:?}"
                        ));
                    }
                }
            }
            let done = moves.load(Ordering::Relaxed);
            (recorded_moves != done).then(|| {
                format!("lost group moves: {done} committed but rows record {recorded_moves}")
            })
        }),
    }
}
