//! # p8tm — P8TM-style comparator (Issa et al., DISC '17)
//!
//! P8TM ("Extending Hardware Transactional Memory Capacity via Rollback-
//! Only Transactions and Suspend/Resume") is the closest prior work to
//! SI-HTM: it also runs update transactions as ROTs and also quiesces
//! writers before `HTMEnd` — but it offers full **serializability**, which
//! it can only do by **instrumenting every shared read in software**. That
//! per-read cost is exactly what the SI-HTM paper contrasts against
//! ("costly software instrumentation of each read (in P8TM)", §5), and it
//! is what this implementation reproduces:
//!
//! * every read — in update *and* read-only transactions — logs the cache
//!   line and its current commit version;
//! * update transactions validate their read log at commit (after the
//!   quiescence wait) and bump the versions of their written lines;
//! * read-only transactions run non-transactionally but must validate
//!   their read log too, retrying on failure.
//!
//! Simplifications relative to the DISC '17 system (documented in
//! DESIGN.md): per-cache-line version counters stand in for P8TM's exact
//! read-tracking structures, and validation+version-bump is serialised by
//! a short commit-section lock. The paper's evaluation disables P8TM's
//! self-tuning, which is therefore not modelled either. The cost profile —
//! instrumented reads, quiescence waits, serializability aborts — is
//! preserved.

use htm_sim::util::{spin_wait, spin_wait_deadline, IntMap, IntSet};
use htm_sim::{AbortReason, Htm, HtmConfig, HtmThread, NonTxClass, TxMode};
use parking_lot::Mutex;
use si_htm::sgl::Sgl;
use si_htm::state::StateArray;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::{
    policy::RetryState, Abort, BackoffPolicy, ContentionManager, Outcome, RetryPolicy, ThreadStats,
    TmBackend, TmThread, Tx, TxBody, TxKind, Watchdog,
};
use txmem::hooks::{self, AbortCode, Event};
use txmem::{line_of, Addr, Line, TxMemory};

/// Anti-convoy jitter ceiling before an SGL (re-)attempt (see si-htm).
const SGL_ADMISSION_JITTER_NS: u64 = 2_000;

/// Tunables of the P8TM layer.
#[derive(Debug, Clone, Default)]
pub struct P8tmConfig {
    /// Hardware retry budget before the SGL fall-back.
    pub retry: RetryPolicy,
    /// Deadlines on the quiescence and SGL-drain waits (see DESIGN.md §9).
    /// Degrading past a straggler is *still serializable* here: P8TM
    /// validates every read log, so a reader whose snapshot was broken by
    /// a degraded commit simply fails validation and retries.
    pub watchdog: Watchdog,
    /// Randomized exponential backoff between hardware retries.
    pub backoff: BackoffPolicy,
}

struct Inner {
    htm: Arc<Htm>,
    state: StateArray,
    sgl: Sgl,
    /// Per-cache-line commit version counters (the software read-tracking
    /// substitute; see crate docs).
    versions: Box<[AtomicU64]>,
    /// Serialises validate+bump so concurrent commits cannot mutually miss
    /// each other's writes (write-skew between two completed writers).
    commit_lock: Mutex<()>,
    config: P8tmConfig,
}

/// The P8TM backend. Cheap to clone.
#[derive(Clone)]
pub struct P8tm {
    inner: Arc<Inner>,
}

impl P8tm {
    pub fn new(htm_config: HtmConfig, memory_words: usize, config: P8tmConfig) -> Self {
        let htm = Htm::new(htm_config, memory_words);
        let threads = htm.config().max_threads();
        let versions = txmem::zeroed_words(htm.memory().lines());
        P8tm {
            inner: Arc::new(Inner {
                htm,
                state: StateArray::new(threads),
                sgl: Sgl::new(),
                versions,
                commit_lock: Mutex::new(()),
                config,
            }),
        }
    }

    pub fn with_defaults(memory_words: usize) -> Self {
        Self::new(HtmConfig::default(), memory_words, P8tmConfig::default())
    }

    pub fn htm(&self) -> &Arc<Htm> {
        &self.inner.htm
    }
}

impl TmBackend for P8tm {
    type Thread = P8tmThread;

    fn name(&self) -> &'static str {
        "P8TM"
    }

    fn register_thread(&self) -> P8tmThread {
        let thr = self.inner.htm.register_thread();
        let tid = thr.tid();
        let cm = ContentionManager::new(self.inner.config.backoff, 0x9871 ^ tid as u64);
        P8tmThread {
            inner: Arc::clone(&self.inner),
            thr,
            tid,
            stats: ThreadStats::default(),
            cm,
            degrade_to_sgl: false,
            snapshot: Vec::new(),
            read_log: Vec::new(),
            seen: IntSet::default(),
            write_lines: IntSet::default(),
        }
    }

    fn memory(&self) -> &TxMemory {
        self.inner.htm.memory()
    }
}

impl std::fmt::Debug for P8tm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("P8tm").field("config", &self.inner.config).finish()
    }
}

/// A worker thread of the P8TM backend.
pub struct P8tmThread {
    inner: Arc<Inner>,
    thr: HtmThread,
    tid: usize,
    stats: ThreadStats,
    cm: ContentionManager,
    /// Quiescence watchdog tripped: stop retrying ROTs, serialise now.
    degrade_to_sgl: bool,
    snapshot: Vec<(usize, u64)>,
    // Reused per-transaction buffers (the software read instrumentation).
    read_log: Vec<(Line, u64)>,
    seen: IntSet<Line>,
    write_lines: IntSet<Line>,
}

impl P8tmThread {
    fn sync_with_gl(&mut self) {
        loop {
            let ts = self.inner.htm.clock().now();
            self.inner.state.set_active(self.tid, ts);
            if !self.inner.sgl.is_locked() {
                return;
            }
            self.inner.state.set_inactive(self.tid);
            spin_wait(|| !self.inner.sgl.is_locked());
        }
    }

    /// Read log still consistent with the current versions?
    fn validate(&self) -> bool {
        self.read_log
            .iter()
            .all(|&(line, v)| self.inner.versions[line as usize].load(Ordering::Acquire) == v)
    }

    fn bump_write_versions(&self) {
        for &line in &self.write_lines {
            self.inner.versions[line as usize].fetch_add(1, Ordering::Release);
        }
    }

    /// Quiescence + validation + `HTMEnd` for update transactions.
    fn tx_end(&mut self) -> Result<(), AbortReason> {
        self.thr.suspend();
        self.inner.state.set_completed(self.tid);
        self.thr.resume()?;

        // Quiescence (as in SI-HTM's Algorithm 1), O(active) via the
        // active-thread registry.
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.inner.state.snapshot_active_into(&mut snapshot);
        self.stats.quiesce_polled += snapshot.len() as u64;
        let mut waited = false;
        let mut doomed = false;
        let mut tripped = false;
        let deadline = self.inner.config.watchdog.quiesce;
        for &(c, observed) in &snapshot {
            if c == self.tid {
                continue;
            }
            let report = spin_wait_deadline(
                || {
                    if self.inner.state.poll(c) != observed {
                        return true;
                    }
                    waited = true;
                    if self.thr.doomed().is_some() {
                        doomed = true;
                        return true;
                    }
                    false
                },
                deadline,
            );
            self.stats.max_wait_ns = self.stats.max_wait_ns.max(report.waited_ns);
            if report.timed_out {
                // Watchdog trip: kill the straggler if killable, stop
                // waiting either way, and degrade to the SGL-serialized
                // slow path (see si-htm; for P8TM the degraded commit is
                // even benign — read-log validation catches any reader
                // whose snapshot it breaks).
                self.inner.htm.kill_active(c, AbortReason::Conflict);
                self.stats.watchdog_quiesce_trips += 1;
                tripped = true;
                break;
            }
            if doomed {
                break;
            }
        }
        self.snapshot = snapshot;
        if waited {
            self.stats.quiesce_waits += 1;
        }
        if tripped {
            self.degrade_to_sgl = true;
            return Err(self.thr.abort());
        }
        if doomed {
            return Err(self.thr.abort());
        }

        // Serializability: validate the instrumented read set, then publish
        // new versions for the write set, atomically w.r.t. other commits.
        {
            let guard = self.inner.commit_lock.lock();
            if !self.validate() {
                drop(guard);
                self.thr.abort();
                return Err(AbortReason::Conflict);
            }
            self.bump_write_versions();
        }
        self.thr.commit()
    }

    fn exec_update(&mut self, body: TxBody<'_>) -> Outcome {
        let policy = self.inner.config.retry;
        let mut retry = RetryState::new(&policy);
        self.cm.reset();
        self.degrade_to_sgl = false;
        loop {
            self.sync_with_gl();
            self.read_log.clear();
            self.seen.clear();
            self.write_lines.clear();
            self.thr.begin(TxMode::Rot);
            let (result, reason) = {
                let mut tx = UpdateTx {
                    thr: &mut self.thr,
                    versions: &self.inner.versions,
                    read_log: &mut self.read_log,
                    seen: &mut self.seen,
                    write_lines: &mut self.write_lines,
                    reason: None,
                };
                let r = body(&mut tx);
                (r, tx.reason)
            };
            match result {
                Ok(()) => match self.tx_end() {
                    Ok(()) => {
                        self.inner.state.set_inactive(self.tid);
                        self.stats.commits += 1;
                        return Outcome::Committed;
                    }
                    Err(reason) => {
                        self.inner.state.set_inactive(self.tid);
                        self.stats.record_abort(reason);
                        if self.degrade_to_sgl || !retry.on_abort(&policy, reason) {
                            break;
                        }
                        if self.cm.backoff(reason) > 0 {
                            self.stats.backoffs += 1;
                        }
                    }
                },
                Err(Abort::Backend) => {
                    let reason = reason.expect("backend abort without recorded reason");
                    self.inner.state.set_inactive(self.tid);
                    self.stats.record_abort(reason);
                    if !retry.on_abort(&policy, reason) {
                        break;
                    }
                    if self.cm.backoff(reason) > 0 {
                        self.stats.backoffs += 1;
                    }
                }
                Err(Abort::User) => {
                    if self.thr.in_tx() {
                        self.thr.abort();
                    }
                    self.inner.state.set_inactive(self.tid);
                    self.stats.user_aborts += 1;
                    return Outcome::UserAborted;
                }
            }
        }
        self.exec_sgl(body)
    }

    /// Read-only transactions: non-transactional reads with software read
    /// instrumentation and commit-time validation; retry on failure.
    fn exec_ro(&mut self, body: TxBody<'_>) -> Outcome {
        let policy = self.inner.config.retry;
        let mut retry = RetryState::new(&policy);
        self.cm.reset();
        loop {
            self.sync_with_gl();
            self.thr.refresh_hooks();
            hooks::emit(Event::RoBegin);
            self.read_log.clear();
            self.seen.clear();
            let r = {
                let mut tx = RoTx {
                    thr: &mut self.thr,
                    versions: &self.inner.versions,
                    read_log: &mut self.read_log,
                    seen: &mut self.seen,
                };
                body(&mut tx)
            };
            fence(Ordering::Release); // lwsync before un-publishing
            match r {
                Ok(()) => {
                    if self.validate() {
                        self.inner.state.set_inactive(self.tid);
                        self.stats.commits += 1;
                        self.stats.ro_commits += 1;
                        hooks::emit(Event::RoCommit);
                        return Outcome::Committed;
                    }
                    self.inner.state.set_inactive(self.tid);
                    self.stats.record_abort(AbortReason::Conflict);
                    hooks::emit(Event::Abort { reason: AbortCode::Conflict });
                    if !retry.on_abort(&policy, AbortReason::Conflict) {
                        return self.exec_sgl(body);
                    }
                    if self.cm.backoff(AbortReason::Conflict) > 0 {
                        self.stats.backoffs += 1;
                    }
                }
                Err(Abort::User) => {
                    self.inner.state.set_inactive(self.tid);
                    self.stats.user_aborts += 1;
                    hooks::emit(Event::Abort { reason: AbortCode::Explicit });
                    return Outcome::UserAborted;
                }
                Err(Abort::Backend) => {
                    unreachable!("the read-only path cannot incur backend aborts")
                }
            }
        }
    }

    fn exec_sgl(&mut self, body: TxBody<'_>) -> Outcome {
        debug_assert!(!self.thr.in_tx());
        self.inner.state.set_inactive(self.tid);
        if self.cm.admission_jitter(SGL_ADMISSION_JITTER_NS) > 0 {
            self.stats.backoffs += 1;
        }
        self.inner.sgl.lock(self.tid);
        self.stats.sgl_acquisitions += 1;
        let report = spin_wait_deadline(
            || self.inner.state.all_inactive_except(self.tid),
            self.inner.config.watchdog.drain,
        );
        self.stats.max_wait_ns = self.stats.max_wait_ns.max(report.waited_ns);
        if report.timed_out {
            // Proceed serialized past the wedged straggler (reported).
            self.stats.watchdog_drain_trips += 1;
        }
        self.thr.refresh_hooks();
        hooks::emit(Event::SglLock);
        self.write_lines.clear();
        let (result, wbuf) = {
            let mut tx = SglTx {
                thr: &mut self.thr,
                wbuf: IntMap::default(),
                write_lines: &mut self.write_lines,
            };
            let r = body(&mut tx);
            (r, tx.wbuf)
        };
        let outcome = match result {
            Ok(()) => {
                for (addr, val) in wbuf {
                    self.thr.write_notx(addr, val, NonTxClass::Sgl);
                }
                // Keep the version counters truthful for later validations.
                self.bump_write_versions();
                self.stats.commits += 1;
                self.stats.sgl_commits += 1;
                Outcome::Committed
            }
            Err(Abort::User) => {
                self.stats.user_aborts += 1;
                Outcome::UserAborted
            }
            Err(Abort::Backend) => unreachable!("the SGL path cannot incur backend aborts"),
        };
        self.inner.sgl.unlock(self.tid);
        hooks::emit(Event::SglUnlock { committed: outcome == Outcome::Committed });
        outcome
    }
}

/// Panic safety (see `SiHtmThread`'s Drop): roll back the in-flight
/// hardware transaction, un-publish the `state[]` entry peers quiesce on,
/// release the SGL if held, then let the panic propagate.
impl Drop for P8tmThread {
    fn drop(&mut self) {
        if self.thr.in_tx() {
            self.thr.abort();
        }
        self.inner.state.set_inactive(self.tid);
        if self.inner.sgl.is_held_by(self.tid) {
            self.inner.sgl.unlock(self.tid);
        }
    }
}

impl TmThread for P8tmThread {
    fn exec(&mut self, kind: TxKind, body: TxBody<'_>) -> Outcome {
        match kind {
            TxKind::ReadOnly => self.exec_ro(body),
            TxKind::Update => self.exec_update(body),
        }
    }

    fn exec_escalated(&mut self, body: TxBody<'_>) -> Outcome {
        self.exec_sgl(body)
    }

    fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ThreadStats::default();
    }
}

/// Update-transaction access handle: ROT accesses + read instrumentation.
struct UpdateTx<'a> {
    thr: &'a mut HtmThread,
    versions: &'a [AtomicU64],
    read_log: &'a mut Vec<(Line, u64)>,
    seen: &'a mut IntSet<Line>,
    write_lines: &'a mut IntSet<Line>,
    reason: Option<AbortReason>,
}

impl Tx for UpdateTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        let line = line_of(addr);
        txmem::prefetch(self.versions, line as usize);
        // The software instrumentation P8TM pays on every read: record the
        // line's commit version on first encounter.
        if !self.write_lines.contains(&line) && self.seen.insert(line) {
            let v = self.versions[line as usize].load(Ordering::Acquire);
            self.read_log.push((line, v));
        }
        self.thr.read(addr).map_err(|r| {
            self.reason = Some(r);
            Abort::Backend
        })
    }

    fn write(&mut self, addr: Addr, val: u64) -> Result<(), Abort> {
        self.write_lines.insert(line_of(addr));
        self.thr.write(addr, val).map_err(|r| {
            self.reason = Some(r);
            Abort::Backend
        })
    }
}

/// Read-only access handle: non-transactional reads + instrumentation.
struct RoTx<'a> {
    thr: &'a mut HtmThread,
    versions: &'a [AtomicU64],
    read_log: &'a mut Vec<(Line, u64)>,
    seen: &'a mut IntSet<Line>,
}

impl Tx for RoTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        let line = line_of(addr);
        txmem::prefetch(self.versions, line as usize);
        if self.seen.insert(line) {
            let v = self.versions[line as usize].load(Ordering::Acquire);
            self.read_log.push((line, v));
        }
        Ok(self.thr.read_notx(addr, NonTxClass::Data))
    }

    fn write(&mut self, _addr: Addr, _val: u64) -> Result<(), Abort> {
        panic!("transaction declared ReadOnly performed a write (P8TM)");
    }
}

/// SGL-path access handle (exclusive, buffered writes).
struct SglTx<'a> {
    thr: &'a mut HtmThread,
    wbuf: IntMap<Addr, u64>,
    write_lines: &'a mut IntSet<Line>,
}

impl Tx for SglTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        if let Some(v) = self.wbuf.get(&addr) {
            return Ok(*v);
        }
        Ok(self.thr.read_notx(addr, NonTxClass::Sgl))
    }

    fn write(&mut self, addr: Addr, val: u64) -> Result<(), Abort> {
        self.write_lines.insert(line_of(addr));
        self.wbuf.insert(addr, val);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> P8tm {
        P8tm::new(HtmConfig::small(), 4096, P8tmConfig::default())
    }

    #[test]
    fn update_and_ro_commit() {
        let b = small();
        let mut t = b.register_thread();
        assert_eq!(
            t.exec(TxKind::Update, &mut |tx| {
                let v = tx.read(0)?;
                tx.write(0, v + 2)
            }),
            Outcome::Committed
        );
        let mut seen = 0;
        assert_eq!(
            t.exec(TxKind::ReadOnly, &mut |tx| {
                seen = tx.read(0)?;
                Ok(())
            }),
            Outcome::Committed
        );
        assert_eq!(seen, 2);
        assert_eq!(t.stats().commits, 2);
        assert_eq!(t.stats().ro_commits, 1);
    }

    #[test]
    fn versions_bump_on_commit() {
        let b = small();
        let mut t = b.register_thread();
        let v0 = b.inner.versions[0].load(Ordering::Relaxed);
        t.exec(TxKind::Update, &mut |tx| tx.write(3, 1));
        assert_eq!(b.inner.versions[0].load(Ordering::Relaxed), v0 + 1);
    }

    #[test]
    fn unbounded_reads_for_updates() {
        let b = P8tm::new(
            HtmConfig { cores: 1, smt: 2, tmcam_lines: 8, ..HtmConfig::default() },
            16 * 128,
            P8tmConfig::default(),
        );
        let mut t = b.register_thread();
        let out = t.exec(TxKind::Update, &mut |tx| {
            let mut sum = 0;
            for i in 0..100u64 {
                sum += tx.read(i * 16)?;
            }
            tx.write(0, sum + 1)
        });
        assert_eq!(out, Outcome::Committed);
        assert_eq!(t.stats().aborts_capacity, 0);
        assert_eq!(t.stats().sgl_commits, 0);
    }

    #[test]
    fn write_skew_is_prevented() {
        // Two transactions: T1 reads A writes B; T2 reads B writes A, each
        // setting its target to 0 only when the source is 1. Starting from
        // A = B = 1, serializability forbids ending at A = B = 0. P8TM's
        // read validation must abort one of them.
        const A: Addr = 0;
        const B: Addr = 16;
        for _ in 0..50 {
            let b = P8tm::new(HtmConfig::small(), 256, P8tmConfig::default());
            b.memory().store(A, 1);
            b.memory().store(B, 1);
            crossbeam_utils::thread::scope(|s| {
                let b1 = b.clone();
                s.spawn(move |_| {
                    let mut t = b1.register_thread();
                    t.exec(TxKind::Update, &mut |tx| {
                        if tx.read(A)? == 1 {
                            tx.write(B, 0)?;
                        }
                        Ok(())
                    });
                });
                let b2 = b.clone();
                s.spawn(move |_| {
                    let mut t = b2.register_thread();
                    t.exec(TxKind::Update, &mut |tx| {
                        if tx.read(B)? == 1 {
                            tx.write(A, 0)?;
                        }
                        Ok(())
                    });
                });
            })
            .unwrap();
            let a = b.memory().load(A);
            let bb = b.memory().load(B);
            assert!(a + bb >= 1, "write skew slipped through: A={a} B={bb}");
        }
    }

    #[test]
    fn concurrent_increments_serialize() {
        let b = P8tm::new(
            HtmConfig { cores: 2, smt: 2, ..HtmConfig::default() },
            256,
            P8tmConfig::default(),
        );
        crossbeam_utils::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move |_| {
                    let mut t = b.register_thread();
                    for _ in 0..200 {
                        tm_api::increment(&mut t, 0);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(b.memory().load(0), 800);
    }
}
