//! # silo — Silo-style software OCC comparator (Tu et al., SOSP '13)
//!
//! Silo is the software-only optimistic concurrency control the paper
//! compares against on TPC-C ("a software-level optimistic concurrency
//! control for in-memory databases", with record indexing disabled for a
//! fair comparison). This implementation follows Silo's commit protocol at
//! cache-line granularity over the shared simulated memory:
//!
//! * each cache line carries a TID word — `(version << 1) | lock_bit`;
//! * reads use the TID-sandwich: read TID, read data, re-read TID, retry
//!   while locked or changed; the first observed TID per line goes into
//!   the read set;
//! * writes are buffered locally;
//! * commit: lock the write lines in sorted order, validate the read set
//!   (TID unchanged and not locked by others), pick a new TID greater than
//!   everything observed, apply the writes, then store the new TID
//!   (releasing the locks).
//!
//! No epochs/durability (the paper benchmarks raw concurrency control),
//! and no fall-back path: OCC retries until it commits. Silo bypasses the
//! simulated HTM entirely — it is plain software and pays no TMCAM
//! capacity costs, but every read pays the TID protocol.

use crossbeam_utils::Backoff;
use htm_sim::util::{IntMap, IntSet};
use htm_sim::AbortReason;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::{
    Abort, BackoffPolicy, ContentionManager, Outcome, ThreadStats, TmBackend, TmThread, Tx, TxBody,
    TxKind,
};
use txmem::hooks::{self, AbortCode, Event, InjectPoint};
use txmem::{line_of, Addr, Line, TxMemory};

const LOCK_BIT: u64 = 1;

/// Tunables of the Silo backend.
#[derive(Debug, Clone)]
pub struct SiloConfig {
    /// Cost-model compensation per shared access, in `spin_loop` hints.
    ///
    /// The HTM-based backends route every access through the simulator's
    /// conflict directory, which costs ~100 ns; Silo bypasses the
    /// simulator entirely, so without compensation one Silo access would
    /// be several times cheaper than one HTM access — the opposite of real
    /// hardware, where Silo's *instrumented* reads cost more than HTM's
    /// free ones. The spin restores a uniform per-access baseline, with
    /// Silo's TID protocol as its genuine extra cost (see DESIGN.md).
    /// Set to 0 for the raw-cost ablation.
    pub access_spin: u32,
    /// Randomized exponential backoff between OCC retries.
    pub backoff: BackoffPolicy,
}

impl Default for SiloConfig {
    fn default() -> Self {
        SiloConfig { access_spin: 5, backoff: BackoffPolicy::default() }
    }
}

/// The Silo backend. Cheap to clone.
#[derive(Clone)]
pub struct Silo {
    inner: Arc<Inner>,
}

struct Inner {
    memory: TxMemory,
    /// One TID word per cache line: `(version << 1) | lock`.
    tids: Box<[AtomicU64]>,
    config: SiloConfig,
    /// Per-instance registration counter seeding each thread's contention
    /// manager. Instance-local (not a process-global) so that sharded
    /// deployments running many Silo instances side by side get the same
    /// seed sequence per instance regardless of construction order.
    cm_seq: AtomicU64,
}

impl Inner {
    #[inline]
    fn compensate_access(&self) {
        for _ in 0..self.config.access_spin {
            std::hint::spin_loop();
        }
    }
}

impl Silo {
    /// Build a Silo instance over `memory_words` words of shared memory.
    pub fn new(memory_words: usize) -> Self {
        Self::with_config(memory_words, SiloConfig::default())
    }

    /// Build with explicit tunables.
    pub fn with_config(memory_words: usize, config: SiloConfig) -> Self {
        let memory = TxMemory::new(memory_words);
        let tids = txmem::zeroed_words(memory.lines());
        Silo { inner: Arc::new(Inner { memory, tids, config, cm_seq: AtomicU64::new(0) }) }
    }

    /// Alias matching the other backends' constructors.
    pub fn with_defaults(memory_words: usize) -> Self {
        Self::new(memory_words)
    }
}

impl TmBackend for Silo {
    type Thread = SiloThread;

    fn name(&self) -> &'static str {
        "Silo"
    }

    fn register_thread(&self) -> SiloThread {
        let cm = ContentionManager::new(
            self.inner.config.backoff,
            0x5170 ^ self.inner.cm_seq.fetch_add(1, Ordering::Relaxed),
        );
        SiloThread {
            inner: Arc::clone(&self.inner),
            stats: ThreadStats::default(),
            cm,
            injected: None,
            hooked: false,
            last_tid: 0,
            read_set: Vec::new(),
            read_seen: IntSet::default(),
            wbuf: IntMap::default(),
            write_lines: Vec::new(),
        }
    }

    fn memory(&self) -> &TxMemory {
        &self.inner.memory
    }
}

impl std::fmt::Debug for Silo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Silo").field("lines", &self.inner.tids.len()).finish()
    }
}

/// A worker thread of the Silo backend.
pub struct SiloThread {
    inner: Arc<Inner>,
    stats: ThreadStats,
    cm: ContentionManager,
    /// Reason recorded when fault injection aborted the body mid-flight.
    injected: Option<AbortReason>,
    /// `hooks::active()` cached per attempt: gates per-access hook calls.
    hooked: bool,
    /// Last TID this thread committed with (monotonic per thread).
    last_tid: u64,
    read_set: Vec<(Line, u64)>,
    read_seen: IntSet<Line>,
    wbuf: IntMap<Addr, u64>,
    write_lines: Vec<Line>,
}

impl SiloThread {
    /// TID-sandwich read of one word: `(value, observed_tid)`.
    fn read_word(inner: &Inner, addr: Addr) -> (u64, u64) {
        let line = line_of(addr) as usize;
        // Issue both host loads up front so their cache misses overlap, as
        // `HtmThread` does for its data and writer words (DESIGN.md §6).
        txmem::prefetch(&inner.tids, line);
        inner.memory.prefetch(addr);
        let backoff = Backoff::new();
        loop {
            let t1 = inner.tids[line].load(Ordering::Acquire);
            if t1 & LOCK_BIT == 0 {
                let v = inner.memory.load_acquire(addr);
                let t2 = inner.tids[line].load(Ordering::Acquire);
                if t1 == t2 {
                    return (v, t1);
                }
            }
            hooks::emit(Event::Poll);
            backoff.snooze();
            if backoff.is_completed() {
                std::thread::yield_now();
            }
        }
    }

    /// Commit protocol. `Err(())` = validation failure (caller retries).
    fn try_commit(&mut self) -> Result<(), ()> {
        // Fault injection treats a forced commit-point abort as a
        // validation failure: the retry loop re-runs the body.
        if self.hooked && hooks::inject(InjectPoint::Commit).is_some() {
            return Err(());
        }
        let inner = &self.inner;
        // Phase 1: lock the write set in global (sorted) order.
        self.write_lines.sort_unstable();
        self.write_lines.dedup();
        let mut locked_prev: Vec<(Line, u64)> = Vec::with_capacity(self.write_lines.len());
        for &line in &self.write_lines {
            let backoff = Backoff::new();
            loop {
                let cur = inner.tids[line as usize].load(Ordering::Acquire);
                if cur & LOCK_BIT == 0
                    && inner.tids[line as usize]
                        .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    locked_prev.push((line, cur));
                    break;
                }
                hooks::emit(Event::Poll);
                backoff.snooze();
                if backoff.is_completed() {
                    std::thread::yield_now();
                }
            }
        }
        fence(Ordering::SeqCst);
        // Phase 2: validate the read set.
        let mut ok = true;
        for &(line, t1) in &self.read_set {
            let cur = inner.tids[line as usize].load(Ordering::Acquire);
            if cur >> 1 != t1 >> 1 {
                ok = false;
                break;
            }
            if cur & LOCK_BIT != 0 && !self.write_lines.contains(&line) {
                ok = false;
                break;
            }
        }
        if !ok {
            for (line, prev) in locked_prev {
                inner.tids[line as usize].store(prev, Ordering::Release);
            }
            return Err(());
        }
        // TID assignment: larger than everything observed and than our own
        // previous TID (Silo §3.1, minus epochs).
        let mut new_tid = self.last_tid;
        for &(_, t) in &self.read_set {
            new_tid = new_tid.max(t >> 1);
        }
        for &(_, prev) in &locked_prev {
            new_tid = new_tid.max(prev >> 1);
        }
        new_tid += 1;
        self.last_tid = new_tid;
        // Phase 3: apply buffered writes, then publish the new TID
        // (which also releases the line locks).
        for (&addr, &val) in &self.wbuf {
            inner.memory.store_release(addr, val);
        }
        for &(line, _) in &locked_prev {
            inner.tids[line as usize].store(new_tid << 1, Ordering::Release);
        }
        Ok(())
    }

    fn clear_tx(&mut self) {
        self.read_set.clear();
        self.read_seen.clear();
        self.wbuf.clear();
        self.write_lines.clear();
    }
}

/// Panic safety: Silo's body phase touches no shared state — the per-line
/// locks are taken only inside `try_commit`, which runs no user code and
/// cannot unwind — so an unwinding body strands nothing that peers could
/// wait on. The half-built read/write sets are thread-local and die with
/// the struct; `exec` additionally clears them at the top of every attempt,
/// so even a caller that catches the panic and reuses the thread cannot
/// replay them.
impl Drop for SiloThread {
    fn drop(&mut self) {
        self.clear_tx();
    }
}

impl TmThread for SiloThread {
    fn exec(&mut self, _kind: TxKind, body: TxBody<'_>) -> Outcome {
        self.cm.reset();
        loop {
            self.clear_tx();
            self.injected = None;
            self.hooked = hooks::active();
            hooks::emit(Event::Begin { rot: false });
            let r = {
                let mut tx = SiloTx { thr: self };
                body(&mut tx)
            };
            match r {
                Ok(()) => {
                    if self.try_commit().is_ok() {
                        self.stats.commits += 1;
                        if self.write_lines.is_empty() {
                            self.stats.ro_commits += 1;
                        }
                        hooks::emit(Event::Commit);
                        return Outcome::Committed;
                    }
                    // OCC validation failure: a transactional conflict.
                    self.stats.record_abort(AbortReason::Conflict);
                    hooks::emit(Event::Abort { reason: AbortCode::Conflict });
                    if self.cm.backoff(AbortReason::Conflict) > 0 {
                        self.stats.backoffs += 1;
                    }
                }
                Err(Abort::User) => {
                    self.stats.user_aborts += 1;
                    hooks::emit(Event::Abort { reason: AbortCode::Explicit });
                    return Outcome::UserAborted;
                }
                Err(Abort::Backend) => {
                    // Only fault injection can abort a Silo body (the TID
                    // protocol itself never fails mid-flight): roll back
                    // the local buffers and retry, like any OCC conflict.
                    let reason = self.injected.take().unwrap_or(AbortReason::Conflict);
                    self.stats.record_abort(reason);
                    hooks::emit(Event::Abort { reason: reason.into() });
                    if self.cm.backoff(reason) > 0 {
                        self.stats.backoffs += 1;
                    }
                }
            }
        }
    }

    fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ThreadStats::default();
    }
}

/// Access handle: buffered writes, TID-sandwich reads.
struct SiloTx<'a> {
    thr: &'a mut SiloThread,
}

impl Tx for SiloTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        // Fault-injection seam (chaos / tm-check): a forced access abort
        // unwinds to the retry loop like an OCC conflict would. Gated on
        // the flag cached at attempt start so the disarmed fast path
        // never touches the hook statics.
        if self.thr.hooked {
            if let Some(code) = hooks::inject(InjectPoint::Access) {
                self.thr.injected = Some(code.into());
                return Err(Abort::Backend);
            }
        }
        if let Some(v) = self.thr.wbuf.get(&addr) {
            if self.thr.hooked {
                hooks::emit(Event::Read { addr, val: *v, tx: true });
            }
            return Ok(*v);
        }
        self.thr.inner.compensate_access();
        let (v, tid) = SiloThread::read_word(&self.thr.inner, addr);
        let line = line_of(addr);
        if self.thr.read_seen.insert(line) {
            self.thr.read_set.push((line, tid));
        }
        if self.thr.hooked {
            hooks::emit(Event::Read { addr, val: v, tx: true });
        }
        Ok(v)
    }

    fn write(&mut self, addr: Addr, val: u64) -> Result<(), Abort> {
        if self.thr.hooked {
            if let Some(code) = hooks::inject(InjectPoint::Access) {
                self.thr.injected = Some(code.into());
                return Err(Abort::Backend);
            }
        }
        self.thr.wbuf.insert(addr, val);
        self.thr.write_lines.push(line_of(addr));
        if self.thr.hooked {
            hooks::emit(Event::Write { addr, val, tx: true });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_commit_and_read_back() {
        let b = Silo::new(1024);
        let mut t = b.register_thread();
        assert_eq!(
            t.exec(TxKind::Update, &mut |tx| {
                let v = tx.read(0)?;
                tx.write(0, v + 4)
            }),
            Outcome::Committed
        );
        assert_eq!(b.memory().load(0), 4);
        let mut seen = 0;
        t.exec(TxKind::ReadOnly, &mut |tx| {
            seen = tx.read(0)?;
            Ok(())
        });
        assert_eq!(seen, 4);
        assert_eq!(t.stats().commits, 2);
        assert_eq!(t.stats().ro_commits, 1);
    }

    #[test]
    fn user_abort_rolls_back() {
        let b = Silo::new(1024);
        let mut t = b.register_thread();
        let out = t.exec(TxKind::Update, &mut |tx| {
            tx.write(0, 11)?;
            Err(Abort::User)
        });
        assert_eq!(out, Outcome::UserAborted);
        assert_eq!(b.memory().load(0), 0);
        // TID word must not be left locked.
        assert_eq!(b.inner.tids[0].load(Ordering::Relaxed) & LOCK_BIT, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_read_panics() {
        let b = Silo::new(256);
        let end = b.memory().len() as Addr;
        b.register_thread().exec(TxKind::ReadOnly, &mut |tx| tx.read(end).map(drop));
    }

    #[test]
    fn tid_words_advance_on_commit() {
        let b = Silo::new(1024);
        let mut t = b.register_thread();
        t.exec(TxKind::Update, &mut |tx| tx.write(0, 1));
        let t1 = b.inner.tids[0].load(Ordering::Relaxed);
        t.exec(TxKind::Update, &mut |tx| tx.write(0, 2));
        let t2 = b.inner.tids[0].load(Ordering::Relaxed);
        assert!(t2 > t1, "TID must advance: {t1} -> {t2}");
        assert_eq!(t1 & LOCK_BIT, 0);
        assert_eq!(t2 & LOCK_BIT, 0);
    }

    #[test]
    fn validation_rejects_torn_snapshots() {
        // A reader whose first attempt observes line 0 before and line 16
        // after a concurrent two-line commit must fail validation and
        // retry; the attempt that finally commits sees a consistent pair.
        // (OCC tolerates inconsistent reads *during* execution — the
        // guarantee is that such attempts never pass validation.)
        use std::sync::atomic::AtomicBool;
        let b = Silo::new(256);
        let flag = AtomicBool::new(false);
        crossbeam_utils::thread::scope(|s| {
            let b1 = b.clone();
            let flag1 = &flag;
            s.spawn(move |_| {
                let mut t = b1.register_thread();
                let mut first_attempt = true;
                let (mut a, mut bb) = (0, 0);
                t.exec(TxKind::ReadOnly, &mut |tx| {
                    a = tx.read(0)?;
                    if first_attempt {
                        first_attempt = false;
                        // Signal the writer and wait for it to commit.
                        flag1.store(true, Ordering::SeqCst);
                        while b1.memory().load(0) == a {
                            std::thread::yield_now();
                        }
                    }
                    bb = tx.read(16)?;
                    Ok(())
                });
                assert!(t.stats().aborts_conflict > 0, "first attempt must fail validation");
                assert_eq!(a, bb, "committed attempt saw a torn snapshot");
            });
            let b2 = b.clone();
            let flag2 = &flag;
            s.spawn(move |_| {
                let mut t = b2.register_thread();
                while !flag2.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                t.exec(TxKind::Update, &mut |tx| {
                    tx.write(0, 1)?;
                    tx.write(16, 1)
                });
            });
        })
        .unwrap();
    }

    #[test]
    fn write_skew_is_prevented() {
        const A: Addr = 0;
        const B: Addr = 16;
        for _ in 0..50 {
            let b = Silo::new(256);
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
            assert!(b.memory().load(A) + b.memory().load(B) >= 1, "write skew slipped through");
        }
    }

    #[test]
    fn concurrent_increments_serialize() {
        let b = Silo::new(256);
        crossbeam_utils::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move |_| {
                    let mut t = b.register_thread();
                    for _ in 0..500 {
                        tm_api::increment(&mut t, 0);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(b.memory().load(0), 2000);
    }

    #[test]
    fn disjoint_lines_commit_concurrently() {
        let b = Silo::new(16 * 64);
        crossbeam_utils::thread::scope(|s| {
            for i in 0..4u64 {
                let b = b.clone();
                s.spawn(move |_| {
                    let mut t = b.register_thread();
                    for _ in 0..200 {
                        tm_api::increment(&mut t, i * 16);
                    }
                    assert_eq!(t.stats().aborts(), 0, "disjoint lines must not conflict");
                });
            }
        })
        .unwrap();
        for i in 0..4u64 {
            assert_eq!(b.memory().load(i * 16), 200);
        }
    }
}
