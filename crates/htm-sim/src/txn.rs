//! The per-hardware-thread transaction engine: begin / read / write /
//! suspend / resume / commit / abort with P8-HTM conflict semantics.
//!
//! ## Conflict policy (paper §2.2)
//!
//! * a **read** (transactional or not) of a line transactionally written by
//!   another thread *kills the writer* and returns the old value; if the
//!   writer is mid-commit the reader stalls and then returns the new value;
//! * a **transactional write** to a line written by another active
//!   transaction kills the *requester* ("the last writer is killed");
//! * a **write** (transactional or not) to a line held in HTM-mode read
//!   sets kills those *readers*;
//! * ROT reads are untracked: they never appear in read sets, so
//!   write-after-read between ROTs goes undetected (Fig. 2A) while
//!   read-after-write still kills the writer (Fig. 2B).
//!
//! ## Kill protocol
//!
//! A kill is a single CAS on the victim's status word
//! (`Active → Aborted(reason)`). Victims observe their death at the next
//! simulated instruction (or at `resume()`/`commit()`) and then clean up
//! their own registrations; the killer only clears the one directory entry
//! it is looking at. Stale registrations (dead incarnations) are
//! garbage-collected by whoever encounters them. Transactional stores are
//! buffered privately and applied at commit, so a killed writer's effects
//! simply never reach memory — no rollback is needed, matching hardware
//! where the L2 discards transactional lines on abort.
//!
//! ## Lock-free conflict resolution
//!
//! Since the directory became a lock-free ownership table, conflict
//! resolution is no longer atomic per line; it is a small protocol over
//! single-word operations (full argument in DESIGN.md):
//!
//! * a tracked reader **registers first**, then resolves the line's writer —
//!   a concurrent writer either sees the registration in its post-claim
//!   scan, or the reader sees the claim (both operations are `SeqCst`
//!   RMW/load pairs, so one direction is guaranteed by the total order);
//! * a writer **claims the ownership word first** (one CAS), then kills the
//!   tracked readers it finds; readers that register after the scan observe
//!   the claim and kill the writer instead;
//! * an access that finds a *committing* conflicter stalls until that
//!   status word moves on, then re-examines the line — safe because a
//!   committing transaction never waits on anyone.

use crate::directory::Owner;
use crate::status::{AbortReason, NonTxClass, TxMode, TxState};
use crate::util::{spin_wait, IntMap};
use crate::Htm;
use std::sync::Arc;
use txmem::hooks::{self, Event, InjectPoint};
use txmem::{line_of, Addr, Line, TxMemory, VirtualClock};

/// Per-line tracking flags of the current transaction.
mod flags {
    /// Line is in the write set (buffered writes may exist).
    pub const WRITE: u8 = 1;
    /// Registered in the directory's tracked-reader list.
    pub const READ_REG: u8 = 2;
    /// Holds a TMCAM entry.
    pub const TMCAM: u8 = 4;
    /// Holds an LVDIR entry.
    pub const LVDIR: u8 = 8;
}

/// A registered hardware thread of the simulated machine. At most one
/// transaction is active per thread at a time (P8-HTM has no nesting beyond
/// flattening, which the paper does not use).
pub struct HtmThread {
    htm: Arc<Htm>,
    tid: usize,
    core: usize,
    inc: u64,
    mode: Option<TxMode>,
    suspended: bool,
    lines: IntMap<Line, u8>,
    wbuf: IntMap<Addr, u64>,
    tmcam_held: u64,
    lvdir_held: u64,
    lvdir_user: bool,
    unbounded: bool,
    /// `hooks::active()` cached at begin: gates the per-access hook calls
    /// so the disarmed fast path never touches the hook statics.
    hooked: bool,
    /// Reusable reader-snapshot buffer for the kill scans.
    scratch: Vec<Owner>,
}

impl HtmThread {
    pub(crate) fn new(htm: Arc<Htm>, tid: usize) -> Self {
        let core = htm.config().core_of(tid);
        HtmThread {
            htm,
            tid,
            core,
            inc: 0,
            mode: None,
            suspended: false,
            lines: IntMap::default(),
            wbuf: IntMap::default(),
            tmcam_held: 0,
            lvdir_held: 0,
            lvdir_user: false,
            unbounded: false,
            hooked: false,
            scratch: Vec::new(),
        }
    }

    /// Hardware-thread id.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Virtual core this hardware thread is pinned to.
    #[inline]
    pub fn core(&self) -> usize {
        self.core
    }

    /// The machine this thread belongs to.
    #[inline]
    pub fn htm(&self) -> &Arc<Htm> {
        &self.htm
    }

    /// Shared memory shortcut.
    #[inline]
    pub fn memory(&self) -> &TxMemory {
        self.htm.memory()
    }

    /// Virtual clock shortcut.
    #[inline]
    pub fn clock(&self) -> &VirtualClock {
        self.htm.clock()
    }

    #[inline]
    fn me(&self) -> Owner {
        Owner { tid: self.tid as u32, inc: self.inc }
    }

    /// True while a transaction is active (even if suspended or doomed).
    #[inline]
    pub fn in_tx(&self) -> bool {
        self.mode.is_some()
    }

    /// Mode of the active transaction.
    #[inline]
    pub fn mode(&self) -> Option<TxMode> {
        self.mode
    }

    /// True while inside a suspend/resume window.
    #[inline]
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    /// Number of distinct cache lines in the current write set.
    pub fn write_set_lines(&self) -> usize {
        self.lines.values().filter(|f| **f & flags::WRITE != 0).count()
    }

    /// TMCAM entries currently held by this transaction.
    pub fn tmcam_footprint(&self) -> u64 {
        self.tmcam_held
    }

    /// Begin a transaction. `HTMBeginROT` is `begin(TxMode::Rot)`.
    ///
    /// Panics if a transaction is already active.
    pub fn begin(&mut self, mode: TxMode) {
        self.begin_opts(mode, false);
    }

    /// Begin a transaction *without capacity accounting*.
    ///
    /// This is not a hardware feature: it models a **software** transaction
    /// that participates in the same conflict protocol (the directory plays
    /// the role of a per-line software lock table) but tracks its sets in
    /// ordinary memory, hence without TMCAM bounds. SI-HTM's optional
    /// software-SI fall-back path (paper §6 future work) is built on it.
    pub fn begin_unbounded(&mut self, mode: TxMode) {
        self.begin_opts(mode, true);
    }

    fn begin_opts(&mut self, mode: TxMode, unbounded: bool) {
        assert!(self.mode.is_none(), "transaction already active on thread {}", self.tid);
        self.inc += 1;
        self.mode = Some(mode);
        self.suspended = false;
        self.lines.clear();
        self.wbuf.clear();
        self.tmcam_held = 0;
        self.lvdir_held = 0;
        self.unbounded = unbounded;
        // Only regular HTM transactions benefit from the LVDIR (it tracks
        // reads; ROT reads are untracked by construction).
        self.lvdir_user =
            !unbounded && mode == TxMode::Htm && self.htm.cores().try_join_lvdir(self.core);
        self.hooked = hooks::active();
        self.htm.slots().store(self.tid, self.inc, TxState::Active(mode));
        hooks::emit(Event::Begin { rot: mode == TxMode::Rot });
    }

    /// If the active transaction has been killed, report the reason
    /// (without cleaning up — the next operation or `resume`/`commit` will).
    pub fn doomed(&self) -> Option<AbortReason> {
        self.mode?;
        match self.htm.slots().load(self.tid) {
            (_, TxState::Aborted(r)) => Some(r),
            _ => None,
        }
    }

    /// Check own fate at the top of each simulated instruction.
    #[inline]
    fn check_self(&mut self) -> Result<(), AbortReason> {
        debug_assert!(self.mode.is_some(), "transactional access outside a transaction");
        match self.htm.slots().load(self.tid) {
            (_, TxState::Aborted(r)) => {
                self.cleanup();
                hooks::emit(Event::Abort { reason: r.into() });
                Err(r)
            }
            _ => Ok(()),
        }
    }

    /// Per-access hook notification, gated on the flag cached at begin
    /// (one hot-flag test when nothing is listening).
    #[inline]
    fn emit_access(&self, ev: Event) {
        if self.hooked {
            hooks::emit(ev);
        }
    }

    /// Per-access fault-injection query, gated like [`Self::emit_access`].
    #[inline]
    fn inject_at(&self, point: InjectPoint) -> Option<hooks::AbortCode> {
        if self.hooked {
            hooks::inject(point)
        } else {
            None
        }
    }

    /// Cost-model compensation: untracked reads spin briefly so they cost
    /// as much as tracked reads do in this simulator (on hardware both are
    /// plain loads; see `HtmConfig::untracked_read_spin`).
    #[inline]
    fn compensate_untracked_read(&self) {
        for _ in 0..self.htm.config().untracked_read_spin {
            std::hint::spin_loop();
        }
    }

    /// Issue the host loads this access is about to make — the data word,
    /// the line's writer word and, with `readers`, its reader slot — so
    /// their cache misses overlap instead of running one after another
    /// (DESIGN.md §6). Changes no simulated state.
    #[inline(always)]
    fn prefetch(&self, addr: Addr, readers: bool) {
        self.memory().prefetch(addr);
        self.htm.directory().prefetch(line_of(addr), readers);
    }

    /// Deterministic per-line sampling for the "small fraction of ROT reads
    /// tracked by the TMCAM" knob (paper footnote 1).
    #[inline]
    fn rot_read_sampled(&self, line: Line) -> bool {
        let f = self.htm.config().rot_read_tracking;
        if f <= 0.0 {
            return false;
        }
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        (h as f64 / (1u64 << 24) as f64) < f
    }

    /// Charge one capacity entry for `line` with the appropriate structure.
    /// `for_write` forces a TMCAM entry (the LVDIR only tracks reads).
    fn charge_capacity(&mut self, line: Line, for_write: bool) -> Result<(), ()> {
        if self.unbounded {
            // Software transaction: sets tracked in ordinary memory.
            self.lines.entry(line).or_insert(0);
            return Ok(());
        }
        let entry = self.lines.entry(line).or_insert(0);
        if for_write {
            if *entry & flags::TMCAM != 0 {
                return Ok(());
            }
            if self.htm.cores().charge_tmcam(self.core) {
                *entry |= flags::TMCAM;
                self.tmcam_held += 1;
                Ok(())
            } else {
                Err(())
            }
        } else {
            if *entry & (flags::TMCAM | flags::LVDIR) != 0 {
                return Ok(());
            }
            if self.lvdir_user {
                if self.htm.cores().charge_lvdir(self.core) {
                    *entry |= flags::LVDIR;
                    self.lvdir_held += 1;
                    return Ok(());
                }
                return Err(());
            }
            if self.htm.cores().charge_tmcam(self.core) {
                *entry |= flags::TMCAM;
                self.tmcam_held += 1;
                Ok(())
            } else {
                Err(())
            }
        }
    }

    /// Stall until `(victim)`'s status word leaves `Committing` (coherence
    /// serialisation with a mid-commit transaction). Safe to wait on: a
    /// committing transaction never waits on anyone, so this cannot
    /// deadlock — even when the caller itself holds a writer claim.
    fn stall_on_commit(&self, victim: Owner) {
        let slots = self.htm.slots();
        spin_wait(|| {
            !matches!(slots.load(victim.tid as usize),
                      (inc, TxState::Committing) if inc == victim.inc)
        });
    }

    /// Resolve the line's transactional writer before an access that is
    /// entitled to kill it: kill it (or GC a stale registration), stalling
    /// while it is mid-commit. `spare` protects the caller's own live
    /// registration. On return the line either has no writer or `spare`.
    fn resolve_writer(&self, line: Line, spare: Option<Owner>, reason: AbortReason) {
        loop {
            let Some(w) = self.htm.directory().writer(line) else { return };
            if Some(w) == spare {
                return;
            }
            match self.htm.slots().try_kill(w.tid as usize, w.inc, reason) {
                Ok(()) => {
                    // Killed (or already dead): its buffered writes die with
                    // it; clear the registration and read the old value.
                    self.htm.directory().clear_writer_if(line, w);
                    return;
                }
                Err(TxState::Committing) => self.stall_on_commit(w),
                Err(_) => {
                    // Stale registration: GC it, then re-examine the line.
                    self.htm.directory().clear_writer_if(line, w);
                }
            }
        }
    }

    /// Kill every tracked reader of the line except `spare`, stalling on
    /// mid-commit readers. Readers that register concurrently after the
    /// final scan observe the caller's state (writer claim or stored value)
    /// through the registration handshake — see the module docs.
    fn kill_readers(&mut self, line: Line, spare: Option<Owner>, reason: AbortReason) {
        let mut buf = std::mem::take(&mut self.scratch);
        loop {
            self.htm.directory().readers_into(line, &mut buf);
            let mut committing = None;
            for &r in buf.iter() {
                if Some(r) == spare {
                    continue;
                }
                match self.htm.slots().try_kill(r.tid as usize, r.inc, reason) {
                    Err(TxState::Committing) => committing = Some(r),
                    // Killed, already dead, or stale: drop the registration.
                    Ok(()) | Err(_) => self.htm.directory().unregister_reader(line, r),
                }
            }
            match committing {
                None => break,
                Some(r) => self.stall_on_commit(r),
            }
        }
        self.scratch = buf;
    }

    /// Transactional read (`ld` inside a transaction). When suspended, the
    /// access is performed non-transactionally, as the hardware does.
    pub fn read(&mut self, addr: Addr) -> Result<u64, AbortReason> {
        self.prefetch(addr, self.mode == Some(TxMode::Htm));
        if self.suspended {
            return Ok(self.read_notx(addr, NonTxClass::Data));
        }
        self.check_self()?;
        if let Some(code) = self.inject_at(InjectPoint::Access) {
            return Err(self.self_abort(code.into()));
        }
        let mode = self.mode.expect("read outside transaction");
        let line = line_of(addr);

        // Fast paths on lines we already own or track: no directory access
        // at all (and in particular no lock and no shared-memory RMW).
        if let Some(&f) = self.lines.get(&line) {
            if f & flags::WRITE != 0 {
                // Our own write set: we see our buffered stores.
                let val = self.wbuf.get(&addr).copied().unwrap_or_else(|| self.memory().load(addr));
                self.emit_access(Event::Read { addr, val, tx: true });
                return Ok(val);
            }
            if f & flags::READ_REG != 0 {
                // Already a tracked reader: any conflicting writer would
                // have had to kill us first, so plain memory is consistent
                // (a kill that raced us is observed at the next access).
                let val = self.memory().load(addr);
                self.emit_access(Event::Read { addr, val, tx: true });
                return Ok(val);
            }
        }

        let tracked = match mode {
            TxMode::Htm => true,
            TxMode::Rot => self.rot_read_sampled(line),
        };
        if tracked && self.charge_capacity(line, false).is_err() {
            return Err(self.self_abort(AbortReason::Capacity));
        }

        let me = self.me();
        if tracked {
            // Register FIRST, then resolve the writer: a concurrent writer
            // either sees this registration in its post-claim scan, or we
            // see its claim below (the SeqCst Dekker handshake, DESIGN.md).
            self.htm.directory().register_reader(line, me);
            self.resolve_writer(line, Some(me), AbortReason::Conflict);
            *self.lines.entry(line).or_insert(0) |= flags::READ_REG;
        } else {
            // Untracked (ROT) read: kill the writer, leave no trace.
            self.resolve_writer(line, Some(me), AbortReason::Conflict);
            self.compensate_untracked_read();
        }
        let val = self.memory().load(addr);
        self.emit_access(Event::Read { addr, val, tx: true });
        Ok(val)
    }

    /// Transactional write (`st` inside a transaction). Buffered until
    /// commit. When suspended, performed non-transactionally.
    pub fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortReason> {
        self.prefetch(addr, true);
        if self.suspended {
            self.write_notx(addr, val, NonTxClass::Data);
            return Ok(());
        }
        self.check_self()?;
        if let Some(code) = self.inject_at(InjectPoint::Access) {
            return Err(self.self_abort(code.into()));
        }
        debug_assert!(self.mode.is_some(), "write outside transaction");
        let line = line_of(addr);

        // Owned-line fast path: one private map probe, no shared state.
        if self.lines.get(&line).is_some_and(|f| f & flags::WRITE != 0) {
            self.wbuf.insert(addr, val);
            self.emit_access(Event::Write { addr, val, tx: true });
            return Ok(());
        }

        if self.charge_capacity(line, true).is_err() {
            return Err(self.self_abort(AbortReason::Capacity));
        }

        let me = self.me();
        // Claim the ownership word — a single CAS when the line is free.
        loop {
            match self.htm.directory().writer(line) {
                None => {
                    if self.htm.directory().try_claim_writer(line, me).is_ok() {
                        break;
                    }
                    // Lost the race; re-examine the new owner.
                }
                Some(w) if w == me => break,
                Some(w) => match self.htm.slots().load(w.tid as usize) {
                    (inc, TxState::Active(_)) if inc == w.inc => {
                        // Write-write conflict: "the last writer is killed"
                        // — that is us.
                        return Err(self.self_abort(AbortReason::Conflict));
                    }
                    (inc, TxState::Committing) if inc == w.inc => self.stall_on_commit(w),
                    _ => {
                        // Stale registration: GC and retry the claim.
                        self.htm.directory().clear_writer_if(line, w);
                    }
                },
            }
        }
        // With the claim published, kill every tracked reader of the line
        // (write-after-read is a conflict for regular HTM transactions).
        // Readers that register after this scan observe our claim and kill
        // us instead — either way the conflict is detected.
        self.kill_readers(line, Some(me), AbortReason::Conflict);

        *self.lines.entry(line).or_insert(0) |= flags::WRITE;
        self.wbuf.insert(addr, val);
        self.emit_access(Event::Write { addr, val, tx: true });
        Ok(())
    }

    /// `tsuspend.`: subsequent accesses run non-transactionally.
    pub fn suspend(&mut self) {
        assert!(self.mode.is_some(), "suspend outside transaction");
        assert!(!self.suspended, "already suspended");
        self.suspended = true;
        hooks::emit(Event::Suspend);
    }

    /// `tresume.`: leave the suspend window. Conflicts signalled while
    /// suspended take effect here (paper §2.2).
    pub fn resume(&mut self) -> Result<(), AbortReason> {
        assert!(self.mode.is_some(), "resume outside transaction");
        assert!(self.suspended, "resume without suspend");
        self.suspended = false;
        hooks::emit(Event::Resume);
        self.check_self()
    }

    /// `tend.`: make the buffered writes visible and release all tracking.
    pub fn commit(&mut self) -> Result<(), AbortReason> {
        let mode = self.mode.expect("commit outside transaction");
        assert!(!self.suspended, "commit while suspended");
        if let Some(code) = self.inject_at(InjectPoint::Commit) {
            return Err(self.self_abort(code.into()));
        }
        match self.htm.slots().transition(
            self.tid,
            self.inc,
            TxState::Active(mode),
            TxState::Committing,
        ) {
            Ok(()) => {}
            Err((_, TxState::Aborted(r))) => {
                self.cleanup();
                hooks::emit(Event::Abort { reason: r.into() });
                return Err(r);
            }
            Err(other) => unreachable!("commit from state {other:?}"),
        }
        // Apply the write buffer. Conflicting accesses stall on our
        // Committing status word and re-examine the line only after the
        // word moves on; the status store below is a Release store and
        // their poll is an Acquire load, so every value stored here
        // happens-before anything they do next.
        for (&addr, &val) in &self.wbuf {
            self.memory().store_release(addr, val);
        }
        self.cleanup();
        hooks::emit(Event::Commit);
        Ok(())
    }

    /// Explicit abort (`tabort.`). Returns the recorded reason, which is the
    /// killer's reason when someone else got there first.
    pub fn abort(&mut self) -> AbortReason {
        assert!(self.mode.is_some(), "abort outside transaction");
        self.suspended = false;
        self.self_abort(AbortReason::Explicit)
    }

    /// Lose a conflict (or capacity/explicit abort): mark self aborted,
    /// discard buffered writes, release all registrations.
    fn self_abort(&mut self, reason: AbortReason) -> AbortReason {
        let final_reason = loop {
            match self.htm.slots().load(self.tid) {
                (_, TxState::Active(m)) => {
                    match self.htm.slots().transition(
                        self.tid,
                        self.inc,
                        TxState::Active(m),
                        TxState::Aborted(reason),
                    ) {
                        Ok(()) => break reason,
                        Err(_) => continue, // a killer raced us
                    }
                }
                (_, TxState::Aborted(r)) => break r,
                (_, s) => unreachable!("self_abort in state {s:?}"),
            }
        };
        self.cleanup();
        hooks::emit(Event::Abort { reason: final_reason.into() });
        final_reason
    }

    /// Release directory registrations and capacity, then go Inactive.
    fn cleanup(&mut self) {
        let me = self.me();
        for (&line, &f) in &self.lines {
            if f & flags::WRITE != 0 {
                self.htm.directory().clear_writer_if(line, me);
            }
            if f & flags::READ_REG != 0 {
                self.htm.directory().unregister_reader(line, me);
            }
        }
        self.htm.cores().release_tmcam(self.core, self.tmcam_held);
        if self.lvdir_user {
            self.htm.cores().leave_lvdir(self.core, self.lvdir_held);
        }
        self.tmcam_held = 0;
        self.lvdir_held = 0;
        self.lvdir_user = false;
        self.lines.clear();
        self.wbuf.clear();
        self.suspended = false;
        self.htm.slots().store(self.tid, self.inc, TxState::Inactive);
        self.mode = None;
    }

    /// Re-cache the hook-active flag for accesses *outside* a hardware
    /// transaction. `begin` does this automatically; the bulk
    /// non-transactional paths (the RO fast path, the SGL slow path) must
    /// call it at episode entry or their `read_notx`/`write_notx` accesses
    /// bypass the check harness and the chaos injector.
    #[inline]
    pub fn refresh_hooks(&mut self) {
        self.hooked = hooks::active();
    }

    /// Non-transactional read: kills any active transactional writer of the
    /// line (with `class`'s reason) and returns the memory value. Inside a
    /// suspend window, a read of a line in the *own* write set returns the
    /// buffered value (suspended loads see the thread's transactional
    /// stores on POWER).
    pub fn read_notx(&mut self, addr: Addr, class: NonTxClass) -> u64 {
        self.prefetch(addr, false);
        let line = line_of(addr);
        if self.mode.is_some() && self.lines.get(&line).is_some_and(|f| f & flags::WRITE != 0) {
            let val = self.wbuf.get(&addr).copied().unwrap_or_else(|| self.memory().load(addr));
            self.emit_access(Event::Read { addr, val, tx: false });
            return val;
        }
        let spare = if self.mode.is_some() { Some(self.me()) } else { None };
        self.resolve_writer(line, spare, class.kill_reason());
        self.compensate_untracked_read();
        let val = self.memory().load(addr);
        self.emit_access(Event::Read { addr, val, tx: false });
        val
    }

    /// Non-transactional write: kills any active writer *and* all tracked
    /// readers of the line (the mechanism by which SGL acquisition aborts
    /// subscribed hardware transactions), then stores directly to memory.
    /// The calling thread's own suspended transaction is *not* spared —
    /// stomping on one's own tracked line dooms the transaction, as on real
    /// hardware.
    pub fn write_notx(&mut self, addr: Addr, val: u64, class: NonTxClass) {
        let line = line_of(addr);
        let reason = class.kill_reason();
        self.resolve_writer(line, None, reason);
        self.kill_readers(line, None, reason);
        self.memory().store_release(addr, val);
        self.emit_access(Event::Write { addr, val, tx: false });
    }
}

/// Panic safety: a body that unwinds between `begin` and `commit`/`abort`
/// drops the backend's thread struct, and with it this `HtmThread`, with a
/// transaction still in flight. Left alone, that transaction would keep
/// its directory registrations and TMCAM capacity forever and every peer
/// that touches one of its lines would wedge. Rolling it back here —
/// exactly `tabort.` followed by the hardware's register/cache rollback —
/// makes unwinding equivalent to an explicit abort, after which the panic
/// continues to propagate.
impl Drop for HtmThread {
    fn drop(&mut self) {
        if self.mode.is_none() {
            return;
        }
        // In-flight implies Active or Aborted (commit/abort never unwind
        // mid-transition: no user code runs inside them), both of which
        // `self_abort` resolves without panicking — required, since this
        // usually runs during an unwind already.
        self.suspended = false;
        self.self_abort(AbortReason::Explicit);
    }
}

impl std::fmt::Debug for HtmThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmThread")
            .field("tid", &self.tid)
            .field("core", &self.core)
            .field("mode", &self.mode)
            .field("suspended", &self.suspended)
            .field("tmcam_held", &self.tmcam_held)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HtmConfig;

    fn machine(words: usize) -> Arc<Htm> {
        Htm::new(HtmConfig::small(), words)
    }

    #[test]
    fn committed_writes_become_visible() {
        let htm = machine(256);
        let mut t = htm.register_thread();
        t.begin(TxMode::Htm);
        t.write(3, 99).unwrap();
        assert_eq!(htm.memory().load(3), 0, "buffered until commit");
        assert_eq!(t.read(3).unwrap(), 99, "own writes visible to self");
        t.commit().unwrap();
        assert_eq!(htm.memory().load(3), 99);
        assert!(!t.in_tx());
    }

    #[test]
    fn explicit_abort_discards_writes() {
        let htm = machine(256);
        let mut t = htm.register_thread();
        t.begin(TxMode::Rot);
        t.write(0, 7).unwrap();
        assert_eq!(t.abort(), AbortReason::Explicit);
        assert_eq!(htm.memory().load(0), 0);
        assert_eq!(htm.directory().tracked_lines(), 0);
        assert_eq!(htm.cores().tmcam_used(0), 0);
    }

    #[test]
    fn reader_kills_active_writer_and_sees_old_value() {
        let htm = machine(256);
        let mut w = htm.register_thread();
        let mut r = htm.register_thread();
        htm.memory().store(0, 5);
        w.begin(TxMode::Rot);
        w.write(0, 6).unwrap();
        r.begin(TxMode::Rot);
        // Read-after-write: the reader invalidates the writer (Fig. 2B).
        assert_eq!(r.read(0).unwrap(), 5);
        assert_eq!(w.doomed(), Some(AbortReason::Conflict));
        assert_eq!(w.commit(), Err(AbortReason::Conflict));
        r.commit().unwrap();
        assert_eq!(htm.memory().load(0), 5);
    }

    #[test]
    fn rot_write_after_read_is_tolerated() {
        // Fig. 2A: between ROTs, a write to a line previously read by a
        // concurrent ROT is NOT a conflict (reads are untracked).
        let htm = machine(256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Rot);
        assert_eq!(a.read(0).unwrap(), 0);
        b.begin(TxMode::Rot);
        b.write(0, 1).unwrap();
        assert!(a.doomed().is_none());
        assert!(b.doomed().is_none());
        b.commit().unwrap();
        a.commit().unwrap();
        assert_eq!(htm.memory().load(0), 1);
    }

    #[test]
    fn htm_write_after_read_kills_reader() {
        // Same schedule with regular HTM transactions: the tracked reader
        // is killed by the writer.
        let htm = machine(256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Htm);
        assert_eq!(a.read(0).unwrap(), 0);
        b.begin(TxMode::Htm);
        b.write(0, 1).unwrap();
        assert_eq!(a.doomed(), Some(AbortReason::Conflict));
        assert_eq!(a.commit(), Err(AbortReason::Conflict));
        b.commit().unwrap();
        assert_eq!(htm.memory().load(0), 1);
    }

    #[test]
    fn write_write_kills_last_writer() {
        let htm = machine(256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Rot);
        a.write(0, 1).unwrap();
        b.begin(TxMode::Rot);
        assert_eq!(b.write(0, 2), Err(AbortReason::Conflict), "last writer dies");
        assert!(!b.in_tx(), "loser is torn down");
        a.commit().unwrap();
        assert_eq!(htm.memory().load(0), 1);
    }

    #[test]
    fn different_words_same_line_still_conflict() {
        let htm = machine(256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Rot);
        a.write(0, 1).unwrap();
        b.begin(TxMode::Rot);
        // Word 1 shares cache line 0 with word 0.
        assert_eq!(b.write(1, 2), Err(AbortReason::Conflict));
        a.commit().unwrap();
    }

    #[test]
    fn different_lines_do_not_conflict() {
        let htm = machine(256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Rot);
        a.write(0, 1).unwrap();
        b.begin(TxMode::Rot);
        b.write(16, 2).unwrap();
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(htm.memory().load(0), 1);
        assert_eq!(htm.memory().load(16), 2);
    }

    #[test]
    fn htm_capacity_abort_on_reads() {
        let htm = Htm::new(
            HtmConfig { cores: 1, smt: 2, tmcam_lines: 4, ..HtmConfig::default() },
            16 * 64,
        );
        let mut t = htm.register_thread();
        t.begin(TxMode::Htm);
        for i in 0..4u64 {
            t.read(i * 16).unwrap();
        }
        assert_eq!(t.read(4 * 16), Err(AbortReason::Capacity));
        assert_eq!(htm.cores().tmcam_used(0), 0, "capacity released after abort");
    }

    #[test]
    fn rot_reads_have_no_capacity_bound() {
        let htm = Htm::new(
            HtmConfig { cores: 1, smt: 2, tmcam_lines: 4, ..HtmConfig::default() },
            16 * 64,
        );
        let mut t = htm.register_thread();
        t.begin(TxMode::Rot);
        for i in 0..64u64 {
            t.read(i * 16).unwrap();
        }
        // Writes still bounded.
        for i in 0..4u64 {
            t.write(i * 16, 1).unwrap();
        }
        assert_eq!(t.write(4 * 16, 1), Err(AbortReason::Capacity));
    }

    #[test]
    fn tmcam_shared_between_smt_threads() {
        // Two threads on one core share the 4-line TMCAM.
        let htm = Htm::new(
            HtmConfig { cores: 1, smt: 2, tmcam_lines: 4, ..HtmConfig::default() },
            16 * 64,
        );
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Rot);
        b.begin(TxMode::Rot);
        a.write(0, 1).unwrap();
        a.write(16, 1).unwrap();
        b.write(32, 1).unwrap();
        b.write(48, 1).unwrap();
        assert_eq!(a.write(64, 1), Err(AbortReason::Capacity));
        b.commit().unwrap();
        // After b commits, capacity is free again for a new transaction.
        a.begin(TxMode::Rot);
        a.write(64, 1).unwrap();
        a.commit().unwrap();
    }

    #[test]
    fn repeated_access_to_same_line_charges_once() {
        let htm =
            Htm::new(HtmConfig { cores: 1, smt: 1, tmcam_lines: 2, ..HtmConfig::default() }, 256);
        let mut t = htm.register_thread();
        t.begin(TxMode::Htm);
        for i in 0..16u64 {
            t.read(i).unwrap(); // all words of line 0
        }
        t.write(3, 1).unwrap(); // read+write same line: still one entry
        assert_eq!(t.tmcam_footprint(), 1);
        t.commit().unwrap();
    }

    #[test]
    fn suspended_accesses_are_untracked_and_nontransactional() {
        let htm = machine(512);
        let mut t = htm.register_thread();
        t.begin(TxMode::Rot);
        t.write(0, 1).unwrap();
        t.suspend();
        t.write(16, 42).unwrap(); // non-transactional: immediately visible
        assert_eq!(htm.memory().load(16), 42);
        assert_eq!(t.read(16).unwrap(), 42);
        assert_eq!(t.read(0).unwrap(), 1, "suspended load sees own tx store");
        t.resume().unwrap();
        assert_eq!(t.write_set_lines(), 1, "suspended write not in write set");
        t.commit().unwrap();
        assert_eq!(htm.memory().load(0), 1);
    }

    #[test]
    fn conflict_during_suspension_surfaces_at_resume() {
        let htm = machine(256);
        let mut w = htm.register_thread();
        let mut r = htm.register_thread();
        w.begin(TxMode::Rot);
        w.write(0, 9).unwrap();
        w.suspend();
        // r's non-transactional read kills w while it is suspended.
        assert_eq!(r.read_notx(0, NonTxClass::Data), 0);
        assert_eq!(w.resume(), Err(AbortReason::Conflict));
        assert!(!w.in_tx());
    }

    #[test]
    fn nontx_sgl_write_kills_with_nontx_reason() {
        let htm = machine(256);
        let mut tx = htm.register_thread();
        let mut sgl = htm.register_thread();
        tx.begin(TxMode::Htm);
        tx.read(0).unwrap(); // subscribe
        sgl.write_notx(0, 1, NonTxClass::Sgl);
        assert_eq!(tx.commit(), Err(AbortReason::NonTx));
        assert_eq!(htm.memory().load(0), 1);
    }

    #[test]
    fn nontx_write_kills_active_writer() {
        let htm = machine(256);
        let mut tx = htm.register_thread();
        let mut other = htm.register_thread();
        tx.begin(TxMode::Rot);
        tx.write(0, 5).unwrap();
        other.write_notx(0, 77, NonTxClass::Data);
        assert_eq!(tx.commit(), Err(AbortReason::Conflict));
        assert_eq!(htm.memory().load(0), 77, "non-tx write wins, tx store discarded");
    }

    #[test]
    fn first_abort_reason_wins() {
        let htm = machine(256);
        let mut t = htm.register_thread();
        let mut k = htm.register_thread();
        t.begin(TxMode::Rot);
        t.write(0, 1).unwrap();
        k.read_notx(0, NonTxClass::Data); // kills with Conflict
        assert_eq!(t.abort(), AbortReason::Conflict, "killer's reason sticks");
    }

    #[test]
    fn incarnations_prevent_stale_kills() {
        let htm = machine(256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        a.begin(TxMode::Rot);
        a.write(0, 1).unwrap();
        a.commit().unwrap();
        // a starts a new transaction on a different line; a stale conflict
        // on line 0 must not touch it.
        a.begin(TxMode::Rot);
        a.write(32, 2).unwrap();
        b.begin(TxMode::Rot);
        b.write(0, 3).unwrap();
        b.commit().unwrap();
        assert!(a.doomed().is_none());
        a.commit().unwrap();
        assert_eq!(htm.memory().load(32), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_rot_read_panics() {
        let htm = machine(256);
        let end = htm.memory().len() as Addr;
        let mut t = htm.register_thread();
        t.begin(TxMode::Rot);
        let _ = t.read(end);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_htm_read_panics() {
        let htm = machine(256);
        let end = htm.memory().len() as Addr;
        let mut t = htm.register_thread();
        t.begin(TxMode::Htm);
        let _ = t.read(end);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_read_notx_panics() {
        let htm = machine(256);
        let end = htm.memory().len() as Addr;
        htm.register_thread().read_notx(end, NonTxClass::Data);
    }

    #[test]
    fn lvdir_extends_htm_read_capacity() {
        let mut config = HtmConfig { cores: 2, smt: 1, tmcam_lines: 4, ..HtmConfig::default() };
        config.lvdir = Some(crate::config::LvdirConfig { lines: 128, max_users: 2 });
        let htm = Htm::new(config, 16 * 256);
        let mut t = htm.register_thread();
        t.begin(TxMode::Htm);
        // 100 read lines — far over TMCAM, within LVDIR.
        for i in 0..100u64 {
            t.read(i * 16).unwrap();
        }
        // Writes still bound by TMCAM.
        for i in 0..4u64 {
            t.write((100 + i) * 16, 1).unwrap();
        }
        assert_eq!(t.write(104 * 16, 1), Err(AbortReason::Capacity));
    }

    #[test]
    fn lvdir_third_user_falls_back_to_tmcam() {
        let mut config = HtmConfig { cores: 1, smt: 4, tmcam_lines: 4, ..HtmConfig::default() };
        config.lvdir = Some(crate::config::LvdirConfig { lines: 128, max_users: 2 });
        let htm = Htm::new(config, 16 * 256);
        let mut a = htm.register_thread();
        let mut b = htm.register_thread();
        let mut c = htm.register_thread();
        a.begin(TxMode::Htm);
        b.begin(TxMode::Htm);
        c.begin(TxMode::Htm); // no LVDIR slot left
        for i in 0..4u64 {
            c.read(i * 16).unwrap();
        }
        assert_eq!(c.read(4 * 16), Err(AbortReason::Capacity));
        a.commit().unwrap();
        b.commit().unwrap();
    }

    #[test]
    fn concurrent_counter_increments_are_serializable() {
        // N threads × M increments through HTM transactions must not lose
        // updates: the hardware conflict detection serialises them.
        let htm = Htm::new(HtmConfig { cores: 2, smt: 4, ..HtmConfig::default() }, 64);
        let threads = 4;
        let per = 200;
        crossbeam_utils::thread::scope(|s| {
            for _ in 0..threads {
                let htm = Arc::clone(&htm);
                s.spawn(move |_| {
                    let mut t = htm.register_thread();
                    let mut done = 0;
                    while done < per {
                        t.begin(TxMode::Htm);
                        let ok = (|| {
                            let v = t.read(0)?;
                            t.write(0, v + 1)?;
                            Ok::<_, AbortReason>(())
                        })();
                        match ok {
                            Ok(()) => {
                                if t.commit().is_ok() {
                                    done += 1;
                                }
                            }
                            Err(_) => { /* retried; engine already cleaned up */ }
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(htm.memory().load(0), (threads * per) as u64);
        assert_eq!(htm.directory().tracked_lines(), 0);
        assert_eq!(htm.cores().tmcam_used(0) + htm.cores().tmcam_used(1), 0);
    }
}
