//! # htm-sim — a software simulator of the IBM POWER8/9 HTM ("P8-HTM")
//!
//! The SI-HTM paper (Filipe et al., PPoPP '19) builds on hardware features
//! that only exist on IBM POWER8/9 processors: best-effort hardware
//! transactions with a tiny per-core capacity (the 8 KB TMCAM, 64 cache
//! lines shared by up to 8 SMT threads), *rollback-only transactions*
//! (ROTs) whose reads are untracked, and a `tsuspend.`/`tresume.` escape
//! hatch. This crate reproduces those semantics in portable Rust so the
//! paper's algorithms and evaluation can run anywhere.
//!
//! ## What is modelled (from §2.2 of the paper)
//!
//! * **Conflict detection at cache-line granularity** via a lock-free
//!   line-ownership directory over a simulated [`txmem::TxMemory`].
//! * **Conflict-resolution policy**: a read of a line transactionally
//!   written by another thread kills that *writer*; a write to a line
//!   written by another active transaction kills the *last* (requesting)
//!   writer; a write to a line tracked by HTM-mode readers kills those
//!   *readers*. ROT reads are untracked, so write-after-read is tolerated
//!   between ROTs (paper Fig. 2A) while read-after-write still aborts the
//!   writer (Fig. 2B).
//! * **Write buffering**: transactional stores are invisible to other
//!   threads until `HTMEnd`; a conflicting reader that kills a writer
//!   observes the *old* value (Fig. 4A), and a reader racing with a
//!   committing writer stalls until the commit completes (coherence
//!   serialisation) and then observes the *new* value.
//! * **TMCAM capacity**: per-virtual-core occupancy counters; HTM-mode
//!   transactions consume one entry per distinct line read *or* written,
//!   ROTs only per line written (plus an optional tracked fraction of
//!   reads, cf. the paper's footnote 1). Exceeding the shared budget
//!   yields a capacity abort. SMT threads mapped to the same virtual core
//!   share the budget — the effect that makes plain HTM collapse under
//!   SMT.
//! * **Suspend/resume**: accesses inside the window run non-transactionally
//!   and consume no capacity; conflicts signalled while suspended doom the
//!   transaction and surface at `resume()`.
//! * **POWER9 L2 LVDIR** (optional): a large read-tracking structure usable
//!   by at most two threads at a time, shared between core pairs.
//!
//! ## What is *not* modelled
//!
//! Timing. The simulator is functionally faithful but does not model cycle
//! costs; every backend in the workspace pays the same per-access simulation
//! overhead, so cross-backend throughput *ratios* remain meaningful while
//! absolute numbers do not compare to real hardware.
//!
//! ## Example
//!
//! ```
//! use htm_sim::{Htm, HtmConfig, TxMode};
//!
//! let htm = Htm::new(HtmConfig::default(), 1024);
//! let mut t = htm.register_thread();
//! t.begin(TxMode::Rot);
//! t.write(0, 42).unwrap();
//! t.commit().unwrap();
//! assert_eq!(htm.memory().load(0), 42);
//! ```

pub mod config;
pub mod directory;
pub mod status;
pub mod tmcam;
pub mod txn;
pub mod util;

pub use config::{HtmConfig, LvdirConfig, PinLayout};
pub use status::{AbortReason, NonTxClass, TxMode, TxState};
pub use txn::HtmThread;

use directory::Directory;
use status::SlotArray;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tmcam::Cores;
use txmem::{TxMemory, VirtualClock};

/// The simulated processor: shared memory plus all HTM bookkeeping.
///
/// One `Htm` instance stands for one (virtual) POWER8 machine. Threads are
/// registered with [`Htm::register_thread`] and are assigned round-robin to
/// virtual cores (thread *t* → core *t mod cores*), matching the thread
/// pinning used in the paper's artifact: SMT levels only engage once the
/// thread count exceeds the core count.
pub struct Htm {
    config: HtmConfig,
    memory: TxMemory,
    clock: VirtualClock,
    slots: SlotArray,
    directory: Directory,
    cores: Cores,
    next_tid: AtomicUsize,
}

impl Htm {
    /// Build a simulated machine with `memory_words` words of shared memory.
    pub fn new(config: HtmConfig, memory_words: usize) -> Arc<Self> {
        config.validate();
        let max_threads = config.max_threads();
        let memory = TxMemory::new(memory_words);
        let directory = Directory::new(memory.lines());
        Arc::new(Htm {
            memory,
            clock: VirtualClock::new(),
            slots: SlotArray::new(max_threads),
            directory,
            cores: Cores::new(&config),
            next_tid: AtomicUsize::new(0),
            config,
        })
    }

    /// The simulated shared memory (raw access; see [`txmem::TxMemory`]).
    #[inline]
    pub fn memory(&self) -> &TxMemory {
        &self.memory
    }

    /// The virtual time base register (used by SI-HTM's `currentTime()`).
    #[inline]
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The machine configuration.
    #[inline]
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// Number of threads registered so far.
    pub fn threads_registered(&self) -> usize {
        self.next_tid.load(Ordering::Relaxed)
    }

    /// Register the calling thread, assigning the next hardware-thread slot.
    ///
    /// Panics when the machine's `cores * smt` hardware threads are
    /// exhausted, like over-subscribing `taskset` pinning would on the real
    /// box.
    pub fn register_thread(self: &Arc<Self>) -> HtmThread {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        assert!(
            tid < self.config.max_threads(),
            "registered more threads ({}) than the machine has hardware threads ({})",
            tid + 1,
            self.config.max_threads()
        );
        HtmThread::new(Arc::clone(self), tid)
    }

    /// Kill the transaction currently active on hardware thread `tid`, if
    /// any. Returns whether a transaction was (or already had been) killed.
    ///
    /// This is the hook for the paper's future-work "killing alternative"
    /// (§6): completed transactions may decide to kill long-running active
    /// transactions instead of waiting for them. It is also a faithful
    /// stand-in for delivering a `tabort.`-class asynchronous kill.
    pub fn kill_active(&self, tid: usize, reason: AbortReason) -> bool {
        let (inc, state) = self.slots.load(tid);
        match state {
            TxState::Active(_) => self.slots.try_kill(tid, inc, reason).is_ok(),
            TxState::Aborted(_) => true,
            _ => false,
        }
    }

    pub(crate) fn slots(&self) -> &SlotArray {
        &self.slots
    }

    /// The conflict directory (introspection for tests and metrics).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The capacity counters (introspection for tests and metrics).
    pub fn cores(&self) -> &Cores {
        &self.cores
    }
}

impl std::fmt::Debug for Htm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Htm")
            .field("config", &self.config)
            .field("memory_words", &self.memory.len())
            .field("threads", &self.threads_registered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_construction() {
        let htm = Htm::new(HtmConfig::default(), 100);
        assert_eq!(htm.config().cores, 10);
        assert_eq!(htm.config().smt, 8);
        assert!(htm.memory().len() >= 100);
        assert_eq!(htm.threads_registered(), 0);
    }

    #[test]
    fn thread_registration_assigns_cores_round_robin() {
        let htm = Htm::new(HtmConfig { cores: 4, smt: 2, ..HtmConfig::default() }, 64);
        let threads: Vec<_> = (0..8).map(|_| htm.register_thread()).collect();
        for (i, t) in threads.iter().enumerate() {
            assert_eq!(t.tid(), i);
            assert_eq!(t.core(), i % 4);
        }
    }

    #[test]
    #[should_panic(expected = "hardware threads")]
    fn over_registration_panics() {
        let htm = Htm::new(HtmConfig { cores: 1, smt: 1, ..HtmConfig::default() }, 64);
        let _a = htm.register_thread();
        let _b = htm.register_thread();
    }
}
