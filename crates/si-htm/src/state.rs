//! The shared per-thread state array of Algorithm 1.
//!
//! Each thread publishes its transactional phase in one cache-padded word:
//!
//! * `inactive = 0` — not running any transaction,
//! * `completed = 1` — finished all memory accesses, performing the safety
//!   wait before `HTMEnd`,
//! * any value `> 1` — *active*, stamped with the begin timestamp
//!   (`currentTime()` in clock cycles in the paper; our virtual clock here).
//!
//! The paper publishes these updates non-transactionally (under
//! suspend/resume) precisely so they neither occupy TMCAM entries nor
//! create hardware conflicts; plain Rust atomics have identical semantics,
//! so the array lives outside the simulated memory (see DESIGN.md §6).
//! The `sync` full barriers of Algorithm 1 map to `SeqCst` operations; the
//! read-only commit's `lwsync` maps to a `Release` fence.
//!
//! ## The active-thread registry
//!
//! Algorithm 1's safety wait reads `state[0..N−1]`, i.e. O(N) in the size
//! of the machine (N = 80 on the paper's testbed) regardless of how many
//! threads are actually running transactions. To make the wait O(active),
//! the array keeps a side bitmap of *possibly-in-transaction* threads:
//!
//! * [`set_active`] sets the thread's bit **before** publishing the
//!   timestamp, and [`set_inactive`] publishes `inactive` **before**
//!   clearing the bit — so the bit-set window is a superset of the
//!   published-active window. A bitmap-guided scan therefore never misses
//!   a thread whose `state[c] > completed` store is visible; missing a
//!   thread that is concurrently *becoming* active merely linearises the
//!   snapshot before that thread's activation, which the algorithm already
//!   tolerates (Alg. 1 only waits for transactions that began before the
//!   snapshot).
//! * [`set_completed`] leaves the bit set: a completed-but-not-yet-inactive
//!   thread must still be visible to the SGL drain.
//!
//! Snapshot loads stay `SeqCst` (they implement the `sync` in Alg. 1 line
//! 16); only the *repeated poll* loads ([`poll`]) are relaxed to `Acquire`
//! — the poll needs eventual visibility plus a happens-before edge with
//! the polled thread's Release-or-stronger state store, not a place in the
//! total order. See DESIGN.md, "O(active) quiescence".

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

pub use txmem::clock::{COMPLETED, INACTIVE};

/// The `state[N]` array of Algorithm 1, plus the active-thread bitmap.
pub struct StateArray {
    slots: Box<[CachePadded<AtomicU64>]>,
    /// One bit per thread slot; bit set ⇒ the thread *may* be between
    /// `set_active` and the end of its `set_inactive`.
    active_bits: Box<[AtomicU64]>,
}

impl StateArray {
    pub fn new(threads: usize) -> Self {
        let mut v = Vec::with_capacity(threads);
        v.resize_with(threads, || CachePadded::new(AtomicU64::new(INACTIVE)));
        let mut b = Vec::with_capacity(threads.div_ceil(64));
        b.resize_with(threads.div_ceil(64), || AtomicU64::new(0));
        StateArray { slots: v.into_boxed_slice(), active_bits: b.into_boxed_slice() }
    }

    /// Number of thread slots (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `state[tid] ← ts; sync()` — announce an active transaction
    /// (Alg. 1 line 4 / Alg. 2 line 2). The registry bit goes up first so
    /// the bit-set window covers the published-active window.
    #[inline]
    pub fn set_active(&self, tid: usize, timestamp: u64) {
        debug_assert!(timestamp > COMPLETED, "timestamps must exceed the reserved values");
        self.active_bits[tid / 64].fetch_or(1 << (tid % 64), Ordering::SeqCst);
        self.slots[tid].store(timestamp, Ordering::SeqCst);
    }

    /// `state[tid] ← completed; sync()` (Alg. 1 line 13). The registry bit
    /// stays set: the SGL drain must still see this thread.
    #[inline]
    pub fn set_completed(&self, tid: usize) {
        self.slots[tid].store(COMPLETED, Ordering::SeqCst);
    }

    /// `state[tid] ← inactive` (Alg. 1 line 23 / Alg. 2 lines 5, 22, 36).
    /// The state store precedes the bit clear, keeping the superset
    /// invariant (see the module docs).
    #[inline]
    pub fn set_inactive(&self, tid: usize) {
        self.slots[tid].store(INACTIVE, Ordering::SeqCst);
        self.active_bits[tid / 64].fetch_and(!(1 << (tid % 64)), Ordering::SeqCst);
    }

    /// Current published state of a thread (full-barrier load).
    #[inline]
    pub fn load(&self, tid: usize) -> u64 {
        self.slots[tid].load(Ordering::SeqCst)
    }

    /// Relaxed-ordering re-read for quiescence poll loops: `Acquire`, so a
    /// change observed here happens-after everything the polled thread did
    /// before its state store, without a full barrier per spin.
    #[inline]
    pub fn poll(&self, tid: usize) -> u64 {
        self.slots[tid].load(Ordering::Acquire)
    }

    /// `snapshot[0..N−1] ← state[0..N−1]` (Alg. 1 line 16).
    pub fn snapshot_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.slots.iter().map(|s| s.load(Ordering::SeqCst)));
    }

    /// The O(active) form of Alg. 1 line 16: collect `(thread, state)` for
    /// every thread whose published state exceeds `completed`, visiting
    /// only threads with a registry bit set. These are exactly the threads
    /// the safety wait must poll.
    pub fn snapshot_active_into(&self, out: &mut Vec<(usize, u64)>) {
        out.clear();
        for (w, word) in self.active_bits.iter().enumerate() {
            let mut bits = word.load(Ordering::SeqCst);
            while bits != 0 {
                let tid = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let s = self.slots[tid].load(Ordering::SeqCst);
                if s > COMPLETED {
                    out.push((tid, s));
                }
            }
        }
    }

    /// True when every thread except `skip` is inactive (SGL drain,
    /// Alg. 2 lines 24–26). Bitmap-guided: only registered threads are
    /// examined, and a completed thread still counts as not-drained
    /// because its bit is still set and its state is `completed`.
    pub fn all_inactive_except(&self, skip: usize) -> bool {
        for (w, word) in self.active_bits.iter().enumerate() {
            let mut bits = word.load(Ordering::SeqCst);
            while bits != 0 {
                let tid = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if tid != skip && self.slots[tid].load(Ordering::SeqCst) != INACTIVE {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_transitions() {
        let st = StateArray::new(3);
        assert_eq!(st.load(1), INACTIVE);
        st.set_active(1, 42);
        assert_eq!(st.load(1), 42);
        assert_eq!(st.poll(1), 42);
        st.set_completed(1);
        assert_eq!(st.load(1), COMPLETED);
        st.set_inactive(1);
        assert_eq!(st.load(1), INACTIVE);
    }

    #[test]
    fn snapshot_reflects_all_slots() {
        let st = StateArray::new(3);
        st.set_active(0, 10);
        st.set_completed(2);
        let mut snap = Vec::new();
        st.snapshot_into(&mut snap);
        assert_eq!(snap, vec![10, INACTIVE, COMPLETED]);
    }

    #[test]
    fn active_snapshot_lists_only_active_threads() {
        let st = StateArray::new(130); // spans three bitmap words
        st.set_active(0, 10);
        st.set_active(65, 20);
        st.set_active(129, 30);
        st.set_active(7, 40);
        st.set_completed(7); // completed: bit set, state ≤ completed
        let mut snap = Vec::new();
        st.snapshot_active_into(&mut snap);
        assert_eq!(snap, vec![(0, 10), (65, 20), (129, 30)]);
        st.set_inactive(65);
        st.snapshot_active_into(&mut snap);
        assert_eq!(snap, vec![(0, 10), (129, 30)]);
    }

    #[test]
    fn registry_bit_outlives_completed_state() {
        // A completed thread must still block the SGL drain even though it
        // no longer appears in the active snapshot.
        let st = StateArray::new(4);
        st.set_active(2, 9);
        st.set_completed(2);
        let mut snap = Vec::new();
        st.snapshot_active_into(&mut snap);
        assert!(snap.is_empty(), "completed is not active");
        assert!(!st.all_inactive_except(0), "completed still blocks the drain");
        st.set_inactive(2);
        assert!(st.all_inactive_except(0));
    }

    #[test]
    fn drain_check() {
        let st = StateArray::new(3);
        assert!(st.all_inactive_except(0));
        st.set_active(2, 9);
        assert!(!st.all_inactive_except(0));
        assert!(st.all_inactive_except(2));
        st.set_inactive(2);
        assert!(st.all_inactive_except(0));
    }

    // `set_active`'s check is a `debug_assert!`: release builds skip it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn reserved_timestamps_rejected_in_debug() {
        let st = StateArray::new(1);
        st.set_active(0, COMPLETED);
    }
}
