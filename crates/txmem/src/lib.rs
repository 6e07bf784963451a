//! Simulated word-addressable shared memory with IBM POWER8 cache-line
//! geometry.
//!
//! Every transactional-memory backend in this workspace (the simulated
//! P8-HTM, SI-HTM, P8TM, Silo, the SGL fall-back paths) operates on one
//! shared [`TxMemory`]: a flat array of 64-bit words grouped into 128-byte
//! cache lines, the conflict-detection granularity of the POWER8 TMCAM.
//!
//! The crate deliberately knows nothing about transactions. It provides:
//!
//! * [`TxMemory`] — the word array with raw (non-transactional) access,
//! * [`Addr`] / [`Line`] — address arithmetic at POWER8 geometry,
//! * [`LineAlloc`] — a concurrent, cache-line-aligned bump allocator used by
//!   the workloads to lay out nodes/rows so that their *cache-line footprint*
//!   matches what the paper's benchmarks produce on real hardware,
//! * [`VirtualClock`] — the monotonic "time base register" stand-in used for
//!   the `currentTime()` calls of SI-HTM's Algorithm 1,
//! * [`zeroed_words`] / [`prefetch`] — the host-side arena constructor and
//!   prefetch hint every simulator array and access path shares.

pub mod alloc;
pub mod arena;
pub mod clock;
pub mod hooks;

pub use alloc::LineAlloc;
pub use arena::{prefetch, zeroed_slice, zeroed_words};
pub use clock::VirtualClock;

use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per cache line on POWER8 (the TMCAM tracks 128-byte lines).
pub const LINE_BYTES: usize = 128;
/// 64-bit words per cache line.
pub const WORDS_PER_LINE: usize = LINE_BYTES / 8;
/// log2(WORDS_PER_LINE), used for address→line shifts.
pub const LINE_SHIFT: u32 = WORDS_PER_LINE.trailing_zeros();

/// A word address inside a [`TxMemory`]: an index into the word array.
///
/// Using a plain index (rather than raw pointers) keeps the simulator safe
/// Rust and makes addresses stable across backends.
pub type Addr = u64;

/// A cache-line identifier: `addr >> LINE_SHIFT`.
pub type Line = u64;

/// Map a word address to the cache line containing it.
#[inline(always)]
pub fn line_of(addr: Addr) -> Line {
    addr >> LINE_SHIFT
}

/// First word address of a cache line.
#[inline(always)]
pub fn line_base(line: Line) -> Addr {
    line << LINE_SHIFT
}

/// Number of distinct cache lines spanned by `[addr, addr + words)`.
#[inline]
pub fn lines_spanned(addr: Addr, words: u64) -> u64 {
    if words == 0 {
        return 0;
    }
    line_of(addr + words - 1) - line_of(addr) + 1
}

/// Round a word count up to a whole number of cache lines.
#[inline]
pub fn round_up_to_line(words: u64) -> u64 {
    let wpl = WORDS_PER_LINE as u64;
    words.div_ceil(wpl) * wpl
}

/// The simulated shared memory: a fixed-size array of atomic 64-bit words.
///
/// All accesses here are *raw*: they bypass any transactional protocol.
/// Transactional backends layer their conflict detection on top and only
/// touch memory through these primitives once their protocol allows it.
/// Plain `Relaxed` orderings are used for data words; the protocols provide
/// the necessary happens-before edges through their own locks and CASes.
pub struct TxMemory {
    words: Box<[AtomicU64]>,
}

impl TxMemory {
    /// Allocate a memory of `words` 64-bit words, zero-initialised, rounded
    /// up to a whole cache line.
    pub fn new(words: usize) -> Self {
        TxMemory { words: zeroed_words(round_up_to_line(words as u64) as usize) }
    }

    /// Allocate a memory sized in cache lines.
    pub fn with_lines(lines: usize) -> Self {
        Self::new(lines * WORDS_PER_LINE)
    }

    /// Total number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the memory has zero words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total number of cache lines.
    #[inline]
    pub fn lines(&self) -> usize {
        self.words.len() / WORDS_PER_LINE
    }

    /// Raw (non-transactional) load.
    ///
    /// Panics if `addr` is out of bounds — out-of-bounds simulated accesses
    /// are always a harness bug, never a workload condition.
    #[inline(always)]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words[addr as usize].load(Ordering::Relaxed)
    }

    /// Start loading `addr`'s host cache line; out-of-range addresses are
    /// ignored here and panic at the access itself.
    #[inline(always)]
    pub fn prefetch(&self, addr: Addr) {
        prefetch(&self.words, addr as usize);
    }

    /// Raw (non-transactional) store.
    #[inline(always)]
    pub fn store(&self, addr: Addr, val: u64) {
        self.words[addr as usize].store(val, Ordering::Relaxed);
    }

    /// Raw load with acquire ordering (used by protocols that publish data
    /// through memory words themselves, e.g. the SGL subscription word).
    #[inline(always)]
    pub fn load_acquire(&self, addr: Addr) -> u64 {
        self.words[addr as usize].load(Ordering::Acquire)
    }

    /// Raw store with release ordering.
    #[inline(always)]
    pub fn store_release(&self, addr: Addr, val: u64) {
        self.words[addr as usize].store(val, Ordering::Release);
    }

    /// Raw compare-and-swap on a word. Returns `Ok(previous)` on success.
    #[inline]
    pub fn compare_exchange(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.words[addr as usize].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
    }

    /// Raw fetch-add on a word.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, val: u64) -> u64 {
        self.words[addr as usize].fetch_add(val, Ordering::AcqRel)
    }

    /// Checks whether an address is within bounds.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        (addr as usize) < self.words.len()
    }
}

impl std::fmt::Debug for TxMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxMemory")
            .field("words", &self.words.len())
            .field("lines", &self.lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants() {
        assert_eq!(LINE_BYTES, 128);
        assert_eq!(WORDS_PER_LINE, 16);
        assert_eq!(LINE_SHIFT, 4);
    }

    #[test]
    fn line_mapping() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(15), 0);
        assert_eq!(line_of(16), 1);
        assert_eq!(line_base(3), 48);
        assert_eq!(line_of(line_base(7)), 7);
    }

    #[test]
    fn lines_spanned_counts() {
        assert_eq!(lines_spanned(0, 0), 0);
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(0, 16), 1);
        assert_eq!(lines_spanned(0, 17), 2);
        assert_eq!(lines_spanned(15, 2), 2);
        assert_eq!(lines_spanned(8, 16), 2);
    }

    #[test]
    fn round_up() {
        assert_eq!(round_up_to_line(0), 0);
        assert_eq!(round_up_to_line(1), 16);
        assert_eq!(round_up_to_line(16), 16);
        assert_eq!(round_up_to_line(17), 32);
    }

    #[test]
    fn memory_rounds_to_lines() {
        let m = TxMemory::new(17);
        assert_eq!(m.len(), 32);
        assert_eq!(m.lines(), 2);
    }

    #[test]
    fn load_store_roundtrip() {
        let m = TxMemory::new(64);
        assert_eq!(m.load(5), 0);
        m.store(5, 42);
        assert_eq!(m.load(5), 42);
        m.store_release(6, 7);
        assert_eq!(m.load_acquire(6), 7);
    }

    #[test]
    fn cas_and_fetch_add() {
        let m = TxMemory::new(16);
        assert_eq!(m.compare_exchange(0, 0, 9), Ok(0));
        assert_eq!(m.compare_exchange(0, 0, 1), Err(9));
        assert_eq!(m.fetch_add(0, 1), 9);
        assert_eq!(m.load(0), 10);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_load_panics() {
        let m = TxMemory::new(16);
        let _ = m.load(16);
    }

    #[test]
    fn prefetch_out_of_range_is_a_no_op() {
        let m = TxMemory::new(16);
        m.prefetch(16);
        m.prefetch(Addr::MAX);
    }

    #[test]
    fn concurrent_raw_stores_are_safe() {
        let m = TxMemory::new(WORDS_PER_LINE * 4);
        crossbeam_utils::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move |_| {
                    for i in 0..1000u64 {
                        m.store(t, i);
                        let _ = m.load((t + 1) % 4);
                    }
                });
            }
        })
        .unwrap();
    }
}
