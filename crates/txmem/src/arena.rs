//! Host-side memory for the simulator's per-word and per-line arrays.
//!
//! A simulated machine sizes its arrays to the whole simulated memory —
//! the word array itself, the directory's per-line owner words, Silo's
//! TID words, P8TM's version counters — but a run touches only the lines
//! its workload lays out. [`zeroed_slice`] takes those arrays straight
//! from the allocator already zeroed: large ones are fresh anonymous
//! pages that the kernel faults in on first touch, so construction costs
//! no fill pass and untouched lines cost no resident memory. On Linux the
//! 2 MiB-aligned interior is advised for transparent huge pages, which
//! cuts the TLB misses of a large random-access footprint.
//!
//! [`prefetch`] is the other half of the host cost model: each simulated
//! access issues the host loads it is about to make (data word, owner
//! word) up front so their cache misses overlap instead of running one
//! after the other.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::AtomicU64;

/// A boxed slice of `len` all-zero `T`s, from `alloc_zeroed`.
///
/// # Safety
///
/// The all-zero bit pattern must be a valid value of `T`.
pub unsafe fn zeroed_slice<T>(len: usize) -> Box<[T]> {
    assert!(std::mem::size_of::<T>() > 0, "zero-sized arena element");
    if len == 0 {
        return Vec::new().into_boxed_slice();
    }
    let layout = Layout::array::<T>(len).expect("arena size overflows isize");
    // SAFETY: `layout` has non-zero size (checked above).
    let ptr = unsafe { alloc_zeroed(layout) }.cast::<T>();
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    advise_huge_pages(ptr.cast(), layout.size());
    // SAFETY: `ptr` is a live allocation of exactly `Layout::array::<T>(len)`
    // from the global allocator — the layout `Box<[T]>` frees with — and
    // all `len` elements are zero bytes, a valid `T` by the caller's
    // contract.
    unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) }
}

/// `len` atomic words, all zero (see [`zeroed_slice`]).
pub fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    // SAFETY: all-zero bytes are `AtomicU64::new(0)`.
    unsafe { zeroed_slice(len) }
}

/// Ask the host CPU to start loading the cache line holding `slice[index]`.
///
/// A hint only: it changes no value and never faults, and an out-of-range
/// `index` is ignored (the access that follows panics on it instead).
#[inline(always)]
pub fn prefetch<T>(slice: &[T], index: usize) {
    let Some(r) = slice.get(index) else { return };
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` never faults and has no architectural effect;
    // SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(target_os = "linux")]
fn advise_huge_pages(ptr: *mut u8, len: usize) {
    const HUGE: usize = 2 << 20;
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    let start = (ptr as usize).next_multiple_of(HUGE);
    let end = (ptr as usize + len) / HUGE * HUGE;
    if end > start {
        // SAFETY: `[start, end)` lies inside the caller's fresh allocation,
        // and MADV_HUGEPAGE only changes how its pages are backed, never
        // their contents. Failure (THP disabled, old kernel) is harmless.
        unsafe { madvise(start as *mut u8, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_ptr: *mut u8, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn zeroed_words_are_zero_and_writable() {
        for len in [0, 1, 17, 1 << 20] {
            let w = zeroed_words(len);
            assert_eq!(w.len(), len);
            assert!(w.iter().all(|x| x.load(Ordering::Relaxed) == 0));
            if let Some(last) = w.last() {
                last.store(7, Ordering::Relaxed);
                assert_eq!(last.load(Ordering::Relaxed), 7);
            }
        }
    }
}
