//! The cache-line conflict directory.
//!
//! Stand-in for the coherence-protocol side of the TMCAM: for every cache
//! line currently tracked by some transaction it records the (at most one)
//! transactional writer and the set of HTM-mode transactional readers. All
//! simulated accesses consult the directory to detect conflicts; entries
//! are identified by `(thread, incarnation)` pairs so stale registrations
//! left behind by killed transactions can be garbage-collected lazily by
//! whoever stumbles over them.
//!
//! ## Layout
//!
//! [`Directory`] is a pair of fixed-capacity arrays indexed directly by
//! cache-line id: a **dense array of packed `AtomicU64` ownership words**
//! (the writer registrations, one CAS to publish), and a parallel array of
//! reader slots — an inline first-reader word plus a spinlocked overflow
//! vector that only multi-reader lines ever touch. The split matters: the
//! read-side fast path ("does this line have a writer?") touches only the
//! 8-byte-per-line writer array, 1/16 of the simulated memory; the wider
//! reader slots are only dereferenced by tracked-reader registration and
//! by write-path scans. The uncontended access path is therefore one or
//! two atomic operations with no locking — this is what every simulated
//! memory access pays, so it dominates the whole simulator's profile. On
//! a large simulated memory the writer word is as likely a host cache miss
//! as the data word, so accesses issue both loads up front
//! ([`Directory::prefetch`], `TxMemory::prefetch`) and pay one miss, not
//! two in sequence. Both arrays are allocated zeroed
//! (`txmem::zeroed_slice`): lines a run never touches cost no memory.
//! Identity indexing needs no probing because line ids are dense and
//! bounded by the memory size (`txmem` panics on out-of-range addresses),
//! so `capacity == memory lines` always covers every possible key.
//!
//! See DESIGN.md ("Lock-free conflict directory") for the full protocol
//! and memory-ordering argument.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use txmem::Line;

/// Identity of a transaction registration: hardware thread + incarnation.
///
/// The incarnation is bumped on every `begin`, so an `Owner` can never be
/// confused with a later transaction of the same thread (no ABA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owner {
    pub tid: u32,
    pub inc: u64,
}

/// Bits of the packed ownership word reserved for `tid + 1` (0 = vacant).
const TID_BITS: u64 = 16;

impl Owner {
    /// Pack into an ownership word: `(inc << 16) | (tid + 1)`; 0 is vacant.
    #[inline]
    fn pack(self) -> u64 {
        debug_assert!((self.tid as u64) < (1 << TID_BITS) - 1, "tid overflows packed word");
        debug_assert!(self.inc < 1 << (64 - TID_BITS), "incarnation overflows packed word");
        (self.inc << TID_BITS) | (self.tid as u64 + 1)
    }

    /// Unpack an ownership word; `None` when vacant.
    #[inline]
    fn unpack(word: u64) -> Option<Owner> {
        let tid_plus_1 = word & ((1 << TID_BITS) - 1);
        if tid_plus_1 == 0 {
            None
        } else {
            Some(Owner { tid: (tid_plus_1 - 1) as u32, inc: word >> TID_BITS })
        }
    }
}

/// Per-line tracked-reader slot.
///
/// `reader0` holds a packed [`Owner`] word (0 = vacant). Lines with at
/// most one concurrent tracked reader — the overwhelmingly common case,
/// since HTM-mode tracked readers are rare under SI-HTM — never touch the
/// spinlocked overflow sidecar; `extra_count` lets scans skip it without
/// taking the lock. All-zero bytes are a vacant slot (the overflow vector
/// is created on the first spill), so the slot array is allocated zeroed.
struct ReaderSlot {
    reader0: AtomicU64,
    extra_count: AtomicU64,
    extra_lock: AtomicBool,
    // Boxed because `None::<Box<_>>` is guaranteed all-zero; `Option<Vec>`
    // has no such layout guarantee.
    #[allow(clippy::box_collection)]
    extra: UnsafeCell<Option<Box<Vec<u64>>>>,
}

// SAFETY: `reader0`, `extra_count` and `extra_lock` are atomics; `extra`,
// the only field without `Sync`, is only touched while `extra_lock` is held
// (see `with_extra`), and the `Box<Vec<u64>>` it may hold is `Send`.
unsafe impl Sync for ReaderSlot {}

impl ReaderSlot {
    /// Run `f` on the overflow vector under the slot spinlock.
    fn with_extra<R>(&self, f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
        crate::util::spin_wait(|| {
            self.extra_lock
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        });
        // SAFETY: the spinlock above gives exclusive access.
        let extra = unsafe { &mut *self.extra.get() };
        let r = f(extra.get_or_insert_with(Box::default));
        self.extra_lock.store(false, Ordering::Release);
        r
    }

    fn is_empty(&self) -> bool {
        self.reader0.load(Ordering::SeqCst) == 0 && self.extra_count.load(Ordering::SeqCst) == 0
    }
}

/// Lock-free line-ownership table: a dense writer-word array plus a
/// parallel reader-slot array, both indexed by cache-line id.
pub struct Directory {
    writers: Box<[AtomicU64]>,
    readers: Box<[ReaderSlot]>,
}

impl Directory {
    /// Build the directory for a machine with `lines` cache lines of
    /// simulated memory.
    pub fn new(lines: usize) -> Self {
        // SAFETY: all-zero bytes are a vacant `ReaderSlot`: zero atomics, an
        // unlocked `extra_lock`, and `None` in `extra` (`None::<Box<_>>` is
        // the null pointer).
        let readers = unsafe { txmem::zeroed_slice(lines) };
        Directory { writers: txmem::zeroed_words(lines), readers }
    }

    /// Start loading the host cache lines an access to `line` is about to
    /// touch: its writer word and, with `readers`, its reader slot. A hint:
    /// out-of-range lines are ignored here and panic at the access itself.
    #[inline]
    pub fn prefetch(&self, line: Line, readers: bool) {
        txmem::prefetch(&self.writers, line as usize);
        if readers {
            txmem::prefetch(&self.readers, line as usize);
        }
    }

    /// Current writer registration on `line`, if any.
    #[inline]
    pub fn writer(&self, line: Line) -> Option<Owner> {
        Owner::unpack(self.writers[line as usize].load(Ordering::SeqCst))
    }

    /// Publish `me` as the line's writer iff the line has no writer.
    /// On failure, returns the current (possibly stale) registration.
    #[inline]
    pub fn try_claim_writer(&self, line: Line, me: Owner) -> Result<(), Owner> {
        match self.writers[line as usize].compare_exchange(
            0,
            me.pack(),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => Ok(()),
            Err(cur) => Err(Owner::unpack(cur).expect("CAS failed against vacant word")),
        }
    }

    /// Remove `owner`'s writer registration on `line`, if still present.
    /// Returns whether this call removed it.
    #[inline]
    pub fn clear_writer_if(&self, line: Line, owner: Owner) -> bool {
        self.writers[line as usize]
            .compare_exchange(owner.pack(), 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Add `me` to the line's tracked-reader set (idempotent).
    pub fn register_reader(&self, line: Line, me: Owner) {
        let slot = &self.readers[line as usize];
        let word = me.pack();
        // Inline fast path: claim the first-reader word with one CAS.
        match slot.reader0.compare_exchange(0, word, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return,
            Err(cur) if cur == word => return, // already registered
            Err(_) => {}
        }
        slot.with_extra(|v| {
            if !v.contains(&word) {
                v.push(word);
                // The count is bumped while the lock is held; its SeqCst RMW
                // is the registration's publication point for the Dekker
                // handshake with writers (see DESIGN.md).
                slot.extra_count.fetch_add(1, Ordering::SeqCst);
            }
        });
    }

    /// Remove `owner` from the line's tracked-reader set, if present.
    pub fn unregister_reader(&self, line: Line, owner: Owner) {
        let slot = &self.readers[line as usize];
        let word = owner.pack();
        if slot.reader0.compare_exchange(word, 0, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            return;
        }
        if slot.extra_count.load(Ordering::SeqCst) == 0 {
            return; // someone else already removed it
        }
        slot.with_extra(|v| {
            if let Some(pos) = v.iter().position(|w| *w == word) {
                v.swap_remove(pos);
                slot.extra_count.fetch_sub(1, Ordering::SeqCst);
            }
        });
    }

    /// Snapshot the line's tracked readers into `out` (cleared first).
    pub fn readers_into(&self, line: Line, out: &mut Vec<Owner>) {
        out.clear();
        let slot = &self.readers[line as usize];
        if let Some(r) = Owner::unpack(slot.reader0.load(Ordering::SeqCst)) {
            out.push(r);
        }
        if slot.extra_count.load(Ordering::SeqCst) > 0 {
            slot.with_extra(|v| out.extend(v.iter().filter_map(|w| Owner::unpack(*w))));
        }
    }

    /// Total number of lines with live registrations (tests/metrics only).
    pub fn tracked_lines(&self) -> usize {
        self.writers
            .iter()
            .zip(self.readers.iter())
            .filter(|(w, r)| w.load(Ordering::SeqCst) != 0 || !r.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O1: Owner = Owner { tid: 1, inc: 10 };
    const O2: Owner = Owner { tid: 2, inc: 20 };

    #[test]
    fn owner_word_roundtrip() {
        for o in [O1, O2, Owner { tid: 0, inc: 0 }, Owner { tid: 79, inc: u32::MAX as u64 }] {
            assert_eq!(Owner::unpack(o.pack()), Some(o));
            assert_ne!(o.pack(), 0, "no owner packs to the vacant word");
        }
        assert_eq!(Owner::unpack(0), None);
    }

    #[test]
    fn empty_directory_tracks_nothing() {
        let d = Directory::new(128);
        assert_eq!(d.writer(7), None);
        let mut readers = Vec::new();
        d.readers_into(7, &mut readers);
        assert!(readers.is_empty());
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn registrations_persist_until_removed() {
        let d = Directory::new(128);
        assert_eq!(d.try_claim_writer(7, O1), Ok(()));
        d.register_reader(7, O2);
        assert_eq!(d.tracked_lines(), 1);
        assert_eq!(d.writer(7), Some(O1));
        let mut readers = Vec::new();
        d.readers_into(7, &mut readers);
        assert_eq!(readers, vec![O2]);
        assert!(d.clear_writer_if(7, O1));
        assert_eq!(d.writer(7), None);
        d.unregister_reader(7, O2);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn claim_fails_against_existing_writer() {
        let d = Directory::new(128);
        assert_eq!(d.try_claim_writer(3, O1), Ok(()));
        assert_eq!(d.try_claim_writer(3, O2), Err(O1));
        assert_eq!(d.writer(3), Some(O1));
    }

    #[test]
    fn removal_checks_owner_identity() {
        let d = Directory::new(128);
        assert_eq!(d.try_claim_writer(3, O1), Ok(()));
        // A different incarnation of the same thread must not remove it.
        assert!(!d.clear_writer_if(3, Owner { tid: 1, inc: 11 }));
        assert_eq!(d.writer(3), Some(O1));
        assert!(d.clear_writer_if(3, O1));
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn reader_registration_is_idempotent() {
        let d = Directory::new(128);
        d.register_reader(5, O1);
        d.register_reader(5, O1);
        let mut readers = Vec::new();
        d.readers_into(5, &mut readers);
        assert_eq!(readers, vec![O1]);
        d.unregister_reader(5, O1);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn many_readers_spill_into_overflow() {
        let d = Directory::new(128);
        let owners: Vec<Owner> = (0..10).map(|t| Owner { tid: t, inc: t as u64 + 1 }).collect();
        for &o in &owners {
            d.register_reader(9, o);
        }
        let mut readers = Vec::new();
        d.readers_into(9, &mut readers);
        let mut got: Vec<u32> = readers.iter().map(|o| o.tid).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(d.tracked_lines(), 1);
        for &o in &owners {
            d.unregister_reader(9, o);
        }
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn lines_are_independent() {
        let d = Directory::new(128);
        for line in 0..100 {
            assert_eq!(d.try_claim_writer(line, O1), Ok(()));
        }
        assert_eq!(d.tracked_lines(), 100);
        for line in 0..100 {
            assert!(d.clear_writer_if(line, O1));
        }
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn concurrent_claims_admit_exactly_one_writer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let d = Directory::new(8);
        let wins = AtomicUsize::new(0);
        crossbeam_utils::thread::scope(|s| {
            for t in 0..4u32 {
                let d = &d;
                let wins = &wins;
                s.spawn(move |_| {
                    if d.try_claim_writer(0, Owner { tid: t, inc: 1 }).is_ok() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(wins.load(Ordering::Relaxed), 1);
        assert!(d.writer(0).is_some());
    }
}
