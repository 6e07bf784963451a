//! Backend-agnostic transactional-memory API.
//!
//! The paper evaluates four concurrency-control mechanisms over the same
//! workloads: SI-HTM (the contribution), plain HTM with an SGL fall-back,
//! P8TM and Silo. This crate defines the surface they all implement so the
//! hash-map and TPC-C drivers are written once:
//!
//! * [`TmBackend`] — a constructed concurrency-control instance owning the
//!   shared [`txmem::TxMemory`];
//! * [`TmThread`] — a registered worker thread that executes transactions
//!   via [`TmThread::exec`], retrying and falling back per the backend's
//!   policy and recording the abort taxonomy of the paper's figures;
//! * [`Tx`] — the access handle passed to a transaction body
//!   (`read`/`write`/`promote_read`);
//! * [`ThreadStats`] — commits plus aborts discriminated *transactional* /
//!   *non-transactional* / *capacity*, exactly the breakdown plotted in
//!   Figures 6–10.
//!
//! Transaction bodies are closures returning `Result<(), Abort>`; backend
//! aborts must be propagated with `?` so the engine can clean up and retry.
//! A body may also request a semantic rollback ([`Abort::User`]), which is
//! not retried (used by TPC-C's 1 % rolled-back new-orders).

pub mod deadline;
pub mod hist;
pub mod policy;
pub mod stats;

pub use hist::LatencyHist;
pub use policy::{BackoffPolicy, ContentionManager, RetryPolicy, Watchdog};
pub use stats::{ThreadStats, TwoPcStats, WalStats};

pub use htm_sim::AbortReason;
use txmem::{Addr, TxMemory};

/// Why a transaction body stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// The concurrency-control mechanism aborted the transaction; the
    /// engine retries (or falls back) according to its policy.
    Backend,
    /// The application logic requests a rollback (e.g. TPC-C invalid item).
    /// Not retried.
    User,
}

/// Result of [`TmThread::exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The body committed (possibly after retries / on the fall-back path).
    Committed,
    /// The body requested a user abort; its effects were rolled back.
    UserAborted,
}

/// Is the transaction declared read-only?
///
/// SI-HTM exploits this declaration for its read-only fast path (§3.3);
/// the declaration is the programmer's/compiler's responsibility, exactly
/// as in the paper. Declaring an updating transaction `ReadOnly` is a
/// correctness bug in the *application* (backends may panic on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    ReadOnly,
    Update,
}

/// Access handle passed to transaction bodies.
pub trait Tx {
    /// Transactional read of one 64-bit word.
    fn read(&mut self, addr: Addr) -> Result<u64, Abort>;

    /// Transactional write of one 64-bit word.
    fn write(&mut self, addr: Addr, val: u64) -> Result<(), Abort>;

    /// Read promotion (§2.1): read the word *and* insert it into the write
    /// set, so that SI's write-write conflict detection guards it — the
    /// standard fix for write-skew anomalies. The default implementation
    /// re-writes the value just read.
    fn promote_read(&mut self, addr: Addr) -> Result<u64, Abort> {
        let v = self.read(addr)?;
        self.write(addr, v)?;
        Ok(v)
    }
}

/// A transaction body.
pub type TxBody<'a> = &'a mut dyn FnMut(&mut dyn Tx) -> Result<(), Abort>;

/// A worker thread registered with a backend.
pub trait TmThread: Send {
    /// Execute one transaction to completion: run `body`, retrying on
    /// backend aborts and taking the backend's fall-back path when the
    /// retry budget is exhausted. Statistics are recorded on `self`.
    fn exec(&mut self, kind: TxKind, body: TxBody<'_>) -> Outcome;

    /// Statistics accumulated so far.
    fn stats(&self) -> &ThreadStats;

    /// Drain the statistics (used between warm-up and measurement).
    fn reset_stats(&mut self);

    /// Execute one update transaction directly on the backend's serialized
    /// fall-back path, skipping the optimistic attempts entirely.
    ///
    /// Used by cross-shard two-phase commit: once one participant shard has
    /// escalated to its single-global-lock path, running the remaining
    /// participants optimistically only risks further aborts mid-protocol,
    /// so the coordinator pins them all to the serialized path. Backends
    /// with an SGL (SI-HTM, HTM+SGL, P8TM) override this to acquire the
    /// lock immediately; software backends with no lock path (Silo) fall
    /// back to a normal update execution, which is already abort-free from
    /// the caller's perspective ([`TmThread::exec`] retries internally).
    fn exec_escalated(&mut self, body: TxBody<'_>) -> Outcome {
        self.exec(TxKind::Update, body)
    }
}

/// A constructed concurrency-control instance.
pub trait TmBackend: Send + Sync + 'static {
    type Thread: TmThread;

    /// Human-readable name used in reports ("HTM", "SI-HTM", "P8TM", "Silo").
    fn name(&self) -> &'static str;

    /// Register a worker thread. Call once per OS thread.
    fn register_thread(&self) -> Self::Thread;

    /// The shared memory (for non-transactional population/validation).
    fn memory(&self) -> &TxMemory;
}

/// Convenience: run a read-modify-write increment, the canonical smoke-test
/// transaction.
pub fn increment<T: TmThread + ?Sized>(thread: &mut T, addr: Addr) -> Outcome {
    thread.exec(TxKind::Update, &mut |tx| {
        let v = tx.read(addr)?;
        tx.write(addr, v + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopTx;
    impl Tx for NopTx {
        fn read(&mut self, _addr: Addr) -> Result<u64, Abort> {
            Ok(7)
        }
        fn write(&mut self, _addr: Addr, _val: u64) -> Result<(), Abort> {
            Ok(())
        }
    }

    #[test]
    fn promote_read_default_rewrites_value() {
        let mut tx = NopTx;
        assert_eq!(tx.promote_read(0), Ok(7));
    }

    #[test]
    fn abort_variants_distinguish_retry_semantics() {
        assert_ne!(Abort::Backend, Abort::User);
    }
}
