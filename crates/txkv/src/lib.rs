//! # txkv — a transactional key-value service layer over `tm-api`
//!
//! Every workload in this tree is a *closed-loop driver*: the thread that
//! generates an operation also executes it. A serving tier is the
//! opposite shape — requests arrive from the outside at their own rate,
//! queue, get executed by a fixed pool of workers, and are answered with
//! a measurable end-to-end latency. `txkv` adds that layer:
//!
//! * [`KvStore`] — an embedded transactional key-value store
//!   (get / put / delete / cas, multi-key reads and read-write
//!   transactions, prefix scans) written once against [`tm_api::Tx`] /
//!   [`tm_api::TmThread`], so it runs unchanged over all four backends
//!   (SI-HTM, HTM+SGL, P8TM, Silo);
//! * [`queue::SubmitQueue`] — bounded MPMC submission queues with
//!   shed-on-full admission control (a typed [`KvError::Overloaded`]
//!   instead of unbounded queue growth);
//! * [`Pipeline`] — per-core executor threads, each owning one backend
//!   thread handle, that **batch read-only requests into a single
//!   read-only transaction**. On SI-HTM that transaction runs on the
//!   unbounded, never-aborting RO fast path (§3.3 of the paper), so an
//!   arbitrarily large batch of gets/scans costs one quiescence
//!   interaction instead of one per request — the serving-tier payoff of
//!   the paper's headline property;
//! * per-op-class latency histograms ([`tm_api::LatencyHist`]) recording
//!   end-to-end (enqueue → reply) and service-only time, with
//!   p50/p90/p99/p999 SLO reporting;
//! * graceful drain/shutdown: in-flight requests are either answered or
//!   cleanly shed with [`KvReply::Shed`], never lost;
//! * [`ShardMap`] + [`Pipeline::start_sharded`] — scale-out across N
//!   *independent* backend instances (each its own conflict directory
//!   and quiescence domain) with shard-affine routing: single-shard
//!   requests pay zero cross-shard coordination, and multi-shard updates
//!   run two-phase commit over per-shard transactions with SGL
//!   escalation as the fall-back (see [`shard`] and DESIGN.md §11);
//! * [`durability`] — an opt-in per-shard commit-ordered write-ahead
//!   log with group-commit fsync ([`DurabilityMode`]: Off / Async /
//!   Sync-on-ack), periodic checkpoints with log truncation, and crash
//!   recovery that replays into fresh backend instances — resolving
//!   in-flight 2PC transactions from decision records. Logging happens
//!   strictly after commit (on SI-HTM: after the quiescence wait), so
//!   the RO fast path is untouched — the DUMBO discipline (see
//!   [`durability`] and DESIGN.md §12).
//!
//! The PR-4 resilience layer covers the service path too: executors are
//! yield points for the `txmem::hooks` chaos injector (stalls and forced
//! aborts land inside the service loop), and each executor owns a
//! [`tm_api::ContentionManager`] used to pace idle re-polls so a large
//! executor pool doesn't stampede the queue lock.
//!
//! ## Isolation contract
//!
//! What a multi-key read observes depends on the backend underneath —
//! exactly the per-backend guarantee spread that Raad–Lahav–Vafeiadis
//! formalize for SI APIs (see PAPERS.md):
//!
//! | backend  | multi-key reads            | read-write txns        |
//! |----------|----------------------------|------------------------|
//! | SI-HTM   | consistent snapshot (SI)   | SI (write skew allowed; `cas`/`multi_add` serialize via write-write conflicts) |
//! | HTM+SGL  | serializable               | serializable           |
//! | P8TM     | serializable               | serializable           |
//! | Silo     | serializable               | serializable           |
//!
//! A whole RO batch executes as **one** transaction, so batched requests
//! additionally share a single snapshot — strictly stronger than serving
//! them one by one, and always admissible: any snapshot between a
//! request's enqueue and its reply is a correct answer for that request.
//!
//! ## Example
//!
//! ```
//! use txkv::{KvOp, KvReply, KvStore, Pipeline, PipelineConfig};
//!
//! let backend = si_htm::SiHtm::with_defaults(1 << 16);
//! let store = KvStore::create(tm_api::TmBackend::memory(&backend), 0, 1 << 16);
//! let pipeline = Pipeline::start(backend, store, PipelineConfig::quick());
//! let client = pipeline.client();
//! client.call(KvOp::Put { key: 7, val: 42 }).unwrap();
//! assert_eq!(client.call(KvOp::Get { key: 7 }), Ok(KvReply::Value(Some(42))));
//! let report = pipeline.shutdown();
//! assert_eq!(report.replies, 2);
//! ```

pub mod durability;
pub mod pipeline;
pub mod proc;
pub mod queue;
pub mod shard;
pub mod store;

pub use durability::{
    recover, recover_and_open, CrashSite, CrashSpec, DurabilityConfig, DurabilityMode, FaultGuard,
    FaultPlan, FaultReport, FaultTarget, RecoveryReport, ShardHealth, StorageError,
    StorageErrorKind, WalError, WalSet,
};
pub use pipeline::{
    ClassLat, KvClient, PendingReply, Pipeline, PipelineConfig, ReplySlot, ServiceReport,
};
pub use proc::{KvTx, LocalTx, ProcCtx, ProcRegistry, Procedure, Scope, PROC_WRITE_MAX};
pub use queue::{PushError, SubmitQueue};
pub use shard::{Partitioning, Route, ShardMap, XLock};
pub use store::{KvOp, KvReply, KvStore, OpClass};

/// Typed service-layer errors surfaced to submitters.
///
/// Refusals carry the refused op's [`OpClass`] and (where routing has
/// already happened) the shard that refused, so a fronting layer — the
/// wire protocol in `txkv-net`, the BENCH rows — can report *which*
/// lane/class shed without re-deriving the route. All variants stay
/// `Copy`: a refusal is a small value that crosses thread and wire
/// boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Admission control shed the request: the submission queue lane for
    /// its op class is full. Back off and retry; the queue never grows
    /// without bound. `shard` is `None` for cross-shard requests refused
    /// at the shared xqueue.
    Overloaded {
        /// Class of the refused op.
        class: OpClass,
        /// Shard whose queue was full, or `None` for the cross-shard queue.
        shard: Option<u32>,
    },
    /// The pipeline is draining or stopped; no new work is accepted.
    ShuttingDown,
    /// A multi-key write exceeds the pipeline's `multi_key_max` (executor
    /// scratch is pre-sized; unbounded write sets are refused up front).
    TooLarge {
        /// Class of the refused op.
        class: OpClass,
        /// Keys the op carried.
        keys: u32,
        /// The pipeline's `multi_key_max`.
        max: u32,
    },
    /// An update routed to a shard whose log is degraded (`ReadOnly` or
    /// `Failed` storage health). Reads still serve; the shard rejoins
    /// via probe writes once the medium heals.
    Unavailable {
        /// Class of the refused op.
        class: OpClass,
        /// First degraded shard on the op's route.
        shard: u32,
    },
}

impl KvError {
    /// The refused op's class, when the refusal is class-specific
    /// (`ShuttingDown` refuses everything and carries none).
    pub fn class(&self) -> Option<OpClass> {
        match self {
            KvError::Overloaded { class, .. }
            | KvError::TooLarge { class, .. }
            | KvError::Unavailable { class, .. } => Some(*class),
            KvError::ShuttingDown => None,
        }
    }

    /// The shard that refused, where routing had already resolved one.
    pub fn shard(&self) -> Option<u32> {
        match self {
            KvError::Overloaded { shard, .. } => *shard,
            KvError::Unavailable { shard, .. } => Some(*shard),
            KvError::TooLarge { .. } | KvError::ShuttingDown => None,
        }
    }
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Overloaded { class, shard: Some(s) } => {
                write!(f, "overloaded: {} lane full on shard {s}", class.name())
            }
            KvError::Overloaded { class, shard: None } => {
                write!(f, "overloaded: {} lane full on the cross-shard queue", class.name())
            }
            KvError::ShuttingDown => write!(f, "shutting down: submissions closed"),
            KvError::TooLarge { class, keys, max } => {
                write!(
                    f,
                    "{} with {keys} keys exceeds the pipeline's multi_key_max {max}",
                    class.name()
                )
            }
            KvError::Unavailable { class, shard } => {
                write!(f, "unavailable: {} refused, shard {shard}'s log is degraded", class.name())
            }
        }
    }
}

impl std::error::Error for KvError {}
