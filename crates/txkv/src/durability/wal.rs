//! Per-shard commit-ordered logs with per-shard storage health.
//!
//! A [`WalSet`] owns one log per shard. Appends happen under the shard's
//! *commit lock* — a spinlock the pipeline holds across
//! `exec(Update)` + `append`, making the pair the shard's commit
//! serialization point: per-shard LSN order *is* commit order on every
//! backend. On SI-HTM specifically, `exec` returns only after the
//! pre-commit quiescence (safety) wait, so the record lands strictly
//! after the commit is globally visible — logging never sits inside the
//! hardware transaction and can never abort it (the DUMBO discipline).
//!
//! Appends buffer in user space; [`WalSet::flush`] writes and fsyncs the
//! buffer as one *group commit*. `Sync` mode acks ride on the flushed
//! LSN watermark ([`WalSet::durable_lsn`]); `Async` mode acks
//! immediately and flushes on the same cadence. Flush and checkpoint I/O
//! happen **outside** the shard mutex (the buffer is swapped out,
//! written, and the watermark advanced under a brief re-lock), so
//! appenders and the log writer are never blocked behind a slow or
//! stalled fsync. In the pipeline, group-commit flushes run on one
//! log-writer thread that also settles the Sync acks (`crate::pipeline`,
//! "Group commit"). Every other durable wait — the 2PC coordinator's leg
//! round and Sync decision, a checkpoint's all-shard wait — is a ticket,
//! [`WalSet::wait_durable`]: it returns at once when the watermark covers
//! it and otherwise leads one flush, serialised with the writer's by the
//! shard's `io_lock`. Rejoin probes take the same lock.
//! [`WalSet::note_sync_ack_early`] is the writer's count of acks filled
//! above their shard's watermark.
//!
//! ## Storage faults and graceful degradation
//!
//! All file I/O goes through the [`storage`](super::storage) seam, so
//! real disk errors (and the injected ones) surface as typed
//! [`StorageError`]s, not process death. The error policy per shard is a
//! health state machine:
//!
//! ```text
//!   Healthy ──storage error──▶ Retrying ──bounded retries fail──▶ ReadOnly ──probes keep failing──▶ Failed
//!      ▲                          │ rewrite succeeds                  │ probe write succeeds            │
//!      └──────────────────────────┴──────────────────────────────────┴────────────────────────────────┘
//! ```
//!
//! *fsyncgate rule:* after a failed fsync the page-cache state of that
//! file is unknown, so the durable watermark **never** advances on it
//! and the un-durable frames are rewritten into a freshly rotated
//! segment — an fsync is never retried on the failed file. Recovery
//! tolerates the leftovers: the old tail is cut by checksum and any
//! duplicate frames are dropped by the LSN filter.
//!
//! A `ReadOnly`/`Failed` shard keeps serving reads; updates are shed as
//! the typed `Unavailable` outcome (never acked — `sync_acks_early == 0`
//! holds because Sync acks settle only on the durable watermark, and the
//! log writer counts any fill that would not). A probe-write loop ([`WalSet::probe`]) rejoins the shard
//! once the medium heals, first flushing any frames retained while
//! degraded so the durable state converges back to what reads observed.
//! The records a degraded shard still takes are the `XAbort` or `XDecide`
//! that ends a 2PC leg it already holds, behind that leg's frames.
//!
//! ## Simulated power failure
//!
//! Crash tests flip the set-wide `halted` flag (directly via
//! [`WalSet::halt_all`] or through a scripted [`CrashSpec`]). From that
//! instant every append/flush fails with [`WalError::Dead`] — from the
//! disk's point of view the machine lost power: whatever was fsynced is
//! the entire surviving state, and the pipeline sheds (never acks)
//! requests it can no longer make durable. The
//! [`CrashSite::MidGroupCommit`] effect discards the un-fsynced buffer
//! (written-but-not-synced data does not survive a power cut);
//! [`CrashSite::TornTail`] persists a *prefix* of the final record, the
//! artifact checksummed recovery must reject. The power switch is
//! machine-wide and final; storage-fault degradation is per-shard and
//! recoverable — the two channels are deliberately separate.

use super::checkpoint;
use super::record::{encode, Record};
use super::storage::{self, Storage, StorageError, VFile};
use crate::shard::{UndoImage, XLock, XUpdate};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use tm_api::WalStats;

/// When (and whether) an ack implies durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No logging at all (the pre-durability pipeline).
    Off,
    /// Commit-ordered logging with group-commit fsync, but acks do not
    /// wait: a crash may lose a suffix of *acknowledged* writes (it
    /// still never yields a torn or reordered state).
    Async,
    /// Sync-on-ack: the reply slot is filled only once the request's
    /// record is fsynced. An acknowledged write survives any crash.
    Sync,
}

impl DurabilityMode {
    pub fn name(self) -> &'static str {
        match self {
            DurabilityMode::Off => "off",
            DurabilityMode::Async => "async",
            DurabilityMode::Sync => "sync",
        }
    }
}

/// Scripted crash point for kill-and-restart tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After an update transaction committed in memory (on SI-HTM: after
    /// the quiescence wait) but before its record was appended — the
    /// quiescence-window crash. The write is lost *and was never acked*.
    AfterCommit,
    /// Inside a group-commit flush, before the fsync: the buffered
    /// records never reach disk (a power cut eats the page cache).
    MidGroupCommit,
    /// Inside a group-commit flush, persisting only a prefix of the
    /// final record: the torn-tail artifact recovery must detect by
    /// checksum and drop.
    TornTail,
    /// 2PC: after a leg's `XBegin` is durable, before the decision.
    /// Recovery must presume abort. A leg appends its `XBegin` and
    /// `XApply` together, so this site and [`CrashSite::AfterApply`] arm
    /// on the same per-leg flush.
    AfterPrepare,
    /// 2PC: after a leg's `XApply` is durable, before the decision.
    /// Recovery must compensate the applied participants.
    AfterApply,
    /// 2PC: after the decision is durable on at least one participant.
    /// Recovery must commit the transaction on *all* participants.
    AfterDecision,
}

impl CrashSite {
    pub const ALL: [CrashSite; 6] = [
        CrashSite::AfterCommit,
        CrashSite::MidGroupCommit,
        CrashSite::TornTail,
        CrashSite::AfterPrepare,
        CrashSite::AfterApply,
        CrashSite::AfterDecision,
    ];
}

/// Trip the simulated power failure at the `after`-th opportunity of
/// `site` (0 = the first time the site is reached).
#[derive(Debug, Clone, Copy)]
pub struct CrashSpec {
    pub site: CrashSite,
    pub after: u64,
}

/// Durability configuration for a pipeline.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    pub mode: DurabilityMode,
    /// Directory holding one `shard-<s>/` subdirectory per shard.
    pub dir: PathBuf,
    /// Flush when this many records are buffered (a momentarily empty
    /// update lane also triggers a flush, so light load is not delayed).
    pub group_commit_max: u64,
    /// Checkpoint a shard after this many appends since its last
    /// checkpoint (0 = never checkpoint).
    pub checkpoint_every: u64,
    /// Scripted crash for kill-and-restart tests.
    pub crash: Option<CrashSpec>,
    /// Rewrite attempts after a flush I/O error before the shard
    /// degrades to `ReadOnly` (each attempt rotates to a fresh segment).
    pub flush_retries: u32,
    /// Base of the jittered exponential pause between flush retries, in
    /// microseconds (capped at 10ms per pause).
    pub retry_base_us: u64,
    /// Consecutive failed rejoin probes before `ReadOnly` escalates to
    /// `Failed` (probing continues either way — a healed medium rejoins
    /// from both states).
    pub probe_fail_limit: u64,
    /// Cadence of the pipeline's maintenance loop (rejoin probes), in
    /// milliseconds. 0 disables the loop (no probes, no scrubbing).
    pub maintenance_interval_ms: u64,
    /// Cadence of scrubber passes re-verifying checkpoint and log-tail
    /// checksums, in milliseconds. 0 disables scrubbing only.
    pub scrub_interval_ms: u64,
}

impl DurabilityConfig {
    pub fn new(mode: DurabilityMode, dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            mode,
            dir: dir.into(),
            group_commit_max: 32,
            checkpoint_every: 0,
            crash: None,
            flush_retries: 4,
            retry_base_us: 50,
            probe_fail_limit: 8,
            maintenance_interval_ms: 25,
            scrub_interval_ms: 500,
        }
    }
}

/// Why the WAL refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// The simulated machine lost power: nothing appended after this
    /// point can ever become durable, on any shard.
    Dead,
    /// This shard's storage is degraded (`ReadOnly` or `Failed`): the
    /// shard keeps serving reads, updates are shed as the typed
    /// `Unavailable` outcome, and a rejoin probe runs in the background.
    Unavailable,
}

/// Per-shard storage health (the graceful-degradation state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardHealth {
    /// Appends and flushes succeed.
    Healthy,
    /// A flush hit a storage error and is inside its bounded
    /// rotate-and-rewrite retry loop; appends still buffer.
    Retrying,
    /// Retries exhausted: updates shed as `Unavailable`, reads still
    /// served, probe writes attempt to rejoin.
    ReadOnly,
    /// Probes keep failing too; still read-serving and still probed,
    /// but reported as a dead medium.
    Failed,
}

impl ShardHealth {
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Retrying => "retrying",
            ShardHealth::ReadOnly => "read_only",
            ShardHealth::Failed => "failed",
        }
    }

    /// Whether the shard currently accepts update appends.
    pub fn writable(self) -> bool {
        matches!(self, ShardHealth::Healthy | ShardHealth::Retrying)
    }

    fn from_u8(v: u8) -> ShardHealth {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Retrying,
            2 => ShardHealth::ReadOnly,
            _ => ShardHealth::Failed,
        }
    }
}

/// What to append (the WAL assigns the LSN under the shard lock).
pub enum Append<'a> {
    Write(&'a super::record::Writes),
    XBegin { xid: u64, parts: &'a [usize], upd: &'a XUpdate, undo: &'a UndoImage },
    XApply { xid: u64, writes: &'a super::record::Writes },
    XDecide { xid: u64 },
    XAbort { xid: u64, writes: &'a super::record::Writes },
}

struct ShardWal {
    dir: PathBuf,
    /// Current segment file (`wal-<first-lsn>.log`), append-only.
    /// `None` after a storage failure — the next flush/probe rotates to
    /// a fresh segment (never the failed file: the fsyncgate rule).
    file: Option<Box<dyn VFile>>,
    next_lsn: u64,
    /// Everything ≤ this LSN is on disk and fsynced.
    durable_lsn: u64,
    /// Last LSN appended (buffered; ≥ `durable_lsn`).
    appended_lsn: u64,
    /// Encoded frames appended since the last flush.
    buf: Vec<u8>,
    buf_records: u64,
    appends_since_ckpt: u64,
    stats: WalStats,
}

impl ShardWal {
    fn segment_path(&self, first_lsn: u64) -> PathBuf {
        self.dir.join(format!("wal-{first_lsn}.log"))
    }

    /// Open a fresh segment for the first not-yet-durable LSN. A file of
    /// that name can only hold un-acked garbage from an earlier failed
    /// rewrite (any valid frame in it would have LSN > durable, i.e.
    /// never acked; any frame ≤ durable would contradict the name), so
    /// it is removed rather than appended to — appending valid frames
    /// after garbage would hide them from checksummed recovery.
    fn open_segment(&mut self, storage: &dyn Storage) -> Result<(), StorageError> {
        let path = self.segment_path(self.durable_lsn + 1);
        let _ = storage.remove_file(&path);
        self.file = Some(storage.open_append(&path)?);
        Ok(())
    }

    /// Put a batch that failed to flush back in front of whatever was
    /// appended meanwhile, preserving LSN order for a later rejoin.
    fn restore_batch(&mut self, mut batch: Vec<u8>, records: u64) {
        batch.extend_from_slice(&self.buf);
        self.buf = batch;
        self.buf_records += records;
    }
}

struct CrashState {
    site: CrashSite,
    remaining: AtomicU64,
}

struct WalShard {
    commit_lock: XLock,
    /// Serializes flush/probe/checkpoint I/O so the segment file can be
    /// taken out of `inner` and written without blocking appenders.
    io_lock: Mutex<()>,
    health: AtomicU8,
    probe_failures: AtomicU64,
    ckpt_requested: AtomicBool,
    inner: Mutex<ShardWal>,
}

/// The per-shard logs plus the shared power switch and crash script.
pub struct WalSet {
    mode: DurabilityMode,
    dir: PathBuf,
    group_commit_max: u64,
    checkpoint_every: u64,
    flush_retries: u32,
    retry_base_us: u64,
    probe_fail_limit: u64,
    maintenance_interval_ms: u64,
    scrub_interval_ms: u64,
    storage: Arc<dyn Storage>,
    shards: Vec<WalShard>,
    halted: AtomicBool,
    crash: Option<CrashState>,
    next_xid: AtomicU64,
    retry_seed: AtomicU64,
    // Service-side counters that live outside the shard mutexes.
    sync_acks_early: AtomicU64,
    wal_dead_sheds: AtomicU64,
    degraded_sheds: AtomicU64,
    scrub_passes: AtomicU64,
    scrub_corruptions: AtomicU64,
    recovery_replayed: AtomicU64,
    recovery_torn: AtomicU64,
    /// Negative control: [`WalSet::wait_all_appended`] waits on nothing.
    #[cfg(test)]
    pub(crate) skip_all_shard_wait: AtomicBool,
}

impl WalSet {
    /// Open (creating directories and fresh segments as needed) the logs
    /// for `shards` shards. Continues LSN numbering past any existing
    /// checkpoints and segments — always into a *new* segment, so stale
    /// tails are never appended to.
    pub fn open(cfg: &DurabilityConfig, shards: usize) -> std::io::Result<Arc<WalSet>> {
        assert!(cfg.mode != DurabilityMode::Off, "WalSet::open with DurabilityMode::Off");
        assert!(cfg.group_commit_max > 0, "group_commit_max must be nonzero");
        let storage = storage::default_storage();
        let mut shard_wals = Vec::with_capacity(shards);
        for s in 0..shards {
            let dir = cfg.dir.join(format!("shard-{s}"));
            std::fs::create_dir_all(&dir)?;
            let max_lsn = scan_max_lsn(&dir)?;
            let mut wal = ShardWal {
                dir,
                file: None,
                next_lsn: max_lsn + 1,
                durable_lsn: max_lsn,
                appended_lsn: max_lsn,
                buf: Vec::new(),
                buf_records: 0,
                appends_since_ckpt: 0,
                stats: WalStats::default(),
            };
            wal.open_segment(storage.as_ref()).map_err(std::io::Error::other)?;
            shard_wals.push(WalShard {
                commit_lock: XLock::new(),
                io_lock: Mutex::new(()),
                health: AtomicU8::new(ShardHealth::Healthy as u8),
                probe_failures: AtomicU64::new(0),
                ckpt_requested: AtomicBool::new(false),
                inner: Mutex::new(wal),
            });
        }
        Ok(Arc::new(WalSet {
            mode: cfg.mode,
            dir: cfg.dir.clone(),
            group_commit_max: cfg.group_commit_max,
            checkpoint_every: cfg.checkpoint_every,
            flush_retries: cfg.flush_retries,
            retry_base_us: cfg.retry_base_us,
            probe_fail_limit: cfg.probe_fail_limit,
            maintenance_interval_ms: cfg.maintenance_interval_ms,
            scrub_interval_ms: cfg.scrub_interval_ms,
            storage,
            shards: shard_wals,
            halted: AtomicBool::new(false),
            crash: cfg
                .crash
                .map(|c| CrashState { site: c.site, remaining: AtomicU64::new(c.after) }),
            next_xid: AtomicU64::new(1),
            retry_seed: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            sync_acks_early: AtomicU64::new(0),
            wal_dead_sheds: AtomicU64::new(0),
            degraded_sheds: AtomicU64::new(0),
            scrub_passes: AtomicU64::new(0),
            scrub_corruptions: AtomicU64::new(0),
            recovery_replayed: AtomicU64::new(0),
            recovery_torn: AtomicU64::new(0),
            #[cfg(test)]
            skip_all_shard_wait: AtomicBool::new(false),
        }))
    }

    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    pub fn maintenance_interval_ms(&self) -> u64 {
        self.maintenance_interval_ms
    }

    pub fn scrub_interval_ms(&self) -> u64 {
        self.scrub_interval_ms
    }

    /// Fresh cross-shard transaction id.
    pub fn next_xid(&self) -> u64 {
        self.next_xid.fetch_add(1, Ordering::Relaxed)
    }

    /// The shard's commit-serialization lock. Hold it across
    /// `exec(Update)` + [`WalSet::append`] so log order equals commit
    /// order. It is an [`XLock`] (spin + poll-emitting), not an OS
    /// mutex, so it is safe under `tm-check`'s cooperative scheduler.
    pub fn commit_lock(&self, s: usize) -> crate::shard::XGuard<'_> {
        self.shards[s].commit_lock.lock()
    }

    /// Whether the simulated machine still has power.
    pub fn alive(&self) -> bool {
        !self.halted.load(Ordering::Acquire)
    }

    /// Throw the power switch: every subsequent append/flush fails, and
    /// the fsynced prefix of each log is the entire surviving state.
    pub fn halt_all(&self) {
        self.halted.store(true, Ordering::Release);
    }

    /// Storage health of shard `s`.
    pub fn health(&self, s: usize) -> ShardHealth {
        ShardHealth::from_u8(self.shards[s].health.load(Ordering::Acquire))
    }

    /// Health of every shard, by name (the service-report column).
    pub fn health_names(&self) -> Vec<&'static str> {
        (0..self.shards.len()).map(|s| self.health(s).name()).collect()
    }

    /// Whether any shard is currently degraded.
    pub fn degraded(&self) -> bool {
        (0..self.shards.len()).any(|s| !self.health(s).writable())
    }

    /// Typed admission check for an update touching shard `s`.
    pub fn admits(&self, s: usize) -> Result<(), WalError> {
        if !self.alive() {
            return Err(WalError::Dead);
        }
        if self.health(s).writable() {
            Ok(())
        } else {
            Err(WalError::Unavailable)
        }
    }

    fn set_health(&self, s: usize, h: ShardHealth) {
        self.shards[s].health.store(h as u8, Ordering::Release);
    }

    /// Reach a scripted crash site; trips the power switch when the
    /// countdown hits zero. The flush-interior sites
    /// ([`CrashSite::MidGroupCommit`], [`CrashSite::TornTail`]) are
    /// handled inside [`WalSet::flush`], not here.
    pub fn crash_point(&self, site: CrashSite) {
        if let Some(c) = &self.crash {
            if c.site == site && !self.halted.load(Ordering::Relaxed) && count_down(&c.remaining) {
                self.halt_all();
            }
        }
    }

    fn flush_crash(&self, site: CrashSite) -> bool {
        match &self.crash {
            Some(c) if c.site == site => count_down(&c.remaining),
            _ => false,
        }
    }

    /// Append one record to shard `s`'s buffer (not yet durable) and
    /// return its LSN. Call under the shard's commit lock.
    ///
    /// A degraded shard refuses every record but the two that end a 2PC
    /// leg it already holds. A leg whose flush failed left its
    /// `XBegin`/`XApply` retained in the buffer for the rejoin probe; its
    /// rollback's `XAbort` must land behind them, or the rejoin would make
    /// the leg durable without its rollback and recovery would undo it a
    /// second time, on top of later acked writes. A shard that degraded
    /// after its leg became durable still takes the `XDecide`: without it,
    /// a checkpoint pruning the other participants' decisions would leave
    /// recovery nothing but presumed abort for this leg.
    pub fn append(&self, s: usize, what: Append<'_>) -> Result<u64, WalError> {
        if !self.alive() {
            return Err(WalError::Dead);
        }
        let ends_leg = matches!(what, Append::XAbort { .. } | Append::XDecide { .. });
        if !self.health(s).writable() && !ends_leg {
            return Err(WalError::Unavailable);
        }
        let mut w = self.shards[s].inner.lock().unwrap();
        let lsn = w.next_lsn;
        let rec = match what {
            Append::Write(writes) => Record::Write { lsn, writes: writes.clone() },
            Append::XBegin { xid, parts, upd, undo } => Record::XBegin {
                lsn,
                xid,
                parts: parts.iter().map(|&p| p as u32).collect(),
                upd: upd.clone(),
                undo: undo.clone(),
            },
            Append::XApply { xid, writes } => Record::XApply { lsn, xid, writes: writes.clone() },
            Append::XDecide { xid } => Record::XDecide { lsn, xid },
            Append::XAbort { xid, writes } => Record::XAbort { lsn, xid, writes: writes.clone() },
        };
        let before = w.buf.len();
        encode(&rec, &mut w.buf);
        let frame = (w.buf.len() - before) as u64;
        w.next_lsn = lsn + 1;
        w.appended_lsn = lsn;
        w.buf_records += 1;
        w.appends_since_ckpt += 1;
        w.stats.wal_appends += 1;
        w.stats.wal_bytes += frame;
        Ok(lsn)
    }

    /// Group-commit flush of shard `s`: write the buffered frames and
    /// fsync, advancing the durable watermark to the last appended LSN.
    /// On a storage error the batch is rewritten into freshly rotated
    /// segments under bounded jittered retries; if those run out the
    /// shard degrades to [`ShardHealth::ReadOnly`] and the batch is
    /// retained (un-acked) for the rejoin probe.
    pub fn flush(&self, s: usize) -> Result<u64, WalError> {
        self.wait_durable(s, u64::MAX)
    }

    /// Wait until shard `s` is durable through `lsn`: the one durable
    /// wait outside the log writer (a *ticket*). Returns at once when the
    /// watermark already covers `lsn`. Otherwise the caller leads a group
    /// commit: it takes the shard's `io_lock`, which waits out any flush
    /// already in flight, and if that flush did not cover `lsn` it
    /// flushes everything buffered itself, other appenders' frames
    /// included. Fails like [`WalSet::flush`]: `Dead` once the power is
    /// out, `Unavailable` on a degraded shard.
    pub fn wait_durable(&self, s: usize, lsn: u64) -> Result<u64, WalError> {
        let covered = || Some(self.durable_lsn(s)).filter(|&d| d >= lsn);
        if let Some(d) = covered() {
            return Ok(d);
        }
        let _io = self.shards[s].io_lock.lock().unwrap();
        if let Some(d) = covered() {
            return Ok(d);
        }
        self.admits(s)?;
        self.flush_io_locked(s, 1 + self.flush_retries)
    }

    /// Wait on a ticket for every shard's last appended LSN. A checkpoint
    /// does this before it prunes: a cross-shard transaction's decision
    /// on this shard must not be pruned while its twin on another
    /// participant is still buffered (DESIGN.md §12.2).
    ///
    /// Fails fast: if any shard with frames still to flush cannot take a
    /// flush (degraded, or a dead log), it refuses before leading any
    /// flush or queueing on any `io_lock` — where a rejoin probe may sit
    /// in a write + fsync on a failing disk — so a degraded shard costs
    /// the other shards' checkpoints one skipped round, not an inline
    /// fsync under their locks.
    pub fn wait_all_appended(&self) -> Result<(), WalError> {
        #[cfg(test)]
        if self.skip_all_shard_wait.load(Ordering::Relaxed) {
            return Ok(());
        }
        let appended: Vec<u64> =
            self.shards.iter().map(|sh| sh.inner.lock().unwrap().appended_lsn).collect();
        for (s, &lsn) in appended.iter().enumerate() {
            if self.durable_lsn(s) < lsn {
                self.admits(s)?;
            }
        }
        for (s, lsn) in appended.into_iter().enumerate() {
            self.wait_durable(s, lsn)?;
        }
        Ok(())
    }

    /// The flush body. Caller holds the shard's `io_lock`; `attempts` is
    /// the total number of write+fsync tries (≥ 1).
    fn flush_io_locked(&self, s: usize, attempts: u32) -> Result<u64, WalError> {
        let sh = &self.shards[s];
        let mut w = sh.inner.lock().unwrap();
        if w.buf.is_empty() {
            return Ok(w.durable_lsn);
        }
        // Scripted crash artifacts: a power cut mid-group-commit loses
        // the un-fsynced buffer entirely; a torn tail persists a prefix
        // of the final record.
        if self.flush_crash(CrashSite::MidGroupCommit) {
            w.buf.clear();
            w.buf_records = 0;
            self.halt_all();
            return Err(WalError::Dead);
        }
        if self.flush_crash(CrashSite::TornTail) {
            // Cut inside the final frame: keep everything before it plus
            // half of the frame itself (at least its header, so the
            // checksum — not the length check alone — must reject it).
            let frames = frame_offsets(&w.buf);
            let last = *frames.last().unwrap_or(&0);
            let cut = last + (w.buf.len() - last).div_ceil(2).max(13.min(w.buf.len() - last));
            let torn = w.buf[..cut.min(w.buf.len())].to_vec();
            if let Some(f) = w.file.as_mut() {
                let _ = f.write_all(&torn);
                let _ = f.sync_data();
            }
            w.buf.clear();
            w.buf_records = 0;
            self.halt_all();
            return Err(WalError::Dead);
        }
        // Take the batch; appends keep buffering while we do I/O.
        let batch = std::mem::take(&mut w.buf);
        let records = w.buf_records;
        w.buf_records = 0;
        let target_lsn = w.appended_lsn;
        // A lost handle (or a prior failure) is not a panic: rotate to a
        // fresh segment for the first buffered LSN.
        if w.file.is_none() && w.open_segment(self.storage.as_ref()).is_err() {
            w.restore_batch(batch, records);
            drop(w);
            self.set_health(s, ShardHealth::ReadOnly);
            return Err(WalError::Unavailable);
        }
        let mut file = w.file.take().expect("segment opened above");
        drop(w);

        let mut attempt: u32 = 0;
        loop {
            let res = file.write_all(&batch).and_then(|()| file.sync_data());
            let mut w = sh.inner.lock().unwrap();
            match res {
                Ok(()) => {
                    w.file = Some(file);
                    w.durable_lsn = target_lsn;
                    w.stats.fsync_batches += 1;
                    w.stats.fsynced_records += records;
                    drop(w);
                    if !matches!(self.health(s), ShardHealth::Healthy) {
                        self.rejoined(s);
                    }
                    return Ok(target_lsn);
                }
                Err(_) => {
                    attempt += 1;
                    // fsyncgate: the failed file's page-cache state is
                    // unknown — never fsync it again. Every retry
                    // rewrites the whole batch into a fresh segment.
                    drop(file);
                    w.file = None;
                    if attempt >= attempts {
                        w.restore_batch(batch, records);
                        drop(w);
                        self.set_health(s, ShardHealth::ReadOnly);
                        return Err(WalError::Unavailable);
                    }
                    w.stats.wal_retries += 1;
                    let rotated = w.open_segment(self.storage.as_ref());
                    match rotated {
                        Ok(()) => file = w.file.take().expect("segment opened above"),
                        Err(_) => {
                            w.restore_batch(batch, records);
                            drop(w);
                            self.set_health(s, ShardHealth::ReadOnly);
                            return Err(WalError::Unavailable);
                        }
                    }
                    drop(w);
                    self.set_health(s, ShardHealth::Retrying);
                    self.retry_pause(attempt);
                }
            }
        }
    }

    /// Jittered exponential pause between flush retries
    /// (`ContentionManager`-style: escalating ceiling, uniform draw).
    fn retry_pause(&self, attempt: u32) {
        let base = self.retry_base_us.max(1);
        let ceiling = base.saturating_mul(1u64 << attempt.min(6)).min(10_000);
        let mut x = self.retry_seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed) | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::thread::sleep(std::time::Duration::from_micros(x % ceiling.max(1) + 1));
    }

    /// A degraded shard came back: reset probe bookkeeping and count the
    /// rejoin.
    fn rejoined(&self, s: usize) {
        let was = self.health(s);
        self.set_health(s, ShardHealth::Healthy);
        self.shards[s].probe_failures.store(0, Ordering::Relaxed);
        if matches!(was, ShardHealth::ReadOnly | ShardHealth::Failed) {
            let mut w = self.shards[s].inner.lock().unwrap();
            w.stats.wal_rejoins += 1;
        }
    }

    /// One rejoin attempt on a degraded shard: ensure there is something
    /// to write (frames retained at degradation, else a no-op probe
    /// record), rotate to a fresh segment, and try a single
    /// write + fsync. Success rejoins the shard (`Healthy`, durable
    /// watermark advanced); failure escalates `ReadOnly → Failed` after
    /// `probe_fail_limit` consecutive misses. Returns `true` when the
    /// shard is healthy on exit.
    pub fn probe(&self, s: usize) -> bool {
        if !self.alive() {
            return false;
        }
        match self.health(s) {
            ShardHealth::Healthy | ShardHealth::Retrying => return true,
            ShardHealth::ReadOnly | ShardHealth::Failed => {}
        }
        let sh = &self.shards[s];
        let _io = sh.io_lock.lock().unwrap();
        {
            let mut w = sh.inner.lock().unwrap();
            if w.buf.is_empty() {
                // An empty Write replays as a no-op: a pure probe write.
                let lsn = w.next_lsn;
                let before = w.buf.len();
                encode(&Record::Write { lsn, writes: Vec::new() }, &mut w.buf);
                let frame = (w.buf.len() - before) as u64;
                w.next_lsn = lsn + 1;
                w.appended_lsn = lsn;
                w.buf_records += 1;
                w.stats.wal_appends += 1;
                w.stats.wal_bytes += frame;
            }
        }
        match self.flush_io_locked(s, 1) {
            Ok(_) => true,
            Err(_) => {
                let misses = sh.probe_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if misses >= self.probe_fail_limit {
                    self.set_health(s, ShardHealth::Failed);
                } else {
                    self.set_health(s, ShardHealth::ReadOnly);
                }
                false
            }
        }
    }

    /// One scrubber pass over shard `s`: re-verify every checkpoint's
    /// checksum and re-run recovery's coverage scan over the segments.
    /// If the decodable on-disk state no longer covers the durable
    /// watermark — latent corruption under acked data — schedule an
    /// immediate re-checkpoint from the (intact) in-memory store, after
    /// which the damaged log is pruned.
    pub fn scrub(&self, s: usize) {
        if !self.alive() {
            return;
        }
        let (dir, durable) = {
            let w = self.shards[s].inner.lock().unwrap();
            (w.dir.clone(), w.durable_lsn)
        };
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        let mut covered = 0u64;
        let mut corrupt = false;
        for (_, path) in checkpoint::checkpoints(&dir) {
            match checkpoint::load(&path) {
                Some((lsn, _)) => covered = covered.max(lsn),
                // Tolerate a checkpoint pruned between listing and read.
                None if path.exists() => corrupt = true,
                None => {}
            }
        }
        if let Ok(segs) = segments(&dir) {
            for (_, path) in segs {
                if let Ok(bytes) = std::fs::read(&path) {
                    let (records, _) = super::record::decode_all(&bytes);
                    for r in &records {
                        if r.lsn() > covered {
                            covered = r.lsn();
                        }
                    }
                }
            }
        }
        if corrupt || covered < durable {
            self.scrub_corruptions.fetch_add(1, Ordering::Relaxed);
            self.request_checkpoint(s);
        }
    }

    /// Ask the executors to checkpoint shard `s` at the next
    /// opportunity, regardless of the append cadence.
    pub fn request_checkpoint(&self, s: usize) {
        self.shards[s].ckpt_requested.store(true, Ordering::Release);
    }

    /// Durable watermark of shard `s` (all LSNs ≤ this survive a crash).
    pub fn durable_lsn(&self, s: usize) -> u64 {
        self.shards[s].inner.lock().unwrap().durable_lsn
    }

    /// Records buffered (appended but not yet flushed) on shard `s`.
    pub fn buffered(&self, s: usize) -> u64 {
        self.shards[s].inner.lock().unwrap().buf_records
    }

    pub fn group_commit_max(&self) -> u64 {
        self.group_commit_max
    }

    /// Whether shard `s` is due for a checkpoint. Degraded shards are
    /// never checkpointed (their retained buffer must flush first).
    pub fn wants_checkpoint(&self, s: usize) -> bool {
        if !self.alive() || self.health(s) != ShardHealth::Healthy {
            return false;
        }
        self.shards[s].ckpt_requested.load(Ordering::Acquire)
            || (self.checkpoint_every > 0
                && self.shards[s].inner.lock().unwrap().appends_since_ckpt >= self.checkpoint_every)
    }

    /// Install a checkpoint of shard `s` at the current appended LSN and
    /// truncate the log. Call with the shard's xlock *and* commit lock
    /// held and the WAL flushed: `entries` must be the store state
    /// produced by exactly the records ≤ `durable_lsn`.
    ///
    /// The shard mutex is not held across the write and its fsync: the
    /// buffer is empty and stays so (the caller's commit lock stops
    /// appends, the `io_lock` held here stops flushes and probes), so the
    /// log writer's reads of this shard never stall behind a checkpoint.
    ///
    /// A failed checkpoint **write** is survivable: the previous
    /// checkpoint and the whole log are still in place, so the shard
    /// keeps serving and just tries again later. Only a failure to open
    /// a fresh segment afterwards degrades the shard.
    pub fn install_checkpoint(&self, s: usize, entries: &[(u64, u64)]) -> Result<(), WalError> {
        if !self.alive() {
            return Err(WalError::Dead);
        }
        let sh = &self.shards[s];
        let _io = sh.io_lock.lock().unwrap();
        let (dir, lsn) = {
            let w = sh.inner.lock().unwrap();
            assert!(w.buf.is_empty(), "checkpoint requires a flushed WAL");
            (w.dir.clone(), w.durable_lsn)
        };
        let written = checkpoint::write(self.storage.as_ref(), &dir, s, lsn, entries);
        let mut w = sh.inner.lock().unwrap();
        if written.is_err() {
            w.stats.checkpoint_failures += 1;
            w.appends_since_ckpt = 0;
            sh.ckpt_requested.store(false, Ordering::Release);
            return Err(WalError::Unavailable);
        }
        // Rotate to a fresh segment and drop everything the checkpoint
        // covers (old segments and older checkpoints).
        w.file = None;
        if w.open_segment(self.storage.as_ref()).is_err() {
            drop(w);
            self.set_health(s, ShardHealth::ReadOnly);
            return Err(WalError::Unavailable);
        }
        w.appends_since_ckpt = 0;
        w.stats.checkpoints += 1;
        w.stats.checkpoint_entries += entries.len() as u64;
        drop(w);
        prune_covered(&dir, lsn);
        sh.ckpt_requested.store(false, Ordering::Release);
        Ok(())
    }

    /// A Sync ack was filled while its LSN was above its shard's durable
    /// watermark: a broken ack contract (`sync_acks_early` must stay 0).
    pub fn note_sync_ack_early(&self) {
        self.sync_acks_early.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_dead_shed(&self) {
        self.wal_dead_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// An update was answered `Unavailable` because its shard's log is
    /// degraded.
    pub fn note_degraded_shed(&self) {
        self.degraded_sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Record what a preceding recovery replayed (surfaced in
    /// [`WalStats`] so the service report shows the restart provenance).
    pub fn note_recovery(&self, replayed: u64, torn: u64) {
        self.recovery_replayed.store(replayed, Ordering::Relaxed);
        self.recovery_torn.store(torn, Ordering::Relaxed);
    }

    /// Aggregate statistics across all shards.
    pub fn stats(&self) -> WalStats {
        let mut total = WalStats {
            sync_acks_early: self.sync_acks_early.load(Ordering::Relaxed),
            wal_dead_sheds: self.wal_dead_sheds.load(Ordering::Relaxed),
            degraded_sheds: self.degraded_sheds.load(Ordering::Relaxed),
            scrub_passes: self.scrub_passes.load(Ordering::Relaxed),
            scrub_corruptions: self.scrub_corruptions.load(Ordering::Relaxed),
            recovery_replayed: self.recovery_replayed.load(Ordering::Relaxed),
            recovery_torn: self.recovery_torn.load(Ordering::Relaxed),
            ..WalStats::default()
        };
        for sh in &self.shards {
            total += &sh.inner.lock().unwrap().stats;
        }
        total
    }
}

fn count_down(remaining: &AtomicU64) -> bool {
    // Saturating decrement; trips exactly once, when the count is 0.
    remaining.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1)).is_err()
}

/// Byte offsets of every frame start in a buffer of our own encoding.
fn frame_offsets(buf: &[u8]) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut pos = 0usize;
    while pos + 12 <= buf.len() {
        offs.push(pos);
        let len = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap()) as usize;
        pos += 12 + len;
    }
    offs
}

/// Largest LSN recoverable from a shard directory: the newest valid
/// checkpoint and every valid record in every segment.
fn scan_max_lsn(dir: &Path) -> std::io::Result<u64> {
    let mut max = checkpoint::latest_valid(dir).map(|(lsn, _)| lsn).unwrap_or(0);
    for (_, path) in segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let (records, _) = super::record::decode_all(&bytes);
        if let Some(last) = records.last() {
            max = max.max(last.lsn());
        }
    }
    Ok(max)
}

/// `(first_lsn, path)` of every WAL segment in a shard dir, ascending.
pub(super) fn segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(lsn) = name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".log")) {
            if let Ok(lsn) = lsn.parse::<u64>() {
                out.push((lsn, entry.path()));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Delete segments and checkpoints fully covered by the checkpoint at
/// `lsn` (best-effort: recovery tolerates leftovers by LSN-filtering).
fn prune_covered(dir: &Path, lsn: u64) {
    if let Ok(segs) = segments(dir) {
        for (first, path) in segs {
            if first <= lsn {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    checkpoint::prune_older(dir, lsn);
}

#[cfg(test)]
mod tests {
    use super::super::record::Writes;
    use super::super::storage::{self as faults, FaultPlan};
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("txkv-wal-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_flush_advances_durable_watermark() {
        let dir = tmpdir("basic");
        let cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        let wal = WalSet::open(&cfg, 2).unwrap();
        let w: Writes = vec![(1, Some(10))];
        let lsn1 = wal.append(0, Append::Write(&w)).unwrap();
        let lsn2 = wal.append(0, Append::Write(&w)).unwrap();
        assert_eq!(lsn2, lsn1 + 1);
        assert_eq!(wal.durable_lsn(0), lsn1 - 1, "nothing durable before flush");
        assert_eq!(wal.buffered(0), 2);
        assert_eq!(wal.flush(0).unwrap(), lsn2);
        assert_eq!(wal.durable_lsn(0), lsn2);
        let st = wal.stats();
        assert_eq!(st.wal_appends, 2);
        assert_eq!(st.fsync_batches, 1);
        assert_eq!(st.fsynced_records, 2);
        assert!((st.mean_group_commit() - 2.0).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn halt_kills_appends_and_flushes() {
        let dir = tmpdir("halt");
        let cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        let wal = WalSet::open(&cfg, 1).unwrap();
        let w: Writes = vec![(1, Some(10))];
        wal.append(0, Append::Write(&w)).unwrap();
        wal.halt_all();
        assert_eq!(wal.append(0, Append::Write(&w)), Err(WalError::Dead));
        assert_eq!(wal.flush(0), Err(WalError::Dead));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_group_commit_crash_loses_the_buffer() {
        let dir = tmpdir("midgc");
        let mut cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        cfg.crash = Some(CrashSpec { site: CrashSite::MidGroupCommit, after: 1 });
        let wal = WalSet::open(&cfg, 1).unwrap();
        let w: Writes = vec![(1, Some(10))];
        wal.append(0, Append::Write(&w)).unwrap();
        assert!(wal.flush(0).is_ok(), "first flush survives (after: 1)");
        wal.append(0, Append::Write(&w)).unwrap();
        assert_eq!(wal.flush(0), Err(WalError::Dead), "second flush trips the crash");
        assert!(!wal.alive());
        // Only the first record survived on disk.
        let segs = segments(&dir.join("shard-0")).unwrap();
        let mut recs = 0;
        for (_, p) in segs {
            recs += super::super::record::decode_all(&std::fs::read(p).unwrap()).0.len();
        }
        assert_eq!(recs, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_lsns_in_a_fresh_segment() {
        let dir = tmpdir("reopen");
        let cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        let w: Writes = vec![(1, Some(10))];
        let last = {
            let wal = WalSet::open(&cfg, 1).unwrap();
            wal.append(0, Append::Write(&w)).unwrap();
            let last = wal.append(0, Append::Write(&w)).unwrap();
            wal.flush(0).unwrap();
            last
        };
        let wal = WalSet::open(&cfg, 1).unwrap();
        let next = wal.append(0, Append::Write(&w)).unwrap();
        assert_eq!(next, last + 1, "LSNs continue across reopen");
        assert_eq!(segments(&dir.join("shard-0")).unwrap().len(), 2, "new segment per open");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fsync_failure_retries_into_rotated_segment() {
        let _serial = faults::gate();
        let dir = tmpdir("fsyncgate-retry");
        let tag = dir.to_string_lossy().into_owned();
        let mut cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        cfg.retry_base_us = 1;
        let wal = WalSet::open(&cfg, 1).unwrap();
        let w: Writes = vec![(7, Some(70))];
        wal.append(0, Append::Write(&w)).unwrap();
        wal.flush(0).unwrap();
        // Fail the next 2 fsyncs; the default 4 retries absorb them by
        // rewriting into rotated segments.
        let guard = faults::install(FaultPlan::fsync_transient(0, 0, 2).tagged(&tag));
        let lsn = wal.append(0, Append::Write(&w)).unwrap();
        assert_eq!(wal.flush(0), Ok(lsn), "bounded retries absorb the transient failure");
        assert_eq!(wal.health(0), ShardHealth::Healthy);
        drop(guard);
        let st = wal.stats();
        assert_eq!(st.wal_retries, 2, "one retry per injected fsync failure");
        // The rewrite landed in a rotated segment; recovery sees each
        // record exactly once (LSN filter dedups any surviving old tail).
        let sdir = dir.join("shard-0");
        assert!(segments(&sdir).unwrap().len() >= 2, "rewrite rotated to a fresh segment");
        let mut seen = 0u64;
        let mut last = 0u64;
        for (_, p) in segments(&sdir).unwrap() {
            for r in super::super::record::decode_all(&std::fs::read(p).unwrap()).0 {
                if r.lsn() > last {
                    last = r.lsn();
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 2, "both records recoverable exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsyncgate_watermark_frozen_until_rewritten_segment_syncs() {
        let _serial = faults::gate();
        let dir = tmpdir("fsyncgate-freeze");
        let tag = dir.to_string_lossy().into_owned();
        let mut cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        cfg.flush_retries = 0; // first failure degrades immediately
        cfg.retry_base_us = 1;
        let wal = WalSet::open(&cfg, 1).unwrap();
        let w: Writes = vec![(1, Some(11))];
        let before = wal.durable_lsn(0);
        // 2 fsync failures: the failed flush (attempt 1) and the first
        // probe; the second probe's fsync succeeds and rejoins.
        let guard = faults::install(FaultPlan::fsync_transient(0, 0, 2).tagged(&tag));
        let lsn = wal.append(0, Append::Write(&w)).unwrap();
        assert_eq!(wal.flush(0), Err(WalError::Unavailable));
        assert_eq!(wal.durable_lsn(0), before, "failed fsync must not advance the watermark");
        assert_eq!(wal.health(0), ShardHealth::ReadOnly);
        assert_eq!(
            wal.append(0, Append::Write(&w)),
            Err(WalError::Unavailable),
            "degraded shard sheds updates"
        );
        assert!(!wal.probe(0), "first probe still hits the injected failure");
        assert_eq!(wal.durable_lsn(0), before);
        assert!(wal.probe(0), "healed medium rejoins via the probe");
        assert_eq!(wal.health(0), ShardHealth::Healthy);
        assert_eq!(wal.durable_lsn(0), lsn, "retained frame became durable on rejoin");
        drop(guard);
        let st = wal.stats();
        assert_eq!(st.wal_rejoins, 1);
        assert_eq!(st.sync_acks_early, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_failures_escalate_to_failed_then_rejoin() {
        let _serial = faults::gate();
        let dir = tmpdir("escalate");
        let tag = dir.to_string_lossy().into_owned();
        let mut cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        cfg.flush_retries = 0;
        cfg.retry_base_us = 1;
        cfg.probe_fail_limit = 2;
        let wal = WalSet::open(&cfg, 1).unwrap();
        let w: Writes = vec![(3, Some(33))];
        let guard = faults::install(FaultPlan::fsync_permanent(0, 0).tagged(&tag));
        wal.append(0, Append::Write(&w)).unwrap();
        assert_eq!(wal.flush(0), Err(WalError::Unavailable));
        assert_eq!(wal.health(0), ShardHealth::ReadOnly);
        assert!(!wal.probe(0));
        assert_eq!(wal.health(0), ShardHealth::ReadOnly, "below the escalation limit");
        assert!(!wal.probe(0));
        assert_eq!(wal.health(0), ShardHealth::Failed, "probe_fail_limit misses escalate");
        guard.clear();
        assert!(wal.probe(0), "a Failed shard still probes and rejoins");
        assert_eq!(wal.health(0), ShardHealth::Healthy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrubber_catches_latent_corruption_and_requests_checkpoint() {
        let dir = tmpdir("scrub");
        let cfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        let wal = WalSet::open(&cfg, 1).unwrap();
        let w: Writes = vec![(9, Some(90))];
        wal.append(0, Append::Write(&w)).unwrap();
        wal.flush(0).unwrap();
        wal.scrub(0);
        assert_eq!(wal.stats().scrub_corruptions, 0, "clean log scrubs clean");
        assert!(!wal.wants_checkpoint(0));
        // Flip a bit under the durable watermark, as a decaying disk would.
        let (_, seg) = segments(&dir.join("shard-0")).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, bytes).unwrap();
        wal.scrub(0);
        let st = wal.stats();
        assert_eq!(st.scrub_corruptions, 1, "coverage fell below the watermark");
        assert!(st.scrub_passes >= 2);
        assert!(wal.wants_checkpoint(0), "corruption triggers a re-checkpoint request");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
