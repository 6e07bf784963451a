//! Commit/abort accounting with the paper's abort taxonomy.

use htm_sim::AbortReason;
use std::ops::AddAssign;

/// Per-thread execution statistics.
///
/// The figures of the paper plot, next to throughput, the abort rate
/// discriminated into *transactional* (data conflicts), *non-transactional*
/// (killed by a locked SGL stomping on subscribed transactions) and
/// *capacity* aborts; [`ThreadStats`] keeps exactly those counters, plus
/// bookkeeping useful for the ablation benches.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ThreadStats {
    /// Committed transactions (all paths, including fall-back and RO).
    pub commits: u64,
    /// Of which: read-only fast-path commits.
    pub ro_commits: u64,
    /// Of which: commits executed on the SGL fall-back path.
    pub sgl_commits: u64,
    /// Of which: commits executed on the software-SI fall-back path.
    pub sw_commits: u64,
    /// Transactional aborts (data conflicts).
    pub aborts_conflict: u64,
    /// Non-transactional aborts (SGL-class kills).
    pub aborts_nontx: u64,
    /// Capacity aborts.
    pub aborts_capacity: u64,
    /// Explicit aborts (engine-internal, e.g. validation failures the
    /// backend signals through `tabort.`).
    pub aborts_explicit: u64,
    /// Semantic (application-requested) rollbacks. Not failures.
    pub user_aborts: u64,
    /// Number of quiescence (safety) waits that had to spin at least once.
    pub quiesce_waits: u64,
    /// Thread slots the safety wait had to examine, summed over all
    /// quiescence snapshots. With the active-thread registry this scales
    /// with the number of *running* transactions, not the size of the
    /// machine — the counter exists so tests and benches can verify the
    /// O(active) claim.
    pub quiesce_polled: u64,
    /// SGL acquisitions.
    pub sgl_acquisitions: u64,
    /// Quiescence waits whose per-peer deadline expired: the straggler was
    /// escalated (killed if killable, otherwise the waiter degraded to the
    /// SGL-serialized slow path). Non-zero means some snapshot guarantee
    /// was forfeited to preserve liveness — see DESIGN.md §9.
    pub watchdog_quiesce_trips: u64,
    /// SGL drain waits whose deadline expired (the holder proceeded
    /// serialized without full quiescence of the straggler).
    pub watchdog_drain_trips: u64,
    /// Longest single wait observed at any deadline-protected wait site,
    /// in nanoseconds. Merged with `max`, not summed.
    pub max_wait_ns: u64,
    /// Contention-manager delays executed (abort backoff + SGL admission
    /// jitter). All off the committed fast path.
    pub backoffs: u64,
}

impl ThreadStats {
    /// Record one abort with the hardware-reported reason.
    #[inline]
    pub fn record_abort(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::Conflict => self.aborts_conflict += 1,
            AbortReason::NonTx => self.aborts_nontx += 1,
            AbortReason::Capacity => self.aborts_capacity += 1,
            AbortReason::Explicit => self.aborts_explicit += 1,
        }
    }

    /// Total aborts of all kinds (excluding user rollbacks).
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_nontx + self.aborts_capacity + self.aborts_explicit
    }

    /// Abort rate as plotted in the figures: aborted attempts over all
    /// attempts, in percent.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts();
        if attempts == 0 {
            0.0
        } else {
            self.aborts() as f64 * 100.0 / attempts as f64
        }
    }

    /// Share of all attempts that aborted for `reason`, in percent.
    pub fn abort_share(&self, reason: AbortReason) -> f64 {
        let attempts = self.commits + self.aborts();
        if attempts == 0 {
            return 0.0;
        }
        let n = match reason {
            AbortReason::Conflict => self.aborts_conflict,
            AbortReason::NonTx => self.aborts_nontx,
            AbortReason::Capacity => self.aborts_capacity,
            AbortReason::Explicit => self.aborts_explicit,
        };
        n as f64 * 100.0 / attempts as f64
    }
}

impl AddAssign<&ThreadStats> for ThreadStats {
    fn add_assign(&mut self, rhs: &ThreadStats) {
        self.commits += rhs.commits;
        self.ro_commits += rhs.ro_commits;
        self.sgl_commits += rhs.sgl_commits;
        self.sw_commits += rhs.sw_commits;
        self.aborts_conflict += rhs.aborts_conflict;
        self.aborts_nontx += rhs.aborts_nontx;
        self.aborts_capacity += rhs.aborts_capacity;
        self.aborts_explicit += rhs.aborts_explicit;
        self.user_aborts += rhs.user_aborts;
        self.quiesce_waits += rhs.quiesce_waits;
        self.quiesce_polled += rhs.quiesce_polled;
        self.sgl_acquisitions += rhs.sgl_acquisitions;
        self.watchdog_quiesce_trips += rhs.watchdog_quiesce_trips;
        self.watchdog_drain_trips += rhs.watchdog_drain_trips;
        self.max_wait_ns = self.max_wait_ns.max(rhs.max_wait_ns);
        self.backoffs += rhs.backoffs;
    }
}

/// Cross-shard two-phase-commit accounting (one record per coordinator;
/// sum over executors for the service total). Tracked service-side — the
/// backends never see the protocol, only its per-shard transactions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TwoPcStats {
    /// Prepare phases entered (one per cross-shard read-write transaction).
    pub prepares: u64,
    /// Transactions whose apply phase unwound; compensating undo restored
    /// every already-applied participant, so nothing partial survived.
    pub aborts: u64,
    /// Apply phases that pinned their remaining participants to the
    /// serialized fall-back path after one participant escalated.
    pub escalations: u64,
    /// Cross-shard read-only transactions (multi-shard `MultiGet`/scan).
    pub ro_multi: u64,
}

impl AddAssign<&TwoPcStats> for TwoPcStats {
    fn add_assign(&mut self, rhs: &TwoPcStats) {
        self.prepares += rhs.prepares;
        self.aborts += rhs.aborts;
        self.escalations += rhs.escalations;
        self.ro_multi += rhs.ro_multi;
    }
}

/// Write-ahead-log and checkpoint accounting (service-side, like
/// [`TwoPcStats`]: the backends never see the log, only the service
/// layer appends to it — strictly after commit, per the DUMBO
/// discipline, so logging can never abort a hardware transaction).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (one per committed update transaction, plus the
    /// 2PC protocol records).
    pub wal_appends: u64,
    /// Bytes appended (framed).
    pub wal_bytes: u64,
    /// Group-commit fsyncs executed.
    pub fsync_batches: u64,
    /// Records those fsyncs made durable (`fsynced_records /
    /// fsync_batches` = mean group-commit batch, the fsync amortization).
    pub fsynced_records: u64,
    /// Checkpoints written (each truncates the covered log).
    pub checkpoints: u64,
    /// Entries captured across all checkpoints.
    pub checkpoint_entries: u64,
    /// Log records replayed by the recovery that produced this
    /// pipeline's backends (0 for a fresh start).
    pub recovery_replayed: u64,
    /// Torn/corrupt tail records dropped by that recovery.
    pub recovery_torn: u64,
    /// Self-check: Sync-mode acks filled before their record was
    /// durable. Must stay 0 — asserted by the txkv durability tests.
    pub sync_acks_early: u64,
    /// Requests shed because the WAL halted (simulated power failure):
    /// a write that can no longer be made durable is never acked.
    pub wal_dead_sheds: u64,
    /// Flush attempts repeated after a storage error (each retry rewrites
    /// the batch into a freshly rotated segment — never an fsync retry on
    /// the failed file).
    pub wal_retries: u64,
    /// Degraded shards brought back to `Healthy` by a probe write.
    pub wal_rejoins: u64,
    /// Updates answered `Unavailable` because their shard's log was
    /// degraded (`ReadOnly`/`Failed`). Reads keep being served.
    pub degraded_sheds: u64,
    /// Checkpoint writes that failed (ENOSPC etc.) leaving the previous
    /// checkpoint in place.
    pub checkpoint_failures: u64,
    /// Scrubber passes re-verifying checkpoint + log-tail checksums.
    pub scrub_passes: u64,
    /// Latent corruption the scrubber caught (each triggers an immediate
    /// re-checkpoint from the intact in-memory state).
    pub scrub_corruptions: u64,
}

impl WalStats {
    /// Mean records per fsync — the group-commit amortization factor.
    pub fn mean_group_commit(&self) -> f64 {
        if self.fsync_batches == 0 {
            0.0
        } else {
            self.fsynced_records as f64 / self.fsync_batches as f64
        }
    }
}

impl AddAssign<&WalStats> for WalStats {
    fn add_assign(&mut self, rhs: &WalStats) {
        self.wal_appends += rhs.wal_appends;
        self.wal_bytes += rhs.wal_bytes;
        self.fsync_batches += rhs.fsync_batches;
        self.fsynced_records += rhs.fsynced_records;
        self.checkpoints += rhs.checkpoints;
        self.checkpoint_entries += rhs.checkpoint_entries;
        self.recovery_replayed += rhs.recovery_replayed;
        self.recovery_torn += rhs.recovery_torn;
        self.sync_acks_early += rhs.sync_acks_early;
        self.wal_dead_sheds += rhs.wal_dead_sheds;
        self.wal_retries += rhs.wal_retries;
        self.wal_rejoins += rhs.wal_rejoins;
        self.degraded_sheds += rhs.degraded_sheds;
        self.checkpoint_failures += rhs.checkpoint_failures;
        self.scrub_passes += rhs.scrub_passes;
        self.scrub_corruptions += rhs.scrub_corruptions;
    }
}

/// Sum per-thread statistics into a run total.
pub fn aggregate<'a>(parts: impl IntoIterator<Item = &'a ThreadStats>) -> ThreadStats {
    let mut total = ThreadStats::default();
    for p in parts {
        total += p;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_recording_maps_reasons() {
        let mut s = ThreadStats::default();
        s.record_abort(AbortReason::Conflict);
        s.record_abort(AbortReason::Conflict);
        s.record_abort(AbortReason::NonTx);
        s.record_abort(AbortReason::Capacity);
        s.record_abort(AbortReason::Explicit);
        assert_eq!(s.aborts_conflict, 2);
        assert_eq!(s.aborts_nontx, 1);
        assert_eq!(s.aborts_capacity, 1);
        assert_eq!(s.aborts_explicit, 1);
        assert_eq!(s.aborts(), 5);
    }

    #[test]
    fn abort_rate_is_share_of_attempts() {
        let mut s = ThreadStats::default();
        assert_eq!(s.abort_rate(), 0.0);
        s.commits = 75;
        s.aborts_conflict = 20;
        s.aborts_capacity = 5;
        assert!((s.abort_rate() - 25.0).abs() < 1e-9);
        assert!((s.abort_share(AbortReason::Conflict) - 20.0).abs() < 1e-9);
        assert!((s.abort_share(AbortReason::Capacity) - 5.0).abs() < 1e-9);
        assert_eq!(s.abort_share(AbortReason::NonTx), 0.0);
    }

    #[test]
    fn aggregation_sums_all_fields() {
        let a = ThreadStats {
            commits: 1,
            quiesce_waits: 3,
            max_wait_ns: 500,
            watchdog_quiesce_trips: 1,
            ..ThreadStats::default()
        };
        let b = ThreadStats {
            commits: 2,
            sgl_acquisitions: 1,
            quiesce_polled: 7,
            max_wait_ns: 200,
            backoffs: 4,
            ..ThreadStats::default()
        };
        let t = aggregate([&a, &b]);
        assert_eq!(t.commits, 3);
        assert_eq!(t.quiesce_waits, 3);
        assert_eq!(t.quiesce_polled, 7);
        assert_eq!(t.sgl_acquisitions, 1);
        assert_eq!(t.watchdog_quiesce_trips, 1);
        assert_eq!(t.max_wait_ns, 500, "max_wait_ns merges with max, not sum");
        assert_eq!(t.backoffs, 4);
    }
}
