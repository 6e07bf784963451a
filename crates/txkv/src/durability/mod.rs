//! Durability for the txkv service: commit-ordered write-ahead logging,
//! group-commit fsync, checkpoints with log truncation, and crash
//! recovery — without ever touching the read-only fast path.
//!
//! The design follows the DUMBO thesis (PAPERS.md): persistence work is
//! kept strictly *outside* the transactions. An update's record is
//! appended after its backend transaction committed — on SI-HTM, after
//! the pre-commit quiescence wait — under a per-shard commit lock that
//! makes append order equal commit order (see [`wal`]). Read-only
//! batches never touch the log at all, so durable serving keeps SI-HTM's
//! never-aborting unbounded RO transactions exactly as they were
//! (`ro_batch_aborts == 0` still holds under `Sync` durability).
//!
//! | module | role |
//! |--------|------|
//! | [`record`]     | frame format, checksums, torn-tail detection |
//! | [`storage`]    | `Storage`/`VFile` seam + always-compiled fault injector |
//! | [`wal`]        | per-shard logs, group commit, health machine, power failure |
//! | [`checkpoint`] | atomic snapshot files + pruning |
//! | [`recovery`]   | checkpoint + replay + 2PC resolution into fresh backends |
//!
//! See DESIGN.md §12 for the commit-order argument per backend and the
//! full recovery protocol, §14 for the storage fault model and the
//! per-shard graceful-degradation policy.

pub mod checkpoint;
pub mod record;
pub mod recovery;
pub mod storage;
pub mod wal;

pub use record::{Record, Writes};
pub use recovery::{recover, recover_and_open, RecoveryReport};
pub use storage::{
    FaultGuard, FaultPlan, FaultReport, FaultTarget, StorageError, StorageErrorKind,
};
pub use wal::{
    Append, CrashSite, CrashSpec, DurabilityConfig, DurabilityMode, ShardHealth, WalError, WalSet,
};

#[cfg(test)]
mod tests {
    use super::storage::{self as faults, FaultPlan};
    use super::*;
    use crate::{KvOp, KvReply, Pipeline, PipelineConfig, ShardMap};
    use si_htm::SiHtm;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use tm_api::TmBackend;

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// What a power cut leaves of each shard's log: the records its
    /// durable watermark covers. Frames written but not yet fsynced sit in
    /// the files of this (real) file system, so they are cut here.
    fn power_cut(dir: &std::path::Path, wal: &WalSet) {
        for s in 0..wal.shards() {
            let durable = wal.durable_lsn(s);
            for (_, path) in wal::segments(&dir.join(format!("shard-{s}"))).expect("segments") {
                let mut kept = Vec::new();
                for rec in record::decode_all(&std::fs::read(&path).expect("read")).0 {
                    if rec.lsn() <= durable {
                        record::encode(&rec, &mut kept);
                    }
                }
                std::fs::write(&path, kept).expect("cut");
            }
        }
    }

    /// An Async cross-shard transfer of 5 from key 0 (shard 0) to key 8
    /// (shard 1) commits. Shard 1's fsyncs after its leg round are held
    /// (and fail once released), so shard 1's decision is not durable
    /// when shard 0 is asked to checkpoint. Then the power goes out, and
    /// the recovered `(key 0, key 8)` is returned.
    fn checkpoint_then_crash(all_shard_wait: bool) -> (Option<u64>, Option<u64>) {
        let dir = std::env::temp_dir()
            .join(format!("txkv-ckpt-prune-{}-{all_shard_wait}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut dcfg = DurabilityConfig::new(DurabilityMode::Async, &dir);
        dcfg.flush_retries = 0;
        dcfg.maintenance_interval_ms = 0;
        let map = ShardMap::range(2, 8);
        let mk = |_| SiHtm::with_defaults(1 << 16);
        let (domains, wal, _) = recover_and_open(&dcfg, &map, mk, 0, 1 << 16).expect("open");
        wal.skip_all_shard_wait.store(!all_shard_wait, Ordering::Relaxed);
        let cfg = PipelineConfig { executors: 2, ..PipelineConfig::quick() };
        let pipeline = Pipeline::start_durable(domains, map, cfg, Arc::clone(&wal));
        let client = pipeline.client();
        for key in [0, 8] {
            assert!(matches!(client.call(KvOp::Put { key, val: 100 }), Ok(KvReply::Done { .. })));
        }
        for s in 0..2 {
            wal.flush(s).expect("seeding made durable");
        }
        let guard = faults::install(FaultPlan::fsync_permanent(1, 1).tagged(dir.to_string_lossy()));
        guard.hold_syncs_from(1);
        let reply = client.call(KvOp::MultiAdd { deltas: vec![(0, -5), (8, 5)] });
        assert!(matches!(reply, Ok(KvReply::Done { .. })), "transfer not committed: {reply:?}");
        wait_until("shard 1's decision reached its fsync", || guard.report().held_syncs == 1);
        wal.request_checkpoint(0);
        if all_shard_wait {
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(wal.stats().checkpoints, 0, "checkpointed past a decision not yet durable");
        } else {
            wait_until("shard 0 checkpointed", || wal.stats().checkpoints == 1);
        }
        wal.halt_all();
        power_cut(&dir, &wal);
        guard.release_syncs();
        pipeline.shutdown();
        drop(guard);
        let (domains, _) = recover(&dir, &map, mk, 0, 1 << 16).expect("recovery");
        let _ = std::fs::remove_dir_all(&dir);
        let read =
            |k: u64| domains[map.shard_of(k)].1.load_raw(domains[map.shard_of(k)].0.memory(), k);
        (read(0), read(8))
    }

    #[test]
    fn a_checkpoint_never_prunes_a_decision_not_yet_durable_elsewhere() {
        let _serial = faults::gate();
        let (a, b) = checkpoint_then_crash(true);
        assert!(
            matches!((a, b), (Some(95), Some(105)) | (Some(100), Some(100))),
            "torn: {a:?}/{b:?}"
        );
        // Negative control: without the all-shard wait, shard 0's
        // checkpoint prunes its decision, and recovery compensates shard 1
        // alone.
        let (a, b) = checkpoint_then_crash(false);
        assert_eq!((a, b), (Some(95), Some(100)), "the negative control did not tear");
    }
}
