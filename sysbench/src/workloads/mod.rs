//! The four workloads. Each is a struct with the same three steps —
//! `setup` (timed as `setup_s`, ends with the first answered request),
//! `generate` (one generator thread's closed loop) and `finish` (drain,
//! shut down, oracle, per-layer counts) — called by `main::run_workload`.

pub mod kv_read_uds;
pub mod kv_write_sync;
pub mod tm_hashmap_large;
pub mod tpcc_service;

use crate::gen::KvStream;
use crate::harness::{Ctl, GenLog};
use si_htm::SiHtm;
use std::path::Path;
use tm_api::ThreadStats;
use txkv::{PipelineConfig, ServiceReport};

/// Inputs of one run that a workload may look at.
pub struct Cfg<'a> {
    /// Seeds the op generators and nothing else.
    pub seed: u64,
    /// 1 for a full run, 16 under `--smoke` (1/16-size data).
    pub shrink: u64,
    /// Directory for WAL files and sockets.
    pub dir: &'a Path,
}

/// A per-layer count: `(metric name, value, unit)`.
pub type Count = (&'static str, f64, &'static str);

/// What `finish` hands back.
pub struct Finish {
    /// `Err` describes the first oracle violation.
    pub oracle: Result<(), String>,
    pub counts: Vec<Count>,
}

pub trait Workload: Sized + Sync {
    const NAME: &'static str;
    /// Generator threads (at most `harness::MAX_GENERATORS`).
    const GENERATORS: usize;
    fn setup(cfg: &Cfg) -> Self;
    /// Hash of the head of generator 0's op stream (`env.stream_hash`).
    fn stream_hash(cfg: &Cfg) -> u64;
    /// The key-value stream the layer ladder replays: the workload's own
    /// when it drives one, else the read mix on the small working set.
    fn kv_stream(cfg: &Cfg) -> KvStream {
        KvStream::Read { keys: kv_write_sync::KEYS / cfg.shrink }
    }
    fn generate(&self, cfg: &Cfg, idx: usize, ctl: &Ctl, log: &mut GenLog);
    /// Shut down without judging anything (set-up repetitions).
    fn teardown(self);
    fn finish(self, cfg: &Cfg, logs: &[GenLog]) -> Finish;
}

/// The paper's system on its default simulated POWER8.
pub fn si_htm(words: usize) -> SiHtm {
    SiHtm::with_defaults(words)
}

/// Two executors everywhere: with the generator (and reactor) that fills
/// the two vCPUs the bounds were measured on.
pub fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig { executors: 2, ..PipelineConfig::new() }
}

fn per_k(n: u64, per: u64) -> f64 {
    1000.0 * n as f64 / per.max(1) as f64
}

/// `si_htm.*` counts per 1 000 commits from a backend's thread stats.
pub fn tm_counts(s: &ThreadStats) -> Vec<Count> {
    let waits = s.quiesce_waits.max(1) as f64;
    vec![
        ("si_htm.aborts_per_kcommit", per_k(s.aborts(), s.commits), "count"),
        ("si_htm.capacity_aborts_per_kcommit", per_k(s.aborts_capacity, s.commits), "count"),
        ("si_htm.quiesce_waits_per_kcommit", per_k(s.quiesce_waits, s.commits), "count"),
        ("si_htm.quiesce_polled_per_wait", s.quiesce_polled as f64 / waits, "count"),
        ("si_htm.sgl_commits_per_kcommit", per_k(s.sgl_commits, s.commits), "count"),
        ("si_htm.ro_commit_share", s.ro_commits as f64 / s.commits.max(1) as f64, "count"),
    ]
}

/// Counts every service workload takes from the pipeline's report, per
/// 1 000 replies over the whole run (the report only exists at shutdown).
pub fn service_counts(r: &ServiceReport) -> Vec<Count> {
    let ns_us = |ns: u64| ns as f64 / 1000.0;
    // Request-weighted p50s over the classes that saw traffic.
    let mut service = Vec::new();
    let mut wait = Vec::new();
    for c in r.class.iter().filter(|c| c.count() > 0) {
        let (e2e, svc) = (c.e2e.quantile(0.5), c.service.quantile(0.5));
        service.push((ns_us(svc), c.count()));
        wait.push((ns_us(e2e.saturating_sub(svc)), c.count()));
    }
    let weighted = |v: &[(f64, u64)]| {
        let n: u64 = v.iter().map(|x| x.1).sum();
        v.iter().map(|x| x.0 * x.1 as f64).sum::<f64>() / n.max(1) as f64
    };
    let mut out = tm_counts(&r.backend_stats);
    out.extend([
        ("pipeline.ro_batch_mean", r.mean_ro_batch(), "count"),
        ("pipeline.service_p50_us", weighted(&service), "us"),
        ("pipeline.queue_wait_p50_us", weighted(&wait), "us"),
        ("wal.bytes_per_op", r.wal.wal_bytes as f64 / r.replies.max(1) as f64, "bytes"),
        ("wal.fsyncs_per_kop", per_k(r.wal.fsync_batches, r.replies), "count"),
        ("wal.group_mean", r.wal.mean_group_commit(), "count"),
        ("wal.checkpoints", r.wal.checkpoints as f64, "count"),
        ("twopc.prepares_per_kop", per_k(r.twopc.prepares, r.replies), "count"),
        ("twopc.escalations_per_kop", per_k(r.twopc.escalations, r.replies), "count"),
        ("twopc.aborts_per_kop", per_k(r.twopc.aborts, r.replies), "count"),
    ]);
    out
}

/// The part of the oracle every service workload shares.
pub fn service_oracle(r: &ServiceReport) -> Result<(), String> {
    if r.shed + r.overloaded > 0 {
        return Err(format!("pipeline shed {} and refused {} requests", r.shed, r.overloaded));
    }
    if r.starved_executors + r.panicked_executors > 0 {
        return Err(format!(
            "{} starved and {} panicked executors",
            r.starved_executors, r.panicked_executors
        ));
    }
    Ok(())
}
