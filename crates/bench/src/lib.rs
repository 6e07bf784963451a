//! Benchmark harness regenerating the paper's evaluation (Figures 6–10).
//!
//! The `figures` binary drives full thread sweeps
//! (1,2,4,8,16,32,40,80 on the virtual 10-core SMT-8 machine) and prints
//! the same series the paper plots: throughput plus the abort breakdown
//! (transactional / non-transactional / capacity). The Criterion bench
//! `benches/ablation.rs` measures SI-HTM's design ablations; per-layer
//! costs are measured by the `sysbench --trace 1` ladder. The soak
//! binaries (`storage_soak`, `chaos_soak`) share [`cell`] and
//! [`Backend::with`]; the service's gates are tests of the crates that
//! serve (`txkv`, `tpcc`, `txkv-net`).
//!
//! Every experiment is described by a [`Scenario`] so the binaries and
//! the shape checks share one source of truth.

pub mod cell;
pub mod scenarios;
pub mod schema;

pub use scenarios::*;

use htm_sim::HtmConfig;
use std::sync::Arc;
use std::time::Duration;
use tm_api::{BackoffPolicy, TmBackend};
use tpcc::{TpccConfig, TpccLayout, TpccWorker};
use workloads::driver::{run, RunConfig, RunReport};
use workloads::hashmap::{HashMapConfig, HashMapWorker, TxHashMap};

/// The four concurrency-control mechanisms of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Htm,
    SiHtm,
    P8tm,
    Silo,
}

impl Backend {
    pub const ALL: [Backend; 4] = [Backend::Htm, Backend::SiHtm, Backend::P8tm, Backend::Silo];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Htm => "HTM",
            Backend::SiHtm => "SI-HTM",
            Backend::P8tm => "P8TM",
            Backend::Silo => "Silo",
        }
    }

    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "htm" => Some(Backend::Htm),
            "si-htm" | "sihtm" | "si" => Some(Backend::SiHtm),
            "p8tm" => Some(Backend::P8tm),
            "silo" => Some(Backend::Silo),
            _ => None,
        }
    }

    /// Hand `v` a constructor of this backend over the simulated machine
    /// `htm`, with `words` of memory and the contention-manager policy
    /// `backoff` (every other tunable at its default). Silo runs no
    /// simulated HTM and ignores `htm`.
    pub fn with<V: BackendVisitor>(
        self,
        htm: HtmConfig,
        words: usize,
        backoff: BackoffPolicy,
        v: V,
    ) -> V::Out {
        match self {
            Backend::Htm => {
                let cfg = htm_sgl::HtmSglConfig { backoff, ..Default::default() };
                v.visit(|| htm_sgl::HtmSgl::new(htm.clone(), words, cfg.clone()))
            }
            Backend::SiHtm => {
                let cfg = si_htm::SiHtmConfig { backoff, ..Default::default() };
                v.visit(|| si_htm::SiHtm::new(htm.clone(), words, cfg.clone()))
            }
            Backend::P8tm => {
                let cfg = p8tm::P8tmConfig { backoff, ..Default::default() };
                v.visit(|| p8tm::P8tm::new(htm.clone(), words, cfg.clone()))
            }
            Backend::Silo => {
                let cfg = silo::SiloConfig { backoff, ..Default::default() };
                v.visit(|| silo::Silo::with_config(words, cfg.clone()))
            }
        }
    }
}

/// Code generic over the backend, run on the one [`Backend::with`] picks.
pub trait BackendVisitor {
    type Out;
    /// `mk()` builds a fresh instance (one per shard, for sharded cells).
    fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> Self::Out;
}

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct Point {
    pub backend: &'static str,
    pub threads: usize,
    pub throughput: f64,
    /// Abort shares in percent of attempts.
    pub abort_tx: f64,
    pub abort_nontx: f64,
    pub abort_capacity: f64,
    pub report: RunReport,
    /// Per-transaction-type commit counts (TPC-C points only; includes
    /// warm-up — use for mix-share verification, not throughput).
    pub mix: Option<tpcc::worker::MixCounters>,
}

impl Point {
    fn new(backend: &'static str, report: RunReport) -> Point {
        use tm_api::AbortReason::*;
        Point {
            backend,
            threads: report.threads,
            throughput: report.throughput(),
            abort_tx: report.total.abort_share(Conflict) + report.total.abort_share(Explicit),
            abort_nontx: report.total.abort_share(NonTx),
            abort_capacity: report.total.abort_share(Capacity),
            report,
            mix: None,
        }
    }

    /// CSV row matching [`Point::csv_header`].
    pub fn csv(&self, scenario: &str) -> String {
        format!(
            "{scenario},{},{},{:.0},{:.2},{:.2},{:.2},{},{},{}",
            self.backend,
            self.threads,
            self.throughput,
            self.abort_tx,
            self.abort_nontx,
            self.abort_capacity,
            self.report.total.commits,
            self.report.total.sgl_commits,
            self.report.total.quiesce_waits,
        )
    }

    pub fn csv_header() -> &'static str {
        "scenario,backend,threads,tx_per_s,abort_tx_pct,abort_nontx_pct,abort_capacity_pct,\
         commits,sgl_commits,quiesce_waits"
    }
}

/// The paper's thread axis (10 cores, SMT 1–8).
pub const PAPER_THREADS: [usize; 8] = [1, 2, 4, 8, 16, 32, 40, 80];

/// Run one hash-map point: build a fresh machine + map, drive the mix.
pub fn hashmap_point(
    backend: Backend,
    cfg: &HashMapConfig,
    threads: usize,
    warmup: Duration,
    duration: Duration,
) -> Point {
    struct Drive<'a>(&'a HashMapConfig, RunConfig);
    impl BackendVisitor for Drive<'_> {
        type Out = Point;
        fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> Point {
            let (b, Drive(cfg, run_cfg)) = (mk(), self);
            let (map, alloc) = TxHashMap::build(b.memory(), cfg);
            let threads = run_cfg.threads;
            let report = run(&b, &run_cfg, |i| {
                let mut w = HashMapWorker::new(map, cfg.clone(), Arc::clone(&alloc), i, threads);
                move |t: &mut B::Thread| w.run_op(t)
            });
            Point::new(b.name(), report)
        }
    }
    let words = cfg.memory_words(threads);
    let drive = Drive(cfg, RunConfig::new(threads, warmup, duration));
    backend.with(HtmConfig::default(), words, BackoffPolicy::default(), drive)
}

/// Run one TPC-C point: build a fresh machine + database, drive the mix.
/// Afterwards the database consistency conditions are re-checked (a cheap
/// end-to-end serialisation audit of the whole run).
pub fn tpcc_point(
    backend: Backend,
    cfg: &TpccConfig,
    threads: usize,
    warmup: Duration,
    duration: Duration,
) -> Point {
    struct Drive(Arc<TpccLayout>, RunConfig);
    impl BackendVisitor for Drive {
        type Out = Point;
        fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> Point {
            let (b, Drive(layout, run_cfg)) = (mk(), self);
            layout.populate(b.memory());
            let mix = Arc::new(std::sync::Mutex::new(tpcc::worker::MixCounters::default()));
            let report = run(&b, &run_cfg, |i| {
                let mut w = TpccWorker::new(Arc::clone(&layout), i).with_sink(Arc::clone(&mix));
                move |t: &mut B::Thread| w.run_op(t)
            });
            layout
                .check_consistency(b.memory())
                .unwrap_or_else(|e| panic!("TPC-C consistency violated after run: {e}"));
            let mut p = Point::new(b.name(), report);
            p.mix = Some(mix.lock().unwrap().clone());
            p
        }
    }
    let layout = Arc::new(TpccLayout::new(cfg.clone()));
    let words = layout.memory_words();
    let drive = Drive(layout, RunConfig::new(threads, warmup, duration));
    backend.with(HtmConfig::default(), words, BackoffPolicy::default(), drive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn hashmap_point_smoke() {
        let cfg = HashMapConfig { buckets: 8, chain: 4, ro_fraction: 0.9 };
        for b in Backend::ALL {
            let p = hashmap_point(b, &cfg, 2, Duration::from_millis(10), Duration::from_millis(50));
            assert!(p.throughput > 0.0, "{} produced no throughput", p.backend);
        }
    }

    #[test]
    fn tpcc_point_smoke() {
        let cfg = TpccConfig::tiny(tpcc::TxMix::standard());
        for b in Backend::ALL {
            let p = tpcc_point(b, &cfg, 2, Duration::from_millis(10), Duration::from_millis(50));
            assert!(p.throughput > 0.0, "{} produced no TPC-C throughput", p.backend);
        }
    }

    #[test]
    fn csv_row_is_well_formed() {
        let p = hashmap_point(
            Backend::SiHtm,
            &HashMapConfig { buckets: 4, chain: 2, ro_fraction: 0.5 },
            1,
            Duration::from_millis(5),
            Duration::from_millis(20),
        );
        let row = p.csv("test");
        assert_eq!(row.split(',').count(), Point::csv_header().split(',').count());
        assert!(row.starts_with("test,SI-HTM,1,"));
    }
}
