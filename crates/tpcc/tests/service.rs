//! TPC-C through the txkv service pipeline, on all four backends.
//!
//! Each cell starts a 2-shard service (`place_sharding` keeps every
//! warehouse's rows on one shard; the replicated ITEM table is loaded
//! into both), populates through the pipeline, then drives the paper's
//! transaction mixes as registered procedures:
//!
//! * both paper mixes commit work in **every** class, remote payments /
//!   remote order lines take the cross-shard 2PC path, and the two
//!   read-only classes ride the batched RO path;
//! * the 60 % select-by-last-name rule is served by the `CUST_LAST`
//!   secondary index — asserted through the schema layer's index-hit
//!   counter, not by scanning the base table;
//! * a read-only audit procedure checks TPC-C consistency (W_YTD =
//!   ΣD_YTD, pending-window/NEW_ORDER agreement, well-formed orders,
//!   base ↔ index agreement) and its facts bound the acked state;
//! * under Sync durability with a scripted crash (2PC prepare/decide
//!   windows and the single-shard commit window), recovery loses **no
//!   acked write**: every `CallOk`'d order id and payment amount is at
//!   or below the recovered state, which also passes the full audit.
//!
//! A failed recovery audit writes `target/TPCC_SERVICE_FAILURE.json`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tm_api::{TmBackend, TmThread, TxKind};
use tpcc::layout::from_word;
use tpcc::schema::{place_of, WAREHOUSE};
use tpcc::service::{self, audit_warehouse, MixOutcome, Scale, TxClass};
use tpcc::{TpccConfig, TxMix};
use txkv::shard::build_domains;
use txkv::{
    recover, recover_and_open, CrashSite, CrashSpec, DurabilityConfig, DurabilityMode, KvReply,
    Pipeline, PipelineConfig,
};
use txkv_schema::index_hits;

/// The index-hit counter is process-global; serialize tests that touch
/// the index (all of them).
static GATE: Mutex<()> = Mutex::new(());

const SHARDS: usize = 2;
const WORDS: u64 = 1 << 20;

fn test_cfg(mix: TxMix) -> TpccConfig {
    let mut cfg = TpccConfig::tiny(mix);
    // The spec-faithful 60 % select-by-last-name rule (clause 2.5.2.2),
    // exercising the secondary index from payment and order-status.
    cfg.by_lastname_pct = 60;
    cfg
}

fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig {
        executors: 2,
        multi_key_max: 32,
        drain_grace: Duration::from_millis(500),
        ..PipelineConfig::quick()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("txkv-tpcc-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Both paper mixes, non-durable: every class commits, 2PC and the RO
/// batch path are exercised, consistency holds, and the last-name path
/// is index-served.
fn service_mix<B: TmBackend>(mk: impl FnMut(usize) -> B, mix: TxMix, seed: u64) {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _deadline = tm_api::deadline::guard(Duration::from_secs(10));
    let cfg = test_cfg(mix);
    let map = service::shard_map(&cfg, SHARDS);
    let domains = build_domains(&map, mk, 0, WORDS, std::iter::empty());
    service::load_items(&domains, &cfg);
    let pipeline =
        Pipeline::start_with(domains, map, pipeline_cfg(), None, Some(service::registry(&cfg)));
    let client = pipeline.client();
    let pop = service::populate(&cfg);
    service::load_warehouses(&client, &cfg, &pop, 32);

    let hits_before = index_hits();
    let out = service::run_mix(&client, &cfg, &pop, 4, 150, seed, None);
    let delta = index_hits() - hits_before;

    for cls in TxClass::ALL {
        assert!(
            out.acked[cls.index()] > 0,
            "{} never committed (acked {:?}, user-aborted {:?})",
            cls.name(),
            out.acked,
            out.user_aborted
        );
    }
    assert_eq!(out.shed, 0, "nothing may shed without a crash");
    assert!(out.lastname_acks > 0, "the 60% by-name rule must fire");
    assert!(
        delta >= out.lastname_acks,
        "{} by-name selections but only {delta} index hits — the \
         last-name path is not index-served",
        out.lastname_acks
    );

    // Consistency + acked floors through the read-only audit procedure.
    for w in 0..cfg.warehouses {
        let KvReply::CallOk(words) = client.call(service::audit_op(w)).expect("audit admitted")
        else {
            panic!("audit did not commit")
        };
        assert_eq!(words[0], 0, "warehouse {w} failed its consistency audit");
        check_acked_floors(&cfg, w, from_word(words[1]), |d| words[3 + 2 * d as usize], &out)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    let report = pipeline.shutdown();
    assert_eq!(report.panicked_executors, 0);
    assert!(report.twopc.prepares > 0, "remote payments/lines must take the 2PC path");
    assert!(report.ro_batch_ops > 0, "order-status/stock-level must ride the RO batch path");
    if report.backend == "SI-HTM" {
        assert_eq!(report.ro_batch_aborts, 0, "SI-HTM RO fast path must never abort");
    }
    for cls in TxClass::ALL {
        let lat = report
            .procs
            .iter()
            .find(|p| p.proc == cls.proc_id())
            .unwrap_or_else(|| panic!("no latency row for {}", cls.name()));
        assert!(lat.count() > 0, "no recorded latency for {}", cls.name());
        // Generous, hardware-independent class SLOs.
        let (s99, e99) = (lat.service.quantile(0.99), lat.e2e.quantile(0.99));
        assert!(s99 <= 250_000_000, "{} service p99 {s99} ns > 250 ms", cls.name());
        assert!(e99 <= 1_000_000_000, "{} e2e p99 {e99} ns > 1 s", cls.name());
    }
}

/// `Err` describing any acked write the state regressed below.
/// `next_of(d)` is district `d`'s recovered `next_o_id`.
fn check_acked_floors(
    cfg: &TpccConfig,
    w: u64,
    w_ytd: i64,
    next_of: impl Fn(u64) -> u64,
    out: &MixOutcome,
) -> Result<(), String> {
    let initial = (cfg.districts_per_w * 3_000_000) as i64;
    let paid = out.paid.get(&w).copied().unwrap_or(0);
    if w_ytd < initial + paid {
        return Err(format!(
            "w{w}: acked payments lost (W_YTD {w_ytd} < initial {initial} + acked {paid})"
        ));
    }
    for d in 0..cfg.districts_per_w {
        if let Some(&max_o) = out.max_o_id.get(&(w, d)) {
            if next_of(d) <= max_o {
                return Err(format!(
                    "w{w} d{d}: acked order {max_o} lost (next_o_id {})",
                    next_of(d)
                ));
            }
        }
    }
    Ok(())
}

/// Pipeline `MultiPut` batches the population takes (the single-shard
/// commit-window countdown must outlast them).
fn population_batches(cfg: &TpccConfig) -> u64 {
    let pop = service::populate(cfg);
    (0..cfg.warehouses)
        .map(|w| {
            let mut n = 0u64;
            service::warehouse_rows(cfg, &pop, w, &mut |_, _| n += 1);
            n.div_ceil(32)
        })
        .sum()
}

fn crash_sites(cfg: &TpccConfig) -> [(CrashSite, u64); 3] {
    [
        // 2PC windows are armed only by cross-shard calls (remote
        // payment / remote order lines), never by population batches.
        (CrashSite::AfterPrepare, 4),
        (CrashSite::AfterDecision, 4),
        // The single-shard commit window fires on every population
        // batch too; land the crash ~25 commits into the mix.
        (CrashSite::AfterCommit, population_batches(cfg) + 25),
    ]
}

/// Sync durability + scripted crash: the service dies mid-mix; after
/// recovery the full audit passes and no acked write has regressed.
fn durable_crash<B: TmBackend>(mut mk: impl FnMut(usize) -> B) {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = test_cfg(TxMix::standard());
    for (site, after) in crash_sites(&cfg) {
        let dir = tmpdir(&format!("{site:?}"));
        let mut dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        dcfg.group_commit_max = 8;
        dcfg.checkpoint_every = 64;
        dcfg.crash = Some(CrashSpec { site, after });
        let map = service::shard_map(&cfg, SHARDS);
        let (domains, wal, _) =
            recover_and_open(&dcfg, &map, &mut mk, 0, WORDS).expect("open durable service");
        service::load_items(&domains, &cfg);
        let pipeline = Pipeline::start_with(
            domains,
            map,
            pipeline_cfg(),
            Some(Arc::clone(&wal)),
            Some(service::registry(&cfg)),
        );
        let client = pipeline.client();
        let pop = service::populate(&cfg);
        service::load_warehouses(&client, &cfg, &pop, 32);
        let out = service::run_mix(&client, &cfg, &pop, 3, 250, 0xD1E5 ^ after, Some(&wal));
        let crashed = !wal.alive();
        let report = pipeline.shutdown();
        assert!(crashed, "the scripted {site:?} crash never tripped");
        assert!(report.wal.wal_appends > 0, "the load never reached the WAL");
        verify_recovered(&dir, &mut mk, &cfg, &out, &format!("{site:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recover the shards directly (no pipeline) and audit every warehouse
/// through the typed layer; on failure write a machine-readable
/// artifact before panicking.
fn verify_recovered<B: TmBackend>(
    dir: &Path,
    mk: &mut impl FnMut(usize) -> B,
    cfg: &TpccConfig,
    out: &MixOutcome,
    ctx: &str,
) {
    let map = service::shard_map(cfg, SHARDS);
    let (domains, _) = recover(dir, &map, &mut *mk, 0, WORDS).expect("recovery failed");
    let s = Scale::of(cfg);
    let mut failures: Vec<String> = Vec::new();
    for w in 0..cfg.warehouses {
        let shard = map.shard_of(WAREHOUSE.key(place_of(w), 0, 0));
        let (backend, store) = &domains[shard];
        let mut thread = backend.register_thread();
        let mut scratch = store.new_scratch();
        let mut res = None;
        thread.exec(TxKind::ReadOnly, &mut |tx| {
            let mut ltx = txkv::LocalTx { store, tx, scratch: &mut scratch };
            res = Some(audit_warehouse(&mut ltx, &s, w)?);
            Ok(())
        });
        let (fails, facts) = res.expect("recovered audit ran");
        failures.extend(fails);
        if let Err(e) = check_acked_floors(
            cfg,
            w,
            from_word(facts.w_ytd),
            |d| facts.districts[d as usize].0,
            out,
        ) {
            failures.push(e);
        }
    }
    if !failures.is_empty() {
        let body = format!(r#"{{"context":{ctx:?},"failures":{:?}}}"#, failures);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/TPCC_SERVICE_FAILURE.json");
        let _ = std::fs::write(path, &body);
        panic!("TPC-C service recovery failed ({ctx}): {body}");
    }
}

macro_rules! tpcc_service_suite {
    ($name:ident, $make:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn standard_mix_through_service() {
                service_mix($make, TxMix::standard(), 0x51A0);
            }

            #[test]
            fn read_dominated_mix_through_service() {
                service_mix($make, TxMix::read_dominated(), 0x51A1);
            }

            #[test]
            fn durable_crash_recovers_acked_state() {
                durable_crash($make);
            }
        }
    };
}

tpcc_service_suite!(on_si_htm, |_s| si_htm::SiHtm::with_defaults(1 << 20));
tpcc_service_suite!(on_htm_sgl, |_s| htm_sgl::HtmSgl::with_defaults(1 << 20));
tpcc_service_suite!(on_p8tm, |_s| p8tm::P8tm::with_defaults(1 << 20));
tpcc_service_suite!(on_silo, |_s| silo::Silo::with_defaults(1 << 20));
