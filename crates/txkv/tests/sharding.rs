//! Sharded service-layer semantics, on all four backends:
//!
//! * cross-shard transfers (two-phase commit over per-shard
//!   transactions) conserve the global balance;
//! * cross-shard snapshot audits never observe a half-applied transfer
//!   (the coordination locks exclude them from the 2PC window);
//! * with the chaos injector panicking inside transaction bodies — i.e.
//!   landing between a 2PC prepare and its applies — every accepted
//!   transfer still fully applies or fully aborts (compensation from the
//!   prepare-time undo images), so conservation survives chaos.

use std::sync::Mutex;
use std::time::Duration;
use tm_api::TmBackend;
use txkv::shard::build_domains;
use txkv::{KvError, KvOp, KvReply, KvStore, Pipeline, PipelineConfig, ServiceReport, ShardMap};
use txmem::hooks::chaos::{self, ChaosConfig};

/// Chaos arming is process-global: every test in this binary runs under
/// this gate so an armed injector never bleeds into a clean test.
static GATE: Mutex<()> = Mutex::new(());

const SHARDS: usize = 4;
const PER_SHARD: u64 = 8;
const KEYS: u64 = SHARDS as u64 * PER_SHARD;
const INITIAL: u64 = 1_000;
const EXPECTED_TOTAL: u64 = KEYS * INITIAL;
const CLIENTS: u64 = 3;
const OPS_PER_CLIENT: u64 = 300;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drive a mixed local/cross-shard transfer + audit workload through a
/// sharded pipeline; returns the service report and the post-shutdown
/// raw balance total (summed across every shard's private memory).
fn run_sharded<B: TmBackend + Clone>(mk: impl FnMut(usize) -> B) -> (ServiceReport, u64) {
    let map = ShardMap::range(SHARDS, PER_SHARD);
    // Roomy arenas: every executor pre-allocates a batch scratch per
    // shard from that shard's bump arena, and each chaos recovery burns
    // a fresh scratch (bump allocators don't reuse), so size for the
    // worst case rather than the data (8 keys/shard).
    let domains = build_domains(&map, mk, 0, 1 << 16, (0..KEYS).map(|k| (k, INITIAL)));
    // Keep probes into each shard's backend + store: `shutdown` consumes
    // the pipeline, and conservation is checked on the raw memories.
    let probes: Vec<(B, KvStore)> = domains.iter().map(|(b, s)| (b.clone(), s.clone())).collect();
    let cfg = PipelineConfig {
        executors: 4,
        multi_key_max: 4,
        drain_grace: Duration::from_millis(500),
        ..PipelineConfig::quick()
    };
    let pipeline = Pipeline::start_sharded(domains, map, cfg);
    let all_keys: Vec<u64> = (0..KEYS).collect();
    std::thread::scope(|sc| {
        for t in 0..CLIENTS {
            let client = pipeline.client();
            let all_keys = &all_keys;
            sc.spawn(move || {
                let mut rng = 0x5EED_0000 ^ (t << 32);
                for _ in 0..OPS_PER_CLIENT {
                    let r = splitmix(&mut rng);
                    let amount = 1 + (r % 9) as i64;
                    let op = match r % 10 {
                        // 40 %: cross-shard conserving transfer (2PC).
                        0..=3 => {
                            let sa = ((r >> 8) as usize) % SHARDS;
                            let sb = (sa + 1 + ((r >> 16) as usize) % (SHARDS - 1)) % SHARDS;
                            let ka = sa as u64 * PER_SHARD + (r >> 24) % PER_SHARD;
                            let kb = sb as u64 * PER_SHARD + (r >> 32) % PER_SHARD;
                            KvOp::MultiAdd { deltas: vec![(ka, -amount), (kb, amount)] }
                        }
                        // 30 %: shard-local conserving transfer.
                        4..=6 => {
                            let s = ((r >> 8) as usize) % SHARDS;
                            let base = s as u64 * PER_SHARD;
                            let ka = base + (r >> 16) % PER_SHARD;
                            let off = (ka - base + 1 + (r >> 24) % (PER_SHARD - 1)) % PER_SHARD;
                            KvOp::MultiAdd { deltas: vec![(ka, -amount), (base + off, amount)] }
                        }
                        // 30 %: global audit — a cross-shard snapshot read.
                        _ => KvOp::MultiGet { keys: all_keys.clone() },
                    };
                    let audit = matches!(op, KvOp::MultiGet { .. });
                    match client.call(op) {
                        Ok(KvReply::Values(vals)) if audit => {
                            let sum: u64 = vals.iter().map(|v| v.expect("account vanished")).sum();
                            assert_eq!(
                                sum, EXPECTED_TOTAL,
                                "audit observed a half-applied cross-shard transfer"
                            );
                        }
                        Ok(_) => {}
                        Err(KvError::Overloaded { .. }) => {}
                        Err(e) => panic!("unexpected admission error {e:?}"),
                    }
                    // A shard-local read after every op: the RO batch lane.
                    match client.call(KvOp::Get { key: (r >> 40) % KEYS }) {
                        Ok(KvReply::Value(Some(_)) | KvReply::Shed) => {}
                        Err(KvError::Overloaded { .. }) => {}
                        other => panic!("unexpected read reply {other:?}"),
                    }
                }
            });
        }
    });
    let report = pipeline.shutdown();
    let mut total = 0u64;
    for (s, (backend, store)) in probes.iter().enumerate() {
        for k in (s as u64 * PER_SHARD)..((s as u64 + 1) * PER_SHARD) {
            total =
                total.wrapping_add(store.load_raw(backend.memory(), k).expect("account vanished"));
        }
    }
    (report, total)
}

/// The reads rode the RO batch path with the backend's expectation:
/// SI-HTM's RO fast path never aborts (§3.3), chaos or not; P8TM's RO
/// path is taken; HTM-SGL and Silo may abort and retry.
fn ro_path_held(report: &ServiceReport) {
    assert!(report.ro_batches > 0, "no RO batch formed");
    match report.backend {
        "SI-HTM" => assert_eq!(report.ro_batch_aborts, 0, "SI-HTM RO fast path aborted"),
        "P8TM" => assert!(report.backend_stats.ro_commits > 0, "P8TM RO path never taken"),
        _ => {}
    }
}

fn conserves_clean<B: TmBackend + Clone>(mk: impl FnMut(usize) -> B) {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (report, total) = run_sharded(mk);
    assert_eq!(total, EXPECTED_TOTAL, "cross-shard transfers must conserve the global balance");
    assert!(report.twopc.prepares > 0, "the mix must exercise the 2PC path");
    assert_eq!(report.twopc.aborts, 0, "no chaos armed: no 2PC may abort");
    assert_eq!(report.panicked_executors, 0, "no chaos armed: no executor may die");
    ro_path_held(&report);
}

/// Chaos-armed variant: the injector panics inside transaction bodies,
/// which lands inside the 2PC window (between a participant's prepare
/// and the applies). Every accepted transfer must still fully apply or
/// fully abort — a half-applied transfer would break the raw total.
fn conserves_under_chaos<B: TmBackend + Clone>(mk: impl FnMut(usize) -> B) {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _deadline = tm_api::deadline::guard(Duration::from_secs(5));
    let guard = chaos::install(ChaosConfig {
        seed: 0xC4A05,
        abort_access: 0.005,
        abort_commit: 0.002,
        capacity_share: 0.5,
        stall: 0.0,
        stall_max_us: 0,
        panic: 0.001,
    });
    let (report, total) = run_sharded(mk);
    let chaos_report = guard.report();
    drop(guard);
    assert_eq!(
        total, EXPECTED_TOTAL,
        "a chaos panic inside the 2PC window half-applied a transfer \
         (injected: {chaos_report:?}, twopc: {:?})",
        report.twopc
    );
    assert!(
        chaos_report.injected_aborts > 0,
        "the injector never fired; the chaos variant tested nothing"
    );
    // Liveness: injected panics are caught per request, so every executor
    // lives and keeps serving.
    assert_eq!(report.panicked_executors, 0, "a chaos panic killed an executor");
    assert!(report.replies > 0, "nothing was served under chaos");
    ro_path_held(&report);
}

macro_rules! sharding_suite {
    ($name:ident, $make:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn cross_shard_transfers_conserve() {
                conserves_clean($make);
            }

            #[test]
            fn cross_shard_transfers_conserve_under_chaos() {
                conserves_under_chaos($make);
            }
        }
    };
}

sharding_suite!(on_si_htm, |_s| si_htm::SiHtm::with_defaults(1 << 16));
sharding_suite!(on_htm_sgl, |_s| htm_sgl::HtmSgl::with_defaults(1 << 16));
sharding_suite!(on_p8tm, |_s| p8tm::P8tm::with_defaults(1 << 16));
sharding_suite!(on_silo, |_s| silo::Silo::with_defaults(1 << 16));

/// The scale-out gate: SI-HTM at a saturating open-loop arrival rate
/// (600 k/s for 1.5 s, 16 executors, 90 % read-only, no cross-shard
/// work) over 1 and then 4 shards. Four shards must serve read-only
/// requests at ≥ 2.5× the 1-shard rate on a host with ≥ 4 CPUs. With
/// fewer, the OS time-slices the domains and wall-clock speedup is
/// bounded at 1×, so only the ≥ 0.7× no-regression floor applies.
#[test]
#[ignore = "3 s saturating sweep whose ratio needs an otherwise idle host; run by hand"]
fn four_shards_scale_read_only_throughput() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let base = sweep_cell(1);
    let four = sweep_cell(4);
    let ratio = four / base.max(1.0);
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("RO replies/s: 1 shard {base:.0}, 4 shards {four:.0} = {ratio:.2}x ({cpus} cpus)");
    if cpus >= 4 {
        assert!(ratio >= 2.5, "4-shard RO throughput only {ratio:.2}x the 1-shard figure");
    }
    assert!(ratio >= 0.7, "sharding regressed RO throughput to {ratio:.2}x");
}

/// Keys per shard range: `[s*kps, (s+1)*kps)`, of which the first half is
/// populated (value = key), so deletes of absent keys stay shard-local.
fn sweep_kps(shards: usize) -> u64 {
    2 * 4096 / shards as u64
}

/// 80 % get, 5 % multi-get, 5 % 32-key-aligned scan, 5 % put, 2 % cas,
/// 2 % shard-local transfer, 1 % delete, all inside one shard.
fn sweep_op(rng: &mut u64, shards: usize) -> KvOp {
    let kps = sweep_kps(shards);
    let loaded = kps / 2;
    let base = (splitmix(rng) % shards as u64) * kps;
    let key = base + splitmix(rng) % loaded;
    match splitmix(rng) % 1000 {
        0..=799 => KvOp::Get { key },
        800..=849 => {
            let keys = (0..4).map(|i| base + ((key - base) + i * 37) % loaded).collect();
            KvOp::MultiGet { keys }
        }
        850..=899 => KvOp::ScanPrefix { prefix: key >> 5, shift: 5, limit: 32 },
        900..=949 => KvOp::Put { key, val: splitmix(rng) },
        950..=969 => KvOp::Cas { key, expect: Some(key), new: key },
        970..=989 => {
            let other = base + ((key - base) + 1 + splitmix(rng) % (loaded - 1)) % loaded;
            KvOp::MultiAdd { deltas: vec![(key, -1), (other, 1)] }
        }
        _ => KvOp::Delete { key: base + loaded + splitmix(rng) % loaded },
    }
}

/// One sweep cell: read-only replies per second of wall time. Arrivals
/// are paced on a 200 µs tick and never wait for replies.
fn sweep_cell(shards: usize) -> f64 {
    let words = workloads::btree::memory_words(4096 * 8);
    let kps = sweep_kps(shards);
    let map = ShardMap::range(shards, kps);
    let entries = (0..shards as u64).flat_map(|s| s * kps..s * kps + kps / 2).map(|k| (k, k));
    let mk = |_| si_htm::SiHtm::with_defaults(words);
    let domains = build_domains(&map, mk, 0, words as u64, entries);
    let cfg = PipelineConfig { executors: 16, ..PipelineConfig::new() };
    let pipeline = Pipeline::start_sharded(domains, map, cfg);
    let client = pipeline.client();
    let (rate, window) = (600_000u64, Duration::from_millis(1_500));
    let tick = Duration::from_micros(200);
    let per_tick = rate / 5_000;
    let mut rng = 0x0B16_5EED ^ rate ^ ((shards as u64) << 32);
    let t0 = std::time::Instant::now();
    let mut ticks = 0u32;
    while t0.elapsed() < window {
        for _ in 0..per_tick {
            match client.submit(sweep_op(&mut rng, shards)) {
                Ok(_) | Err(KvError::Overloaded { .. }) => {}
                Err(e) => panic!("submit failed: {e}"),
            }
        }
        ticks += 1;
        if let Some(rest) = (tick * ticks).checked_sub(t0.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    let report = pipeline.shutdown();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.panicked_executors, 0);
    assert_eq!(report.starved_executors, 0, "{shards} shards: an executor served nothing");
    assert!(report.mean_ro_batch() > 1.0, "{shards} shards: RO batching never engaged");
    ro_path_held(&report);
    let ro: u64 = report.class.iter().filter(|c| c.class.read_only()).map(|c| c.count()).sum();
    ro as f64 / wall
}
