//! Storage-fault soak: every backend × a grid of bad-disk scripts
//! against the durable txkv service, asserting the degradation contract
//! end to end — through a power cut and recovery.
//!
//! Each cell boots a 4-shard Sync-mode pipeline, seeds transfer
//! accounts, arms one [`FaultPlan`] from the plan grid and drives a
//! mixed put/get/transfer load on real client threads:
//!
//! * **weather** — probabilistic fsync failures, short writes and I/O
//!   stalls on every shard's WAL segments: the rotate-and-rewrite retry
//!   path under sustained load.
//! * **dead-shard** — permanent fsync failure on shard 1, healed
//!   mid-run: the shard must degrade to `ReadOnly`/`Failed`, shed its
//!   updates with the typed `Unavailable` while *still serving reads*,
//!   leave every other shard at full ack rate, and rejoin via the
//!   background probe once the medium heals.
//! * **ckpt-enospc** — the disk is full for shard 0's checkpoint files
//!   only: checkpoints fail and are counted, but the previous
//!   checkpoint + uncut log still cover the state, so *nothing* sheds
//!   and every shard stays `Healthy`.
//! * **corrupt** — silent post-write bit corruption on segment files
//!   with the scrubber on a tight cadence; after the medium heals the
//!   cell forces a re-checkpoint of every shard so the corrupt log
//!   region is superseded before the crash.
//!
//! Every cell then pulls the plug (`halt_all`), recovers from disk into
//! fresh backends, and asserts the hard invariants:
//!
//! * **zero acked-write loss** — every Sync-acked put is recovered;
//! * **conservation** — cross-shard transfers fully applied or fully
//!   compensated, even those refused or in flight at degradation;
//! * **answered-or-shed** — every request got a typed answer (reads are
//!   *never* refused by a degraded shard);
//! * **no early sync ack** — `wal_sync_acks_early == 0` under faults.
//!
//! Results land in `STORAGE_SOAK.json` (schema `storage_soak` v1, one
//! row per cell with serve/shed/ack counts, health transitions and the
//! survival verdict); a violated invariant dumps the failing cell to
//! `STORAGE_FAULT_FAILURE.json` and exits non-zero. A hang is caught by
//! a monitor thread, not a wedged CI job.
//!
//! Usage: `cargo run --release --bin storage_soak [-- --smoke]`

use bench::cell::{self, Fields};
use bench::{schema, Backend, BackendVisitor};
use htm_sim::HtmConfig;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_api::{BackoffPolicy, TmBackend};
use txkv::durability::storage as faults;
use txkv::{
    recover, recover_and_open, DurabilityConfig, DurabilityMode, FaultPlan, FaultTarget, KvClient,
    KvError, KvOp, KvReply, Pipeline, PipelineConfig, ShardMap, WalSet,
};

const SHARDS: usize = 4;
const PER_SHARD: u64 = 32;
const KEYS: u64 = SHARDS as u64 * PER_SHARD;
/// Even keys are transfer accounts (sum conserved); odd keys carry
/// per-client monotone put counters.
const INITIAL: u64 = 1_000;
const EXPECTED_TOTAL: u64 = (KEYS / 2) * INITIAL;
const WORDS: u64 = 1 << 16;
/// The shard the dead-shard script kills.
const BAD_SHARD: usize = 1;

// ----------------------------------------------------------- plan grid

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    Weather,
    DeadShard,
    CkptNoSpace,
    Corrupt,
}

impl Plan {
    const ALL: [Plan; 4] = [Plan::Weather, Plan::DeadShard, Plan::CkptNoSpace, Plan::Corrupt];

    fn name(self) -> &'static str {
        match self {
            Plan::Weather => "weather",
            Plan::DeadShard => "dead-shard",
            Plan::CkptNoSpace => "ckpt-enospc",
            Plan::Corrupt => "corrupt",
        }
    }

    fn fault_plan(self, tag: &str, seed: u64) -> FaultPlan {
        let p = match self {
            Plan::Weather => FaultPlan {
                target: FaultTarget::Segment,
                sync_fail_p: 0.05,
                short_write_p: 0.01,
                stall_p: 0.01,
                stall_max_us: 100,
                ..FaultPlan::default()
            },
            Plan::DeadShard => FaultPlan::fsync_permanent(BAD_SHARD, 0),
            Plan::CkptNoSpace => FaultPlan::enospc(0, FaultTarget::Checkpoint, 0),
            Plan::Corrupt => {
                FaultPlan { target: FaultTarget::Segment, corrupt_p: 0.02, ..FaultPlan::default() }
            }
        };
        p.tagged(tag).seeded(seed)
    }
}

// ------------------------------------------------------------ the cell

#[derive(Clone)]
struct Cfg {
    clients: u64,
    ops_per_client: u64,
}

struct CellOut {
    report: txkv::ServiceReport,
    injected: faults::FaultReport,
    acked_puts: u64,
    sheds: u64,
    /// Typed refusals observed on shards the plan never faulted.
    healthy_refusals: u64,
    recovered_keys: u64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shard_of(k: u64) -> usize {
    (k / PER_SHARD) as usize
}

/// Whether the armed plan (`None` = medium already healed) can
/// legitimately refuse updates touching `shards`.
fn may_refuse(plan: Option<Plan>, shards: &[usize]) -> bool {
    match plan {
        // Probabilistic faults hit every shard: any update may shed
        // while its shard rides out a retry storm.
        Some(Plan::Weather) => true,
        Some(Plan::DeadShard) => shards.contains(&BAD_SHARD),
        // Checkpoint failure and latent corruption are absorbed without
        // degrading service — and a healed disk refuses nothing.
        Some(Plan::CkptNoSpace) | Some(Plan::Corrupt) | None => false,
    }
}

/// Call with bounded retry on `Overloaded` (admission backpressure is
/// not the contract under test here).
fn call(client: &KvClient, op: KvOp) -> Result<KvReply, KvError> {
    loop {
        match client.call(op.clone()) {
            Err(KvError::Overloaded { .. }) => std::thread::yield_now(),
            other => return other,
        }
    }
}

#[derive(Default)]
struct Tally {
    acked: HashMap<u64, u64>,
    acked_puts: u64,
    sheds: u64,
    healthy_refusals: u64,
}

/// One client's mixed load: monotone puts on its own odd keys (50 %),
/// reads (25 %, must never be refused), cross-shard transfers (25 %).
/// `ctr_base` keeps a client's put counters monotone *across* phases:
/// the recovery check compares recovered values against the per-key
/// acked maximum, so a later phase must never write a smaller value.
fn drive_client(
    client: &KvClient,
    plan: Option<Plan>,
    cfg: &Cfg,
    t: u64,
    ops: u64,
    ctr_base: u64,
) -> Tally {
    let mut rng = 0x50AB_0000u64 ^ (t << 32) ^ ops;
    let my_keys: Vec<u64> =
        (0..KEYS).filter(|k| k % 2 == 1 && (k / 2) % cfg.clients == t).collect();
    let mut tally = Tally::default();
    let mut ctr = ctr_base;
    for _ in 0..ops {
        let r = splitmix(&mut rng);
        match r % 4 {
            0 | 1 => {
                ctr += 1;
                let k = my_keys[((r >> 8) as usize) % my_keys.len()];
                match call(client, KvOp::Put { key: k, val: ctr }) {
                    Ok(KvReply::Done { .. }) => {
                        tally.acked.insert(k, ctr);
                        tally.acked_puts += 1;
                    }
                    Ok(KvReply::Unavailable) | Err(KvError::Unavailable { .. }) => {
                        tally.sheds += 1;
                        if !may_refuse(plan, &[shard_of(k)]) {
                            tally.healthy_refusals += 1;
                        }
                    }
                    other => panic!("put answered {other:?}"),
                }
            }
            2 => {
                // Reads serve even on a degraded shard — steer a quarter
                // of them at the faulted shard on purpose.
                let k = if r & 4 == 0 {
                    BAD_SHARD as u64 * PER_SHARD + (r >> 8) % PER_SHARD
                } else {
                    (r >> 8) % KEYS
                };
                match call(client, KvOp::Get { key: k }) {
                    Ok(KvReply::Value(_)) => {}
                    other => panic!("read refused on shard {}: {other:?}", shard_of(k)),
                }
            }
            _ => {
                let sa = ((r >> 8) as usize) % SHARDS;
                let sb = (sa + 1 + ((r >> 16) as usize) % (SHARDS - 1)) % SHARDS;
                let ka = sa as u64 * PER_SHARD + 2 * ((r >> 24) % (PER_SHARD / 2));
                let kb = sb as u64 * PER_SHARD + 2 * ((r >> 32) % (PER_SHARD / 2));
                let amount = 1 + (r % 9) as i64;
                let op = KvOp::MultiAdd { deltas: vec![(ka, -amount), (kb, amount)] };
                match call(client, op) {
                    Ok(KvReply::Done { .. }) => {}
                    Ok(KvReply::Unavailable) | Err(KvError::Unavailable { .. }) => {
                        tally.sheds += 1;
                        if !may_refuse(plan, &[sa, sb]) {
                            tally.healthy_refusals += 1;
                        }
                    }
                    other => panic!("transfer answered {other:?}"),
                }
            }
        }
    }
    tally
}

fn drive_phase(
    pipeline: &Pipeline<impl TmBackend>,
    plan: Option<Plan>,
    cfg: &Cfg,
    ops: u64,
    ctr_base: u64,
    total: &mut Tally,
) {
    let tallies: Vec<Tally> = std::thread::scope(|sc| {
        (0..cfg.clients)
            .map(|t| {
                let client = pipeline.client();
                sc.spawn(move || drive_client(&client, plan, cfg, t, ops, ctr_base))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    for t in tallies {
        for (k, v) in t.acked {
            let e = total.acked.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        total.acked_puts += t.acked_puts;
        total.sheds += t.sheds;
        total.healthy_refusals += t.healthy_refusals;
    }
}

fn wait_writable(wal: &WalSet, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while (0..SHARDS).any(|s| !wal.health(s).writable()) {
        assert!(
            Instant::now() < deadline,
            "{what}: shards never rejoined (health {:?})",
            wal.health_names()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Force a fresh checkpoint on every shard and wait for the executors
/// to take them (supersedes any corrupted log region before the crash).
fn force_checkpoints(wal: &WalSet) {
    let before = wal.stats().checkpoints;
    for s in 0..SHARDS {
        wal.request_checkpoint(s);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while wal.stats().checkpoints < before + SHARDS as u64 {
        assert!(
            Instant::now() < deadline,
            "forced re-checkpoint never completed ({} of {} shards)",
            wal.stats().checkpoints - before,
            SHARDS
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One cell: the plan, the load, the WAL directory (whose path also
/// tags the files the plan may fault) and the fault seed.
struct Cell<'a> {
    plan: Plan,
    cfg: &'a Cfg,
    dir: &'a Path,
    seed: u64,
}

impl BackendVisitor for Cell<'_> {
    type Out = CellOut;
    fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> CellOut {
        let Cell { plan, cfg, dir, seed } = self;
        let mk = |_| mk();
        let _ = std::fs::remove_dir_all(dir);
        let dcfg = DurabilityConfig {
            group_commit_max: 8,
            checkpoint_every: 32,
            flush_retries: if plan == Plan::DeadShard { 1 } else { 3 },
            retry_base_us: 10,
            maintenance_interval_ms: 5,
            scrub_interval_ms: if plan == Plan::Corrupt { 25 } else { 0 },
            ..DurabilityConfig::new(DurabilityMode::Sync, dir)
        };
        let map = ShardMap::range(SHARDS, PER_SHARD);
        let (domains, wal, _) =
            recover_and_open(&dcfg, &map, &mk, 0, WORDS).expect("open durable domains");
        let pcfg = PipelineConfig {
            executors: 4,
            multi_key_max: 4,
            drain_grace: Duration::from_millis(500),
            ..PipelineConfig::quick()
        };
        let pipeline = Pipeline::start_durable(domains, map, pcfg, Arc::clone(&wal));
        let client = pipeline.client();

        // Seed the transfer accounts before the weather turns: every seed is
        // acked, so the conservation baseline is durable.
        for k in (0..KEYS).step_by(2) {
            let reply = call(&client, KvOp::Put { key: k, val: INITIAL });
            assert!(matches!(reply, Ok(KvReply::Done { .. })), "seed put answered {reply:?}");
        }

        let guard = faults::install(plan.fault_plan(&dir.to_string_lossy(), seed));
        let mut tally = Tally::default();

        // Phase 1: load under active faults.
        drive_phase(&pipeline, Some(plan), cfg, cfg.ops_per_client, 0, &mut tally);
        if plan == Plan::DeadShard {
            assert!(
                !wal.health(BAD_SHARD).writable(),
                "permanent fsync failure never degraded shard {BAD_SHARD} (health {:?})",
                wal.health_names()
            );
        }

        // Heal the medium; the background probes must rejoin every shard,
        // after which a short second phase runs at full ack rate (any
        // refusal in it is a bug — see `may_refuse`).
        guard.clear();
        wait_writable(&wal, plan.name());
        let ops = cfg.ops_per_client;
        drive_phase(&pipeline, None, cfg, ops / 4, ops + 1, &mut tally);
        if plan == Plan::Corrupt {
            force_checkpoints(&wal);
        }

        // Pull the plug and recover: every acked write must be on disk.
        wal.halt_all();
        let report = pipeline.shutdown();
        let injected = guard.report();
        drop(guard);

        let (rdomains, _report) = recover(dir, &map, &mk, 0, WORDS).expect("recovery failed");
        let read = |k: u64| {
            let s = shard_of(k);
            rdomains[s].1.load_raw(rdomains[s].0.memory(), k)
        };
        let total: u64 = (0..KEYS).step_by(2).map(|k| read(k).unwrap_or(0)).sum();
        assert_eq!(total, EXPECTED_TOTAL, "cross-shard conservation broken across recovery");
        let mut recovered_keys = 0u64;
        for (&k, &v) in &tally.acked {
            let got = read(k).unwrap_or(0);
            assert!(got >= v, "acked write lost: key {k} acked {v}, recovered {got}");
            recovered_keys += 1;
        }
        let _ = std::fs::remove_dir_all(dir);
        CellOut {
            report,
            injected,
            acked_puts: tally.acked_puts,
            sheds: tally.sheds,
            healthy_refusals: tally.healthy_refusals,
            recovered_keys,
        }
    }
}

// ------------------------------------------------- monitor + reporting

/// Post-run checks of the degradation counters the plan must have moved
/// (the hard invariants are asserted inside the cell).
fn check(plan: Plan, o: &CellOut) -> Result<(), String> {
    let w = &o.report.wal;
    if w.sync_acks_early != 0 {
        return Err(format!("{} sync ack(s) outran their fsync", w.sync_acks_early));
    }
    if o.healthy_refusals != 0 {
        return Err(format!(
            "{} update(s) refused on shards the plan never faulted",
            o.healthy_refusals
        ));
    }
    if o.report.shard_health.iter().any(|&h| h != "healthy") {
        return Err(format!("shards did not rejoin: final health {:?}", o.report.shard_health));
    }
    match plan {
        Plan::Weather => {
            if o.injected.sync_fails > 0 && w.wal_retries + w.degraded_sheds + w.wal_rejoins == 0 {
                return Err(format!(
                    "{} injected fsync failures moved no degradation counter",
                    o.injected.sync_fails
                ));
            }
        }
        Plan::DeadShard => {
            if w.degraded_sheds == 0 {
                return Err("dead shard shed nothing as Unavailable".into());
            }
            if w.wal_rejoins == 0 {
                return Err("healed shard never rejoined via a probe".into());
            }
        }
        Plan::CkptNoSpace => {
            if w.checkpoint_failures == 0 {
                return Err("full disk never failed a checkpoint".into());
            }
            if w.degraded_sheds != 0 {
                return Err(format!(
                    "checkpoint ENOSPC must not shed, but {} updates were refused",
                    w.degraded_sheds
                ));
            }
        }
        Plan::Corrupt => {
            if w.scrub_passes == 0 {
                return Err("scrubber never ran".into());
            }
        }
    }
    Ok(())
}

/// What a cell served, shed, recovered and had injected.
fn counters(o: &CellOut) -> Fields {
    let w = &o.report.wal;
    Fields::new()
        .num("replies", o.report.replies)
        .num("acked_puts", o.acked_puts)
        .num("sheds", o.sheds)
        .num("healthy_refusals", o.healthy_refusals)
        .num("recovered_keys", o.recovered_keys)
        .strs("final_health", &o.report.shard_health)
        .num("wal_appends", w.wal_appends)
        .num("wal_retries", w.wal_retries)
        .num("degraded_sheds", w.degraded_sheds)
        .num("wal_rejoins", w.wal_rejoins)
        .num("ckpt_failures", w.checkpoint_failures)
        .num("scrub_passes", w.scrub_passes)
        .num("scrub_corruptions", w.scrub_corruptions)
        .num("wal_sync_acks_early", w.sync_acks_early)
        .num("injected_sync_fails", o.injected.sync_fails)
        .num("injected_short_writes", o.injected.short_writes)
        .num("injected_corruptions", o.injected.corruptions)
        .num("injected_stalls", o.injected.stalls)
}

fn cell_fields(backend: Backend, plan: Plan) -> Fields {
    Fields::new().str("backend", backend.name()).str("plan", plan.name())
}

fn fail(backend: Backend, plan: Plan, detail: &str, o: Option<&CellOut>) -> ! {
    let observed = o.map(counters).unwrap_or_default();
    let path = "STORAGE_FAULT_FAILURE.json";
    cell::fail(path, "storage_soak", &cell_fields(backend, plan), detail, &observed)
}

/// Run one cell on a watched thread: a hang is a reported failure.
fn monitored(backend: Backend, plan: Plan, cfg: &Cfg, index: usize) -> Result<CellOut, String> {
    let dir = cell::scratch_path(&format!("txkv-storage-soak-{}", plan.name()), "");
    let cfg = cfg.clone();
    let seed = 0x5EED ^ (index as u64).wrapping_mul(0x9E37_79B9);
    cell::watch(Duration::from_secs(180), move || {
        let cell = Cell { plan, cfg: &cfg, dir: &dir, seed };
        backend.with(HtmConfig::default(), WORDS as usize, BackoffPolicy::default(), cell)
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (backends, plans, cfg): (&[Backend], &[Plan], Cfg) = if smoke {
        (
            &[Backend::SiHtm, Backend::Htm],
            &[Plan::Weather, Plan::DeadShard],
            Cfg { clients: 2, ops_per_client: 250 },
        )
    } else {
        (&Backend::ALL, &Plan::ALL, Cfg { clients: 3, ops_per_client: 1_200 })
    };

    // Fault installation is process-global and exclusive; cells run
    // strictly one at a time, each dropping its guard before the next.
    let mut rows = Vec::new();
    let t0 = Instant::now();
    for (index, &backend) in backends.iter().enumerate() {
        for &plan in plans {
            match monitored(backend, plan, &cfg, index * Plan::ALL.len() + plan as usize) {
                Ok(out) => {
                    if let Err(detail) = check(plan, &out) {
                        fail(backend, plan, &detail, Some(&out));
                    }
                    let row =
                        cell_fields(backend, plan).extend(&counters(&out)).str("verdict", "pass");
                    println!("ok   {}", row.render());
                    rows.push(row);
                }
                Err(detail) => fail(backend, plan, &detail, None),
            }
        }
    }

    schema::STORAGE_SOAK.write_rows("STORAGE_SOAK.json", &rows).expect("write STORAGE_SOAK.json");
    println!(
        "storage soak passed: {} cells ({} backends x {} plans) in {:.1?} -> STORAGE_SOAK.json",
        rows.len(),
        backends.len(),
        plans.len(),
        t0.elapsed()
    );
}
