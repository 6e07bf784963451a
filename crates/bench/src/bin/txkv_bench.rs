//! txkv service bench: open-loop and closed-loop load against the
//! [`txkv::Pipeline`] on every backend, reporting per-op-class latency
//! SLOs (e2e p50/p90/p99/p999 + service p50/p99) and the RO-batching
//! counters, plus a deliberate overload phase proving admission control
//! sheds with a typed error instead of growing the queue.
//!
//! Modes, per backend:
//!
//! * **open** — fixed-arrival-rate load, 90 % of ops read-only. Arrivals
//!   are paced on a fine tick (`max(1/rate, 200 µs)`, recorded as
//!   `tick_us` in the artifact row) so e2e percentiles measure the
//!   service, not arrival quantization. Latency is recorded by the
//!   pipeline at reply time, so the generator never blocks on
//!   completions — a real open loop.
//! * **closed** — classic blocking request/reply clients.
//! * **overload** — a full-speed flood against a tiny admission queue;
//!   asserts `Overloaded` rejections happen and queue depth stays
//!   bounded.
//! * **sweep** (`--sweep`) — SI-HTM shard-count × cross-shard-mix grid at
//!   *saturating* open-loop rate: the scale-out headline. Each cell
//!   reports `ro_replies_per_sec`; 4 shards at the same executor count
//!   must beat 1 shard ≥ 2.5× on read-only throughput (asserted under
//!   `--assert-service`), with the cross-shard 2PC penalty measured at
//!   0/1/10 % mix.
//!
//! `--shards N` partitions the keyspace over N independent backend
//! instances (range map, one quiescence domain each); `--cross-shard-pct P`
//! makes P % of generated ops cross-shard conserving transfers (2PC).
//!
//! `--durability off|async|sync` runs every cell over a live per-shard
//! WAL (`txkv::durability`): commit-ordered appends with group-commit
//! fsync, `sync` delaying each update's reply until its record is
//! durable. `--durability-sweep` adds an SI-HTM open-loop leg at each of
//! the three modes — same arrival rate — so the artifact reports the
//! Sync-vs-Off overhead directly.
//!
//! * **tpcc-service** (`--tpcc-service`) — TPC-C through the service
//!   pipeline via the typed `txkv-schema` layer (`tpcc::service`): both
//!   paper mixes per backend over a 2-shard placement, the 60 %
//!   select-by-last-name rule served by the `CUST_LAST` secondary index.
//!   Emits one artifact row per transaction class with that class's
//!   e2e/service percentiles from the pipeline's per-procedure
//!   histograms. Replaces the kv modes for the run.
//!
//! * **net** (`--net tcp|uds`) — the `txkv-net` loopback soak, replacing
//!   the kv modes: a solo protected-tenant baseline, then the same load
//!   with a noisy neighbor flooding open-loop far past its per-tenant
//!   quota. Emits per-tenant schema-v6 rows; `--assert-service` gates
//!   answered-or-shed at the wire, zero starved executors, zero reply
//!   bursts rescued by the reactor's poll timeout (`wake_rescues`), typed
//!   per-tenant throttling of the noisy tenant, and the protected
//!   tenant's contended p99 within 1.5× of its solo baseline (with a
//!   2 ms absolute floor below which the ratio measures scheduler
//!   noise). A violation writes `NET_FAILURE.json`.
//! * **`--listen ADDR` / `--listen-uds PATH`** — standalone server:
//!   serve a fresh SI-HTM pipeline over the wire until stdin closes.
//! * **`--connect ADDR` / `--connect-uds PATH`** — standalone client:
//!   closed-loop load as `--tenant N --token T`, reporting
//!   client-observed round-trip percentiles.
//!
//! Results go to `BENCH_TXKV.json` in the versioned `bench::schema`
//! envelope (`bench::schema::BENCH_TXKV` documents every column and the
//! version that added it). With `--assert-service` the run enforces the
//! service-level acceptance checks (no starved executors, RO batching
//! engaged, backend-appropriate RO-abort expectations — see
//! `bench::schema` — overload sheds typed, cross-shard 2PC clean when
//! chaos is off, and on durable runs: WAL appends happened, fsyncs
//! happened, no sync ack ever preceded its fsync, no dead-log sheds); a
//! violation writes `TXKV_FAILURE.json` (schema `failure`, shared by every
//! soak binary) and exits non-zero. `--chaos` arms the runtime fault
//! injector for the open-loop phase and checks liveness under a deadline.
//!
//! `--storage-faults` arms the *storage* fault injector
//! (`txkv::durability::storage`) for the whole run: probabilistic fsync
//! failures, short writes, bit corruption and I/O stalls on the WAL
//! segment files of every durable cell. Rows then carry the schema-v5
//! health columns (`health`, `wal_retries`, `degraded_sheds`,
//! `wal_rejoins`, `scrub_*`, `ckpt_failures`), and `--assert-service`
//! keeps gating `wal_sync_acks_early == 0` — a degraded shard sheds
//! with a typed `Unavailable`, it never acks early. Requires a durable
//! mode (`--durability async|sync` or `--durability-sweep`).
//!
//! Usage: `cargo run --release --bin txkv_bench [-- --quick] [--smoke]
//!         [--backends si-htm,htm] [--rate N] [--duration-ms N]
//!         [--shards N] [--cross-shard-pct P] [--sweep] [--tpcc-service]
//!         [--durability off|async|sync] [--durability-sweep]
//!         [--net tcp|uds] [--listen ADDR] [--listen-uds PATH]
//!         [--connect ADDR] [--connect-uds PATH] [--tenant N] [--token T]
//!         [--chaos] [--storage-faults] [--assert-service]`

use bench::cell::{self, Fields};
use bench::{schema, Backend, BackendVisitor};
use htm_sim::HtmConfig;
use std::time::{Duration, Instant};
use tm_api::{BackoffPolicy, LatencyHist, TmBackend};
use tpcc::service::{self, MixOutcome, TxClass};
use tpcc::{TpccConfig, TxMix};
use txkv::durability::storage as storage_faults;
use txkv::shard::build_domains;
use txkv::{
    DurabilityConfig, DurabilityMode, FaultPlan, FaultTarget, KvClient, KvError, KvOp, Pipeline,
    PipelineConfig, ServiceReport, ShardMap, WalSet,
};
use txkv_net::{NetClient, NetReport, NetServer, NetServerConfig, ShedConfig, TenantSpec};
use txkv_schema::index_hits;
use txmem::hooks::chaos::{self, ChaosConfig};
use workloads::btree;

const KEYS: u64 = 4096;

#[derive(Clone)]
struct Args {
    quick: bool,
    chaos: bool,
    assert_service: bool,
    sweep: bool,
    backends: Vec<Backend>,
    /// Open-loop total arrival rate, requests/second.
    rate: u64,
    /// Open-loop measurement window.
    duration: Duration,
    /// Closed-loop client threads and requests per client.
    closed_clients: usize,
    closed_ops: u64,
    executors: usize,
    /// Independent backend instances the keyspace is partitioned over.
    shards: usize,
    /// Percent of generated ops that are cross-shard transfers (2PC).
    cross_pct: u64,
    /// Percent of generated ops that are wide strided `MultiPut` ingests
    /// whose write set overflows the TMCAM — each one degrades to the
    /// SGL and serializes its whole domain (sweep cells only).
    ingest_pct: u64,
    /// Ack-vs-fsync contract every cell runs under.
    durability: DurabilityMode,
    /// Add the SI-HTM Off/Async/Sync overhead legs.
    durability_sweep: bool,
    /// Arm the storage fault injector against every cell's WAL segments.
    storage_faults: bool,
    /// Run TPC-C through the typed service layer instead of the kv modes.
    tpcc_service: bool,
    /// Run the network soak over this transport instead of the kv modes:
    /// a solo protected-tenant baseline, then the same load with a noisy
    /// neighbor flooding open-loop past saturation (`tcp` | `uds`).
    net: Option<String>,
    /// Standalone server: serve the pipeline over TCP at this address
    /// until stdin closes.
    listen: Option<String>,
    /// Standalone server: additionally (or only) serve over this UDS path.
    listen_uds: Option<String>,
    /// Standalone client: closed-loop load against a remote TCP server.
    connect: Option<String>,
    /// Standalone client: closed-loop load against a remote UDS server.
    connect_uds: Option<String>,
    /// Tenant credentials for `--connect`.
    tenant: u64,
    token: u64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| argv.iter().any(|a| a == f);
    let val = |f: &str| {
        argv.iter().position(|a| a == f).and_then(|i| argv.get(i + 1)).map(|s| s.as_str())
    };
    let quick = has("--quick") || has("--smoke");
    let mut backends: Vec<Backend> = Backend::ALL.to_vec();
    if has("--smoke") {
        backends = vec![Backend::SiHtm, Backend::Htm];
    }
    if let Some(list) = val("--backends") {
        backends = list
            .split(',')
            .map(|s| Backend::parse(s).unwrap_or_else(|| panic!("unknown backend '{s}'")))
            .collect();
    }
    let rate = val("--rate")
        .map(|s| s.parse().expect("--rate takes an integer"))
        .unwrap_or(if quick { 10_000 } else { 20_000 });
    let duration = Duration::from_millis(
        val("--duration-ms")
            .map(|s| s.parse().expect("--duration-ms takes an integer"))
            .unwrap_or(if quick { 400 } else { 2_000 }),
    );
    let shards =
        val("--shards").map(|s| s.parse().expect("--shards takes an integer")).unwrap_or(1usize);
    assert!(shards > 0 && KEYS.is_multiple_of(shards as u64), "--shards must divide {KEYS}");
    let cross_pct = val("--cross-shard-pct")
        .map(|s| s.parse().expect("--cross-shard-pct takes an integer"))
        .unwrap_or(0u64);
    assert!(cross_pct <= 100, "--cross-shard-pct is a percentage");
    Args {
        quick,
        chaos: has("--chaos"),
        assert_service: has("--assert-service"),
        sweep: has("--sweep"),
        backends,
        rate,
        duration,
        closed_clients: 4,
        closed_ops: if quick { 500 } else { 2_000 },
        executors: if quick { 2 } else { 4 },
        shards,
        cross_pct,
        ingest_pct: val("--ingest-pct")
            .map(|s| s.parse().expect("--ingest-pct takes an integer"))
            .unwrap_or(0),
        durability: match val("--durability") {
            None | Some("off") => DurabilityMode::Off,
            Some("async") => DurabilityMode::Async,
            Some("sync") => DurabilityMode::Sync,
            Some(other) => panic!("unknown durability mode '{other}' (off | async | sync)"),
        },
        durability_sweep: has("--durability-sweep"),
        storage_faults: has("--storage-faults"),
        tpcc_service: has("--tpcc-service"),
        net: val("--net").map(|s| {
            assert!(s == "tcp" || s == "uds", "--net takes tcp or uds");
            s.to_string()
        }),
        listen: val("--listen").map(str::to_string),
        listen_uds: val("--listen-uds").map(str::to_string),
        connect: val("--connect").map(str::to_string),
        connect_uds: val("--connect-uds").map(str::to_string),
        tenant: val("--tenant").map(|s| s.parse().expect("--tenant takes an integer")).unwrap_or(1),
        token: val("--token")
            .map(|s| s.parse().expect("--token takes an integer"))
            .unwrap_or(NET_PROT_TOKEN),
    }
}

// ------------------------------------------------------------- load mix

/// xorshift64* — deterministic, dependency-free op stream.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Keys per shard-range under the bench's range partitioning. Each shard
/// owns `[s*kps, (s+1)*kps)` and only the first half is populated, so
/// delete-of-absent-key traffic stays shard-local too.
fn keys_per_shard(shards: usize) -> u64 {
    2 * KEYS / shards as u64
}

/// 90 % read-only (80 get / 5 multi-get / 5 scan), 10 % updates — all
/// shard-local — except that with probability `cross_pct` % the op is a
/// cross-shard conserving transfer (a 2PC `MultiAdd` between two distinct
/// shards). Scans are 32-key-aligned so they never straddle a shard
/// boundary under the bench's range map.
fn gen_op(rng: &mut u64, args: &Args) -> KvOp {
    let (shards, cross_pct) = (args.shards as u64, args.cross_pct);
    let kps = keys_per_shard(shards as usize);
    let loaded = kps / 2;
    if args.ingest_pct > 0 && next_rand(rng) % 1000 < args.ingest_pct * 10 {
        // Bulk ingest: 64 strided blind writes inside one shard. The
        // write set overflows the 64-line TMCAM, so the transaction
        // exhausts its retry budget and falls back to the SGL — which
        // stalls every RO batch in that shard's *domain*. With one shard
        // the whole service serializes behind it; with N shards the
        // blast radius is 1/N of the executors (the scale-out headline).
        let base = (next_rand(rng) % shards) * kps;
        let start = next_rand(rng) % loaded;
        let pairs = (0..64).map(|i| (base + (start + i * 61) % loaded, next_rand(rng))).collect();
        return KvOp::MultiPut { pairs };
    }
    if shards > 1 && next_rand(rng) % 100 < cross_pct {
        let s1 = next_rand(rng) % shards;
        let s2 = (s1 + 1 + next_rand(rng) % (shards - 1)) % shards;
        let k1 = s1 * kps + next_rand(rng) % loaded;
        let k2 = s2 * kps + next_rand(rng) % loaded;
        return KvOp::MultiAdd { deltas: vec![(k1, -1), (k2, 1)] };
    }
    let base = (next_rand(rng) % shards) * kps;
    let key = base + next_rand(rng) % loaded;
    match next_rand(rng) % 1000 {
        0..=799 => KvOp::Get { key },
        800..=849 => {
            let keys = (0..4).map(|i| base + ((key - base) + i * 37) % loaded).collect();
            KvOp::MultiGet { keys }
        }
        850..=899 => KvOp::ScanPrefix { prefix: key >> 5, shift: 5, limit: 32 },
        900..=949 => KvOp::Put { key, val: next_rand(rng) },
        950..=969 => KvOp::Cas { key, expect: Some(key), new: key },
        970..=989 => {
            let other = base + ((key - base) + 1 + next_rand(rng) % (loaded - 1)) % loaded;
            KvOp::MultiAdd { deltas: vec![(key, -1), (other, 1)] }
        }
        // Mostly-absent keys: the unpopulated upper half of the shard.
        _ => KvOp::Delete { key: base + loaded + next_rand(rng) % loaded },
    }
}

// ------------------------------------------------------------ the modes

struct ModeOut {
    report: ServiceReport,
    submitted: u64,
    rejected: u64,
    wall: Duration,
    /// Submission window only: from the first arrival to the last, before
    /// the pipeline drains. Offered load is `(submitted + rejected) /
    /// arrival` — dividing by `wall` (which includes backend/WAL warm-up
    /// before the loop and the shutdown drain after it) under-reports
    /// offered rate badly on short network runs.
    arrival: Duration,
    /// Effective open-loop arrival tick, µs (0 for non-paced modes).
    tick_us: u64,
}

fn pipeline_cfg(args: &Args) -> PipelineConfig {
    PipelineConfig {
        executors: args.executors,
        multi_key_max: if args.ingest_pct > 0 { 64 } else { PipelineConfig::new().multi_key_max },
        backoff: if args.chaos { BackoffPolicy::exponential() } else { BackoffPolicy::none() },
        idle_jitter_ns: if args.chaos { 500 } else { 0 },
        ..PipelineConfig::new()
    }
}

fn memory_words() -> usize {
    btree::memory_words(KEYS * 8)
}

fn shard_map(args: &Args) -> ShardMap {
    ShardMap::range(args.shards, keys_per_shard(args.shards))
}

/// Populated entries: the first half of every shard's key range, value =
/// key (so CAS with `expect = Some(key)` succeeds until a Put mutates).
fn entries(shards: usize) -> impl Iterator<Item = (u64, u64)> + Clone {
    let kps = keys_per_shard(shards);
    (0..shards as u64).flat_map(move |s| s * kps..s * kps + kps / 2).map(|k| (k, k))
}

/// Open loop: submissions arrive on the clock, never waiting for replies.
/// Pacing is per-arrival with a tick of `max(1/rate, 200 µs)` — fine
/// enough that arrival quantization no longer dominates e2e p90 (the old
/// 1 ms tick put ~1.3 ms of pure batching noise on every percentile).
/// A mode's load: `(submitted, rejected, tick_us)`, the last the effective
/// open-loop arrival tick (0 for non-paced modes).
type Load = (u64, u64, u64);

/// Fire-and-forget one op (latency is recorded at reply), counting it in
/// `counts` as `(submitted, rejected)`. A degraded shard refuses updates
/// with a typed error at admission; under --storage-faults that is the
/// designed answer, counted with the overload rejections.
fn fire(client: &KvClient, op: KvOp, counts: &mut (u64, u64)) {
    match client.submit(op) {
        Ok(_) => counts.0 += 1,
        Err(KvError::Overloaded { .. }) | Err(KvError::Unavailable { .. }) => counts.1 += 1,
        Err(e) => panic!("submit failed: {e}"),
    }
}

fn open_loop<B: TmBackend>(pipeline: &Pipeline<B>, args: &Args) -> Load {
    let interval_ns = (1_000_000_000u64 / args.rate.max(1)).max(1);
    let tick_ns = interval_ns.max(200_000);
    let per_tick = (tick_ns / interval_ns).max(1);
    let tick = Duration::from_nanos(tick_ns);
    let t0 = Instant::now();
    let mut counts = (0u64, 0u64);
    let client = pipeline.client();
    let mut rng = 0x0B16_5EED ^ args.rate ^ ((args.shards as u64) << 32);
    let mut tick_no = 0u32;
    while t0.elapsed() < args.duration {
        for _ in 0..per_tick {
            fire(&client, gen_op(&mut rng, args), &mut counts);
        }
        tick_no += 1;
        let next_edge = tick * tick_no;
        let elapsed = t0.elapsed();
        if next_edge > elapsed {
            std::thread::sleep(next_edge - elapsed);
        }
    }
    (counts.0, counts.1, tick_ns / 1000)
}

/// Closed loop: blocking clients, one outstanding request each.
fn closed_loop<B: TmBackend>(pipeline: &Pipeline<B>, args: &Args) -> Load {
    let mut submitted = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.closed_clients)
            .map(|c| {
                let client = pipeline.client();
                let ops = args.closed_ops;
                s.spawn(move || {
                    let mut rng = 0xC105ED ^ (c as u64 + 1);
                    let mut done = 0u64;
                    while done < ops {
                        match client.call(gen_op(&mut rng, args)) {
                            Ok(_) => done += 1,
                            // Answered-or-shed: a typed Unavailable from a
                            // degraded shard is an answer, not a hang.
                            Err(KvError::Unavailable { .. }) => done += 1,
                            Err(KvError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("closed-loop call failed: {e}"),
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            submitted += h.join().expect("closed-loop client");
        }
    });
    (submitted, 0, 0)
}

/// Overload: full-speed flood against a tiny queue on one executor. The
/// point is the *admission* behavior, not throughput.
fn overload<B: TmBackend>(pipeline: &Pipeline<B>, args: &Args) -> Load {
    let client = pipeline.client();
    let mut counts = (0u64, 0u64);
    let mut rng = 0x0E_410AD;
    let floods = if args.quick { 50_000 } else { 200_000 };
    let cap = 64 * args.shards + 64; // per-queue bound × shard queues + xqueue
    for i in 0..floods {
        fire(&client, gen_op(&mut rng, args), &mut counts);
        if i % 1024 == 0 {
            let (ro, rw) = client.queue_depths();
            assert!(ro <= cap && rw <= cap, "queue depth exceeded its cap: ro={ro} rw={rw}");
        }
    }
    (counts.0, counts.1, 0)
}

// -------------------------------------------------- dispatch + checking

/// One kv cell: a fresh (optionally durable) pipeline driven in `mode`.
struct Mode<'a> {
    mode: &'static str,
    args: &'a Args,
}

impl BackendVisitor for Mode<'_> {
    type Out = ModeOut;
    fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> ModeOut {
        let Mode { mode, args } = self;
        let cfg = match mode {
            "overload" => PipelineConfig {
                executors: 1,
                ro_queue_cap: 64,
                rw_queue_cap: 64,
                ..pipeline_cfg(args)
            },
            _ => pipeline_cfg(args),
        };
        let map = shard_map(args);
        let words = memory_words() as u64;
        let domains = build_domains(&map, |_| mk(), 0, words, entries(args.shards));
        let durable = args.durability != DurabilityMode::Off;
        let dir = durable.then(|| cell::scratch_path("txkv-bench-wal", ""));
        let pipeline = match &dir {
            None => Pipeline::start_sharded(domains, map, cfg),
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                let dcfg = DurabilityConfig {
                    group_commit_max: 32,
                    checkpoint_every: 2048,
                    ..DurabilityConfig::new(args.durability, dir)
                };
                let wal = WalSet::open(&dcfg, args.shards).expect("bench WAL open");
                // Make the populated keyspace durable up front, as a base
                // checkpoint per shard: the on-disk state stays recoverable
                // from the first appended record on.
                for s in 0..args.shards {
                    let ents: Vec<(u64, u64)> =
                        entries(args.shards).filter(|&(k, _)| map.shard_of(k) == s).collect();
                    // The --storage-faults plan targets segment files only,
                    // but an injected stall can still land here; a failed
                    // seed checkpoint is non-fatal under faults (the bench
                    // never recovers this dir).
                    let seeded = wal.install_checkpoint(s, &ents);
                    if !args.storage_faults {
                        seeded.expect("bench WAL seed checkpoint");
                    }
                }
                Pipeline::start_durable(domains, map, cfg, wal)
            }
        };
        let t0 = Instant::now();
        let (submitted, rejected, tick_us) = match mode {
            "open" | "sweep" => open_loop(&pipeline, args),
            "closed" => closed_loop(&pipeline, args),
            "overload" => overload(&pipeline, args),
            _ => unreachable!(),
        };
        let arrival = t0.elapsed();
        let report = pipeline.shutdown();
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        ModeOut { report, submitted, rejected, wall: t0.elapsed(), arrival, tick_us }
    }
}

/// `observed` is the cell's artifact row when it finished, else empty.
fn fail(backend: Backend, mode: &str, detail: &str, observed: Fields) -> ! {
    let cell = Fields::new().str("backend", backend.name()).str("mode", mode);
    cell::fail("TXKV_FAILURE.json", "txkv_bench", &cell, detail, &observed)
}

/// The service-level acceptance checks behind `--assert-service`.
fn check(backend: Backend, mode: &str, out: &ModeOut, args: &Args) -> Result<(), String> {
    let r = &out.report;
    if r.panicked_executors != 0 {
        return Err(format!("{} executors panicked", r.panicked_executors));
    }
    if r.replies == 0 {
        return Err("no requests served".into());
    }
    // Cross-shard invariants hold in every mode that generates 2PC work.
    if args.shards > 1 && args.cross_pct > 0 && mode != "overload" {
        if r.twopc.prepares == 0 {
            return Err("cross-shard mix requested but no 2PC transaction ran".into());
        }
        if !args.chaos && !args.storage_faults && r.twopc.aborts != 0 {
            return Err(format!(
                "{} 2PC aborts without chaos (compensation must never trigger)",
                r.twopc.aborts
            ));
        }
    }
    // Durable-run invariants: the log was actually written, fsyncs
    // happened, no sync ack ever preceded its fsync, and nothing was
    // shed for a dead log (the bench scripts no crash).
    if r.durability != "off" {
        if r.wal.wal_appends == 0 {
            return Err("durable run logged no WAL appends".into());
        }
        if r.wal.fsync_batches == 0 {
            return Err("durable run never fsynced".into());
        }
        if r.wal.sync_acks_early != 0 {
            return Err(format!(
                "{} sync ack(s) delivered before the record was durable",
                r.wal.sync_acks_early
            ));
        }
        if r.wal.wal_dead_sheds != 0 {
            return Err(format!(
                "{} request(s) shed for a dead log without a scripted crash",
                r.wal.wal_dead_sheds
            ));
        }
        // Degradation is only legitimate when storage faults are armed:
        // on a clean disk every shard must finish Healthy with zero
        // retries, sheds, or scrubber catches.
        if !args.storage_faults {
            if r.shard_health.iter().any(|&h| h != "healthy") {
                return Err(format!(
                    "shard health {:?} on a clean disk (must all be healthy)",
                    r.shard_health
                ));
            }
            if r.wal.wal_retries + r.wal.degraded_sheds + r.wal.scrub_corruptions != 0 {
                return Err(format!(
                    "clean disk but {} flush retries / {} degraded sheds / {} scrub corruptions",
                    r.wal.wal_retries, r.wal.degraded_sheds, r.wal.scrub_corruptions
                ));
            }
        }
    }
    match mode {
        "open" | "sweep" => {
            if r.starved_executors != 0 && args.shards < args.executors {
                return Err(format!(
                    "{} starved executors under open-loop load",
                    r.starved_executors
                ));
            }
            if r.ro_batches == 0 {
                return Err("no RO batches formed".into());
            }
            // Chaos stalls distort arrival bursts; batching amortization
            // is only asserted on the clean run.
            if !args.chaos && r.mean_ro_batch() <= 1.0 {
                return Err(format!("RO batching never engaged (mean {:.2})", r.mean_ro_batch()));
            }
            // Backend-appropriate RO-abort expectations (see the
            // BENCH_TXKV schema notes): SI-HTM's RO fast path never
            // aborts; P8TM's RO path must at least be *taken* (it can
            // abort and retry); HTM/Silo run RO work as ordinary
            // transactions, so aborts are legal and merely reported.
            match backend {
                Backend::SiHtm => {
                    if r.ro_batch_aborts != 0 {
                        return Err(format!(
                            "SI-HTM RO fast path aborted {} times (must be 0)",
                            r.ro_batch_aborts
                        ));
                    }
                }
                Backend::P8tm => {
                    if r.backend_stats.ro_commits == 0 {
                        return Err("P8TM served RO batches without its RO path".into());
                    }
                }
                Backend::Htm | Backend::Silo => {}
            }
        }
        "overload" if out.rejected == 0 => {
            return Err("overload flood was never shed with Overloaded".into());
        }
        _ => {}
    }
    Ok(())
}

// ------------------------------------------------------------- reporting

fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn ro_replies(r: &ServiceReport) -> u64 {
    r.class.iter().filter(|cl| cl.class.read_only()).map(|cl| cl.count()).sum()
}

/// Worst final per-shard storage health (schema-v5 `health` column):
/// `healthy` when the cell ran without a WAL.
fn worst_health(r: &ServiceReport) -> &'static str {
    let rank = |h: &str| match h {
        "healthy" => 0,
        "retrying" => 1,
        "read_only" => 2,
        _ => 3,
    };
    r.shard_health.iter().copied().max_by_key(|h| rank(h)).unwrap_or("healthy")
}

/// `count` plus the e2e p50/p90/p99/p999 and service p50/p99 columns.
fn latency(count: u64, e2e: &LatencyHist, service: &LatencyHist) -> Fields {
    let (p50, p90, p99, p999) = e2e.percentiles();
    let (s50, _, s99, _) = service.percentiles();
    Fields::new()
        .num("count", count)
        .num("e2e_p50_ns", p50)
        .num("e2e_p90_ns", p90)
        .num("e2e_p99_ns", p99)
        .num("e2e_p999_ns", p999)
        .num("service_p50_ns", s50)
        .num("service_p99_ns", s99)
}

fn row(backend: Backend, mode: &str, out: &ModeOut, args: &Args) -> Fields {
    let (r, s, w) = (&out.report, &out.report.backend_stats, &out.report.wal);
    let (secs, arrival) = (out.wall.as_secs_f64(), out.arrival.as_secs_f64().max(1e-9));
    let mut classes = Fields::new();
    for cl in r.class.iter().filter(|cl| cl.count() > 0) {
        classes = classes.obj(cl.class.name(), &latency(cl.count(), &cl.e2e, &cl.service));
    }
    Fields::new()
        .str("backend", backend.name())
        .str("mode", mode)
        .str("workload", "kv")
        .str("tx_class", "all")
        .num("rate", if mode == "open" || mode == "sweep" { args.rate } else { 0 })
        .num("duration_ms", out.wall.as_millis())
        .num("executors", r.executors)
        .num("shards", r.shards)
        .num("cross_shard_pct", args.cross_pct)
        .num("tick_us", out.tick_us)
        .num("host_cpus", host_cpus())
        .num("chaos", args.chaos)
        .str("durability", r.durability)
        .num("submitted", out.submitted)
        .num("rejected", out.rejected)
        .fixed("offered_per_sec", (out.submitted + out.rejected) as f64 / arrival, 0)
        .num("replies", r.replies)
        .num("shed", r.shed)
        .num("overloaded", r.overloaded)
        .fixed("replies_per_sec", r.replies as f64 / secs, 0)
        .fixed("ro_replies_per_sec", ro_replies(r) as f64 / secs, 0)
        .num("ro_batches", r.ro_batches)
        .num("ro_batch_ops", r.ro_batch_ops)
        .fixed("mean_ro_batch", r.mean_ro_batch(), 2)
        .num("max_ro_batch", r.max_ro_batch)
        .num("ro_batch_aborts", r.ro_batch_aborts)
        .num("starved_executors", r.starved_executors)
        .num("executor_backoffs", r.executor_backoffs)
        .num("commits", s.commits)
        .num("ro_commits", s.ro_commits)
        .num("sgl_commits", s.sgl_commits)
        .num("aborts", s.aborts())
        .num("user_aborts", s.user_aborts)
        .num("quiesce_waits", s.quiesce_waits)
        .num("twopc_prepares", r.twopc.prepares)
        .num("twopc_aborts", r.twopc.aborts)
        .num("twopc_escalations", r.twopc.escalations)
        .num("twopc_ro_multi", r.twopc.ro_multi)
        .num("wal_appends", w.wal_appends)
        .num("wal_fsync_batches", w.fsync_batches)
        .fixed("wal_mean_group_commit", w.mean_group_commit(), 2)
        .num("wal_checkpoints", w.checkpoints)
        .num("wal_sync_acks_early", w.sync_acks_early)
        .num("wal_dead_sheds", w.wal_dead_sheds)
        .num("storage_faults", args.storage_faults)
        .str("health", worst_health(r))
        .num("wal_retries", w.wal_retries)
        .num("degraded_sheds", w.degraded_sheds)
        .num("wal_rejoins", w.wal_rejoins)
        .num("scrub_passes", w.scrub_passes)
        .num("scrub_corruptions", w.scrub_corruptions)
        .num("ckpt_failures", w.checkpoint_failures)
        .obj("classes", &classes)
}

fn run_cell(backend: Backend, mode: &'static str, args: &Args, rows: &mut Vec<Fields>) -> ModeOut {
    let deadline = args.duration * 3 + Duration::from_secs(60);
    let backoff = if args.chaos { BackoffPolicy::exponential() } else { BackoffPolicy::default() };
    let cell_args = args.clone();
    let run = move || {
        let mode = Mode { mode, args: &cell_args };
        backend.with(HtmConfig::default(), memory_words(), backoff, mode)
    };
    let out = cell::watch(deadline, run)
        .unwrap_or_else(|detail| fail(backend, mode, &detail, Fields::new()));
    let (r, secs) = (&out.report, out.wall.as_secs_f64());
    print!("{}", r.summary());
    println!(
        "  {} {mode} (cross {}%): {:.0} replies/s, RO {:.0}/s, starved {}",
        backend.name(),
        args.cross_pct,
        r.replies as f64 / secs,
        ro_replies(r) as f64 / secs,
        r.starved_executors,
    );
    let row = row(backend, mode, &out, args);
    if args.assert_service {
        if let Err(detail) = check(backend, mode, &out, args) {
            fail(backend, mode, &detail, row);
        }
    }
    rows.push(row);
    out
}

/// The scale-out grid: SI-HTM at a saturating arrival rate, shards ×
/// cross-shard mix. Returns `(shards, cross_pct, ro_replies_per_sec)`
/// per cell for the scaling assertion.
fn run_sweep(args: &Args, rows: &mut Vec<Fields>) -> Vec<(usize, u64, f64)> {
    let shard_counts: &[usize] = if args.quick { &[1, 4] } else { &[1, 2, 4] };
    let mixes: &[u64] = if args.quick { &[0, 10] } else { &[0, 1, 10] };
    let mut cells = Vec::new();
    for &shards in shard_counts {
        for &cross in mixes {
            if shards == 1 && cross > 0 {
                continue; // no cross-shard work exists with one shard
            }
            let cell_args = Args {
                shards,
                cross_pct: cross,
                rate: if args.quick { 400_000 } else { 600_000 },
                duration: if args.quick {
                    Duration::from_millis(500)
                } else {
                    Duration::from_millis(1_500)
                },
                executors: 16,
                sweep: true,
                ..args.clone()
            };
            let out = run_cell(Backend::SiHtm, "sweep", &cell_args, rows);
            let ro_rate = ro_replies(&out.report) as f64 / out.wall.as_secs_f64();
            cells.push((shards, cross, ro_rate));
        }
    }
    cells
}

/// The durability cost legs: SI-HTM open loop at Off / Async / Sync,
/// same arrival rate — the per-row `durability` column plus
/// `replies_per_sec` is the Sync-vs-Off overhead headline. On SI-HTM the
/// RO fast path must stay abort-free in every mode (logging sits
/// strictly after commit, outside the transactions), which
/// `--assert-service` enforces per cell.
fn run_durability_sweep(args: &Args, rows: &mut Vec<Fields>) {
    let mut rates: Vec<(DurabilityMode, f64)> = Vec::new();
    for mode in [DurabilityMode::Off, DurabilityMode::Async, DurabilityMode::Sync] {
        let cell_args = Args { durability: mode, sweep: false, ..args.clone() };
        let out = run_cell(Backend::SiHtm, "open", &cell_args, rows);
        rates.push((mode, out.report.replies as f64 / out.wall.as_secs_f64()));
    }
    let off = rates[0].1;
    for &(mode, rate) in &rates[1..] {
        println!(
            "durability: {:>5} {:>9.0} replies/s = {:.1}% of off ({:.0}/s)",
            mode.name(),
            rate,
            100.0 * rate / off.max(1.0),
            off
        );
    }
}

// ---------------------------------------------------- tpcc-service mode

/// TPC-C scale for the service cells: `tiny` for `--quick`, a deeper
/// 4-warehouse configuration otherwise; both with the spec's 60 %
/// select-by-last-name rule so the secondary index is on the hot path.
fn tpcc_cfg(quick: bool, mix: TxMix) -> TpccConfig {
    let mut cfg = TpccConfig::tiny(mix);
    if !quick {
        cfg.warehouses = 4;
        cfg.districts_per_w = 4;
        cfg.customers_per_d = 64;
        cfg.items = 256;
        cfg.order_ring = 128;
        cfg.initial_orders = 48;
        cfg.delivered_prefix = 32;
        cfg.history_ring = 64;
    }
    cfg.by_lastname_pct = 60;
    cfg
}

/// Registered-procedure pipelines size executor scratches for
/// `PROC_WRITE_MAX`-key write sets; the arena must be deep enough to
/// fund them all at startup (see `txkv::proc`).
const TPCC_WORDS: u64 = 1 << 20;

struct TpccOut {
    report: ServiceReport,
    mix: MixOutcome,
    wall: Duration,
    /// Secondary-index hits during the measured mix (schema-layer
    /// counter): must cover every by-last-name selection.
    index_hits: u64,
}

/// One TPC-C service cell: the typed layer over a 2-shard placement (or
/// `--shards`), loaded, then one measured mix.
struct Tpcc<'a> {
    args: &'a Args,
    mix: TxMix,
}

impl BackendVisitor for Tpcc<'_> {
    type Out = TpccOut;
    fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> TpccOut {
        let Tpcc { args, mix } = self;
        let cfg = tpcc_cfg(args.quick, mix);
        let shards = if args.shards > 1 { args.shards } else { 2 };
        let map = service::shard_map(&cfg, shards);
        let domains = build_domains(&map, |_| mk(), 0, TPCC_WORDS, std::iter::empty());
        service::load_items(&domains, &cfg);
        let pcfg = PipelineConfig {
            executors: args.executors,
            multi_key_max: 32,
            ..PipelineConfig::new()
        };
        let registry = Some(service::registry(&cfg));
        let pipeline = Pipeline::start_with(domains, map, pcfg, None, registry);
        let client = pipeline.client();
        let pop = service::populate(&cfg);
        service::load_warehouses(&client, &cfg, &pop, 32);
        let (clients, ops) = if args.quick { (4, 300) } else { (8, 1_500) };
        let hits0 = index_hits();
        let t0 = Instant::now();
        let seed = 0xBE9C ^ mix.new_order as u64;
        let out = service::run_mix(&client, &cfg, &pop, clients, ops, seed, None);
        let wall = t0.elapsed();
        let hits = index_hits() - hits0;
        let report = pipeline.shutdown();
        TpccOut { report, mix: out, wall, index_hits: hits }
    }
}

/// The per-class acceptance checks behind `--assert-service` in
/// tpcc-service mode: every class commits and records latency, nothing
/// sheds, the last-name path is index-served, cross-shard work took the
/// 2PC path, the read-only classes rode the RO batch path, and every
/// class meets a (generous, hardware-independent) service-p99 ceiling.
fn check_tpcc(backend: Backend, t: &TpccOut) -> Result<(), String> {
    let r = &t.report;
    if r.panicked_executors != 0 {
        return Err(format!("{} executors panicked", r.panicked_executors));
    }
    if t.mix.shed != 0 {
        return Err(format!("{} request(s) shed without a crash", t.mix.shed));
    }
    for cls in TxClass::ALL {
        if t.mix.acked[cls.index()] == 0 {
            return Err(format!("{} never committed", cls.name()));
        }
        let lat = r
            .procs
            .iter()
            .find(|p| p.proc == cls.proc_id())
            .ok_or_else(|| format!("no latency row for {}", cls.name()))?;
        if lat.count() == 0 {
            return Err(format!("no recorded latency for {}", cls.name()));
        }
        let (_, _, e99, _) = lat.e2e.percentiles();
        let (_, _, s99, _) = lat.service.percentiles();
        if s99 > 250_000_000 {
            return Err(format!(
                "{} service p99 {s99} ns breaches the 250 ms class SLO",
                cls.name()
            ));
        }
        if e99 > 1_000_000_000 {
            return Err(format!("{} e2e p99 {e99} ns breaches the 1 s class SLO", cls.name()));
        }
    }
    if t.mix.lastname_acks == 0 {
        return Err("the 60 % by-name rule never fired".into());
    }
    if t.index_hits < t.mix.lastname_acks {
        return Err(format!(
            "{} by-name selections but only {} index hits — the last-name path is \
             not index-served",
            t.mix.lastname_acks, t.index_hits
        ));
    }
    if r.twopc.prepares == 0 {
        return Err("no cross-shard 2PC ran (remote payments / order lines)".into());
    }
    if r.ro_batch_ops == 0 {
        return Err("order-status/stock-level never rode the RO batch path".into());
    }
    if matches!(backend, Backend::SiHtm) && r.ro_batch_aborts != 0 {
        return Err(format!("SI-HTM RO fast path aborted {} times (must be 0)", r.ro_batch_aborts));
    }
    Ok(())
}

fn run_tpcc_cell(
    backend: Backend,
    mix_name: &'static str,
    mix: TxMix,
    args: &Args,
    rows: &mut Vec<Fields>,
) {
    let cell = Tpcc { args, mix };
    let t = backend.with(HtmConfig::default(), TPCC_WORDS as usize, BackoffPolicy::default(), cell);
    let r = &t.report;
    print!("{}", r.summary());
    println!(
        "  {} tpcc/{mix_name}: {:.0} replies/s, index hits {} (by-name acks {})",
        backend.name(),
        r.replies as f64 / t.wall.as_secs_f64(),
        t.index_hits,
        t.mix.lastname_acks,
    );
    if args.assert_service {
        if let Err(detail) = check_tpcc(backend, &t) {
            fail(backend, "tpcc-service", &detail, Fields::new());
        }
    }
    // One artifact row per transaction class (schema v4 `tx_class`).
    for cls in TxClass::ALL {
        let Some(lat) = r.procs.iter().find(|p| p.proc == cls.proc_id()) else {
            continue;
        };
        rows.push(
            Fields::new()
                .str("backend", backend.name())
                .str("mode", "tpcc-service")
                .str("workload", "tpcc")
                .str("tx_class", cls.name())
                .str("mix", mix_name)
                .num("shards", r.shards)
                .num("executors", r.executors)
                .num("duration_ms", t.wall.as_millis())
                .num("host_cpus", host_cpus())
                .str("durability", r.durability)
                .num("acked", t.mix.acked[cls.index()])
                .num("user_aborts", t.mix.user_aborted[cls.index()])
                .extend(&latency(lat.count(), &lat.e2e, &lat.service))
                .fixed("replies_per_sec", r.replies as f64 / t.wall.as_secs_f64(), 0)
                .num("index_hits", t.index_hits)
                .num("lastname_acks", t.mix.lastname_acks)
                .num("twopc_prepares", r.twopc.prepares)
                .num("twopc_aborts", r.twopc.aborts)
                .num("ro_batch_ops", r.ro_batch_ops)
                .num("ro_batch_aborts", r.ro_batch_aborts),
        );
    }
}

// ---------------------------------------------------------- network soak

/// A fresh SI-HTM pipeline over the bench keyspace: what the net modes
/// serve.
fn si_htm_pipeline(args: &Args, backoff: BackoffPolicy) -> Pipeline<si_htm::SiHtm> {
    let words = memory_words();
    let map = shard_map(args);
    let cfg = si_htm::SiHtmConfig { backoff, ..Default::default() };
    let mk = |_| si_htm::SiHtm::new(HtmConfig::default(), words, cfg.clone());
    let domains = build_domains(&map, mk, 0, words as u64, entries(args.shards));
    Pipeline::start_sharded(domains, map, pipeline_cfg(args))
}

/// The loopback soak's demo tenants (also what `--listen` serves):
/// tenant 1 is protected (priority 0, generous quota), tenant 2 is the
/// noisy neighbor — a modest contract it will flood far past.
const NET_PROT: u64 = 1;
const NET_PROT_TOKEN: u64 = 0x70726f74; // "prot"
const NET_NOISY: u64 = 2;
const NET_NOISY_TOKEN: u64 = 0x6e6f6973; // "nois"

fn net_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            id: NET_PROT,
            token: NET_PROT_TOKEN,
            priority: 0,
            rate: 5_000_000,
            burst: 5_000_000,
        },
        TenantSpec { id: NET_NOISY, token: NET_NOISY_TOKEN, priority: 2, rate: 5_000, burst: 500 },
    ]
}

fn net_server_config(tcp: Option<String>, uds: Option<std::path::PathBuf>) -> NetServerConfig {
    NetServerConfig { tcp, uds, window: 128, tenants: net_tenants(), shed: ShedConfig::new() }
}

fn net_connect(server: &NetServer, tenant: u64, token: u64) -> NetClient {
    match server.tcp_addr() {
        Some(addr) => NetClient::connect_tcp(addr, tenant, token),
        None => NetClient::connect_uds(server.uds_path().expect("a listener"), tenant, token),
    }
    .expect("bench net connect")
}

struct NetPhaseOut {
    report: ServiceReport,
    net: NetReport,
    wall: Duration,
    /// Requests the noisy floods pushed onto the wire (contended only).
    noisy_submitted: u64,
}

fn net_tenant(net: &NetReport, id: u64) -> &txkv_net::TenantReport {
    net.tenants.iter().find(|t| t.tenant == id).expect("tenant in net report")
}

/// The protected tenant's lightly paced closed loop: its offered load is
/// identical in both phases, so its server-edge e2e percentiles compare
/// directly. Every call must be answered — a refusal or a shed of the
/// protected tenant is a bench failure, phase-independent.
fn net_protected_load(server: &NetServer, args: &Args) {
    let client = net_connect(server, NET_PROT, NET_PROT_TOKEN);
    let ops = args.closed_ops;
    let mut rng = 0x9e7_5eed;
    for _ in 0..ops {
        match client.call(&gen_op(&mut rng, args)) {
            Ok(txkv::KvReply::Shed) => panic!("protected tenant's request was shed"),
            Ok(_) => {}
            Err(e) => panic!("protected tenant refused/errored: {e}"),
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One noisy connection flooding open-loop: fire-and-forget submissions
/// as fast as the window admits. Refusals come back as frames and are
/// counted server-side; the flood itself never waits for them.
fn net_noisy_flood(
    server: &NetServer,
    args: &Args,
    stop: &std::sync::atomic::AtomicBool,
    submitted: &std::sync::atomic::AtomicU64,
) {
    use std::sync::atomic::Ordering;
    let client = net_connect(server, NET_NOISY, NET_NOISY_TOKEN);
    let mut rng = 0x5015_E0F5;
    while !stop.load(Ordering::Relaxed) {
        match client.submit(&gen_op(&mut rng, args)) {
            Ok(pending) => {
                drop(pending); // open loop: the reply (or refusal) is the server's problem
                submitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => break, // server going away: the phase is over
        }
    }
}

/// One soak phase over a fresh pipeline + server: the protected tenant's
/// paced closed loop, plus (contended) two noisy connections flooding
/// open-loop as fast as their windows admit — far past the noisy
/// tenant's 5 k/s contract, so per-tenant admission (not the backend
/// queue) is what answers.
fn run_net_phase(args: &Args, transport: &str, contended: bool) -> NetPhaseOut {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let backoff = if args.chaos { BackoffPolicy::exponential() } else { BackoffPolicy::default() };
    let pipeline = si_htm_pipeline(args, backoff);
    let tcp = (transport == "tcp").then(|| "127.0.0.1:0".to_string());
    let uds = (transport == "uds").then(|| cell::scratch_path("txkv-bench-net", ".sock"));
    let server =
        NetServer::start(pipeline.client(), net_server_config(tcp, uds)).expect("net server");
    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    let noisy_submitted = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..if contended { 2 } else { 0 } {
            s.spawn(|| net_noisy_flood(&server, args, &stop, &noisy_submitted));
        }
        net_protected_load(&server, args);
        // Keep the flood running a beat past the protected loop so the
        // contention covers its whole measurement window.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    // Order matters: drain the pipeline first (every in-flight slot is
    // filled, so every frame reaches a connection buffer), then stop the
    // server and take the wire-level books.
    let report = pipeline.shutdown();
    let net = server.shutdown();
    NetPhaseOut {
        report,
        net,
        wall: t0.elapsed(),
        noisy_submitted: noisy_submitted.load(Ordering::Relaxed),
    }
}

/// Scheduler-noise floor for the p99 ratio gate: below this absolute
/// latency the 1.5× comparison measures the OS, not the service.
const NET_P99_FLOOR_NS: u64 = 2_000_000;

/// The `--assert-service` gates for the network soak (ISSUE acceptance):
/// answered-or-shed at the wire, zero starved executors, the noisy
/// tenant typed-refused per-tenant, and the protected tenant's contended
/// p99 within 1.5× of its solo baseline.
fn check_net(transport: &str, solo: &NetPhaseOut, contended: &NetPhaseOut) -> Result<(), String> {
    for (phase, out) in [("solo", solo), ("contended", contended)] {
        if out.report.panicked_executors != 0 {
            return Err(format!("{phase}: {} executors panicked", out.report.panicked_executors));
        }
        if out.report.starved_executors != 0 {
            return Err(format!("{phase}: {} starved executors", out.report.starved_executors));
        }
        if out.net.accepted != out.net.answered() {
            return Err(format!(
                "{phase}: answered-or-shed broken at the wire: accepted {} != answered {} \
                 (replies_to_dead {})",
                out.net.accepted,
                out.net.answered(),
                out.net.replies_to_dead
            ));
        }
        if out.net.wake_rescues != 0 {
            return Err(format!(
                "{phase}: {} reply bursts waited for the reactor's poll timeout (lost wake-up)",
                out.net.wake_rescues
            ));
        }
        let prot = net_tenant(&out.net, NET_PROT);
        if prot.refused() != 0 {
            return Err(format!("{phase}: protected tenant refused {} times", prot.refused()));
        }
        if prot.shed != 0 {
            return Err(format!("{phase}: protected tenant shed {} times", prot.shed));
        }
        if prot.answered == 0 {
            return Err(format!("{phase}: protected tenant was never served over {transport}"));
        }
    }
    let noisy = net_tenant(&contended.net, NET_NOISY);
    if noisy.refused_quota + noisy.refused_pressure == 0 {
        return Err(format!(
            "noisy tenant was never throttled ({} submitted, {} accepted)",
            contended.noisy_submitted, noisy.accepted
        ));
    }
    if noisy.answered == 0 {
        return Err("throttling blackholed the noisy tenant (within-quota load must serve)".into());
    }
    let solo_p99 = net_tenant(&solo.net, NET_PROT).e2e.quantile(0.99);
    let cont_p99 = net_tenant(&contended.net, NET_PROT).e2e.quantile(0.99);
    let ceiling = ((solo_p99 as f64 * 1.5) as u64).max(NET_P99_FLOOR_NS);
    if cont_p99 > ceiling {
        return Err(format!(
            "protected tenant p99 {cont_p99} ns under contention exceeds 1.5× its solo \
             baseline {solo_p99} ns (ceiling {ceiling} ns): the noisy neighbor leaked through"
        ));
    }
    Ok(())
}

/// A phase's wire-level books: printed per phase, and the `observed`
/// counters of a net failure.
fn wire(o: &NetPhaseOut) -> Fields {
    Fields::new()
        .num("requests", o.net.requests)
        .num("accepted", o.net.accepted)
        .num("answered", o.net.answered())
        .num("refused_quota", o.net.refused_quota)
        .num("refused_pressure", o.net.refused_pressure)
        .num("refused_backend", o.net.refused_backend)
        .num("replies_to_dead", o.net.replies_to_dead)
        .num("wake_rescues", o.net.wake_rescues)
        .num("proto_errors", o.net.proto_errors)
        .num("starved_executors", o.report.starved_executors)
        .num("noisy_submitted", o.noisy_submitted)
}

fn fail_net(transport: &str, detail: &str, phases: &[(&str, &NetPhaseOut)]) -> ! {
    let cell = Fields::new().str("mode", "net").str("transport", transport);
    let observed = phases.iter().fold(Fields::new(), |f, (phase, o)| f.obj(phase, &wire(o)));
    cell::fail("NET_FAILURE.json", "txkv_bench", &cell, detail, &observed)
}

/// One schema-v6 net row: a tenant's wire-level accounting in one phase.
fn net_row(
    transport: &str,
    phase: &str,
    out: &NetPhaseOut,
    t: &txkv_net::TenantReport,
    solo_p99: u64,
    args: &Args,
) -> Fields {
    let (p50, _, p99, p999) = t.e2e.percentiles();
    Fields::new()
        .str("backend", "si-htm")
        .str("mode", "net")
        .str("workload", "kv")
        .str("tx_class", "all")
        .str("transport", transport)
        .str("phase", phase)
        .num("tenant", t.tenant)
        .num("priority", t.priority)
        .num("protected", t.priority == 0)
        .num("duration_ms", out.wall.as_millis())
        .num("host_cpus", host_cpus())
        .num("chaos", args.chaos)
        .num("offered", t.offered)
        .num("accepted", t.accepted)
        .num("answered", t.answered)
        .num("shed", t.shed)
        .num("refused_quota", t.refused_quota)
        .num("refused_pressure", t.refused_pressure)
        .num("refused_backend", t.refused_backend)
        .fixed("offered_per_sec", t.offered as f64 / out.wall.as_secs_f64().max(1e-9), 0)
        .num("replies_to_dead", out.net.replies_to_dead)
        .num("proto_errors", out.net.proto_errors)
        .num("e2e_p50_ns", p50)
        .num("e2e_p99_ns", p99)
        .num("e2e_p999_ns", p999)
        .num("solo_p99_ns", solo_p99)
}

/// The `--net` soak: solo baseline then contended run, on a watched
/// thread each (a wedged reactor or executor is a failure artifact, not
/// a hung CI job).
fn run_net(args: &Args, rows: &mut Vec<Fields>) {
    let transport = args.net.clone().expect("run_net needs --net");
    let run = |contended: bool| -> NetPhaseOut {
        let (args, tr) = (args.clone(), transport.clone());
        cell::watch(Duration::from_secs(120), move || run_net_phase(&args, &tr, contended))
            .unwrap_or_else(|detail| fail_net(&transport, &detail, &[]))
    };
    let solo = run(false);
    println!("si-htm net/{transport} solo: {}", wire(&solo).render());
    let contended = run(true);
    println!("si-htm net/{transport} contended: {}", wire(&contended).render());
    let solo_p99 = net_tenant(&solo.net, NET_PROT).e2e.quantile(0.99);
    let cont_p99 = net_tenant(&contended.net, NET_PROT).e2e.quantile(0.99);
    println!(
        "net/{transport}: protected p99 solo {solo_p99} ns → contended {cont_p99} ns \
         ({:.2}×), noisy throttled {} of {} offered",
        cont_p99 as f64 / solo_p99.max(1) as f64,
        net_tenant(&contended.net, NET_NOISY).refused(),
        net_tenant(&contended.net, NET_NOISY).offered,
    );
    if args.assert_service {
        if let Err(detail) = check_net(&transport, &solo, &contended) {
            fail_net(&transport, &detail, &[("solo", &solo), ("contended", &contended)]);
        }
    }
    let prot = net_tenant(&solo.net, NET_PROT);
    let mut net_rows = vec![net_row(&transport, "solo", &solo, prot, solo_p99, args)];
    for t in &contended.net.tenants {
        net_rows.push(net_row(&transport, "contended", &contended, t, solo_p99, args));
    }
    for row in &net_rows {
        println!("  {}", row.render());
    }
    if args.assert_service {
        if let Err(detail) = check_net(&transport, &solo, &contended) {
            fail_net(&transport, &detail, &[("solo", &solo), ("contended", &contended)]);
        }
    }
    rows.extend(net_rows);
}

// ------------------------------------------------- standalone net modes

/// `--listen`: serve a fresh SI-HTM pipeline over TCP and/or UDS until
/// stdin closes, then print both reports. The demo tenants are printed
/// so a `--connect` peer knows what to authenticate as.
fn run_listen(args: &Args) {
    let cfg = net_server_config(args.listen.clone(), args.listen_uds.clone().map(Into::into));
    let pipeline = si_htm_pipeline(args, BackoffPolicy::default());
    let server = NetServer::start(pipeline.client(), cfg).expect("net server");
    if let Some(addr) = server.tcp_addr() {
        println!("listening tcp {addr}");
    }
    if let Some(path) = server.uds_path() {
        println!("listening uds {}", path.display());
    }
    println!(
        "tenants: {NET_PROT} (token {NET_PROT_TOKEN}, protected), \
         {NET_NOISY} (token {NET_NOISY_TOKEN}, 5k/s quota); close stdin to stop"
    );
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
        sink.clear();
    }
    let report = pipeline.shutdown();
    let net = server.shutdown();
    println!(
        "served {} replies ({} shed); wire: {} requests, {} accepted, {} answered, {} refused",
        report.replies,
        report.shed,
        net.requests,
        net.accepted,
        net.answered(),
        net.refused_quota + net.refused_pressure + net.refused_backend,
    );
}

/// `--connect`: closed-loop clients against a remote server, reporting
/// client-observed latency (the full wire round trip, unlike the
/// server-edge histograms in the loopback soak).
fn run_connect(args: &Args) {
    let connect = || -> NetClient {
        match (&args.connect, &args.connect_uds) {
            (Some(addr), _) => NetClient::connect_tcp(addr.as_str(), args.tenant, args.token),
            (None, Some(path)) => NetClient::connect_uds(path, args.tenant, args.token),
            (None, None) => unreachable!(),
        }
        .expect("connect to remote server")
    };
    let mut hist = tm_api::LatencyHist::new();
    let (mut ok, mut refused) = (0u64, 0u64);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.closed_clients)
            .map(|c| {
                let client = connect();
                let ops = args.closed_ops;
                s.spawn(move || {
                    let mut hist = tm_api::LatencyHist::new();
                    let mut rng = 0xC0_44EC7 ^ (c as u64 + 1);
                    let (mut ok, mut refused) = (0u64, 0u64);
                    for _ in 0..ops {
                        let op_t0 = Instant::now();
                        match client.call(&gen_op(&mut rng, args)) {
                            Ok(_) => {
                                hist.record(op_t0.elapsed());
                                ok += 1;
                            }
                            Err(txkv_net::NetError::Refused(_)) => refused += 1,
                            Err(e) => panic!("remote call failed: {e}"),
                        }
                    }
                    (hist, ok, refused)
                })
            })
            .collect();
        for h in handles {
            let (h_hist, h_ok, h_refused) = h.join().expect("connect client");
            hist.merge(&h_hist);
            ok += h_ok;
            refused += h_refused;
        }
    });
    let wall = t0.elapsed();
    let (p50, p90, p99, p999) = hist.percentiles();
    println!(
        "tenant {}: {} ok, {} refused in {:?} ({:.0}/s); \
         client e2e p50/p90/p99/p999 = {p50}/{p90}/{p99}/{p999} ns",
        args.tenant,
        ok,
        refused,
        wall,
        ok as f64 / wall.as_secs_f64().max(1e-9),
    );
}

fn main() {
    let args = parse_args();
    if args.listen.is_some() || args.listen_uds.is_some() {
        run_listen(&args);
        return;
    }
    if args.connect.is_some() || args.connect_uds.is_some() {
        run_connect(&args);
        return;
    }
    if args.storage_faults {
        assert!(
            args.durability != DurabilityMode::Off || args.durability_sweep,
            "--storage-faults needs a WAL to fault: add --durability async|sync \
             (or --durability-sweep)"
        );
    }
    let fault_guard = args.storage_faults.then(|| {
        // Probabilistic bad-disk weather over every durable cell's WAL
        // segment files (the bench's own temp dirs only, via the tag):
        // occasional fsync failures and short writes exercise the
        // rotate-and-rewrite retry path, bit corruption feeds the
        // scrubber, stalls stretch group-commit windows. Checkpoint
        // files are left alone so cell setup stays deterministic.
        storage_faults::install(
            FaultPlan {
                target: FaultTarget::Segment,
                sync_fail_p: 0.002,
                short_write_p: 0.001,
                corrupt_p: 0.0005,
                stall_p: 0.002,
                stall_max_us: 50,
                ..FaultPlan::default()
            }
            .tagged("txkv-bench-wal-")
            .seeded(0x51F7),
        )
    });
    let chaos_guard = args.chaos.then(|| {
        chaos::install(ChaosConfig {
            seed: 0x7C4F,
            abort_access: 0.002,
            abort_commit: 0.001,
            capacity_share: 0.5,
            stall: 0.002,
            stall_max_us: 20,
            panic: 0.0,
        })
    });

    let mut rows = Vec::new();
    if args.net.is_some() {
        // The network soak replaces the in-process kv modes for the run.
        run_net(&args, &mut rows);
    } else if args.tpcc_service {
        // TPC-C through the typed service layer replaces the kv modes.
        for &backend in &args.backends {
            for (mix_name, mix) in
                [("standard", TxMix::standard()), ("read_dominated", TxMix::read_dominated())]
            {
                run_tpcc_cell(backend, mix_name, mix, &args, &mut rows);
            }
        }
    } else {
        let modes: &[&'static str] = &["open", "closed", "overload"];
        for &backend in &args.backends {
            for &mode in modes {
                run_cell(backend, mode, &args, &mut rows);
            }
        }
    }
    if args.durability_sweep {
        run_durability_sweep(&args, &mut rows);
    }
    if args.sweep {
        let cells = run_sweep(&args, &mut rows);
        let base = cells.iter().find(|&&(s, c, _)| s == 1 && c == 0).map(|&(_, _, r)| r);
        let four = cells.iter().find(|&&(s, c, _)| s == 4 && c == 0).map(|&(_, _, r)| r);
        if let (Some(base), Some(four)) = (base, four) {
            let ratio = four / base.max(1.0);
            let cpus = host_cpus();
            println!("sweep: RO scaling 1→4 shards = {ratio:.2}× ({cpus} host cpus)");
            // The scale-out claim needs hardware that can express it: with
            // 4 shards' executors folded onto fewer than 4 cores, the OS
            // time-slices the domains and wall-clock speedup is bounded at
            // 1× regardless of how much coordination sharding removed (the
            // isolation still shows in the per-shard quiesce counters).
            // Assert the ratio only where it is measurable; everywhere,
            // assert sharding does not *regress* throughput.
            let detail = if cpus >= 4 && ratio < 2.5 {
                format!(
                    "4-shard RO throughput only {ratio:.2}× the 1-shard figure \
                     (< 2.5× on a {cpus}-cpu host)"
                )
            } else if ratio < 0.7 {
                format!("sharding regressed RO throughput to {ratio:.2}× (< 0.7×)")
            } else {
                String::new()
            };
            if args.assert_service && !detail.is_empty() {
                fail(Backend::SiHtm, "sweep", &detail, Fields::new());
            }
        }
    }
    if let Some(guard) = chaos_guard {
        let report = guard.report();
        println!(
            "chaos: injected {} aborts, {} stalls",
            report.injected_aborts, report.injected_stalls
        );
    }
    if let Some(guard) = fault_guard {
        let f = guard.report();
        println!(
            "storage faults: {} fsync failures, {} short writes, {} corruptions, {} stalls",
            f.sync_fails, f.short_writes, f.corruptions, f.stalls
        );
    }

    let out = "BENCH_TXKV.json";
    schema::BENCH_TXKV.write_rows(out, &rows).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}
