//! Kill-and-restart durability tests, on all four backends.
//!
//! Each scenario runs a durable pipeline (commit-ordered WAL, group
//! commit, checkpoints) under a mixed put/transfer load, pulls the
//! simulated power plug at a scripted crash site — including the
//! quiescence-adjacent commit window and every 2PC window — then
//! recovers from disk into fresh backend instances and asserts:
//!
//! * **no acked write is lost** (Sync mode: a `Done` reply implies the
//!   record's fsync landed before the crash);
//! * **no torn cross-shard state**: every transfer fully applied or
//!   fully compensated, so the account total is conserved;
//! * **torn tail records** (a crash mid-`write(2)`) are detected by
//!   checksum and cleanly ignored;
//! * recovery is **idempotent** (a second pass reproduces the state).
//!
//! On a failed invariant the test writes a machine-readable
//! `target/RECOVERY_FAILURE.json` (uploaded by the CI `durability-smoke`
//! job) before panicking.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tm_api::{Abort, TmBackend};
use txkv::durability::storage as faults;
use txkv::durability::{checkpoint, Append, Writes};
use txkv::{
    recover, recover_and_open, CrashSite, CrashSpec, DurabilityConfig, DurabilityMode, FaultPlan,
    FaultTarget, KvClient, KvError, KvOp, KvReply, KvTx, Pipeline, PipelineConfig, ProcCtx,
    ProcRegistry, Procedure, RecoveryReport, ShardMap, WalError, WalSet,
};
use txmem::hooks::chaos::{self, ChaosConfig};

/// Chaos arming is process-global: every test in this binary runs under
/// this gate so an armed injector never bleeds into a clean test.
static GATE: Mutex<()> = Mutex::new(());

const SHARDS: usize = 4;
const PER_SHARD: u64 = 8;
const KEYS: u64 = SHARDS as u64 * PER_SHARD;
/// Even keys are transfer accounts (their sum is conserved); odd keys
/// are per-client put targets carrying monotone counters.
const INITIAL: u64 = 1_000;
const EXPECTED_TOTAL: u64 = (KEYS / 2) * INITIAL;
const CLIENTS: u64 = 3;
const OPS_PER_CLIENT: u64 = 400;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d =
        std::env::temp_dir().join(format!("txkv-durability-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn shard_map() -> ShardMap {
    ShardMap::range(SHARDS, PER_SHARD)
}

fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig {
        executors: 4,
        multi_key_max: 4,
        drain_grace: Duration::from_millis(500),
        ..PipelineConfig::quick()
    }
}

/// Crash countdowns calibrated so seeding (16 single-shard puts, all
/// acked) always completes before the plug is pulled, while the mixed
/// load phase (~1200 ops) reliably reaches the countdown.
fn site_after(site: CrashSite) -> u64 {
    match site {
        CrashSite::AfterCommit => 60,
        CrashSite::MidGroupCommit | CrashSite::TornTail => 40,
        CrashSite::AfterPrepare | CrashSite::AfterApply | CrashSite::AfterDecision => 8,
    }
}

/// Recover the directory and check the durability invariants. Returns
/// the report and recovered account total. On failure, dumps
/// `target/RECOVERY_FAILURE.json` for the CI artifact before panicking.
fn verify_recovered<B: TmBackend>(
    dir: &Path,
    mk: &mut impl FnMut(usize) -> B,
    acked: Option<&HashMap<u64, u64>>,
    ctx: &str,
) -> (RecoveryReport, u64) {
    let map = shard_map();
    let (domains, report) = recover(dir, &map, &mut *mk, 0, 1 << 16).expect("recovery failed");
    let read = |k: u64| {
        let s = (k / PER_SHARD) as usize;
        domains[s].1.load_raw(domains[s].0.memory(), k)
    };
    let total: u64 = (0..KEYS).step_by(2).map(|k| read(k).unwrap_or(0)).sum();
    let mut failures: Vec<String> = Vec::new();
    if total != EXPECTED_TOTAL {
        failures.push(format!(
            r#"{{"invariant":"conservation","expected":{EXPECTED_TOTAL},"got":{total}}}"#
        ));
    }
    if let Some(acked) = acked {
        for (&k, &v) in acked {
            let got = read(k).unwrap_or(0);
            if got < v {
                failures.push(format!(
                    r#"{{"invariant":"acked-write","key":{k},"acked":{v},"recovered":{got}}}"#
                ));
            }
        }
    }
    if !failures.is_empty() {
        let body = format!(
            r#"{{"context":{ctx:?},"report":{:?},"failures":[{}]}}"#,
            format!("{report:?}"),
            failures.join(",")
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/RECOVERY_FAILURE.json");
        let _ = std::fs::write(path, &body);
        panic!("recovery verification failed ({ctx}): {body}");
    }
    (report, total)
}

/// One client thread's mixed load: durable puts with a monotone counter
/// on its own odd keys (40 %), cross-shard transfers (30 %) and
/// shard-local transfers (30 %) over the even account keys. Returns the
/// highest acked counter per put key and the acked-transfer count.
fn client_load(t: u64, client: KvClient, wal: Arc<WalSet>) -> (HashMap<u64, u64>, u64) {
    let mut rng = 0xD00B_0000u64 ^ (t << 32);
    let my_keys: Vec<u64> = (0..KEYS).filter(|k| k % 2 == 1 && (k / 2) % CLIENTS == t).collect();
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut xacked = 0u64;
    let mut ctr = 0u64;
    for _ in 0..OPS_PER_CLIENT {
        if !wal.alive() {
            break; // the plug is pulled: everything from here on sheds
        }
        let r = splitmix(&mut rng);
        let amount = 1 + (r % 9) as i64;
        let (op, put_key, put_val) = match r % 10 {
            0..=3 => {
                ctr += 1;
                let k = my_keys[((r >> 8) as usize) % my_keys.len()];
                (KvOp::Put { key: k, val: ctr }, Some(k), ctr)
            }
            4..=6 => {
                let sa = ((r >> 8) as usize) % SHARDS;
                let sb = (sa + 1 + ((r >> 16) as usize) % (SHARDS - 1)) % SHARDS;
                let ka = sa as u64 * PER_SHARD + 2 * ((r >> 24) % (PER_SHARD / 2));
                let kb = sb as u64 * PER_SHARD + 2 * ((r >> 32) % (PER_SHARD / 2));
                (KvOp::MultiAdd { deltas: vec![(ka, -amount), (kb, amount)] }, None, 0)
            }
            _ => {
                let s = ((r >> 8) as usize) % SHARDS;
                let base = s as u64 * PER_SHARD;
                let ka = base + 2 * ((r >> 16) % (PER_SHARD / 2));
                let mut kb = base + 2 * ((r >> 24) % (PER_SHARD / 2));
                if kb == ka {
                    kb = base + (ka - base + 2) % PER_SHARD;
                }
                (KvOp::MultiAdd { deltas: vec![(ka, -amount), (kb, amount)] }, None, 0)
            }
        };
        match client.call(op) {
            Ok(KvReply::Done { .. }) => match put_key {
                Some(k) => {
                    acked.insert(k, put_val);
                }
                None => xacked += 1,
            },
            Ok(KvReply::Shed) => {}
            Ok(other) => panic!("unexpected update reply {other:?}"),
            Err(KvError::Overloaded { .. } | KvError::ShuttingDown) => {}
            Err(e) => panic!("unexpected admission error {e:?}"),
        }
    }
    (acked, xacked)
}

/// Boot a durable pipeline on `dir`, seed the accounts (acked before any
/// armed crash window opens), run the mixed client load, and shut down.
/// Returns the per-key acked-put watermarks, acked transfers, the
/// service report, and whether the scripted crash tripped.
fn run_durable<B: TmBackend>(
    mk: &mut impl FnMut(usize) -> B,
    dcfg: &DurabilityConfig,
    chaos_armed: bool,
) -> (HashMap<u64, u64>, u64, txkv::ServiceReport, bool) {
    let map = shard_map();
    let (domains, wal, _) =
        recover_and_open(dcfg, &map, &mut *mk, 0, 1 << 16).expect("open durable domains");
    let pipeline = Pipeline::start_durable(domains, map, pipeline_cfg(), Arc::clone(&wal));
    let client = pipeline.client();
    for k in (0..KEYS).step_by(2) {
        let reply = client.call(KvOp::Put { key: k, val: INITIAL });
        assert!(
            matches!(reply, Ok(KvReply::Done { .. })),
            "seeding put must be acked, got {reply:?}"
        );
    }
    assert!(wal.alive(), "crash tripped during seeding; raise the countdown");
    // Arm chaos only once seeding is acked: the injector's panics shed
    // requests, and a shed seed would skew the conservation baseline.
    let guard = chaos_armed.then(|| {
        chaos::install(ChaosConfig {
            seed: 0x0D07_AB1E,
            abort_access: 0.005,
            abort_commit: 0.002,
            capacity_share: 0.5,
            stall: 0.0,
            stall_max_us: 0,
            panic: 0.001,
        })
    });
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut xacked = 0u64;
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let client = pipeline.client();
                let wal = Arc::clone(&wal);
                sc.spawn(move || client_load(t, client, wal))
            })
            .collect();
        for h in handles {
            let (a, x) = h.join().expect("client panicked");
            for (k, v) in a {
                let e = acked.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
            xacked += x;
        }
    });
    let crashed = !wal.alive();
    let report = pipeline.shutdown();
    drop(guard);
    (acked, xacked, report, crashed)
}

/// The core kill-and-restart scenario: load, crash at `site`, recover,
/// assert no acked write lost and no torn cross-shard state — twice,
/// because recovery must be idempotent.
fn crash_and_recover<B: TmBackend>(
    mut mk: impl FnMut(usize) -> B,
    mode: DurabilityMode,
    site: CrashSite,
    chaos_armed: bool,
) {
    let dir = tmpdir(&format!("{site:?}-{}", mode.name()));
    let mut dcfg = DurabilityConfig::new(mode, &dir);
    dcfg.group_commit_max = 8;
    dcfg.checkpoint_every = 48;
    dcfg.crash = Some(CrashSpec { site, after: site_after(site) });
    let (acked, xacked, report, crashed) = run_durable(&mut mk, &dcfg, chaos_armed);
    assert!(crashed, "the scripted {site:?} crash never tripped — the test exercised nothing");
    assert!(report.wal.wal_appends > 0, "the load never reached the WAL");
    assert!(xacked > 0 || !matches!(site, CrashSite::AfterDecision), "no transfer was acked");
    // Sync acks imply durability; Async acks are only flush-bounded, so
    // just the cross-shard atomicity invariant applies there.
    let check_acked = (mode == DurabilityMode::Sync).then_some(&acked);
    let ctx = format!("{site:?}/{}/chaos={chaos_armed}", mode.name());
    let (rec, total) = verify_recovered(&dir, &mut mk, check_acked, &ctx);
    if site == CrashSite::TornTail {
        assert!(
            rec.torn_tails >= 1,
            "a TornTail crash must leave a checksum-rejected tail (report {rec:?})"
        );
    }
    // Idempotence: recovery compacted to a checkpoint + pruned segments;
    // a second pass must reproduce exactly the same state.
    let (_, total2) = verify_recovered(&dir, &mut mk, check_acked, &format!("{ctx}/again"));
    assert_eq!(total, total2, "recovery must be idempotent");
    let _ = std::fs::remove_dir_all(&dir);
}

/// No crash at all: a graceful shutdown flushes everything, so restart
/// recovers every acked write — and the load is long enough to roll
/// through checkpoints and segment rotation on the way.
fn graceful_restart<B: TmBackend>(mut mk: impl FnMut(usize) -> B, mode: DurabilityMode) {
    let dir = tmpdir(&format!("graceful-{}", mode.name()));
    let mut dcfg = DurabilityConfig::new(mode, &dir);
    dcfg.group_commit_max = 8;
    dcfg.checkpoint_every = 48;
    let (acked, xacked, report, crashed) = run_durable(&mut mk, &dcfg, false);
    assert!(!crashed, "no crash was scripted");
    assert!(xacked > 0, "the mix must exercise durable 2PC");
    assert!(report.wal.wal_appends > 0);
    assert!(report.wal.fsync_batches > 0);
    assert!(
        report.wal.checkpoints >= 1,
        "checkpoint_every=48 over this load must checkpoint (wal {:?})",
        report.wal
    );
    assert_eq!(report.wal.sync_acks_early, 0, "an ack outran its fsync");
    assert_eq!(report.wal.wal_dead_sheds, 0, "shed for a dead log without a scripted crash");
    assert_eq!(report.twopc.aborts, 0, "no chaos armed: no 2PC may abort");
    assert_eq!(report.panicked_executors, 0);
    // A clean disk: every shard ends healthy, with no flush retried, no
    // update shed for degradation and nothing caught by the scrubber.
    assert_eq!(report.shard_health, ["healthy"; SHARDS], "shard health on a clean disk");
    let w = &report.wal;
    assert_eq!(
        (w.wal_retries, w.degraded_sheds, w.scrub_corruptions),
        (0, 0, 0),
        "clean disk but flush retries / degraded sheds / scrub corruptions"
    );
    // Graceful shutdown flushes every buffer, so even Async acks are on
    // disk: check them all regardless of mode.
    let ctx = format!("graceful/{}", mode.name());
    verify_recovered(&dir, &mut mk, Some(&acked), &ctx);
    verify_recovered(&dir, &mut mk, Some(&acked), &format!("{ctx}/again"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic 2PC crash windows: one cross-shard transfer with the
/// plug pulled at the exact protocol step, then recovery must resolve it
/// all-or-nothing consistently with what the client saw.
fn twopc_window<B: TmBackend>(
    mut mk: impl FnMut(usize) -> B,
    mode: DurabilityMode,
    site: CrashSite,
) {
    let dir = tmpdir(&format!("twopc-{site:?}-{}", mode.name()));
    let mut dcfg = DurabilityConfig::new(mode, &dir);
    dcfg.crash = Some(CrashSpec { site, after: 0 });
    let map = shard_map();
    let (domains, wal, _) =
        recover_and_open(&dcfg, &map, &mut mk, 0, 1 << 16).expect("open durable domains");
    let pipeline = Pipeline::start_durable(domains, map, pipeline_cfg(), Arc::clone(&wal));
    let client = pipeline.client();
    // Seed two accounts on different shards (single-shard puts never hit
    // the armed 2PC crash sites).
    assert!(client.call(KvOp::Put { key: 0, val: 100 }).is_ok());
    assert!(client.call(KvOp::Put { key: 8, val: 100 }).is_ok());
    let reply = client.call(KvOp::MultiAdd { deltas: vec![(0, -5), (8, 5)] }).expect("admitted");
    pipeline.shutdown();
    assert!(!wal.alive(), "the scripted {site:?} crash never tripped");
    let (domains, rec) = recover(&dir, &shard_map(), &mut mk, 0, 1 << 16).expect("recovery");
    let read = |k: u64| {
        let s = (k / PER_SHARD) as usize;
        domains[s].1.load_raw(domains[s].0.memory(), k).unwrap_or(0)
    };
    let (v0, v8) = (read(0), read(8));
    assert_eq!(v0 + v8, 200, "2PC crash at {site:?} tore the transfer: {v0}/{v8}");
    match site {
        // No decision record could become durable: the client was shed
        // and recovery presumes abort — both sides untouched.
        CrashSite::AfterPrepare | CrashSite::AfterApply => {
            assert_eq!(reply, KvReply::Shed, "no durable decision, so no ack");
            assert_eq!((v0, v8), (100, 100), "{site:?} must resolve as aborted (report {rec:?})");
        }
        // Async decisions ride group commit, so the power cut may take
        // them: the ack promised no durability, only no torn state.
        CrashSite::AfterDecision if mode == DurabilityMode::Async => {
            assert_eq!(reply, KvReply::Done { changed: true }, "Async acks do not wait");
        }
        // The first XDecide was fsynced before the ack: committed
        // everywhere, on every log that survived.
        CrashSite::AfterDecision => {
            assert_eq!(reply, KvReply::Done { changed: true }, "decision durable ⇒ acked");
            assert_eq!((v0, v8), (95, 105), "{site:?} must resolve as committed (report {rec:?})");
            assert_eq!(rec.xids_committed, 1, "recovery must commit the in-flight xid");
        }
        _ => unreachable!("not a 2PC window"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash scripted at the single-shard commit point (after the memory
/// commit, before the append): the write must be shed, and recovery must
/// not resurrect it.
fn after_commit_window<B: TmBackend>(mut mk: impl FnMut(usize) -> B) {
    let dir = tmpdir("after-commit");
    let mut dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
    dcfg.crash = Some(CrashSpec { site: CrashSite::AfterCommit, after: 0 });
    let map = shard_map();
    let (domains, wal, _) =
        recover_and_open(&dcfg, &map, &mut mk, 0, 1 << 16).expect("open durable domains");
    let pipeline = Pipeline::start_durable(domains, map, pipeline_cfg(), Arc::clone(&wal));
    let client = pipeline.client();
    let reply = client.call(KvOp::Put { key: 1, val: 7 }).expect("admitted");
    assert_eq!(reply, KvReply::Shed, "the log died before the record: no ack");
    pipeline.shutdown();
    let (domains, _) = recover(&dir, &shard_map(), &mut mk, 0, 1 << 16).expect("recovery");
    assert_eq!(
        domains[0].1.load_raw(domains[0].0.memory(), 1),
        None,
        "an un-acked, un-logged write must not survive recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful-degradation scenario of ISSUE 9: a permanent fsync
/// fault on one shard must leave the others at full ack rate, shed that
/// shard's updates as the typed `Unavailable` outcome (never a Sync
/// ack), keep serving its reads, rejoin it via probe writes once the
/// fault clears, and lose no acked write across a subsequent
/// crash + recovery.
fn storage_degradation<B: TmBackend>(mut mk: impl FnMut(usize) -> B) {
    let dir = tmpdir("degrade");
    let mut dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
    dcfg.group_commit_max = 4;
    dcfg.flush_retries = 1;
    dcfg.retry_base_us = 1;
    dcfg.maintenance_interval_ms = 5;
    dcfg.scrub_interval_ms = 0;
    let map = shard_map();
    let (domains, wal, _) =
        recover_and_open(&dcfg, &map, &mut mk, 0, 1 << 16).expect("open durable domains");
    let pipeline = Pipeline::start_durable(domains, map, pipeline_cfg(), Arc::clone(&wal));
    let client = pipeline.client();
    let mut acked: HashMap<u64, u64> = HashMap::new();
    for k in (0..KEYS).step_by(2) {
        let reply = client.call(KvOp::Put { key: k, val: INITIAL });
        assert!(matches!(reply, Ok(KvReply::Done { .. })), "seeding put not acked: {reply:?}");
    }
    // Shard 1's disk goes permanently bad (fsync always fails).
    let tag = dir.to_string_lossy().into_owned();
    let guard = faults::install(FaultPlan::fsync_permanent(1, 0).tagged(&tag));
    let bad_key = PER_SHARD + 1; // odd key on shard 1: outside conservation
    let deadline = Instant::now() + Duration::from_secs(30);
    while wal.health(1).writable() {
        let _ = client.call(KvOp::Put { key: bad_key, val: 1 });
        assert!(Instant::now() < deadline, "shard 1 never degraded under a permanent fault");
    }
    // Degraded shard: every update is refused with the typed outcome —
    // a Sync ack is impossible (the fsync can't land), so any `Done`
    // here would be a lie.
    for i in 0..20u64 {
        match client.call(KvOp::Put { key: bad_key, val: 100 + i }) {
            Ok(KvReply::Unavailable) | Err(KvError::Unavailable { .. }) => {}
            other => panic!("degraded shard must shed updates as Unavailable, got {other:?}"),
        }
    }
    // ...but its reads still serve, from the intact in-memory store.
    match client.call(KvOp::Get { key: PER_SHARD }) {
        Ok(KvReply::Value(Some(v))) => assert_eq!(v, INITIAL),
        other => panic!("degraded shard must keep serving reads, got {other:?}"),
    }
    // The healthy shards stay at full ack rate: every single update to
    // them must be served and acked while shard 1 is down.
    for round in 0..50u64 {
        for s in [0usize, 2, 3] {
            let k = s as u64 * PER_SHARD + 1;
            let reply = client.call(KvOp::Put { key: k, val: round + 1 });
            assert!(
                matches!(reply, Ok(KvReply::Done { .. })),
                "healthy shard {s} must ack at full rate while shard 1 is degraded: {reply:?}"
            );
            acked.insert(k, round + 1);
        }
    }
    // 2PC never starts against the degraded participant…
    match client.call(KvOp::MultiAdd { deltas: vec![(0, -1), (PER_SHARD, 1)] }) {
        Ok(KvReply::Unavailable) | Err(KvError::Unavailable { .. }) => {}
        other => panic!("2PC touching a degraded shard must be refused, got {other:?}"),
    }
    // …while 2PC avoiding it commits normally.
    let reply = client.call(KvOp::MultiAdd { deltas: vec![(0, -1), (2 * PER_SHARD, 1)] });
    assert!(matches!(reply, Ok(KvReply::Done { .. })), "healthy-shard 2PC must serve: {reply:?}");
    assert!(!wal.health(1).writable(), "the permanent fault must hold shard 1 degraded");
    // The medium heals: the maintenance probe rejoins the shard…
    guard.clear();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !wal.health(1).writable() {
        assert!(Instant::now() < deadline, "cleared fault but shard 1 never rejoined");
        std::thread::sleep(Duration::from_millis(2));
    }
    // …and acks resume.
    let reply = client.call(KvOp::Put { key: bad_key, val: 777 });
    assert!(matches!(reply, Ok(KvReply::Done { .. })), "rejoined shard must ack: {reply:?}");
    acked.insert(bad_key, 777);
    // Pull the plug: everything acked above must survive recovery.
    wal.halt_all();
    let report = pipeline.shutdown();
    drop(guard);
    assert_eq!(report.wal.sync_acks_early, 0, "an ack outran its fsync under storage faults");
    assert!(report.wal.degraded_sheds > 0, "the degraded shard never shed a typed Unavailable");
    assert!(report.wal.wal_rejoins >= 1, "the probe rejoin was never counted");
    assert_eq!(report.wal.wal_dead_sheds, 0, "a degraded log is not a dead one: nothing shed");
    // The degraded shard's read rode the RO batch path, which on SI-HTM
    // never aborts, bad disk or not.
    assert!(report.ro_batches > 0, "no read took the RO batch path");
    if report.backend == "SI-HTM" {
        assert_eq!(report.ro_batch_aborts, 0, "SI-HTM RO fast path aborted under storage faults");
    }
    verify_recovered(&dir, &mut mk, Some(&acked), "storage-degradation");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Procedure 1, args `[from, to, amount]`: each leg moves its own side
/// of a transfer.
struct Transfer;

impl Procedure for Transfer {
    fn id(&self) -> u64 {
        1
    }
    fn name(&self) -> &'static str {
        "transfer"
    }
    fn run(&self, ctx: &mut ProcCtx<'_>, args: &[u64]) -> Result<Vec<u64>, Abort> {
        let (from, to, amount) = (args[0], args[1], args[2]);
        for (k, delta) in [(from, amount.wrapping_neg()), (to, amount)] {
            if ctx.is_local(k) {
                let v = ctx.get(k)?.unwrap_or(0).wrapping_add(delta);
                ctx.put(k, v)?;
            }
        }
        Ok(Vec::new())
    }
}

/// A participant's log degrades under a cross-shard transfer of 5 from
/// key 0 (shard 0) to key 8 (shard 1), the medium heals, the shard
/// rejoins, and a later `Put` of 500 to the faulted shard's key is
/// Sync-acked: recovery must keep that 500. Each fault plan is
/// `(shard, after)` for `FaultPlan::fsync_permanent`: the flush of shard
/// 1's leg, of its decision (made by the log writer, after shard 0's
/// decision committed the transfer), or of shard 0's leg fails. A failed leg
/// leaves its `XBegin`/`XApply` retained for the rejoin, so its
/// rollback's `XAbort` must be logged behind them; otherwise the rejoin
/// makes the leg durable without the rollback and recovery undoes the
/// transfer again, on top of the acked `Put`.
fn degraded_leg_then_rejoin<B: TmBackend>(mut mk: impl FnMut(usize) -> B, call: bool) {
    for (shard, after) in [(1, 1), (1, 0), (0, 0)] {
        let dir = tmpdir(&format!("rejoin-{call}-{shard}-{after}"));
        let mut dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
        dcfg.group_commit_max = 1;
        dcfg.flush_retries = 1;
        dcfg.retry_base_us = 1;
        dcfg.maintenance_interval_ms = 5;
        dcfg.scrub_interval_ms = 0;
        let map = ShardMap::range(2, PER_SHARD);
        let (domains, wal, _) =
            recover_and_open(&dcfg, &map, &mut mk, 0, 1 << 16).expect("open durable domains");
        let procs = Arc::new(ProcRegistry::new().register(Arc::new(Transfer)));
        let cfg = PipelineConfig { executors: 1, ..pipeline_cfg() };
        let pipeline = Pipeline::start_with(domains, map, cfg, Some(Arc::clone(&wal)), Some(procs));
        let client = pipeline.client();
        for k in [0, PER_SHARD] {
            let reply = client.call(KvOp::Put { key: k, val: 100 });
            assert!(matches!(reply, Ok(KvReply::Done { .. })), "seeding put not acked: {reply:?}");
        }
        let tag = dir.to_string_lossy().into_owned();
        let guard = faults::install(FaultPlan::fsync_permanent(shard, after).tagged(&tag));
        let op = if call {
            KvOp::Call {
                proc: 1,
                args: vec![0, PER_SHARD, 5],
                footprint: vec![0, PER_SHARD],
                read_only: false,
            }
        } else {
            KvOp::MultiAdd { deltas: vec![(0, -5), (PER_SHARD, 5)] }
        };
        let ctx = format!("call={call} fsync_permanent({shard}, {after})");
        let committed = match client.call(op) {
            Ok(KvReply::Done { .. } | KvReply::CallOk(_)) => true,
            Ok(KvReply::Unavailable) => false,
            other => {
                panic!("{ctx}: transfer must commit or be refused as Unavailable, got {other:?}")
            }
        };
        // Shard 1's decision rides group commit, so its failed flush can
        // degrade the shard after the reply.
        wait_until(&format!("{ctx}: the fault degraded the shard"), || {
            !wal.health(shard).writable()
        });
        guard.clear();
        let deadline = Instant::now() + Duration::from_secs(30);
        while !wal.health(shard).writable() {
            assert!(Instant::now() < deadline, "{ctx}: cleared fault but the shard never rejoined");
            std::thread::sleep(Duration::from_millis(2));
        }
        let key = shard as u64 * PER_SHARD;
        let reply = client.call(KvOp::Put { key, val: 500 });
        assert!(
            matches!(reply, Ok(KvReply::Done { .. })),
            "{ctx}: rejoined shard must ack: {reply:?}"
        );
        wal.halt_all();
        pipeline.shutdown();
        drop(guard);
        let (domains, rec) = recover(&dir, &map, &mut mk, 0, 1 << 16).expect("recovery");
        let read = |k: u64| {
            let s = map.shard_of(k);
            domains[s].1.load_raw(domains[s].0.memory(), k)
        };
        assert_eq!(read(key), Some(500), "{ctx}: the acked put was lost (report {rec:?})");
        let other = (1 - shard as u64) * PER_SHARD;
        let moved = if !committed {
            100
        } else if other == 0 {
            95
        } else {
            105
        };
        assert_eq!(read(other), Some(moved), "{ctx}: committed={committed} (report {rec:?})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// ENOSPC in the middle of a checkpoint: the tmp → fsync → rename path
/// must leave the previous checkpoint valid, the shard healthy (the log
/// still covers its state), and recovery must replay from the old
/// checkpoint + log tail.
#[test]
fn enospc_mid_checkpoint_keeps_previous_checkpoint_valid() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _serial = faults::gate();
    let dir = tmpdir("enospc-ckpt");
    let dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
    let wal = WalSet::open(&dcfg, 1).expect("open wal");
    wal.install_checkpoint(0, &[(0, 1_000)]).expect("baseline checkpoint");
    let w: Writes = vec![(2, Some(7))];
    wal.append(0, Append::Write(&w)).expect("append");
    wal.flush(0).expect("flush");
    // The disk fills up exactly when the next checkpoint's tmp file is
    // written (segments stay writable: Checkpoint-targeted fault).
    let tag = dir.to_string_lossy().into_owned();
    let guard = faults::install(FaultPlan::enospc(0, FaultTarget::Checkpoint, 0).tagged(&tag));
    assert_eq!(
        wal.install_checkpoint(0, &[(0, 1_000), (2, 7)]),
        Err(WalError::Unavailable),
        "a full disk must surface as the typed error"
    );
    assert_eq!(
        wal.health(0),
        txkv::ShardHealth::Healthy,
        "a failed checkpoint write must not degrade the shard: the previous checkpoint and the uncut log still cover its state"
    );
    assert!(wal.stats().checkpoint_failures >= 1);
    drop(guard);
    // The previous checkpoint is still the newest valid one…
    let sdir = dir.join("shard-0");
    let (ckpt_lsn, entries) = checkpoint::latest_valid(&sdir).expect("previous checkpoint valid");
    assert_eq!(entries, vec![(0, 1_000)]);
    assert!(ckpt_lsn < 2, "the failed checkpoint must not have been published");
    // …and recovery replays the log tail on top of it.
    let map = ShardMap::range(1, PER_SHARD);
    let (domains, _) = recover(&dir, &map, |_| si_htm::SiHtm::with_defaults(1 << 16), 0, 1 << 16)
        .expect("recovery");
    let read = |k: u64| domains[0].1.load_raw(domains[0].0.memory(), k);
    assert_eq!(read(0), Some(1_000));
    assert_eq!(read(2), Some(7), "the log record past the old checkpoint must replay");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit overlaps execution: with one executor and the fsyncs
/// held, updates submitted while the first flush is stalled still
/// execute and reach the log before that flush returns, and none of them
/// is acked before its own flush has landed.
#[test]
fn storage_fault_stalled_fsync_overlaps_execution() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _serial = faults::gate();
    let dir = tmpdir("overlap");
    let dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
    let map = ShardMap::range(1, PER_SHARD);
    let mk = |_| si_htm::SiHtm::with_defaults(1 << 16);
    let (domains, wal, _) = recover_and_open(&dcfg, &map, mk, 0, 1 << 16).expect("open");
    let cfg = PipelineConfig { executors: 1, ..pipeline_cfg() };
    let pipeline = Pipeline::start_durable(domains, map, cfg, Arc::clone(&wal));
    let client = pipeline.client();
    let guard = faults::install(FaultPlan::default().tagged(dir.to_string_lossy()));
    guard.hold_syncs();
    let first = client.submit(KvOp::Put { key: 1, val: 1 }).expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(10);
    while guard.report().held_syncs == 0 {
        assert!(Instant::now() < deadline, "the first update's flush never reached its fsync");
        std::thread::sleep(Duration::from_millis(1));
    }
    let appended = wal.stats().wal_appends;
    let later: Vec<_> =
        (2..6u64).map(|k| client.submit(KvOp::Put { key: k, val: k }).expect("admitted")).collect();
    let deadline = Instant::now() + Duration::from_secs(2);
    while wal.stats().wal_appends < appended + later.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "no update executed while the flush was stalled: the executor sits in its fsync"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(guard.report().held_syncs, 1, "the stalled flush is still the first one");
    assert_eq!(first.try_get(), None, "an ack outran its stalled fsync");
    assert!(later.iter().all(|r| r.try_get().is_none()), "an ack outran its fsync");
    guard.release_syncs();
    for r in std::iter::once(first).chain(later) {
        assert!(matches!(r.wait(), KvReply::Done { .. }));
    }
    let report = pipeline.shutdown();
    drop(guard);
    assert_eq!(report.replies, 5);
    assert_eq!(report.wal.sync_acks_early, 0, "an ack outran its fsync");
    assert!(report.wal.fsync_batches >= 2, "the later updates needed a flush of their own");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll `reply` until it is answered, failing as `what` after 10 s.
fn answered(reply: &txkv::PendingReply, what: &str) -> KvReply {
    let mut got = None;
    wait_until(&format!("{what} was answered"), || {
        got = reply.try_get();
        got.is_some()
    });
    got.expect("answered")
}

/// Wait (up to 10 s) until `done`, failing as `what`.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Async decisions ride group commit: with shard 1's decision fsync
/// held, a cross-shard call is answered, and a local call on shard 1
/// (which takes the shard's `XLock`) commits. A decision flushed under
/// the `XLock`s would keep both waiting on the held fsync.
#[test]
fn async_cross_shard_call_does_not_wait_for_its_decision_fsync() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _serial = faults::gate();
    let dir = tmpdir("async-decision");
    let mut dcfg = DurabilityConfig::new(DurabilityMode::Async, &dir);
    dcfg.maintenance_interval_ms = 0;
    let map = ShardMap::range(2, PER_SHARD);
    let mk = |_| si_htm::SiHtm::with_defaults(1 << 18);
    let (domains, wal, _) = recover_and_open(&dcfg, &map, mk, 0, 1 << 18).expect("open");
    let procs = Arc::new(ProcRegistry::new().register(Arc::new(Transfer)));
    let cfg = PipelineConfig { executors: 2, ..pipeline_cfg() };
    let pipeline = Pipeline::start_with(domains, map, cfg, Some(wal.clone()), Some(procs));
    let client = pipeline.client();
    let (a, b, c) = (0, PER_SHARD, PER_SHARD + 2);
    for k in [a, b, c] {
        assert!(matches!(client.call(KvOp::Put { key: k, val: 100 }), Ok(KvReply::Done { .. })));
    }
    for s in 0..2 {
        wal.flush(s).expect("seeding made durable");
    }
    // Shard 1's next fsync is the call's leg round; the one after it
    // carries the decision, and is held.
    let plan = FaultPlan { shard: Some(1), target: FaultTarget::Segment, ..FaultPlan::default() };
    let guard = faults::install(plan.tagged(dir.to_string_lossy()));
    guard.hold_syncs_from(1);
    let transfer = |from: u64, to: u64| KvOp::Call {
        proc: 1,
        args: vec![from, to, 5],
        footprint: vec![from, to],
        read_only: false,
    };
    let cross = client.submit(transfer(a, b)).expect("admitted");
    assert_eq!(answered(&cross, "the cross-shard call"), KvReply::CallOk(Vec::new()));
    wait_until("the decision's flush reached its fsync", || guard.report().held_syncs == 1);
    let local = client.submit(transfer(b, c)).expect("admitted");
    assert_eq!(answered(&local, "a local call on shard 1"), KvReply::CallOk(Vec::new()));
    assert_eq!(guard.report().held_syncs, 1, "the decision's fsync is still the held one");
    guard.release_syncs();
    pipeline.shutdown();
    drop(guard);
    let (domains, _) = recover(&dir, &map, mk, 0, 1 << 18).expect("recovery");
    let read = |k: u64| domains[map.shard_of(k)].1.load_raw(domains[map.shard_of(k)].0.memory(), k);
    assert_eq!((read(a), read(b), read(c)), (Some(95), Some(100), Some(105)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint's write and fsync leave its shard's mutex free: with
/// shard 0's checkpoint fsync held, the log writer still flushes shard
/// 1, and a Sync `Put` there is acked.
#[test]
fn a_stalled_checkpoint_does_not_hold_up_other_shards_acks() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _serial = faults::gate();
    let dir = tmpdir("stalled-ckpt");
    let mut dcfg = DurabilityConfig::new(DurabilityMode::Sync, &dir);
    dcfg.maintenance_interval_ms = 0;
    let map = ShardMap::range(2, PER_SHARD);
    let mk = |_| si_htm::SiHtm::with_defaults(1 << 16);
    let (domains, wal, _) = recover_and_open(&dcfg, &map, mk, 0, 1 << 16).expect("open");
    let cfg = PipelineConfig { executors: 2, ..pipeline_cfg() };
    let pipeline = Pipeline::start_durable(domains, map, cfg, Arc::clone(&wal));
    let client = pipeline.client();
    assert!(matches!(client.call(KvOp::Put { key: 1, val: 1 }), Ok(KvReply::Done { .. })));
    let plan =
        FaultPlan { shard: Some(0), target: FaultTarget::Checkpoint, ..FaultPlan::default() };
    let guard = faults::install(plan.tagged(dir.to_string_lossy()));
    guard.hold_syncs();
    wal.request_checkpoint(0);
    wait_until("shard 0's checkpoint reached its fsync", || guard.report().held_syncs == 1);
    let put = client.submit(KvOp::Put { key: PER_SHARD + 1, val: 7 }).expect("admitted");
    assert!(matches!(answered(&put, "a Sync put on shard 1"), KvReply::Done { .. }));
    assert_eq!(wal.stats().checkpoints, 0, "the checkpoint is still held");
    guard.release_syncs();
    wait_until("shard 0 checkpointed", || wal.stats().checkpoints == 1);
    let report = pipeline.shutdown();
    drop(guard);
    assert_eq!(report.wal.sync_acks_early, 0, "an ack outran its fsync");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A degraded shard costs another shard's checkpoint one skipped round,
/// not a flush under its locks. With shard 1 degraded (its failed frame
/// retained for a rejoin) and the log writer's fsync of shard 0 held, a
/// due checkpoint of shard 0 must refuse before it queues behind that
/// flush holding shard 0's commit lock: Async puts on shard 0 keep being
/// acked, and the writer's held fsync stays the only one.
#[test]
fn a_degraded_shard_skips_other_shards_checkpoints_without_flushing_them() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _serial = faults::gate();
    let dir = tmpdir("degraded-ckpt");
    let mut dcfg = DurabilityConfig::new(DurabilityMode::Async, &dir);
    dcfg.flush_retries = 0;
    // No maintenance thread, so no rejoin probe: shard 1 stays degraded.
    dcfg.maintenance_interval_ms = 0;
    let map = ShardMap::range(2, PER_SHARD);
    let mk = |_| si_htm::SiHtm::with_defaults(1 << 16);
    let (domains, wal, _) = recover_and_open(&dcfg, &map, mk, 0, 1 << 16).expect("open");
    let cfg = PipelineConfig { executors: 2, ..pipeline_cfg() };
    let pipeline = Pipeline::start_durable(domains, map, cfg, Arc::clone(&wal));
    let client = pipeline.client();
    let failing = faults::install(FaultPlan::fsync_permanent(1, 0).tagged(dir.to_string_lossy()));
    assert!(matches!(client.call(KvOp::Put { key: PER_SHARD, val: 1 }), Ok(KvReply::Done { .. })));
    wait_until("shard 1 degraded", || !wal.health(1).writable());
    drop(failing);
    let plan = FaultPlan { shard: Some(0), target: FaultTarget::Segment, ..FaultPlan::default() };
    let guard = faults::install(plan.tagged(dir.to_string_lossy()));
    guard.hold_syncs();
    assert!(matches!(client.call(KvOp::Put { key: 1, val: 1 }), Ok(KvReply::Done { .. })));
    wait_until("the writer's flush of shard 0 reached its fsync", || {
        guard.report().held_syncs == 1
    });
    wal.request_checkpoint(0);
    for val in 2..50 {
        let put = client.submit(KvOp::Put { key: 1, val }).expect("admitted");
        assert!(matches!(answered(&put, "an Async put on shard 0"), KvReply::Done { .. }));
    }
    assert_eq!(guard.report().held_syncs, 1, "only the log writer flushed shard 0");
    assert_eq!(wal.stats().checkpoints, 0, "checkpointed while shard 1 cannot become durable");
    guard.release_syncs();
    pipeline.shutdown();
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

macro_rules! durability_suite {
    ($name:ident, $make:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn graceful_restart_preserves_acked_state() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                for mode in [DurabilityMode::Async, DurabilityMode::Sync] {
                    graceful_restart($make, mode);
                }
            }

            #[test]
            fn sync_crash_sites_lose_no_acked_write() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                for site in CrashSite::ALL {
                    crash_and_recover($make, DurabilityMode::Sync, site, false);
                }
            }

            #[test]
            fn async_crash_keeps_cross_shard_state_consistent() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                crash_and_recover($make, DurabilityMode::Async, CrashSite::MidGroupCommit, false);
            }

            #[test]
            fn sync_crash_under_chaos_loses_no_acked_write() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                for site in [CrashSite::MidGroupCommit, CrashSite::AfterApply] {
                    crash_and_recover($make, DurabilityMode::Sync, site, true);
                }
            }

            #[test]
            fn twopc_crash_windows_resolve_all_or_nothing() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                for mode in [DurabilityMode::Sync, DurabilityMode::Async] {
                    for site in
                        [CrashSite::AfterPrepare, CrashSite::AfterApply, CrashSite::AfterDecision]
                    {
                        twopc_window($make, mode, site);
                    }
                }
            }

            #[test]
            fn commit_point_crash_sheds_instead_of_lying() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                after_commit_window($make);
            }

            #[test]
            fn storage_fault_degrades_one_shard_and_rejoins() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                let _serial = faults::gate();
                storage_degradation($make);
            }

            #[test]
            fn rejoined_participant_keeps_later_acked_write_after_multi_add() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                let _serial = faults::gate();
                degraded_leg_then_rejoin($make, false);
            }

            #[test]
            fn rejoined_participant_keeps_later_acked_write_after_call() {
                let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
                let _serial = faults::gate();
                degraded_leg_then_rejoin($make, true);
            }
        }
    };
}

durability_suite!(on_si_htm, |_| si_htm::SiHtm::with_defaults(1 << 16));
durability_suite!(on_htm_sgl, |_| htm_sgl::HtmSgl::with_defaults(1 << 16));
durability_suite!(on_p8tm, |_| p8tm::P8tm::with_defaults(1 << 16));
durability_suite!(on_silo, |_| silo::Silo::with_defaults(1 << 16));
