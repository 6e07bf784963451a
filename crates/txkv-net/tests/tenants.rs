//! Multi-tenant admission semantics at the wire: a noisy neighbor is
//! throttled with *typed, per-tenant* refusals while the protected
//! tenant's accepted requests are all answered; the answered-or-shed
//! invariant holds across disconnects; nothing starves an executor —
//! with and without chaos injection underneath the pipeline; and the
//! protected tenant's p99 under a noisy flood stays within 1.5× of its
//! solo p99, over UDS and over TCP with chaos armed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tm_api::{BackoffPolicy, TmBackend};
use txkv::{KvOp, KvReply, KvStore, Pipeline, PipelineConfig, ServiceReport};
use txkv_net::{
    NetClient, NetError, NetReport, NetServer, NetServerConfig, RefusalScope, RefusedKind,
    ShedConfig, TenantSpec,
};
use txmem::hooks::chaos::{self, ChaosConfig};

/// Chaos arming is process-global and the p99 gate needs a quiet host:
/// every test in this binary runs under this gate.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const PROT: u64 = 1;
const PROT_TOKEN: u64 = 0xAAAA;
const NOISY: u64 = 2;
const NOISY_TOKEN: u64 = 0xBBBB;

fn start(
    noisy_rate: u64,
    noisy_burst: u64,
    shed: ShedConfig,
    window: usize,
) -> (Pipeline<si_htm::SiHtm>, NetServer) {
    let backend = si_htm::SiHtm::with_defaults(1 << 16);
    let store = KvStore::create(backend.memory(), 0, 1 << 16);
    let pipeline = Pipeline::start(backend, store, PipelineConfig::quick());
    let server = NetServer::start(
        pipeline.client(),
        NetServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            uds: None,
            window,
            tenants: vec![
                TenantSpec {
                    id: PROT,
                    token: PROT_TOKEN,
                    priority: 0,
                    rate: 10_000_000,
                    burst: 10_000_000,
                },
                TenantSpec {
                    id: NOISY,
                    token: NOISY_TOKEN,
                    priority: 2,
                    rate: noisy_rate,
                    burst: noisy_burst,
                },
            ],
            shed,
        },
    )
    .expect("server start");
    (pipeline, server)
}

/// Every test's server must stop without ever having needed the poll
/// timeout to notice a reply burst (a lost reactor wake-up).
fn shutdown_checked(server: NetServer) -> NetReport {
    let net = server.shutdown();
    assert_eq!(net.wake_rescues, 0, "a reply burst waited for the reactor's poll timeout");
    net
}

fn tenant(report: &NetReport, id: u64) -> &txkv_net::TenantReport {
    report.tenants.iter().find(|t| t.tenant == id).expect("tenant in report")
}

/// Drive one noisy connection open-loop (as fast as the window admits)
/// until `stop`; returns (ok, refused) counts and asserts every refusal
/// is typed, per-tenant `Overloaded` from the quota or pressure gate.
fn noisy_flood(server: &NetServer, stop: &AtomicBool) -> (u64, u64) {
    let client = NetClient::connect_tcp(server.tcp_addr().unwrap(), NOISY, NOISY_TOKEN).unwrap();
    let (mut ok, mut refused) = (0u64, 0u64);
    let mut k = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // Mix classes so shed ordering has something to choose between.
        let op = match k % 4 {
            0 => KvOp::Put { key: 1_000_000 + (k % 512), val: k },
            1 => KvOp::Get { key: 1_000_000 + (k % 512) },
            2 => KvOp::MultiGet { keys: vec![1_000_000, 1_000_001, 1_000_002] },
            _ => KvOp::ScanPrefix { prefix: 1_000_000 >> 8, shift: 8, limit: 16 },
        };
        k += 1;
        match client.call(&op) {
            Ok(_) => ok += 1,
            Err(NetError::Refused(r)) => {
                refused += 1;
                assert_eq!(r.tenant, NOISY, "refusal must name the refused tenant");
                assert_eq!(r.kind, RefusedKind::Overloaded, "admission refusals are Overloaded");
                assert!(
                    matches!(
                        r.scope,
                        RefusalScope::Quota | RefusalScope::Pressure | RefusalScope::Queue
                    ),
                    "unexpected scope {:?}",
                    r.scope
                );
                assert!(r.class.is_some(), "admission refusals carry the op class");
            }
            Err(e) => panic!("noisy tenant saw a non-refusal error: {e}"),
        }
    }
    (ok, refused)
}

/// The protected tenant's closed loop: every call must be answered with
/// a served reply — never refused, never shed.
fn protected_loop(server: &NetServer, ops: u64) {
    let client = NetClient::connect_tcp(server.tcp_addr().unwrap(), PROT, PROT_TOKEN).unwrap();
    for i in 0..ops {
        let op = if i % 2 == 0 {
            KvOp::Put { key: i % 1024, val: i }
        } else {
            KvOp::Get { key: i % 1024 }
        };
        match client.call(&op) {
            Ok(KvReply::Shed) => panic!("protected tenant's accepted request was shed"),
            Ok(_) => {}
            Err(e) => panic!("protected tenant refused: {e}"),
        }
    }
}

#[test]
fn noisy_neighbor_is_throttled_with_typed_per_tenant_refusals() {
    let _gate = gate();
    // Tight quota for the noisy tenant: refusals are guaranteed once the
    // burst allowance is spent, long before the backend queues fill.
    let (pipeline, server) = start(2_000, 200, ShedConfig::new(), 64);
    let stop = AtomicBool::new(false);
    let (noisy_out, _) = std::thread::scope(|s| {
        let noisy = s.spawn(|| noisy_flood(&server, &stop));
        let prot = s.spawn(|| protected_loop(&server, 3_000));
        prot.join().expect("protected loop");
        std::thread::sleep(Duration::from_millis(300)); // keep flooding past the quiet tenant
        stop.store(true, Ordering::Relaxed);
        (noisy.join().expect("noisy loop"), ())
    });
    let (noisy_ok, noisy_refused) = noisy_out;
    assert!(noisy_refused > 0, "noisy tenant must have been refused (ok={noisy_ok})");
    assert!(noisy_ok > 0, "throttling is not a blackhole: within quota it is served");

    let report = pipeline.shutdown();
    assert_eq!(report.starved_executors, 0, "no executor starves under a noisy neighbor");
    assert_eq!(report.panicked_executors, 0);

    let net = shutdown_checked(server);
    assert_eq!(net.accepted, net.answered(), "every accepted request answered-or-shed");
    let noisy = tenant(&net, NOISY);
    assert!(noisy.refused_quota + noisy.refused_pressure > 0, "refusals typed per tenant");
    assert!(noisy.refused_class.iter().sum::<u64>() >= noisy.refused_quota);
    let prot = tenant(&net, PROT);
    assert_eq!(prot.refused(), 0, "protected tenant is never refused here");
    assert_eq!(prot.shed, 0, "protected tenant is never shed here");
    assert_eq!(prot.answered, prot.accepted);
    assert!(prot.e2e.count() > 0, "per-tenant latency is recorded");
}

#[test]
fn answered_or_shed_holds_across_disconnect_with_inflight_requests() {
    let _gate = gate();
    let (pipeline, server) = start(10_000_000, 10_000_000, ShedConfig::new(), 128);
    // The dead connections' puts stay below the 256-deep update lane
    // (4 × 60 = 240), so the protected tenant's calls below, which run
    // while the corpses are cleaned up, always find room in it.
    for round in 0..4 {
        let client =
            NetClient::connect_tcp(server.tcp_addr().unwrap(), NOISY, NOISY_TOKEN).unwrap();
        let mut pending = Vec::new();
        for i in 0..60u64 {
            match client.submit(&KvOp::Put { key: round * 1000 + i, val: i }) {
                Ok(p) => pending.push(p),
                Err(e) => panic!("submit failed: {e}"),
            }
        }
        // Drop the connection with most replies still in flight. The
        // server must resolve every one of them (delivered or counted
        // against the dead connection) without leaking a slot.
        drop(pending);
        drop(client);
    }
    // A fresh connection still works while the corpses are cleaned up.
    protected_loop(&server, 100);
    let report = pipeline.shutdown();
    assert_eq!(report.starved_executors, 0);
    assert_eq!(report.panicked_executors, 0);
    let net = shutdown_checked(server);
    assert_eq!(
        net.accepted,
        net.answered(),
        "in-flight replies of dropped connections must still resolve \
         (replies_to_dead={})",
        net.replies_to_dead
    );
    assert_eq!(net.conns_accepted, net.conns_closed);
}

#[test]
fn server_window_bounds_inflight_and_preserves_correlation() {
    let _gate = gate();
    let (pipeline, server) = start(10_000_000, 10_000_000, ShedConfig::new(), 4);
    let client = NetClient::connect_tcp(server.tcp_addr().unwrap(), PROT, PROT_TOKEN).unwrap();
    assert_eq!(client.window(), 4, "client adopts the server-advertised window");
    for k in 0..64u64 {
        client.call(&KvOp::Put { key: k, val: k * 3 }).unwrap();
    }
    let pending: Vec<_> =
        (0..64u64).map(|k| (k, client.submit(&KvOp::Get { key: k }).unwrap())).collect();
    for (k, p) in pending {
        assert_eq!(p.wait().unwrap(), KvReply::Value(Some(k * 3)));
    }
    pipeline.shutdown();
    shutdown_checked(server);
}

/// Chaos-armed variant: injected aborts and stalls under the pipeline
/// slow the executors until real queueing appears, so the pressure gate
/// (not just the token bucket) does the shedding — and every invariant
/// still holds: protected tenant untouched, noisy tenant typed-refused,
/// answered-or-shed exact, zero starved executors.
#[test]
fn noisy_neighbor_under_chaos_keeps_invariants() {
    let _gate = gate();
    let _guard = txmem::hooks::chaos::install(txmem::hooks::chaos::ChaosConfig {
        seed: 0xC0FFEE,
        abort_access: 0.02,
        abort_commit: 0.05,
        capacity_share: 0.5,
        stall: 0.3,
        stall_max_us: 300,
        ..Default::default()
    });
    assert!(txmem::hooks::chaos::armed());
    // Huge quota: the token bucket never refuses, so any shedding comes
    // from the pressure gate watching real backend queue depth.
    let (pipeline, server) = start(50_000_000, 50_000_000, ShedConfig { low: 8, high: 64 }, 64);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(2);
    let ((noisy_ok, noisy_refused), ()) = std::thread::scope(|s| {
        let noisy_a = s.spawn(|| noisy_flood(&server, &stop));
        let noisy_b = s.spawn(|| noisy_flood(&server, &stop));
        let prot = s.spawn(|| protected_loop(&server, 400));
        prot.join().expect("protected loop under chaos");
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        let a = noisy_a.join().expect("noisy a");
        let b = noisy_b.join().expect("noisy b");
        ((a.0 + b.0, a.1 + b.1), ())
    });
    let report = pipeline.shutdown();
    assert_eq!(report.starved_executors, 0, "chaos must not starve an executor");
    assert_eq!(report.panicked_executors, 0);
    let net = shutdown_checked(server);
    assert_eq!(net.accepted, net.answered(), "answered-or-shed must survive chaos");
    let prot = tenant(&net, PROT);
    assert_eq!(prot.refused(), 0, "protected tenant never refused, even under chaos");
    let noisy = tenant(&net, NOISY);
    assert_eq!(noisy.refused_quota, 0, "quota was sized out of the picture");
    assert!(noisy_ok > 0, "noisy tenant still gets service under chaos (refused={noisy_refused})");
    // Pressure shedding is load-dependent; when it fired, it must be
    // attributed to the pressure gate of the noisy tenant only.
    assert_eq!(noisy.refused_pressure + noisy.refused_backend, noisy.refused());
}

const SOAK_KEYS: u64 = 4096;
/// Below this p99 the 1.5× comparison measures the OS scheduler, not
/// the service.
const P99_FLOOR_NS: u64 = 2_000_000;

/// 90 % read-only (80 get / 5 multi-get / 5 scan), 10 % updates over the
/// populated keys; deletes aim at the absent keys above them.
fn soak_op(rng: &mut u64) -> KvOp {
    let mut next = || {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let key = next() % SOAK_KEYS;
    match next() % 1000 {
        0..=799 => KvOp::Get { key },
        800..=849 => KvOp::MultiGet { keys: (0..4).map(|i| (key + i * 37) % SOAK_KEYS).collect() },
        850..=899 => KvOp::ScanPrefix { prefix: key >> 5, shift: 5, limit: 32 },
        900..=949 => KvOp::Put { key, val: next() },
        950..=969 => KvOp::Cas { key, expect: Some(key), new: key },
        970..=989 => KvOp::MultiAdd { deltas: vec![(key, -1), ((key + 1) % SOAK_KEYS, 1)] },
        _ => KvOp::Delete { key: SOAK_KEYS + next() % SOAK_KEYS },
    }
}

/// One soak phase on a fresh pipeline and server: the protected tenant's
/// closed loop, 500 calls 200 µs apart (the same offered load in both
/// phases), every one answered; when `contended`, two noisy connections
/// flood open-loop from before it starts until 100 ms after it ends.
fn soak_phase(uds: bool, chaos_armed: bool, contended: bool) -> (ServiceReport, NetReport) {
    let backoff = if chaos_armed { BackoffPolicy::exponential() } else { BackoffPolicy::none() };
    let words = 1 << 18;
    let cfg = si_htm::SiHtmConfig { backoff, ..Default::default() };
    let backend = si_htm::SiHtm::new(Default::default(), words, cfg);
    let store =
        KvStore::create_with(backend.memory(), 0, words as u64, (0..SOAK_KEYS).map(|k| (k, k)));
    let pcfg = PipelineConfig {
        executors: 2,
        backoff,
        idle_jitter_ns: if chaos_armed { 500 } else { 0 },
        ..PipelineConfig::new()
    };
    let pipeline = Pipeline::start(backend, store, pcfg);
    let sock =
        std::env::temp_dir().join(format!("txkv-net-soak-{}-{contended}.sock", std::process::id()));
    let server = NetServer::start(
        pipeline.client(),
        NetServerConfig {
            tcp: (!uds).then(|| "127.0.0.1:0".into()),
            uds: uds.then_some(sock),
            window: 128,
            tenants: vec![
                TenantSpec {
                    id: PROT,
                    token: PROT_TOKEN,
                    priority: 0,
                    rate: 5_000_000,
                    burst: 5_000_000,
                },
                // A 5 k/s contract, far below what the noisy tenant floods.
                TenantSpec { id: NOISY, token: NOISY_TOKEN, priority: 2, rate: 5_000, burst: 500 },
            ],
            shed: ShedConfig::new(),
        },
    )
    .expect("server start");
    let connect = |tenant, token| {
        match server.tcp_addr() {
            Some(addr) => NetClient::connect_tcp(addr, tenant, token),
            None => NetClient::connect_uds(server.uds_path().unwrap(), tenant, token),
        }
        .expect("connect")
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for n in 0..if contended { 2u64 } else { 0 } {
            let (stop, client) = (&stop, connect(NOISY, NOISY_TOKEN));
            s.spawn(move || {
                let mut rng = 0x5015_E0F5 + n;
                while !stop.load(Ordering::Relaxed) {
                    // Open loop: the reply or refusal is the server's.
                    if client.submit(&soak_op(&mut rng)).is_err() {
                        break;
                    }
                }
            });
        }
        let client = connect(PROT, PROT_TOKEN);
        let mut rng = 0x9e7_5eed;
        for _ in 0..500 {
            match client.call(&soak_op(&mut rng)) {
                Ok(KvReply::Shed) => panic!("protected tenant's request was shed"),
                Ok(_) => {}
                Err(e) => panic!("protected tenant refused: {e}"),
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    // Drain the pipeline first, so every reply reaches its connection,
    // then take the wire books.
    let report = pipeline.shutdown();
    (report, shutdown_checked(server))
}

/// Solo baseline, then the noisy flood: answered-or-shed at the wire,
/// no starved or dead executor, the protected tenant never refused or
/// shed, the noisy tenant throttled yet served, and the protected p99
/// within max(1.5 × solo, 2 ms).
fn protected_p99_holds(uds: bool, chaos_armed: bool) {
    let _gate = gate();
    let _deadline = tm_api::deadline::guard(Duration::from_secs(10));
    let _chaos = chaos_armed.then(|| {
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
    let solo = soak_phase(uds, chaos_armed, false);
    let contended = soak_phase(uds, chaos_armed, true);
    for (phase, (report, net)) in [("solo", &solo), ("contended", &contended)] {
        assert_eq!(report.panicked_executors, 0, "{phase}");
        assert_eq!(report.starved_executors, 0, "{phase}");
        assert_eq!(net.accepted, net.answered(), "{phase}: answered-or-shed at the wire");
        let prot = tenant(net, PROT);
        assert_eq!((prot.refused(), prot.shed), (0, 0), "{phase}: protected tenant turned away");
        assert_eq!(prot.answered, 500, "{phase}");
    }
    let noisy = tenant(&contended.1, NOISY);
    assert!(noisy.refused_quota + noisy.refused_pressure > 0, "noisy tenant never throttled");
    assert!(noisy.answered > 0, "throttling blackholed the noisy tenant");
    let solo_p99 = tenant(&solo.1, PROT).e2e.quantile(0.99);
    let cont_p99 = tenant(&contended.1, PROT).e2e.quantile(0.99);
    let ceiling = ((solo_p99 as f64 * 1.5) as u64).max(P99_FLOOR_NS);
    assert!(
        cont_p99 <= ceiling,
        "protected p99 {cont_p99} ns under the flood exceeds 1.5x its solo {solo_p99} ns \
         (ceiling {ceiling} ns): the noisy neighbor leaked through"
    );
}

#[test]
fn protected_p99_holds_under_a_noisy_flood_over_uds() {
    protected_p99_holds(true, false);
}

#[test]
fn protected_p99_holds_under_a_noisy_flood_over_tcp_with_chaos() {
    protected_p99_holds(false, true);
}
