//! Multi-tenant admission semantics at the wire: a noisy neighbor is
//! throttled with *typed, per-tenant* refusals while the protected
//! tenant's accepted requests are all answered; the answered-or-shed
//! invariant holds across disconnects; and nothing starves an executor —
//! with and without chaos injection underneath the pipeline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tm_api::TmBackend;
use txkv::{KvOp, KvReply, KvStore, Pipeline, PipelineConfig};
use txkv_net::{
    NetClient, NetError, NetReport, NetServer, NetServerConfig, RefusalScope, RefusedKind,
    ShedConfig, TenantSpec,
};

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
    let (pipeline, server) = start(10_000_000, 10_000_000, ShedConfig::new(), 128);
    for round in 0..4 {
        let client =
            NetClient::connect_tcp(server.tcp_addr().unwrap(), NOISY, NOISY_TOKEN).unwrap();
        let mut pending = Vec::new();
        for i in 0..120u64 {
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
