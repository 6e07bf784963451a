//! A txkv server and a load client over real sockets.
//!
//! `--listen ADDR` and/or `--listen-uds PATH` serve a fresh SI-HTM
//! pipeline (4 096 keys populated) over TCP and/or a Unix-domain socket
//! until stdin closes, then print the service and wire books (answered +
//! refused must equal accepted). Two demo tenants are admitted: tenant 1
//! is protected (priority 0, generous quota), tenant 2 has a 5 k/s quota.
//!
//! `--connect ADDR` or `--connect-uds PATH` drive such a server from
//! another terminal or machine: four closed-loop clients, 2 000 requests
//! each (90 % read-only), authenticated as `--tenant N --token T`
//! (default: the protected demo tenant), reporting client-observed
//! round-trip percentiles.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example txkv_serve -- --listen 127.0.0.1:7878
//! cargo run --release --example txkv_serve -- --connect 127.0.0.1:7878 \
//!     --tenant 1 --token 1886547828
//! ```

use htm_sim::HtmConfig;
use std::time::Instant;
use tm_api::LatencyHist;
use txkv::shard::build_domains;
use txkv::{KvOp, Pipeline, PipelineConfig, ShardMap};
use txkv_net::{NetClient, NetError, NetServer, NetServerConfig, ShedConfig, TenantSpec};
use workloads::btree;

const KEYS: u64 = 4096;
const PROT: u64 = 1;
const PROT_TOKEN: u64 = 0x70726f74; // "prot"
const NOISY: u64 = 2;
const NOISY_TOKEN: u64 = 0x6e6f6973; // "nois"
const CLIENTS: u64 = 4;
const OPS: u64 = 2_000;

/// The six settings: where to serve or connect, and as whom.
struct Args {
    listen: Option<String>,
    listen_uds: Option<String>,
    connect: Option<String>,
    connect_uds: Option<String>,
    tenant: u64,
    token: u64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let val = |f: &str| argv.iter().position(|a| a == f).and_then(|i| argv.get(i + 1)).cloned();
    let num = |f: &str, default: u64| {
        val(f)
            .map(|s| s.parse().unwrap_or_else(|_| panic!("{f} takes an integer")))
            .unwrap_or(default)
    };
    Args {
        listen: val("--listen"),
        listen_uds: val("--listen-uds"),
        connect: val("--connect"),
        connect_uds: val("--connect-uds"),
        tenant: num("--tenant", PROT),
        token: num("--token", PROT_TOKEN),
    }
}

/// xorshift64*: a deterministic op stream.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// 90 % read-only (80 get / 5 multi-get / 5 scan), 10 % updates, over the
/// populated keys `0..KEYS`; deletes aim at the absent keys above them.
fn gen_op(rng: &mut u64) -> KvOp {
    let key = next_rand(rng) % KEYS;
    match next_rand(rng) % 1000 {
        0..=799 => KvOp::Get { key },
        800..=849 => KvOp::MultiGet { keys: (0..4).map(|i| (key + i * 37) % KEYS).collect() },
        850..=899 => KvOp::ScanPrefix { prefix: key >> 5, shift: 5, limit: 32 },
        900..=949 => KvOp::Put { key, val: next_rand(rng) },
        950..=969 => KvOp::Cas { key, expect: Some(key), new: key },
        970..=989 => {
            let other = (key + 1 + next_rand(rng) % (KEYS - 1)) % KEYS;
            KvOp::MultiAdd { deltas: vec![(key, -1), (other, 1)] }
        }
        _ => KvOp::Delete { key: KEYS + next_rand(rng) % KEYS },
    }
}

fn listen(args: &Args) {
    let words = btree::memory_words(KEYS * 8);
    let map = ShardMap::range(1, 2 * KEYS);
    let mk = |_| si_htm::SiHtm::new(HtmConfig::default(), words, Default::default());
    let domains = build_domains(&map, mk, 0, words as u64, (0..KEYS).map(|k| (k, k)));
    let cfg = PipelineConfig { executors: 4, ..PipelineConfig::new() };
    let pipeline = Pipeline::start_sharded(domains, map, cfg);
    let tenants = vec![
        TenantSpec { id: PROT, token: PROT_TOKEN, priority: 0, rate: 5_000_000, burst: 5_000_000 },
        TenantSpec { id: NOISY, token: NOISY_TOKEN, priority: 2, rate: 5_000, burst: 500 },
    ];
    let server_cfg = NetServerConfig {
        tcp: args.listen.clone(),
        uds: args.listen_uds.clone().map(Into::into),
        window: 128,
        tenants,
        shed: ShedConfig::new(),
    };
    let server = NetServer::start(pipeline.client(), server_cfg).expect("net server");
    if let Some(addr) = server.tcp_addr() {
        println!("listening tcp {addr}");
    }
    if let Some(path) = server.uds_path() {
        println!("listening uds {}", path.display());
    }
    println!(
        "tenants: {PROT} (token {PROT_TOKEN}, protected), \
         {NOISY} (token {NOISY_TOKEN}, 5k/s quota); close stdin to stop"
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

fn connect(args: &Args) {
    let dial = || {
        match (&args.connect, &args.connect_uds) {
            (Some(addr), _) => NetClient::connect_tcp(addr.as_str(), args.tenant, args.token),
            (None, Some(path)) => NetClient::connect_uds(path, args.tenant, args.token),
            (None, None) => unreachable!(),
        }
        .expect("connect to the server")
    };
    let mut hist = LatencyHist::new();
    let (mut ok, mut refused) = (0u64, 0u64);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = dial();
                s.spawn(move || {
                    let mut hist = LatencyHist::new();
                    let mut rng = 0xC0_44EC7 ^ (c + 1);
                    let (mut ok, mut refused) = (0u64, 0u64);
                    for _ in 0..OPS {
                        let op_t0 = Instant::now();
                        match client.call(&gen_op(&mut rng)) {
                            Ok(_) => {
                                hist.record(op_t0.elapsed());
                                ok += 1;
                            }
                            Err(NetError::Refused(_)) => refused += 1,
                            Err(e) => panic!("remote call failed: {e}"),
                        }
                    }
                    (hist, ok, refused)
                })
            })
            .collect();
        for h in handles {
            let (h_hist, h_ok, h_refused) = h.join().expect("load client");
            hist.merge(&h_hist);
            ok += h_ok;
            refused += h_refused;
        }
    });
    let wall = t0.elapsed();
    let (p50, p90, p99, p999) = hist.percentiles();
    println!(
        "tenant {}: {ok} ok, {refused} refused in {wall:?} ({:.0}/s); \
         client e2e p50/p90/p99/p999 = {p50}/{p90}/{p99}/{p999} ns",
        args.tenant,
        ok as f64 / wall.as_secs_f64().max(1e-9),
    );
}

fn main() {
    let args = parse_args();
    if args.listen.is_some() || args.listen_uds.is_some() {
        listen(&args);
    } else if args.connect.is_some() || args.connect_uds.is_some() {
        connect(&args);
    } else {
        eprintln!(
            "usage: txkv_serve --listen ADDR | --listen-uds PATH | \
             --connect ADDR | --connect-uds PATH [--tenant N --token T]"
        );
        std::process::exit(2);
    }
}
