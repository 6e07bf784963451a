//! `kv_read_uds`: read-mostly key-value traffic over a Unix-domain socket.
//!
//! `NetServer` over UDS -> `Pipeline` (1 shard, no WAL) with 2^20 loaded
//! keys, uniform access, one connection, one generator thread, window 32.
//! More than half of each op's cost is the wire path, so frame codec,
//! reactor, tenant gate, `SubmitQueue`, `ReplySlot` and RO batching do
//! most of the work; WAL and 2PC do none. The 5 % ROT writers keep the
//! quiescence-vs-RO-batch interaction (the paper's case) alive.

use super::{pipeline_cfg, service_counts, service_oracle, si_htm, Cfg, Finish, Workload};
use crate::gen::{hash_kv_stream, KvReadGen, KvStream, SCAN_KEYS};
use crate::harness::{windowed_loop, Ctl, GenLog};
use si_htm::SiHtm;
use tm_api::TmBackend;
use txkv::{KvOp, KvReply, KvStore, Pipeline};
use txkv_net::{NetClient, NetServer, NetServerConfig, ShedConfig, TenantSpec};
use workloads::btree;

pub const KEYS: u64 = 1 << 20;
const TENANT: u64 = 1;
const TOKEN: u64 = 0x7379_7362; // "sysb"

/// Node arena for `keys` loaded keys: the bulk load leaves nodes half
/// full and executors keep scratch nodes, so size for four times the keys.
pub fn store_words(keys: u64) -> usize {
    btree::memory_words(4 * keys)
}

/// A single-shard store bulk-loaded with `stream`'s initial contents.
pub fn loaded_domain(stream: KvStream) -> (SiHtm, KvStore) {
    let words = store_words(stream.keys());
    let backend = si_htm(words);
    let entries = (0..stream.keys()).map(|k| (k, stream.initial(k)));
    let store = KvStore::create_with(backend.memory(), 0, words as u64, entries);
    (backend, store)
}

/// One tenant whose quota the run cannot reach: admission is exercised,
/// never refuses.
pub fn server_cfg(sock: std::path::PathBuf) -> NetServerConfig {
    NetServerConfig {
        tcp: None,
        uds: Some(sock),
        window: 128,
        tenants: vec![TenantSpec {
            id: TENANT,
            token: TOKEN,
            priority: 0,
            rate: 1_000_000_000,
            burst: 1_000_000_000,
        }],
        shed: ShedConfig::new(),
    }
}

pub fn connect(server: &NetServer) -> NetClient {
    NetClient::connect_uds(server.uds_path().expect("uds listener"), TENANT, TOKEN)
        .expect("connect over uds")
}

/// The one right answer to `op` on a store where value == key everywhere.
pub fn check_reply(op: &KvOp, reply: &KvReply) -> Result<(), String> {
    let ok = match (op, reply) {
        (KvOp::Get { key }, KvReply::Value(v)) => *v == Some(*key),
        (KvOp::MultiGet { keys }, KvReply::Values(vs)) => {
            vs.len() == keys.len() && keys.iter().zip(vs).all(|(k, v)| *v == Some(*k))
        }
        (KvOp::ScanPrefix { prefix, shift: 5, .. }, KvReply::Scan { count, sum }) => {
            let first = prefix << 5;
            *count == SCAN_KEYS && *sum == SCAN_KEYS * first + SCAN_KEYS * (SCAN_KEYS - 1) / 2
        }
        (KvOp::Put { .. }, KvReply::Done { changed }) => !changed,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{op:?} answered {reply:?}"))
    }
}

pub struct KvReadUds {
    keys: u64,
    pipeline: Pipeline<SiHtm>,
    server: NetServer,
    client: NetClient,
}

impl Workload for KvReadUds {
    const NAME: &'static str = "kv_read_uds";
    const GENERATORS: usize = 1;

    fn setup(cfg: &Cfg) -> Self {
        let keys = KEYS / cfg.shrink;
        let (backend, store) = loaded_domain(KvStream::Read { keys });
        let pipeline = Pipeline::start(backend, store, pipeline_cfg());
        let server = NetServer::start(pipeline.client(), server_cfg(cfg.dir.join("kv.sock")))
            .expect("start net server");
        let client = connect(&server);
        let first = client.call(&KvOp::Get { key: 0 }).expect("first request");
        assert_eq!(first, KvReply::Value(Some(0)), "first request");
        KvReadUds { keys, pipeline, server, client }
    }

    fn stream_hash(cfg: &Cfg) -> u64 {
        let mut g = KvReadGen::new(cfg.seed, 0, KEYS / cfg.shrink);
        hash_kv_stream(|| g.next_op())
    }

    fn kv_stream(cfg: &Cfg) -> KvStream {
        KvStream::Read { keys: KEYS / cfg.shrink }
    }

    fn generate(&self, cfg: &Cfg, idx: usize, ctl: &Ctl, log: &mut GenLog) {
        let mut g = KvReadGen::new(cfg.seed, idx as u64, self.keys);
        windowed_loop(
            ctl,
            log,
            || g.next_op(),
            |op| match self.client.submit(&op) {
                Ok(pending) => Ok((pending, op)),
                Err(e) => Err(format!("{op:?} refused: {e}")),
            },
            |pending, op| match pending.wait() {
                Ok(reply) => check_reply(&op, &reply),
                Err(e) => Err(format!("{op:?} failed: {e}")),
            },
        );
    }

    fn teardown(self) {
        drop(self.client);
        self.pipeline.shutdown();
        self.server.shutdown();
    }

    fn finish(self, _cfg: &Cfg, _logs: &[GenLog]) -> Finish {
        drop(self.client);
        // Pipeline first, so every in-flight slot is filled and every
        // frame reaches a connection buffer before the wire books close.
        let report = self.pipeline.shutdown();
        let net = self.server.shutdown();
        let refused = net.refused_quota + net.refused_pressure + net.refused_backend;
        let oracle = service_oracle(&report).and_then(|()| {
            if refused + net.proto_errors + net.auth_failures > 0 {
                return Err(format!(
                    "wire refused {refused} requests, {} protocol errors, {} auth failures",
                    net.proto_errors, net.auth_failures
                ));
            }
            Ok(())
        });
        let requests = net.requests.max(1) as f64;
        let mut counts = service_counts(&report);
        counts.extend([
            ("net.frames_per_op", (net.frames_in + net.frames_out) as f64 / requests, "count"),
            ("net.refused_per_kop", 1000.0 * refused as f64 / requests, "count"),
        ]);
        Finish { oracle, counts }
    }
}
