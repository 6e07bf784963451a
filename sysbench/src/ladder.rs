//! The layer ladder: per-layer ns/op numbers measured outside the program
//! under load, single-threaded at window 1 on private instances, through
//! public entry points only.
//!
//! The three service rungs replay the *same* head of the workload's seeded
//! stream on one instance at successively lower entry points —
//! `NetClient::call` -> `KvClient::call` -> `KvStore` methods — so adjacent
//! rungs differ by exactly one layer and the self times sum to the top
//! rung by construction:
//! `net.rtt_ns = net.self_ns + pipeline.self_ns + store.op_ns`.
//! Every other rung times one layer's public primitive in isolation.

use crate::gen::{lane_rng, KvStream};
use crate::trace::Recorder;
use crate::workloads::kv_read_uds::{connect, loaded_domain, server_cfg};
use crate::workloads::kv_write_sync::durable_pipeline;
use crate::workloads::tpcc_service::{tpcc_cfg, tpcc_pipeline};
use crate::workloads::{pipeline_cfg, si_htm, Cfg, Count, Workload};
use htm_sim::{Htm, HtmConfig, TxMode};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;
use tm_api::{TmBackend, TmThread, TxKind};
use tpcc::schema::{StockRow, STOCK};
use tpcc::service::{self, TxClass};
use txkv::durability::Append;
use txkv::{
    DurabilityConfig, DurabilityMode, KvClient, KvOp, KvReply, KvStore, LocalTx, Pipeline,
    SubmitQueue, WalSet,
};
use txkv_net::frame::{self, Kind};
use txkv_net::NetServer;
use txmem::LineAlloc;
use workloads::btree::{self, NodeScratch, TxBTree};
use workloads::hashmap::{HashMapConfig, TxHashMap};

/// Iterations of a primitive rung / ops of a service rung at full size.
const MICRO_ITERS: u64 = 200_000;
const SERVICE_OPS: usize = 20_000;
/// Window-1 round trips through a Sync WAL: each update waits for one
/// `fdatasync`, so far fewer of them.
const SYNC_OPS: usize = 2_000;
const TPCC_CALLS: usize = 300;

struct Sizes {
    micro: u64,
    service: usize,
    sync: usize,
    tpcc: usize,
}

fn sizes(cfg: &Cfg) -> Sizes {
    let d = cfg.shrink as usize;
    Sizes {
        micro: MICRO_ITERS / cfg.shrink,
        service: SERVICE_OPS / d,
        sync: SYNC_OPS / d,
        tpcc: (TPCC_CALLS / d).max(10),
    }
}

/// `htm-sim`: `HtmThread::begin/read/write/commit`, one thread, in the ROT
/// mode SI-HTM runs updates in. Per-access costs are net of the empty
/// transaction around them.
fn htm_sim(rec: &mut Recorder, n: u64, out: &mut Vec<Count>) {
    const LINES: u64 = 32;
    let htm = Htm::new(HtmConfig::default(), 16 * 1024);
    let mut t = htm.register_thread();
    let txns = n / LINES;
    let empty = rec.rung("htm_sim.empty_txn_ns", txns, || {
        for _ in 0..txns {
            t.begin(TxMode::Rot);
            t.commit().expect("empty ROT commits");
        }
    });
    let reads = rec.rung("htm_sim.read_ns", txns * LINES, || {
        for _ in 0..txns {
            t.begin(TxMode::Rot);
            for i in 0..LINES {
                black_box(t.read(i * 16).expect("uncontended read"));
            }
            t.commit().expect("read-only ROT commits");
        }
    });
    let writes = rec.rung("htm_sim.write_ns", txns * LINES, || {
        for _ in 0..txns {
            t.begin(TxMode::Rot);
            for i in 0..LINES {
                t.write(i * 16, i).expect("uncontended write");
            }
            t.commit().expect("32-line ROT commits");
        }
    });
    let per_access = |with: f64| (with - empty / LINES as f64).max(0.0);
    out.extend([
        ("htm_sim.empty_txn_ns", empty, "ns"),
        ("htm_sim.read_ns", per_access(reads), "ns"),
        ("htm_sim.write_ns", per_access(writes), "ns"),
    ]);
}

fn empty_txns<B: TmBackend>(
    rec: &mut Recorder,
    backend: &B,
    name: &'static str,
    kind: TxKind,
    n: u64,
) -> Count {
    let mut t = backend.register_thread();
    let ns = rec.rung(name, n, || {
        for _ in 0..n {
            t.exec(kind, &mut |_tx| Ok(()));
        }
    });
    (name, ns, "ns")
}

/// The four backends through `tm-api`: an empty transaction each.
fn backends(rec: &mut Recorder, n: u64, out: &mut Vec<Count>) {
    let words = 16 * 1024;
    let si = si_htm(words);
    out.push(empty_txns(rec, &si, "si_htm.empty_ro_ns", TxKind::ReadOnly, n));
    out.push(empty_txns(rec, &si, "si_htm.empty_update_ns", TxKind::Update, n));
    let sgl = htm_sgl::HtmSgl::with_defaults(words);
    out.push(empty_txns(rec, &sgl, "htm_sgl.empty_update_ns", TxKind::Update, n));
    let p8 = p8tm::P8tm::with_defaults(words);
    out.push(empty_txns(rec, &p8, "p8tm.empty_update_ns", TxKind::Update, n));
    let silo = silo::Silo::with_defaults(words);
    out.push(empty_txns(rec, &silo, "silo.empty_update_ns", TxKind::Update, n));
}

/// `workloads::btree` and `::hashmap` on SI-HTM: one op per transaction.
fn structures(rec: &mut Recorder, cfg: &Cfg, n: u64, out: &mut Vec<Count>) {
    let keys = (1u64 << 16) / cfg.shrink;
    let words = btree::memory_words(4 * keys);
    let backend = si_htm(words);
    let alloc = LineAlloc::new(0, words as u64);
    let tree = TxBTree::build(backend.memory(), &alloc, 0..keys);
    let mut t = backend.register_thread();
    let mut rng = lane_rng(cfg.seed, 100);
    let n = n / 4;
    let lookup = rec.rung("btree.lookup_ns", n, || {
        for _ in 0..n {
            let key = rng.gen_range(0..keys);
            t.exec(TxKind::ReadOnly, &mut |tx| {
                black_box(tree.lookup(tx, key)?);
                Ok(())
            });
        }
    });
    let mut scratch = NodeScratch::new(&alloc);
    let insert = rec.rung("btree.insert_ns", n, || {
        for _ in 0..n {
            // Overwrites of loaded keys: the write path without growth.
            let key = rng.gen_range(0..keys);
            t.exec(TxKind::Update, &mut |tx| {
                scratch.reset();
                tree.insert(tx, key, key, &mut scratch)?;
                Ok(())
            });
            scratch.refill(&alloc);
        }
    });
    out.extend([("btree.lookup_ns", lookup, "ns"), ("btree.insert_ns", insert, "ns")]);

    let hcfg = HashMapConfig::paper(true, 0.5, false);
    let backend = si_htm(hcfg.memory_words(1));
    let (map, _alloc) = TxHashMap::build(backend.memory(), &hcfg);
    let mut t = backend.register_thread();
    let n = n / 4;
    let ns = rec.rung("hashmap.lookup_ns", n, || {
        for _ in 0..n {
            let key = 1 + rng.gen_range(0..hcfg.initial_keys());
            t.exec(TxKind::ReadOnly, &mut |tx| {
                black_box(map.lookup(tx, key)?);
                Ok(())
            });
        }
    });
    out.push(("hashmap.lookup_ns", ns, "ns"));
}

/// One op through the `KvStore` methods the pipeline's executors use.
fn store_apply<T: TmThread>(store: &KvStore, t: &mut T, s: &mut NodeScratch, op: &KvOp) -> KvReply {
    match op {
        KvOp::Get { key } => KvReply::Value(store.get(t, *key)),
        KvOp::MultiGet { keys } => KvReply::Values(store.multi_get(t, keys)),
        KvOp::ScanPrefix { prefix, shift, limit } => {
            let (count, sum) = store.scan_prefix(t, *prefix, *shift, *limit);
            KvReply::Scan { count, sum }
        }
        KvOp::Put { key, val } => KvReply::Done { changed: store.put(t, s, *key, *val) },
        KvOp::Cas { key, expect, new } => match store.cas(t, s, *key, *expect, *new) {
            Ok(()) => KvReply::CasOk,
            Err(seen) => KvReply::CasFail(seen),
        },
        KvOp::MultiAdd { deltas } => {
            store.multi_add(t, s, deltas);
            KvReply::Done { changed: true }
        }
        other => unreachable!("the kv streams never generate {other:?}"),
    }
}

/// The service ladder on one private instance, top rung last so each
/// rung runs on a store the rungs below have already warmed.
fn service(rec: &mut Recorder, cfg: &Cfg, stream: KvStream, sz: &Sizes, out: &mut Vec<Count>) {
    let ops = stream.head(cfg.seed, sz.service);
    let n = ops.len() as u64;
    let (backend, store) = loaded_domain(stream);
    let pipeline = Pipeline::start(backend, store, pipeline_cfg());
    let server = NetServer::start(pipeline.client(), server_cfg(cfg.dir.join("ladder.sock")))
        .expect("start net server");

    let mut replies: Vec<KvReply> = Vec::with_capacity(ops.len());
    let store_ns = {
        let mut t = pipeline.backend().register_thread();
        let mut scratch = pipeline.store().new_batch_scratch(pipeline_cfg().multi_key_max);
        rec.rung("store.op_ns", n, || {
            for op in &ops {
                replies.push(store_apply(pipeline.store(), &mut t, &mut scratch, op));
            }
        })
    };
    let client = pipeline.client();
    let pipeline_ns = rec.rung("pipeline.rtt_ns", n, || {
        for op in &ops {
            black_box(client.call(op.clone()).expect("ladder call"));
        }
    });
    let net = connect(&server);
    let net_ns = rec.rung("net.rtt_ns", n, || {
        for op in &ops {
            black_box(net.call(op).expect("ladder net call"));
        }
    });
    drop(net);

    // The stream's updates alone, through the same pipeline and through one
    // with a Sync WAL under it: the difference is what durability adds to
    // an update at window 1 (append, one `fdatasync` per op, ack parking).
    let updates: Vec<KvOp> = stream
        .head(cfg.seed, 64 * sz.sync)
        .into_iter()
        .filter(|op| !op.read_only())
        .take(sz.sync)
        .collect();
    let call_all = |client: &KvClient| {
        for op in &updates {
            black_box(client.call(op.clone()).expect("ladder call"));
        }
    };
    let per_update = |ns: f64| ns / updates.len().max(1) as f64;
    let t0 = Instant::now();
    call_all(&client);
    let plain_ns = per_update(t0.elapsed().as_nanos() as f64);
    pipeline.shutdown();
    server.shutdown();
    let durable = durable_pipeline(stream, DurabilityMode::Sync, &cfg.dir.join("wal-ladder"));
    let sync_ns = rec.rung("wal.self_ns", updates.len() as u64, || call_all(&durable.client()));
    durable.shutdown();

    out.extend([
        ("store.op_ns", store_ns, "ns"),
        ("pipeline.rtt_ns", pipeline_ns, "ns"),
        ("pipeline.self_ns", pipeline_ns - store_ns, "ns"),
        ("net.rtt_ns", net_ns, "ns"),
        ("net.self_ns", net_ns - pipeline_ns, "ns"),
        ("wal.self_ns", sync_ns - plain_ns, "ns"),
    ]);
    codec(rec, &ops, &replies, out);
}

/// `txkv-net::frame`: the request pair and the reply pair of every op.
fn codec(rec: &mut Recorder, ops: &[KvOp], replies: &[KvReply], out: &mut Vec<Count>) {
    let n = ops.len() as u64;
    let mut payload = Vec::new();
    let mut wires: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(ops.len());
    let encode = rec.rung("codec.encode_ns", n, || {
        for (i, (op, reply)) in ops.iter().zip(replies).enumerate() {
            let (mut req, mut rep) = (Vec::new(), Vec::new());
            payload.clear();
            frame::encode_op(op, &mut payload);
            frame::encode_frame(Kind::Request, i as u64, &payload, &mut req);
            payload.clear();
            frame::encode_reply(reply, &mut payload);
            frame::encode_frame(Kind::Reply, i as u64, &payload, &mut rep);
            wires.push((req, rep));
        }
    });
    let decode = rec.rung("codec.decode_ns", n, || {
        for (req, rep) in &wires {
            let (f, _) = frame::decode_frame(req).expect("own frame").expect("whole frame");
            black_box(frame::decode_op(&f.payload).expect("own payload"));
            let (f, _) = frame::decode_frame(rep).expect("own frame").expect("whole frame");
            black_box(frame::decode_reply(&f.payload).expect("own payload"));
        }
    });
    let bytes: usize = wires.iter().map(|(a, b)| a.len() + b.len()).sum();
    out.extend([
        ("codec.encode_ns", encode, "ns"),
        ("codec.decode_ns", decode, "ns"),
        ("codec.bytes_per_op", bytes as f64 / n.max(1) as f64, "bytes"),
    ]);
}

/// `txkv::queue` and `txkv::durability` primitives.
fn queue_and_wal(rec: &mut Recorder, cfg: &Cfg, n: u64, out: &mut Vec<Count>) {
    let q: SubmitQueue<u64> = SubmitQueue::new(1024, 1024);
    let mut popped = Vec::with_capacity(1);
    let ns = rec.rung("queue.push_pop_ns", n, || {
        for i in 0..n {
            q.try_push(true, i).expect("queue has room");
            popped.clear();
            black_box(q.try_pop_ro_batch(1, &mut popped));
        }
    });
    out.push(("queue.push_pop_ns", ns, "ns"));

    const GROUP: u64 = 32;
    let dir = cfg.dir.join("wal-rung");
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalSet::open(&DurabilityConfig::new(DurabilityMode::Async, &dir), 1).expect("WAL");
    let n = n / 8;
    let mut rng = lane_rng(cfg.seed, 101);
    let mut writes = vec![(0u64, Some(0u64))];
    let mut one = |wal: &WalSet| {
        writes[0] = (rng.gen_range(0..1 << 20), Some(rng.gen::<u64>()));
        wal.append(0, Append::Write(&writes)).expect("append");
    };
    let append = rec.rung("wal.append_ns", n, || (0..n).for_each(|_| one(&wal)));
    wal.flush(0).expect("flush");
    let groups = (n / GROUP / 4).max(1);
    let group_ns = rec.rung("wal.flush_ns", groups, || {
        for _ in 0..groups {
            (0..GROUP).for_each(|_| one(&wal));
            wal.flush(0).expect("flush");
        }
    });
    let stats = wal.stats();
    out.extend([
        ("wal.append_ns", append, "ns"),
        // One 32-record group commit (write + fdatasync), net of its appends.
        ("wal.flush_ns", (group_ns - GROUP as f64 * append).max(0.0), "ns"),
        ("wal.bytes_per_record", stats.wal_bytes as f64 / stats.wal_appends.max(1) as f64, "bytes"),
    ]);
}

/// `txkv-schema`: a typed row through `Table` over `LocalTx`.
fn schema(rec: &mut Recorder, cfg: &Cfg, n: u64, out: &mut Vec<Count>) {
    const ROWS: u64 = 4096;
    let words = btree::memory_words(4 * 4 * ROWS);
    let backend = si_htm(words);
    let store = KvStore::create(backend.memory(), 0, words as u64);
    let mut t = backend.register_thread();
    let mut scratch = store.new_batch_scratch(8);
    let mut rng = lane_rng(cfg.seed, 102);
    let mut put = |t: &mut si_htm::SiHtmThread, i: u64, q: u64| {
        let row = StockRow { quantity: q, ytd: 0, order_cnt: 0, remote_cnt: 0 };
        t.exec(TxKind::Update, &mut |tx| {
            scratch.reset();
            STOCK.put(&mut LocalTx { store: &store, tx, scratch: &mut scratch }, 1, i, &row)
        });
        scratch.refill(store.alloc());
    };
    (1..=ROWS).for_each(|i| put(&mut t, i, 50));
    let n = n / 8;
    let put_ns = rec.rung("schema.row_put_ns", n, || {
        for _ in 0..n {
            put(&mut t, 1 + rng.gen_range(0..ROWS), 60);
        }
    });
    let mut rng = lane_rng(cfg.seed, 103);
    let mut get_scratch = store.new_scratch();
    let get_ns = rec.rung("schema.row_get_ns", n, || {
        for _ in 0..n {
            let i = 1 + rng.gen_range(0..ROWS);
            t.exec(TxKind::ReadOnly, &mut |tx| {
                let mut ltx = LocalTx { store: &store, tx, scratch: &mut get_scratch };
                black_box(STOCK.get(&mut ltx, 1, i)?);
                Ok(())
            });
        }
    });
    out.extend([("schema.row_get_ns", get_ns, "ns"), ("schema.row_put_ns", put_ns, "ns")]);
}

/// `tpcc::service`: window-1 `KvClient::call` per transaction class.
fn tpcc_classes(rec: &mut Recorder, cfg: &Cfg, calls: usize, out: &mut Vec<Count>) {
    let tcfg = tpcc_cfg(cfg.shrink);
    let (pipeline, pop) = tpcc_pipeline(&tcfg, cfg.shrink, &cfg.dir.join("wal-tpcc-ladder"));
    let client = pipeline.client();
    let mut rng = lane_rng(cfg.seed, 0);
    let mut by_class: [Vec<KvOp>; 5] = Default::default();
    while by_class.iter().any(|v| v.len() < calls) {
        let t = service::gen_tx(&tcfg, &pop, &mut rng, 0);
        let v = &mut by_class[t.class.index()];
        if v.len() < calls {
            v.push(t.op);
        }
    }
    const NAMES: [(TxClass, &str); 5] = [
        (TxClass::NewOrder, "tpcc.new_order_us"),
        (TxClass::Payment, "tpcc.payment_us"),
        (TxClass::OrderStatus, "tpcc.order_status_us"),
        (TxClass::Delivery, "tpcc.delivery_us"),
        (TxClass::StockLevel, "tpcc.stock_level_us"),
    ];
    for (class, name) in NAMES {
        let ops = std::mem::take(&mut by_class[class.index()]);
        let ns = rec.rung(name, ops.len() as u64, || {
            for op in ops {
                black_box(client.call(op).expect("ladder tpcc call"));
            }
        });
        out.push((name, ns / 1e3, "us"));
    }
    pipeline.shutdown();
}

/// Run every rung, write the trace file, return the per-layer numbers.
pub fn run<W: Workload>(cfg: &Cfg, rec: &mut Recorder) -> Vec<Count> {
    let sz = sizes(cfg);
    let mut out = Vec::new();
    htm_sim(rec, sz.micro, &mut out);
    backends(rec, sz.micro, &mut out);
    structures(rec, cfg, sz.micro, &mut out);
    queue_and_wal(rec, cfg, sz.micro, &mut out);
    schema(rec, cfg, sz.micro, &mut out);
    service(rec, cfg, W::kv_stream(cfg), &sz, &mut out);
    tpcc_classes(rec, cfg, sz.tpcc, &mut out);
    match rec.write() {
        Ok(path) => println!("trace            {}", path.display()),
        Err(e) => println!("trace            not written: {e}"),
    }
    out
}
