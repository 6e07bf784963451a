//! `tpcc_service`: TPC-C through the `tpcc::service` procedures.
//!
//! Two warehouses on two shards, one blocking terminal per warehouse,
//! `DurabilityMode::Async` so 2PC `XBegin/XApply/XDecide` records are
//! written without ack waits. `txkv-schema` key encoding and the
//! last-name secondary index, procedure dispatch, the shard `XLock`, the
//! 2PC coordinators and 40-key ROT write sets near the 64-line TMCAM do
//! the work; ms-scale transactions make per-request fixed costs and the
//! wire irrelevant. This is the workload a `pipeline.rs` coordinator
//! collapse must leave unmoved.
//!
//! The mix is balanced (new-order 40 / payment 40 / delivery 12 /
//! order-status 4 / stock-level 4) because the standard mix's 4 %
//! deliveries x batch 4 cannot drain 45 % new-orders: 28-30 % of calls
//! then answer `CallAborted` on a full pending-order ring (README, noise
//! fact 4). Spec values otherwise: 60 % by-last-name, 15 % remote
//! payments, 1 % remote items, 1 % invalid items.

use super::{pipeline_cfg, service_counts, service_oracle, si_htm, Cfg, Finish, Workload};
use crate::gen::{lane_rng, StreamHash};
use crate::harness::{blocking_loop, Ctl, GenLog, MAX_GENERATORS};
use si_htm::SiHtm;
use std::collections::HashMap;
use std::sync::Mutex;
use tpcc::service::{self, Population, TxClass, TxInput};
use tpcc::{TpccConfig, TxMix};
use txkv::shard::build_domains;
use txkv::{
    DurabilityConfig, DurabilityMode, KvClient, KvOp, KvReply, Pipeline, PipelineConfig, WalSet,
};

const WAREHOUSES: u64 = 2;
const SHARDS: usize = 2;

pub const MIX: TxMix =
    TxMix { new_order: 40, payment: 40, delivery: 12, order_status: 4, stock_level: 4 };

/// Scaled up from `txkv_bench`'s service cells until resident memory and
/// set-up are dominated by real work.
pub fn tpcc_cfg(shrink: u64) -> TpccConfig {
    TpccConfig {
        warehouses: WAREHOUSES,
        districts_per_w: 10,
        customers_per_d: (304 / shrink).max(8),
        items: (10_000 / shrink).max(64),
        order_ring: 256,
        initial_orders: 96,
        delivered_prefix: 64,
        history_ring: 256,
        delivery_batch: 4,
        remote_payment_pct: 15,
        remote_item_pct: 1,
        invalid_item_pct: 1,
        by_lastname_pct: 60,
        mix: MIX,
    }
}

/// Appends between checkpoints of a shard, about one second's worth. The
/// WAL scrubber re-reads the whole log tail every 500 ms, so a log left
/// to grow for 50 000 appends costs a sawtooth of 20 % in throughput with
/// a 10-30 s period (measured; flat with scrubbing off) — longer than a
/// slice, so medians would depend on where in the tooth the run began.
const CHECKPOINT_EVERY: u64 = 5_000;

/// Simulated memory per shard, words.
pub fn shard_words(shrink: u64) -> usize {
    (1 << 24) / shrink as usize
}

/// A loaded TPC-C service over two shards with an Async WAL in `dir`.
pub fn tpcc_pipeline(
    tcfg: &TpccConfig,
    shrink: u64,
    dir: &std::path::Path,
) -> (Pipeline<SiHtm>, Population) {
    let words = shard_words(shrink);
    let map = service::shard_map(tcfg, SHARDS);
    let domains = build_domains(&map, |_| si_htm(words), 0, words as u64, std::iter::empty());
    service::load_items(&domains, tcfg);
    let _ = std::fs::remove_dir_all(dir);
    let dcfg = DurabilityConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        ..DurabilityConfig::new(DurabilityMode::Async, dir)
    };
    let wal = WalSet::open(&dcfg, SHARDS).expect("open WAL");
    let pcfg = PipelineConfig { multi_key_max: 32, ..pipeline_cfg() };
    let pipeline =
        Pipeline::start_with(domains, map, pcfg, Some(wal), Some(service::registry(tcfg)));
    let pop = service::populate(tcfg);
    service::load_warehouses(&pipeline.client(), tcfg, &pop, 32);
    (pipeline, pop)
}

/// Whether the generator made this call a New-Order that must roll back:
/// it put an unused item id (> `items`) in the last order line.
pub fn intended_rollback(op: &KvOp, items: u64) -> bool {
    match op {
        KvOp::Call { proc: service::NEW_ORDER_ID, args, .. } => {
            let n = args[4] as usize;
            n > 0 && args[5 + 3 * (n - 1)] > items
        }
        _ => false,
    }
}

/// Classify one answer: committed calls and intended rollbacks are
/// answered ops; any other `CallAborted` (a full pending-order ring, an
/// empty last-name bucket) and every shed or foreign reply is a failure.
pub fn classify(op: &KvOp, reply: &KvReply, items: u64) -> Result<(), String> {
    match reply {
        KvReply::CallOk(_) if !intended_rollback(op, items) => Ok(()),
        KvReply::CallAborted if intended_rollback(op, items) => Ok(()),
        other => Err(format!("{op:?} answered {other:?}")),
    }
}

/// `[violations, w_ytd, n, (next_o_id, no_first) * n]` -> per-district
/// `next_o_id`, or the violation count.
fn audit(client: &KvClient, w: u64) -> Result<Vec<u64>, String> {
    match client.call(service::audit_op(w)) {
        Ok(KvReply::CallOk(words)) if words[0] == 0 => {
            Ok(words[3..].chunks(2).map(|d| d[0]).collect())
        }
        Ok(KvReply::CallOk(words)) => Err(format!("warehouse {w}: {} audit violations", words[0])),
        other => Err(format!("audit of warehouse {w} answered {other:?}")),
    }
}

pub struct TpccService {
    tcfg: TpccConfig,
    pop: Population,
    pipeline: Pipeline<SiHtm>,
    client: KvClient,
    index_hits0: u64,
    /// Highest acked New-Order id per `(warehouse, district)`, merged
    /// from the terminals as they stop.
    max_o_id: Mutex<HashMap<(u64, u64), u64>>,
}

impl Workload for TpccService {
    const NAME: &'static str = "tpcc_service";
    const GENERATORS: usize = MAX_GENERATORS;

    fn setup(cfg: &Cfg) -> Self {
        let tcfg = tpcc_cfg(cfg.shrink);
        let (pipeline, pop) = tpcc_pipeline(&tcfg, cfg.shrink, &cfg.dir.join("wal-tpcc"));
        let client = pipeline.client();
        audit(&client, 0).expect("first request");
        let index_hits0 = txkv_schema::index_hits();
        TpccService { tcfg, pop, pipeline, client, index_hits0, max_o_id: Mutex::default() }
    }

    fn stream_hash(cfg: &Cfg) -> u64 {
        let tcfg = tpcc_cfg(cfg.shrink);
        let pop = service::populate(&tcfg);
        let mut rng = lane_rng(cfg.seed, 0);
        let mut h = StreamHash::new();
        let mut buf = Vec::new();
        // Transactions are ~50x heavier than kv ops; hash 1/50 as many.
        for _ in 0..crate::gen::HASHED_OPS / 50 {
            h.op(&service::gen_tx(&tcfg, &pop, &mut rng, 0).op, &mut buf);
        }
        h.get()
    }

    fn generate(&self, cfg: &Cfg, idx: usize, ctl: &Ctl, log: &mut GenLog) {
        // One terminal per warehouse: with both shards equally loaded the
        // 2PC prepare count repeats between runs (README, noise fact 5).
        let home_w = idx as u64 % WAREHOUSES;
        let mut rng = lane_rng(cfg.seed, idx as u64);
        let mut max_o_id: HashMap<(u64, u64), u64> = HashMap::new();
        blocking_loop(
            ctl,
            log,
            || service::gen_tx(&self.tcfg, &self.pop, &mut rng, home_w),
            |input: TxInput| match self.client.call(input.op.clone()) {
                Ok(reply) => {
                    if let (TxClass::NewOrder, KvReply::CallOk(words)) = (input.class, &reply) {
                        let e = max_o_id.entry((input.home_w, input.district)).or_insert(0);
                        *e = (*e).max(words[0]);
                    }
                    classify(&input.op, &reply, self.tcfg.items)
                }
                Err(e) => Err(format!("{} refused: {e}", input.class.name())),
            },
        );
        let mut all = self.max_o_id.lock().expect("o_id lock");
        for (k, v) in max_o_id {
            let e = all.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
    }

    fn teardown(self) {
        self.pipeline.shutdown();
    }

    fn finish(self, _cfg: &Cfg, _logs: &[GenLog]) -> Finish {
        let acked = self.max_o_id.into_inner().expect("o_id lock");
        let audits: Result<(), String> = (0..WAREHOUSES).try_for_each(|w| {
            let next_o_id = audit(&self.client, w)?;
            for (&(aw, d), &o_id) in acked.iter().filter(|((aw, _), _)| *aw == w) {
                if o_id >= next_o_id[d as usize] {
                    return Err(format!(
                        "acked order {o_id} of w{aw} d{d} is not below next_o_id {}",
                        next_o_id[d as usize]
                    ));
                }
            }
            Ok(())
        });
        let index_hits = txkv_schema::index_hits() - self.index_hits0;
        drop(self.client);
        let report = self.pipeline.shutdown();
        let oracle = audits.and_then(|()| service_oracle(&report));
        let mut counts = service_counts(&report);
        counts.push((
            "schema.index_hits_per_kop",
            1000.0 * index_hits as f64 / report.replies.max(1) as f64,
            "count",
        ));
        Finish { oracle, counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_separates_intended_rollbacks_from_refusals() {
        let tcfg = tpcc_cfg(16);
        let pop = service::populate(&tcfg);
        let mut rng = lane_rng(1, 0);
        let (mut new_orders, mut intended) = (0u64, 0u64);
        for _ in 0..50_000 {
            let t = service::gen_tx(&tcfg, &pop, &mut rng, 0);
            let rollback = intended_rollback(&t.op, tcfg.items);
            // Only a New-Order can be an intended rollback.
            assert!(!rollback || t.class == TxClass::NewOrder);
            if t.class == TxClass::NewOrder {
                new_orders += 1;
                intended += u64::from(rollback);
            }
            let ok = KvReply::CallOk(vec![1, 0]);
            if rollback {
                // The generator's invalid item: aborted is the answer,
                // committed would be wrong.
                assert!(classify(&t.op, &KvReply::CallAborted, tcfg.items).is_ok());
                assert!(classify(&t.op, &ok, tcfg.items).is_err());
            } else {
                // A valid call aborted = ring full / empty bucket: failed.
                assert!(classify(&t.op, &KvReply::CallAborted, tcfg.items).is_err());
                assert!(classify(&t.op, &ok, tcfg.items).is_ok());
            }
            assert!(classify(&t.op, &KvReply::Shed, tcfg.items).is_err());
        }
        let share = intended as f64 / new_orders as f64;
        assert!((share - 0.01).abs() < 0.005, "invalid-item share {share}");
    }

    #[test]
    fn mix_shares_within_one_percent() {
        let tcfg = tpcc_cfg(16);
        let pop = service::populate(&tcfg);
        let mut rng = lane_rng(2, 1);
        let n = 200_000u64;
        let mut seen = [0u64; 5];
        for _ in 0..n {
            seen[service::gen_tx(&tcfg, &pop, &mut rng, 1).class.index()] += 1;
        }
        let want = [
            (TxClass::NewOrder, 0.40),
            (TxClass::Payment, 0.40),
            (TxClass::OrderStatus, 0.04),
            (TxClass::Delivery, 0.12),
            (TxClass::StockLevel, 0.04),
        ];
        for (class, share) in want {
            let got = seen[class.index()] as f64 / n as f64;
            assert!((got - share).abs() < 0.01, "{}: {got} vs {share}", class.name());
        }
    }

    #[test]
    fn same_seed_same_transactions() {
        let cfg = |seed| Cfg { seed, shrink: 16, dir: std::path::Path::new(".") };
        assert_eq!(TpccService::stream_hash(&cfg(5)), TpccService::stream_hash(&cfg(5)));
        assert_ne!(TpccService::stream_hash(&cfg(5)), TpccService::stream_hash(&cfg(6)));
    }
}
