//! `kv_write_sync`: 100 % updates against a durable pipeline, in-process.
//!
//! `KvClient` -> `Pipeline::start_durable` (1 shard, `DurabilityMode::Sync`,
//! group commit 32, a checkpoint every 50 000 appends) with 2^18 keys, the
//! small working set; one generator thread, window 32. The same pipeline,
//! store and backend layers as `kv_read_uds` used the other way: the ROT
//! update path with two concurrent executors, the quiescence wait, the
//! commit lock spanning execute + append, WAL append, group commit,
//! `PendingAck` parking and checkpoints do the work; the wire and the RO
//! batcher do none. A gain bought for reads at writers' cost (or the
//! reverse) shows as a regression here against `kv_read_uds`.
//!
//! Flush policy: Sync (ack after `fdatasync`), WAL files in the run
//! directory inside the checkout — fsync time is this sandbox's virtual
//! disk, not a device's.

use super::kv_read_uds::store_words;
use super::{pipeline_cfg, service_counts, service_oracle, si_htm, Cfg, Finish, Workload};
use crate::gen::{hash_kv_stream, KvStream, KvWriteGen, KvWriteLayout};
use crate::harness::{windowed_loop, Ctl, GenLog};
use si_htm::SiHtm;
use std::path::Path;
use std::sync::Arc;
use tm_api::TmBackend;
use txkv::{
    DurabilityConfig, DurabilityMode, KvClient, KvOp, KvReply, KvStore, Pipeline, ShardMap, WalSet,
};

pub const KEYS: u64 = 1 << 18;
const CHECKPOINT_EVERY: u64 = 50_000;

pub fn durability(mode: DurabilityMode, dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        group_commit_max: 32,
        checkpoint_every: CHECKPOINT_EVERY,
        ..DurabilityConfig::new(mode, dir)
    }
}

/// A durable single-shard pipeline over a store loaded with `stream`'s
/// initial values, which are made durable up front as a base checkpoint:
/// the directory is recoverable from the first appended record on.
pub fn durable_pipeline(stream: KvStream, mode: DurabilityMode, dir: &Path) -> Pipeline<SiHtm> {
    let words = store_words(stream.keys());
    let backend = si_htm(words);
    let entries: Vec<(u64, u64)> = (0..stream.keys()).map(|k| (k, stream.initial(k))).collect();
    let store = KvStore::create_with(backend.memory(), 0, words as u64, entries.iter().copied());
    let _ = std::fs::remove_dir_all(dir);
    let wal: Arc<WalSet> = WalSet::open(&durability(mode, dir), 1).expect("open WAL");
    wal.install_checkpoint(0, &entries).expect("base checkpoint");
    Pipeline::start_durable(vec![(backend, store)], ShardMap::hash(1), pipeline_cfg(), wal)
}

/// Every update has one right answer, whatever the interleaving.
pub fn check_reply(class: txkv::OpClass, reply: &KvReply) -> Result<(), String> {
    use txkv::OpClass::{Cas, MultiAdd, Put};
    match (class, reply) {
        (Put | MultiAdd, KvReply::Done { .. }) | (Cas, KvReply::CasOk) => Ok(()),
        _ => Err(format!("{} answered {reply:?}", class.name())),
    }
}

pub struct KvWriteSync {
    layout: KvWriteLayout,
    pipeline: Pipeline<SiHtm>,
    client: KvClient,
}

impl KvWriteSync {
    fn wal_dir(cfg: &Cfg) -> std::path::PathBuf {
        cfg.dir.join("wal-kv")
    }
}

impl Workload for KvWriteSync {
    const NAME: &'static str = "kv_write_sync";
    const GENERATORS: usize = 1;

    fn setup(cfg: &Cfg) -> Self {
        let layout = KvWriteLayout::new(KEYS / cfg.shrink);
        let pipeline =
            durable_pipeline(KvStream::Write(layout), DurabilityMode::Sync, &Self::wal_dir(cfg));
        let client = pipeline.client();
        let first = client.call(KvOp::Put { key: 0, val: 0 }).expect("first request");
        assert_eq!(first, KvReply::Done { changed: false }, "first request");
        KvWriteSync { layout, pipeline, client }
    }

    fn stream_hash(cfg: &Cfg) -> u64 {
        let mut g = KvWriteGen::new(cfg.seed, 0, KvWriteLayout::new(KEYS / cfg.shrink));
        hash_kv_stream(|| g.next_op())
    }

    fn kv_stream(cfg: &Cfg) -> KvStream {
        KvStream::Write(KvWriteLayout::new(KEYS / cfg.shrink))
    }

    fn generate(&self, cfg: &Cfg, idx: usize, ctl: &Ctl, log: &mut GenLog) {
        let mut g = KvWriteGen::new(cfg.seed, idx as u64, self.layout);
        windowed_loop(
            ctl,
            log,
            || g.next_op(),
            |op| {
                let class = op.class();
                match self.client.submit(op) {
                    Ok(pending) => Ok((pending, class)),
                    Err(e) => Err(format!("{} refused: {e}", class.name())),
                }
            },
            |pending, class| check_reply(class, &pending.wait()),
        );
    }

    fn teardown(self) {
        self.pipeline.shutdown();
    }

    fn finish(self, cfg: &Cfg, _logs: &[GenLog]) -> Finish {
        let l = self.layout;
        // Nothing is in flight: every sent op was answered, and in Sync
        // mode answered means durable. So the live store is the state a
        // recovery from the WAL directory must reproduce.
        let live = {
            let mut t = self.pipeline.backend().register_thread();
            self.pipeline.store().snapshot(&mut t)
        };
        let report = self.pipeline.shutdown();
        let check = || -> Result<(), String> {
            service_oracle(&report)?;
            let bank = live
                .iter()
                .filter(|&&(k, _)| k >= l.cas_end)
                .fold(0u64, |acc, &(_, v)| acc.wrapping_add(v));
            if bank != l.bank_total() {
                return Err(format!("bank sum {bank} != {}", l.bank_total()));
            }
            if live.len() as u64 != l.keys {
                return Err(format!("{} live keys, loaded {}", live.len(), l.keys));
            }
            if let Some(&(k, v)) =
                live.iter().find(|&&(k, v)| k >= l.put_end && k < l.cas_end && v != k)
            {
                return Err(format!("cas key {k} holds {v}"));
            }
            let w = &report.wal;
            if w.sync_acks_early + w.wal_dead_sheds + w.degraded_sheds + w.checkpoint_failures > 0 {
                return Err(format!("WAL misbehaved: {w:?}"));
            }
            let words = store_words(l.keys);
            let (domains, _) = txkv::recover(
                &Self::wal_dir(cfg),
                &ShardMap::hash(1),
                |_| si_htm(words),
                0,
                words as u64,
            )
            .map_err(|e| format!("recovery failed: {e}"))?;
            let (backend, store) = &domains[0];
            let recovered = store.snapshot(&mut backend.register_thread());
            if recovered != live {
                let diff = recovered.iter().zip(&live).position(|(a, b)| a != b);
                return Err(format!(
                    "recovered store differs from the live one (first difference at entry {diff:?}, \
                     {} vs {} entries)",
                    recovered.len(),
                    live.len()
                ));
            }
            Ok(())
        };
        Finish { oracle: check(), counts: service_counts(&report) }
    }
}
