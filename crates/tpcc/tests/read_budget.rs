//! Simulated accesses per TPC-C call: the balanced mix runs through
//! [`ProcCtx`] — the context every service call executes in — over a
//! `Tx` that counts reads and writes straight off memory. Deterministic
//! (fixed seed, one store, no backend), so the counts are exact and
//! pinned: a change that makes descents read more, or that writes
//! anything differently, fails here before any timing run.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tm_api::{Abort, Tx};
use tpcc::service::{self, TxClass};
use tpcc::{TpccConfig, TxMix};
use txkv::{KvOp, KvStore, ProcCtx, Scope};
use txmem::{Addr, TxMemory};

/// A `Tx` over raw memory that counts every access and keeps an undo
/// log, so a call that user-aborts leaves memory as it found it.
struct CountingTx<'a> {
    memory: &'a TxMemory,
    reads: u64,
    writes: u64,
    undo: Vec<(Addr, u64)>,
}

impl Tx for CountingTx<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        self.reads += 1;
        Ok(self.memory.load(addr))
    }

    fn write(&mut self, addr: Addr, val: u64) -> Result<(), Abort> {
        self.writes += 1;
        self.undo.push((addr, self.memory.load(addr)));
        self.memory.store(addr, val);
        Ok(())
    }
}

/// The `tpcc_service` benchmark's balanced mix on one small warehouse.
fn small_cfg() -> TpccConfig {
    TpccConfig {
        warehouses: 1,
        districts_per_w: 10,
        customers_per_d: 30,
        items: 1_000,
        order_ring: 64,
        initial_orders: 24,
        delivered_prefix: 16,
        history_ring: 64,
        delivery_batch: 4,
        remote_payment_pct: 0,
        remote_item_pct: 0,
        invalid_item_pct: 1,
        by_lastname_pct: 60,
        mix: TxMix { new_order: 40, payment: 40, delivery: 12, order_status: 4, stock_level: 4 },
    }
}

/// `(calls, reads, writes)` per class over `calls` measured calls after
/// `warm` unmeasured ones.
fn run(warm: usize, calls: usize) -> [(u64, u64, u64); 5] {
    let cfg = small_cfg();
    cfg.validate();
    let pop = service::populate(&cfg);
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    service::item_rows(&cfg, &mut |k, v| pairs.push((k, v)));
    service::warehouse_rows(&cfg, &pop, 0, &mut |k, v| pairs.push((k, v)));
    pairs.sort_unstable_by_key(|&(k, _)| k);
    let words = 1u64 << 21;
    let memory = TxMemory::new(words as usize);
    let store = KvStore::create_with(&memory, 0, words, pairs.into_iter());
    let procs = service::registry(&cfg);
    let scope = Scope::single(0, procs.replicated_below());
    let mut scratch = store.new_batch_scratch(txkv::PROC_WRITE_MAX);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut per_class = [(0u64, 0u64, 0u64); 5];
    for i in 0..warm + calls {
        let input = service::gen_tx(&cfg, &pop, &mut rng, 0);
        let KvOp::Call { proc, args, .. } = &input.op else { unreachable!("TPC-C is calls") };
        let p = procs.get(*proc).expect("registered procedure");
        let mut tx = CountingTx { memory: &memory, reads: 0, writes: 0, undo: Vec::new() };
        scratch.reset();
        match p.run(&mut ProcCtx::new(&store, &mut tx, &mut scratch, scope, None, None), args) {
            Ok(_) => scratch.refill(store.alloc()),
            Err(Abort::User) => {
                for &(addr, old) in tx.undo.iter().rev() {
                    memory.store(addr, old);
                }
            }
            Err(e) => panic!("a raw transaction cannot abort: {e:?}"),
        }
        if i >= warm {
            let c = &mut per_class[input.class.index()];
            *c = (c.0 + 1, c.1 + tx.reads, c.2 + tx.writes);
        }
    }
    per_class
}

/// Reads per call fall to well under two thirds of what a descent per
/// key from the root with linear node scans cost; writes do not move
/// by one word.
///
/// Before binary-searched nodes and the per-attempt finger (same seed,
/// same calls): 1 878.3 reads and 78.5 writes per call on average —
/// 3 756 683 reads and 157 031 writes over the 2 000 measured calls,
/// taken after the order rings have wrapped.
#[test]
fn balanced_mix_reads_per_call_within_budget() {
    const CALLS: usize = 2_000;
    const PARENT_READS: u64 = 3_756_683;
    const PARENT_WRITES: u64 = 157_031;
    let per_class = run(2_000, CALLS);
    for (class, (n, r, w)) in TxClass::ALL.iter().zip(per_class) {
        eprintln!(
            "{:>12}: {n:>4} calls, {:>8.1} reads/call, {:>6.1} writes/call",
            class.name(),
            r as f64 / n.max(1) as f64,
            w as f64 / n.max(1) as f64
        );
    }
    let reads: u64 = per_class.iter().map(|c| c.1).sum();
    let writes: u64 = per_class.iter().map(|c| c.2).sum();
    eprintln!("total: {reads} reads, {writes} writes over {CALLS} calls");
    assert!(
        reads * 10 <= PARENT_READS * 6,
        "{:.1} reads per call, budget {:.1}",
        reads as f64 / CALLS as f64,
        0.6 * PARENT_READS as f64 / CALLS as f64
    );
    assert_eq!(writes, PARENT_WRITES, "writes per call must not change");
}
