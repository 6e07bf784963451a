//! Chaos soak: sweep every backend × injection rate × workload under the
//! runtime fault injector and assert liveness plus workload invariants.
//!
//! Each cell installs a [`ChaosConfig`] (random capacity/conflict aborts at
//! access and commit points, randomized stalls inside the quiescence /
//! commit windows), drives a bank or B+-tree workload on real OS threads
//! through the standard run harness, then checks:
//!
//! - **Liveness**: the cell finishes within a generous deadline (the run
//!   executes on a monitor-observed thread; a hang is reported, the failing
//!   configuration is dumped to `CHAOS_FAILURE.json`, and the process exits
//!   non-zero — it does not wedge CI).
//! - **Invariants**: bank total balance conserved and every audit saw a
//!   consistent snapshot; B+-tree structural audit passes.
//!
//! Results land in `CHAOS_SOAK.json` (one row per cell, including the
//! watchdog / backoff / injection counters so a soak that only survived by
//! degrading to the SGL is visible as such).
//!
//! Usage: `cargo run --release --bin chaos_soak [-- --smoke]`
//! (`--smoke` is the short CI variant: fewer rates, shorter cells).

use bench::cell::{self, Fields};
use bench::{Backend, BackendVisitor};
use htm_sim::HtmConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_api::{BackoffPolicy, TmBackend};
use txmem::hooks::chaos::{self, ChaosConfig, ChaosReport};
use txmem::LineAlloc;
use workloads::bank::{Bank, BankWorker};
use workloads::btree::{self, BTreeWorker, TxBTree};
use workloads::driver::{run, RunConfig, RunReport};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Bank,
    BTree,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Bank => "bank",
            Workload::BTree => "btree",
        }
    }
}

#[derive(Debug, Clone)]
struct Cell {
    backend: Backend,
    workload: Workload,
    rate: f64,
    threads: usize,
    warmup: Duration,
    duration: Duration,
}

impl Cell {
    fn chaos_config(&self, index: usize) -> ChaosConfig {
        ChaosConfig {
            seed: 0xC405 ^ (index as u64).wrapping_mul(0x9E37_79B9),
            abort_access: self.rate,
            abort_commit: self.rate / 2.0,
            capacity_share: 0.5,
            stall: self.rate,
            stall_max_us: 20,
            panic: 0.0,
        }
    }

    fn fields(&self) -> Fields {
        Fields::new()
            .str("backend", self.backend.name())
            .str("workload", self.workload.name())
            .num("rate", self.rate)
            .num("threads", self.threads)
    }
}

struct CellOutcome {
    report: RunReport,
    chaos: ChaosReport,
    invariant_err: Option<String>,
}

/// Drive one cell's workload on a fresh backend and check its invariant.
impl BackendVisitor for &Cell {
    type Out = (RunReport, Option<String>);
    fn visit<B: TmBackend>(self, mk: impl Fn() -> B) -> Self::Out {
        let (backend, cell) = (&mk(), self);
        let run_cfg = RunConfig::new(cell.threads, cell.warmup, cell.duration);
        match cell.workload {
            Workload::Bank => {
                const ACCOUNTS: u64 = 64;
                const INITIAL: u64 = 1000;
                let bank = Bank::build(backend.memory(), 0, ACCOUNTS, INITIAL);
                let expected = ACCOUNTS * INITIAL;
                let broken = Arc::new(AtomicBool::new(false));
                let report = run(backend, &run_cfg, |i| {
                    let mut w = BankWorker::new(bank, 0.2, expected, 0xBA2C ^ i as u64);
                    let broken = Arc::clone(&broken);
                    move |t: &mut B::Thread| {
                        w.run_op(t);
                        if w.broken_audits != 0 {
                            broken.store(true, Ordering::Relaxed);
                        }
                    }
                });
                let total = bank.total(backend.memory());
                let err = if total != expected {
                    Some(format!("bank total drifted: {total} != {expected}"))
                } else if broken.load(Ordering::Relaxed) {
                    Some("bank audit observed an inconsistent snapshot".to_string())
                } else {
                    None
                };
                (report, err)
            }
            Workload::BTree => {
                const KEYS: u64 = 512;
                let alloc = Arc::new(LineAlloc::new(0, backend.memory().len() as u64));
                let tree = TxBTree::build(backend.memory(), &alloc, 1..=KEYS);
                let threads = cell.threads;
                let report = run(backend, &run_cfg, |i| {
                    let mut w =
                        BTreeWorker::new(tree, Arc::clone(&alloc), KEYS, 0.5, 0.1, i, threads)
                            .with_scan_limit(64);
                    move |t: &mut B::Thread| w.run_op(t)
                });
                // `audit` panics on any structural violation; the monitor thread
                // turns that panic into a reported cell failure.
                let keys = tree.audit(backend.memory());
                let err = if keys.is_empty() {
                    Some("btree audit returned an empty tree".to_string())
                } else {
                    None
                };
                (report, err)
            }
        }
    }
}

/// Execute a cell under the chaos injector and a liveness monitor.
fn monitored(cell: &Cell, index: usize, deadline: Duration) -> Result<CellOutcome, String> {
    let words = match cell.workload {
        Workload::Bank => Bank::memory_words(64),
        Workload::BTree => btree::memory_words(512 * 4),
    };
    let guard = chaos::install(cell.chaos_config(index));
    let (c, backend) = (cell.clone(), cell.backend);
    // The soak opts into the contention manager (default-off on the bench
    // path): injected abort storms are exactly the regime it exists for.
    let backoff = BackoffPolicy::exponential();
    match cell::watch(deadline, move || backend.with(HtmConfig::default(), words, backoff, &c)) {
        Ok((report, invariant_err)) => {
            Ok(CellOutcome { report, chaos: guard.report(), invariant_err })
        }
        Err(detail) => {
            // The caller exits on any error; a hung worker may still be
            // running under the injector, so it stays installed until then.
            std::mem::forget(guard);
            Err(detail)
        }
    }
}

fn outcome_fields(o: &CellOutcome) -> Fields {
    let t = &o.report.total;
    Fields::new()
        .fixed("throughput", o.report.throughput(), 0)
        .num("commits", t.commits)
        .num("aborts", t.aborts())
        .num("sgl_commits", t.sgl_commits)
        .num("sgl_acquisitions", t.sgl_acquisitions)
        .num("starved_threads", o.report.starved_threads)
        .num("watchdog_quiesce_trips", t.watchdog_quiesce_trips)
        .num("watchdog_drain_trips", t.watchdog_drain_trips)
        .num("backoffs", t.backoffs)
        .num("injected_aborts", o.chaos.injected_aborts)
        .num("injected_stalls", o.chaos.injected_stalls)
}

fn fail(cell: &Cell, detail: &str, outcome: Option<&CellOutcome>) -> ! {
    let observed = outcome.map(outcome_fields).unwrap_or_default();
    cell::fail("CHAOS_FAILURE.json", "chaos_soak", &cell.fields(), detail, &observed)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rates: &[f64] = if smoke { &[0.005, 0.05] } else { &[0.001, 0.01, 0.05] };
    let (threads, warmup, duration, deadline) = if smoke {
        (4, Duration::from_millis(20), Duration::from_millis(60), Duration::from_secs(20))
    } else {
        (8, Duration::from_millis(20), Duration::from_millis(350), Duration::from_secs(30))
    };

    let mut cells = Vec::new();
    for &backend in &Backend::ALL {
        for &rate in rates {
            for workload in [Workload::Bank, Workload::BTree] {
                cells.push(Cell { backend, workload, rate, threads, warmup, duration });
            }
        }
    }

    let mut rows = Vec::new();
    let t0 = Instant::now();
    for (index, cell) in cells.iter().enumerate() {
        match monitored(cell, index, deadline) {
            Ok(outcome) => {
                if let Some(err) = &outcome.invariant_err {
                    fail(cell, err, Some(&outcome));
                }
                if outcome.report.total.commits == 0 {
                    fail(cell, "no forward progress (zero commits)", Some(&outcome));
                }
                let row = cell.fields().extend(&outcome_fields(&outcome));
                println!("ok   {}", row.render());
                rows.push(row);
            }
            Err(detail) => fail(cell, &detail, None),
        }
    }
    bench::schema::CHAOS_SOAK.write_rows("CHAOS_SOAK.json", &rows).expect("write CHAOS_SOAK.json");
    println!(
        "chaos soak passed: {} cells ({} backends x {} rates x 2 workloads) in {:.1?} -> CHAOS_SOAK.json",
        cells.len(),
        Backend::ALL.len(),
        rates.len(),
        t0.elapsed()
    );
}
