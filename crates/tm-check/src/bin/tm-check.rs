//! tm-check CLI: bounded schedule-exploration sweeps for CI and soak runs.
//!
//! ```text
//! tm-check [--backend htm|si-htm|p8tm|silo|all]
//!          [--workload counter|bank|btree|txkv|xshard|recovery|typed-index|all]
//!          [--threads N] [--txns N] [--seeds N] [--seed-start N] [--max-steps N]
//!          [--fault-access PER_MILLE] [--fault-commit PER_MILLE]
//!          [--break-si] [--break-2pc] [--break-index] [--expect-violation] [--out FILE]
//! ```
//!
//! Exit codes: 0 = clean (or, with `--expect-violation`, a violation was
//! found as demanded), 1 = unexpected result, 2 = usage error.

use std::process::ExitCode;
use tm_check::{BackendKind, CheckConfig, FaultPlan, WorkloadKind};

struct Args {
    backends: Vec<BackendKind>,
    workloads: Vec<WorkloadKind>,
    threads: usize,
    txns: usize,
    seeds: u64,
    seed_start: u64,
    max_steps: u64,
    faults: FaultPlan,
    break_si: bool,
    break_2pc: bool,
    break_index: bool,
    expect_violation: bool,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            backends: vec![BackendKind::SiHtm],
            workloads: vec![WorkloadKind::Bank],
            threads: 3,
            txns: 8,
            seeds: 100,
            seed_start: 0,
            max_steps: 500_000,
            faults: FaultPlan::default(),
            break_si: false,
            break_2pc: false,
            break_index: false,
            expect_violation: false,
            out: "tm-check-failure.txt".to_string(),
        }
    }
}

const USAGE: &str = "\
tm-check: deterministic schedule exploration + history checking for the TM stack

USAGE:
    tm-check [OPTIONS]

OPTIONS:
    --backend KIND      htm | si-htm | p8tm | silo | all        [default: si-htm]
    --workload KIND     counter | bank | btree | txkv | xshard | recovery |
                        typed-index | all                       [default: bank]
    --threads N         virtual threads per run                 [default: 3]
    --txns N            transactions per thread                 [default: 8]
    --seeds N           seeds per (backend, workload) combo     [default: 100]
    --seed-start N      first seed                              [default: 0]
    --max-steps N       yield-point budget per run              [default: 500000]
    --fault-access N    forced-abort probability at accesses, per mille
    --fault-commit N    forced-abort probability at commit, per mille
    --break-si          disable SI-HTM's quiescence wait (seeded bug)
    --break-2pc         run the 2PC coordinator over one leg of two
                        (xshard, recovery; seeded bug)
    --break-index       skip typed-index secondary-index maintenance (seeded bug)
    --expect-violation  exit 0 iff a violation IS found (CI negative test)
    --out FILE          write the shrunk failing schedule here
                        [default: tm-check-failure.txt]
    --help              show this help
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--backend" => {
                args.backends = match value("--backend")?.as_str() {
                    "htm" => vec![BackendKind::Htm],
                    "si-htm" | "sihtm" => vec![BackendKind::SiHtm],
                    "p8tm" => vec![BackendKind::P8tm],
                    "silo" => vec![BackendKind::Silo],
                    "all" => BackendKind::ALL.to_vec(),
                    other => return Err(format!("unknown backend '{other}'")),
                };
            }
            "--workload" => {
                args.workloads = match value("--workload")?.as_str() {
                    "counter" => vec![WorkloadKind::Counter],
                    "bank" => vec![WorkloadKind::Bank],
                    "btree" => vec![WorkloadKind::Btree],
                    "txkv" => vec![WorkloadKind::Txkv],
                    "xshard" => vec![WorkloadKind::XShard],
                    "recovery" => vec![WorkloadKind::Recovery],
                    "typed-index" | "typedindex" => vec![WorkloadKind::TypedIndex],
                    "all" => WorkloadKind::ALL.to_vec(),
                    other => return Err(format!("unknown workload '{other}'")),
                };
            }
            "--threads" => args.threads = num(&value("--threads")?)? as usize,
            "--txns" => args.txns = num(&value("--txns")?)? as usize,
            "--seeds" => args.seeds = num(&value("--seeds")?)?,
            "--seed-start" => args.seed_start = num(&value("--seed-start")?)?,
            "--max-steps" => args.max_steps = num(&value("--max-steps")?)?,
            "--fault-access" => {
                args.faults.access_abort_per_mille = num(&value("--fault-access")?)? as u32
            }
            "--fault-commit" => {
                args.faults.commit_abort_per_mille = num(&value("--fault-commit")?)? as u32
            }
            "--break-si" => args.break_si = true,
            "--break-2pc" => args.break_2pc = true,
            "--break-index" => args.break_index = true,
            "--expect-violation" => args.expect_violation = true,
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.threads == 0 || args.threads > 16 {
        return Err("--threads must be in 1..=16".to_string());
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("'{s}' is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tm-check: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut violation = None;
    'sweep: for &backend in &args.backends {
        for &workload in &args.workloads {
            let cfg = CheckConfig {
                backend,
                workload,
                threads: args.threads,
                txns_per_thread: args.txns,
                max_steps: args.max_steps,
                faults: args.faults,
                break_si: args.break_si,
                break_2pc: args.break_2pc,
                break_index: args.break_index,
            };
            let range = args.seed_start..args.seed_start + args.seeds;
            match tm_check::check_seeds(&cfg, range) {
                Ok(agg) => {
                    println!(
                        "ok   {:>6} x {:<7} seeds={} txns={} steps={}{}",
                        backend.name(),
                        workload.name(),
                        agg.seeds,
                        agg.committed_txns,
                        agg.steps,
                        if agg.overflowed > 0 {
                            format!("  ({} overflowed/inconclusive)", agg.overflowed)
                        } else {
                            String::new()
                        }
                    );
                }
                Err(f) => {
                    println!(
                        "FAIL {:>6} x {:<7} seed={}: {}",
                        backend.name(),
                        workload.name(),
                        f.seed,
                        f.message
                    );
                    violation = Some(f);
                    break 'sweep;
                }
            }
        }
    }
    match (violation, args.expect_violation) {
        (None, false) => ExitCode::SUCCESS,
        (None, true) => {
            eprintln!("tm-check: expected a violation but every seed passed");
            ExitCode::from(1)
        }
        (Some(f), expected) => {
            eprintln!("\n{}", f.pretty);
            if let Err(e) = std::fs::write(&args.out, &f.pretty) {
                eprintln!("tm-check: could not write {}: {e}", args.out);
            } else {
                eprintln!("shrunk schedule written to {}", args.out);
            }
            if expected {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}
