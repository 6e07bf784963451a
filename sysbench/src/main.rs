//! `sysbench` — the repository's system benchmark (see `README.md` beside
//! this package and `BENCHMARK.json` at the repository root).
//!
//! One invocation runs one workload through the fixed protocol — pre-warm
//! spin, timed set-up, discarded warm-up, measured slices, oracle — and
//! prints every metric by name with its unit; the last line of standard
//! output is the machine-readable result.
//!
//! ```text
//! sysbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! sysbench --repeat [N] [--seed N] [--seconds S] [--smoke]
//! sysbench --benchmark-json
//! ```

mod contract;
mod env;
mod gen;
mod harness;
mod ladder;
mod stats;
mod trace;
mod workloads;

use contract::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use harness::{Plan, RunLog, Slice};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::kv_read_uds::KvReadUds;
use workloads::kv_write_sync::KvWriteSync;
use workloads::tm_hashmap_large::TmHashmapLarge;
use workloads::tpcc_service::TpccService;
use workloads::{Cfg, Count, Workload};

/// Measured slices of an untraced run; each timed metric is their median.
const SLICES: usize = 10;
/// Slices of a traced run, traced in the order off-on-on-off, so that the
/// tracing overhead is a same-process comparison in which a linear drift
/// cancels.
const TRACE_SLICES: usize = 12;
/// Fewest and most set-ups per run; `setup_s` is their median.
const SETUP_REPS: (usize, usize) = (3, 7);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: contract::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: None,
        benchmark_json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--repeat" => {
                // The count is optional: three sets when it is left out.
                let n = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => 3,
                };
                if n < 2 {
                    return Err("--repeat needs at least 2 sets to compare".into());
                }
                a.repeat = Some(n);
            }
            "--benchmark-json" => a.benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The durations of one run, full or smoke.
struct Protocol {
    prewarm: Duration,
    /// (fewest, most) set-ups.
    setups: (usize, usize),
    plan: Plan,
    shrink: u64,
}

fn protocol(args: &Args) -> Protocol {
    let slices = match (args.smoke, args.trace) {
        (true, _) => 2,
        (false, true) => TRACE_SLICES,
        (false, false) => SLICES,
    };
    let traced = (0..slices).map(|k| args.trace && matches!(k % 4, 1 | 2)).collect();
    if args.smoke {
        // Same code path, 2 slices x 0.5 s on 1/16-size data.
        return Protocol {
            prewarm: Duration::from_millis(300),
            setups: (1, 1),
            plan: Plan {
                warm: Duration::from_millis(300),
                slice: Duration::from_millis(500),
                traced,
            },
            shrink: 16,
        };
    }
    Protocol {
        prewarm: Duration::from_secs(2),
        setups: SETUP_REPS,
        plan: Plan {
            warm: Duration::from_secs(3),
            // A traced run's slices are half as long: the ladder needs the time.
            slice: Duration::from_secs_f64(
                args.seconds / SLICES as f64 / if args.trace { 2.0 } else { 1.0 },
            ),
            traced,
        },
        shrink: 1,
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Count>,
}

fn slice_table(run: &RunLog) {
    println!("slice  traced       ops    ops/s   p50_us   p95_us   p99_us  cpu_ms/kop");
    for (k, s) in run.slices.iter().enumerate() {
        println!(
            "{:>5}  {:>6}  {:>8}  {:>7.0}  {:>7.1}  {:>7.1}  {:>7.1}  {:>10.4}",
            k + 1,
            s.traced,
            s.ops,
            s.throughput(),
            s.p50_ns / 1e3,
            s.p95_ns / 1e3,
            s.p99_ns / 1e3,
            cpu_ms_per_kop(s)
        );
    }
}

fn cpu_ms_per_kop(s: &Slice) -> f64 {
    1e6 * s.cpu_s / s.ops.max(1) as f64
}

fn run_workload<W: Workload>(args: &Args) -> Outcome {
    assert!(
        std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2,
        "the run protocol needs two cores"
    );
    let proto = protocol(args);
    let dir = env::RunDir::create().expect("create sysbench/.run (run from the checkout root)");
    let cfg = Cfg { seed: args.seed, shrink: proto.shrink, dir: dir.path() };

    let host = env::prewarm(proto.prewarm);
    println!("workload         {}", W::NAME);
    println!("seed             {}", cfg.seed);
    println!("env.nproc        {}", host.nproc);
    println!("env.calib_ns     {:.4}", host.calib_ns);
    println!("env.loadavg      {}", host.loadavg);
    println!("env.stream_hash  {:016x}", W::stream_hash(&cfg));

    // Set-up, several times over — more often when it is quick, so that
    // `setup_s` is a median over at least a second of work. The last
    // instance is the one measured.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = None;
    while setup_s.len() < proto.setups.0
        || (setup_s.len() < proto.setups.1 && setup_s.iter().sum::<f64>() < 1.0)
    {
        if let Some(prev) = w.take() {
            W::teardown(prev);
        }
        let t0 = Instant::now();
        w = Some(W::setup(&cfg));
        setup_s.push(t0.elapsed().as_secs_f64());
        println!("setup[{}]         {:.4} s", setup_s.len() - 1, setup_s[setup_s.len() - 1]);
    }
    let w = w.expect("at least one set-up");

    // Latency samples are u32 ns; room for 400k ops/s per generator.
    let seconds = proto.plan.slice.as_secs_f64() * proto.plan.traced.len() as f64;
    let capacity = (seconds * 400_000.0) as usize;
    let run = harness::run_slices(&proto.plan, W::GENERATORS, capacity, |i, ctl, log| {
        w.generate(&cfg, i, ctl, log)
    });
    slice_table(&run);

    let fin = w.finish(&cfg, &run.logs);
    let (attempted, mut failed) = (run.attempted().max(1), run.failed());
    if let Some(f) = run.first_failure() {
        println!("first failure    {f}");
    }
    if let Err(e) = &fin.oracle {
        // An oracle violation taints every op of the run.
        println!("oracle           VIOLATED: {e}");
        failed = attempted;
    } else {
        println!("oracle           ok");
    }
    let starved = run.slices.iter().any(|s| s.ops == 0);
    if starved {
        println!("a slice answered no ops");
    }

    let metrics = if args.trace {
        let mut m = fin.counts;
        m.extend(trace::harness_metrics(&run));
        m.extend(ladder::run::<W>(&cfg, &mut trace::Recorder::new(W::NAME, cfg.seed, &run)));
        m
    } else {
        // The p99 is printed for the reader, not gated: on a shared host it
        // follows the disk's and the scheduler's tail (README, "Bounds").
        let (p95_us, p99_us) = (|s: &Slice| s.p95_ns / 1e3, |s: &Slice| s.p99_ns / 1e3);
        let (q1, q3) = run.quartiles_of(p95_us);
        println!("lat_p95_us quartiles across slices: {q1:.1} .. {q3:.1}");
        let (q1, q3) = run.quartiles_of(p99_us);
        let p99 = run.median_of(false, p99_us);
        println!("lat_p99_us (not gated): {p99:.1}, quartiles across slices {q1:.1} .. {q3:.1}");
        vec![
            ("throughput_ops_s", run.median_of(false, Slice::throughput), "ops/s"),
            ("lat_p50_us", run.median_of(false, |s| s.p50_ns / 1e3), "us"),
            ("lat_p95_us", run.median_of(false, p95_us), "us"),
            ("cpu_ms_per_kop", run.median_of(false, cpu_ms_per_kop), "ms/kop"),
            ("peak_rss_mb", env::peak_rss_mb(), "MB"),
            ("setup_s", stats::median(&setup_s), "s"),
        ]
    };
    Outcome { correct: failed == 0 && !starved, attempted, failed, metrics }
}

/// Print the metrics by name, then the result line the driver reads.
fn report(out: &Outcome, listed: &[Metric]) {
    let mut json = String::new();
    for m in listed {
        // A metric the workload has no source for reads 0 (per-layer only:
        // a layer the workload does not exercise did no work).
        let (value, unit) = out
            .metrics
            .iter()
            .find(|(n, _, _)| *n == m.name)
            .map_or((0.0, m.unit), |&(_, v, u)| (v, u));
        assert_eq!(unit, m.unit, "unit of {}", m.name);
        println!("{:<36} {:>16.4} {}", m.name, value, unit);
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}", m.name));
    }
    for (name, ..) in &out.metrics {
        assert!(listed.iter().any(|m| m.name == *name), "{name} is not in BENCHMARK.json");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct, out.attempted, out.failed
    );
}

fn dispatch(args: &Args, name: &str) -> Result<Outcome, String> {
    Ok(match name {
        KvReadUds::NAME => run_workload::<KvReadUds>(args),
        KvWriteSync::NAME => run_workload::<KvWriteSync>(args),
        TpccService::NAME => run_workload::<TpccService>(args),
        TmHashmapLarge::NAME => run_workload::<TmHashmapLarge>(args),
        other => {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {other}; known: {}", known.join(", ")));
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sysbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.benchmark_json {
        print!("{}", contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(sets) = args.repeat {
        return contract::repeat(sets, args.seed, args.seconds, args.smoke);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("sysbench: --workload <name>, --repeat <sets> or --benchmark-json is required");
        return ExitCode::from(2);
    };
    match dispatch(&args, name) {
        Ok(out) => {
            report(&out, if args.trace { PER_LAYER } else { END_TO_END });
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sysbench: {e}");
            ExitCode::from(2)
        }
    }
}
