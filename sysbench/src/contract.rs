//! The names, units and bounds `BENCHMARK.json` publishes, as constants:
//! the file at the repository root is `sysbench --benchmark-json`
//! verbatim (a unit test holds them together), and `--repeat` checks
//! measured run-to-run deviation against the same bounds.

use crate::stats::{iqr_share, median, worst_pairwise};
use std::process::{Command, ExitCode, Stdio};

pub struct WorkloadDesc {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse. Measured, see README "Bounds".
    pub bound: f64,
}

/// How long one run measures, seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[WorkloadDesc] = &[
    WorkloadDesc {
        name: "kv_read_uds",
        why: "95 % reads over a Unix socket, 2^20 keys: frame codec, reactor, tenant gate, queue, reply slot and RO batching do the work; WAL and 2PC do none",
    },
    WorkloadDesc {
        name: "kv_write_sync",
        why: "100 % updates in-process, Sync WAL, 2^18 keys: ROT update path, quiescence wait, commit lock, WAL append, group commit and checkpoints do the work; wire and RO batcher do none",
    },
    WorkloadDesc {
        name: "tpcc_service",
        why: "balanced TPC-C procedures, 2 warehouses on 2 shards: typed keys, last-name index, procedure dispatch, XLock, 2PC and 40-key ROT write sets do the work; per-request fixed costs do not matter",
    },
    WorkloadDesc {
        name: "tm_hashmap_large",
        why: "paper 4.1 large-footprint hash map on raw SI-HTM, ~100 reads per transaction past the 64-line TMCAM: htm-sim access, line directory, ROT begin/commit and safety wait are all the work",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher, bound }
}

pub const END_TO_END: &[Metric] = &[
    e2e("throughput_ops_s", "ops/s", true, 0.25),
    e2e("lat_p50_us", "us", false, 0.25),
    e2e("lat_p95_us", "us", false, 0.25),
    e2e("cpu_ms_per_kop", "ms/kop", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.06),
    e2e("setup_s", "s", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher, bound: 0.0 }
}

pub const PER_LAYER: &[Metric] = &[
    // htm-sim
    layer("htm_sim.read_ns", "ns", false),
    layer("htm_sim.write_ns", "ns", false),
    layer("htm_sim.empty_txn_ns", "ns", false),
    // backends through tm-api
    layer("si_htm.empty_ro_ns", "ns", false),
    layer("si_htm.empty_update_ns", "ns", false),
    layer("htm_sgl.empty_update_ns", "ns", false),
    layer("p8tm.empty_update_ns", "ns", false),
    layer("silo.empty_update_ns", "ns", false),
    layer("si_htm.aborts_per_kcommit", "count", false),
    layer("si_htm.capacity_aborts_per_kcommit", "count", false),
    layer("si_htm.quiesce_waits_per_kcommit", "count", false),
    layer("si_htm.quiesce_polled_per_wait", "count", false),
    layer("si_htm.sgl_commits_per_kcommit", "count", false),
    layer("si_htm.ro_commit_share", "count", true),
    // workloads::btree / ::hashmap
    layer("btree.lookup_ns", "ns", false),
    layer("btree.insert_ns", "ns", false),
    layer("hashmap.lookup_ns", "ns", false),
    // txkv
    layer("store.op_ns", "ns", false),
    layer("queue.push_pop_ns", "ns", false),
    layer("pipeline.rtt_ns", "ns", false),
    layer("pipeline.self_ns", "ns", false),
    layer("pipeline.ro_batch_mean", "count", true),
    layer("pipeline.service_p50_us", "us", false),
    layer("pipeline.queue_wait_p50_us", "us", false),
    // txkv::durability
    layer("wal.append_ns", "ns", false),
    layer("wal.flush_ns", "ns", false),
    layer("wal.bytes_per_record", "bytes", false),
    layer("wal.self_ns", "ns", false),
    layer("wal.bytes_per_op", "bytes", false),
    layer("wal.fsyncs_per_kop", "count", false),
    layer("wal.group_mean", "count", true),
    layer("wal.checkpoints", "count", false),
    // txkv::shard (2PC)
    layer("twopc.prepares_per_kop", "count", false),
    layer("twopc.escalations_per_kop", "count", false),
    layer("twopc.aborts_per_kop", "count", false),
    // txkv-schema, tpcc::service
    layer("schema.row_get_ns", "ns", false),
    layer("schema.row_put_ns", "ns", false),
    layer("schema.index_hits_per_kop", "count", true),
    layer("tpcc.new_order_us", "us", false),
    layer("tpcc.payment_us", "us", false),
    layer("tpcc.order_status_us", "us", false),
    layer("tpcc.delivery_us", "us", false),
    layer("tpcc.stock_level_us", "us", false),
    // txkv-net
    layer("codec.encode_ns", "ns", false),
    layer("codec.decode_ns", "ns", false),
    layer("codec.bytes_per_op", "bytes", false),
    layer("net.rtt_ns", "ns", false),
    layer("net.self_ns", "ns", false),
    layer("net.frames_per_op", "count", false),
    layer("net.refused_per_kop", "count", false),
    // harness
    layer("harness.gen_ns", "ns", false),
    layer("harness.submit_ns", "ns", false),
    layer("harness.wait_ns", "ns", false),
    layer("harness.lat_p99_us", "us", false),
    layer("trace.overhead_pct", "%", false),
];

fn better(m: &Metric) -> &'static str {
    if m.higher {
        "higher"
    } else {
        "lower"
    }
}

/// The exact contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let join = |items: Vec<String>| items.join(",\n    ");
    let workloads = join(
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let e2e = join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m),
                    m.bound
                )
            })
            .collect(),
    );
    let layers = join(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"sysbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"sysbench\"],\n  \"run_seconds\": \
         {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    \
         {e2e}\n  ],\n  \"per_layer\": [\n    {layers}\n  ]\n}}\n"
    )
}

/// Pull `"<name>": {"value": <number>` out of a result line this binary
/// printed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// `--repeat N`: run N whole sets back to back, each on its own seed (one
/// child process per run, so `peak_rss_mb` is each run's own) and print,
/// per workload x end-to-end metric, the spread the accepting driver
/// computes — interquartile range over median — and the worst pairwise
/// relative deviation next to the bound. Fails if a spread exceeds its
/// bound. (With fewer than 5 sets the quartiles are the extremes, so the
/// spread is then the whole range.)
pub fn repeat(sets: usize, seed: u64, seconds: f64, smoke: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    // values[workload][metric] = one value per set
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &(seed + set as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("spawn a run");
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or_default();
            if !out.status.success() || !last.contains("\"correct\": true") {
                println!("{text}");
                eprintln!("sysbench: set {set} of {} failed", w.name);
                return ExitCode::FAILURE;
            }
            for (mi, m) in END_TO_END.iter().enumerate() {
                values[wi][mi].push(metric_value(last, m.name).expect("metric in result line"));
            }
            eprintln!("set {set} {} done", w.name);
        }
    }
    println!(
        "| workload | metric | median | IQR/median | worst pairwise | bound | values |\n\
         |---|---|---|---|---|---|---|"
    );
    let mut exceeded = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let spread = iqr_share(v);
            exceeded += usize::from(spread > m.bound);
            let list: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "| {} | {} | {:.4} | {:.2} %{} | {:.2} % | {:.0} % | {} |",
                w.name,
                m.name,
                median(v),
                100.0 * spread,
                if spread > m.bound { " **over**" } else { "" },
                100.0 * worst_pairwise(v),
                100.0 * m.bound,
                list.join(" ")
            );
        }
    }
    if exceeded > 0 {
        eprintln!("sysbench: {exceeded} cells spread wider than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(root).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `sysbench --benchmark-json`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().chain(PER_LAYER).all(|m| m.unit.len() <= 16));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_values_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"lat_p50_us\": {\"value\": 431.25, \"unit\": \"us\"}, \"setup_s\": \
                    {\"value\": 0.5, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "lat_p50_us"), Some(431.25));
        assert_eq!(metric_value(line, "setup_s"), Some(0.5));
        assert_eq!(metric_value(line, "peak_rss_mb"), None);
    }
}
