//! The traced run's spans. They are recorded by the harness, in its own
//! files, around its own calls into the program: per request a `request`
//! span (generation start -> reply) with children `gen`, `submit` (the
//! call into `KvClient::submit` / `NetClient::submit` / the blocking call
//! returning) and `wait`, all sharing the request id; then one span per
//! ladder rung, named by the metric it yields. Spans stay in memory until
//! the run ends and are written out once, as JSON.

use crate::env::RunDir;
use crate::harness::{ReqSpans, RunLog, SPAN_SAMPLE};
use crate::workloads::Count;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    id: u64,
    parent: Option<u64>,
    request: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Ladder rungs: operations the span covers.
    ops: Option<u64>,
}

pub struct Recorder {
    workload: &'static str,
    seed: u64,
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Start from the request spans the generators sampled.
    pub fn new(workload: &'static str, seed: u64, run: &RunLog) -> Recorder {
        let mut r = Recorder { workload, seed, t0: Instant::now(), spans: Vec::new() };
        for (g, log) in run.logs.iter().enumerate() {
            for s in &log.spans {
                r.request(g as u64, s);
            }
        }
        r
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        request: Option<u64>,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        ops: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns, ops });
        id
    }

    fn request(&mut self, generator: u64, s: &ReqSpans) {
        // Request ids are unique across generators.
        let req = Some(s.id * 2 + generator);
        let root = self.push(None, req, "request", (s.gen_start, s.reply), None);
        self.push(Some(root), req, "gen", (s.gen_start, s.submit_start), None);
        self.push(Some(root), req, "submit", (s.submit_start, s.submit_end), None);
        if s.reply > s.wait_start {
            self.push(Some(root), req, "wait", (s.wait_start, s.reply), None);
        }
    }

    /// Time `f` as one ladder rung covering `ops` operations, record its
    /// span under the metric's name, and return ns per operation.
    pub fn rung(&mut self, name: &'static str, ops: u64, f: impl FnOnce()) -> f64 {
        let start = self.t0.elapsed().as_nanos() as u64;
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        self.push(None, None, name, (start, start + ns), Some(ops));
        ns as f64 / ops.max(1) as f64
    }

    /// Write `sysbench/.run/trace-<workload>.json`.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let mut out = String::with_capacity(64 + 128 * self.spans.len());
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"request_sample\": {SPAN_SAMPLE}, \
             \"clock\": \"ns; request spans since the run's start, rung spans since the ladder's\", \
             \"spans\": [",
            self.workload, self.seed
        );
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"ops\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                opt(s.parent),
                opt(s.request),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.ops)
            );
        }
        out.push_str("\n]}\n");
        let path = RunDir::trace_file(self.workload);
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Mean self time of the harness's own spans over every request of the
/// traced slices, the p99 of the untraced ones (too host-dependent to be a
/// gated end-to-end metric, so it is kept here), and what tracing cost:
/// the throughput of the traced slices against the untraced ones
/// interleaved with them.
pub fn harness_metrics(run: &RunLog) -> Vec<Count> {
    let n: u64 = run.logs.iter().map(|l| l.traced_reqs).sum();
    let mean = |f: fn(&crate::harness::GenLog) -> u64| {
        run.logs.iter().map(f).sum::<u64>() as f64 / n.max(1) as f64
    };
    let plain = run.median_of(false, |s| s.throughput());
    let traced = run.median_of(true, |s| s.throughput());
    vec![
        ("harness.gen_ns", mean(|l| l.gen_ns), "ns"),
        ("harness.submit_ns", mean(|l| l.submit_ns), "ns"),
        ("harness.wait_ns", mean(|l| l.wait_ns), "ns"),
        ("harness.lat_p99_us", run.median_of(false, |s| s.p99_ns / 1e3), "us"),
        ("trace.overhead_pct", 100.0 * (plain - traced) / plain.max(1e-9), "%"),
    ]
}
