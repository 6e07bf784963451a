//! The run protocol shared by all workloads: a slice clock on the main
//! thread, at most two closed-loop generator threads, and per-generator
//! logs from which every end-to-end metric is computed after the run.

use crate::env::process_cpu_s;
use crate::stats::{median, quantile_ns, quartiles};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads/connections are a constant, not derived from
/// `nproc`, so numbers are comparable between hosts.
pub const MAX_GENERATORS: usize = 2;
/// In-flight requests per pipelined generator.
pub const WINDOW: usize = 32;
/// One request in this many has its spans kept in a traced slice.
pub const SPAN_SAMPLE: u64 = 64;

const PHASE_STOP: usize = usize::MAX;

/// How long each part of a run lasts.
#[derive(Clone)]
pub struct Plan {
    pub warm: Duration,
    pub slice: Duration,
    /// One entry per measured slice: whether the harness records spans.
    pub traced: Vec<bool>,
}

/// The slice clock: 0 while warming up, `k` during measured slice `k`
/// (1-based), [`PHASE_STOP`] at the end.
pub struct Ctl {
    phase: AtomicUsize,
    traced: Vec<bool>,
    pub t0: Instant,
}

/// Timestamps of one request, ns since [`Ctl::t0`].
#[derive(Clone, Copy)]
pub struct ReqSpans {
    pub id: u64,
    pub gen_start: u64,
    pub submit_start: u64,
    pub submit_end: u64,
    pub wait_start: u64,
    pub reply: u64,
}

/// What one generator thread observed.
#[derive(Default)]
pub struct GenLog {
    phase: usize,
    traced_now: bool,
    /// Client-observed latency (submit -> reply) of every op answered in
    /// a measured slice, ns, in completion order.
    samples: Vec<u32>,
    /// `samples.len()` when measured slice `k` began, at index `k - 1`.
    marks: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Sampled request spans and the per-part sums over *every* request
    /// of the traced slices.
    pub spans: Vec<ReqSpans>,
    pub traced_reqs: u64,
    pub gen_ns: u64,
    pub submit_ns: u64,
    pub wait_ns: u64,
}

impl GenLog {
    pub fn with_capacity(samples: usize) -> GenLog {
        GenLog { samples: Vec::with_capacity(samples), ..GenLog::default() }
    }

    /// Poll the slice clock; `false` once the run is over. Call once per
    /// generated op.
    #[inline]
    pub fn running(&mut self, ctl: &Ctl) -> bool {
        let p = ctl.phase.load(Ordering::Relaxed);
        if p != self.phase {
            if p == PHASE_STOP {
                // Ops drained after the last slice belong to no slice.
                self.marks.resize(self.phase + 1, self.samples.len());
                self.phase = 0;
                return false;
            }
            self.marks.resize(p, self.samples.len());
            self.phase = p;
            self.traced_now = ctl.traced[p - 1];
        }
        true
    }

    #[inline]
    pub fn traced(&self) -> bool {
        self.traced_now
    }

    /// One op answered correctly after `lat`.
    #[inline]
    pub fn answered(&mut self, lat: Duration) {
        self.attempted += 1;
        if self.phase > 0 {
            self.samples.push(lat.as_nanos().min(u128::from(u32::MAX)) as u32);
        }
    }

    /// One op refused, shed, errored, or answered wrongly.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Account one request of a traced slice; `id` is its ordinal.
    #[inline]
    pub fn span(&mut self, s: ReqSpans) {
        self.traced_reqs += 1;
        self.gen_ns += s.submit_start - s.gen_start;
        self.submit_ns += s.submit_end - s.submit_start;
        self.wait_ns += s.reply - s.wait_start;
        if s.id.is_multiple_of(SPAN_SAMPLE) {
            self.spans.push(s);
        }
    }
}

/// A closed loop with up to [`WINDOW`] requests in flight on one thread:
/// the next request is sent when the oldest one has been answered.
/// `submit` enters the program and returns a pending handle plus what
/// `wait` needs to judge the answer; `wait` blocks on the handle and says
/// whether the answer is right.
pub fn windowed_loop<Op, P, E>(
    ctl: &Ctl,
    log: &mut GenLog,
    mut gen: impl FnMut() -> Op,
    mut submit: impl FnMut(Op) -> Result<(P, E), String>,
    mut wait: impl FnMut(P, E) -> Result<(), String>,
) {
    struct InFlight<P, E> {
        pending: P,
        expect: E,
        sent: Instant,
        spans: Option<ReqSpans>,
    }
    let mut flight: VecDeque<InFlight<P, E>> = VecDeque::with_capacity(WINDOW);
    let mut settle = |f: InFlight<P, E>, log: &mut GenLog| {
        let wait_start = Instant::now();
        match wait(f.pending, f.expect) {
            Ok(()) => {
                let done = Instant::now();
                log.answered(done - f.sent);
                if let Some(mut s) = f.spans {
                    s.wait_start = (wait_start - ctl.t0).as_nanos() as u64;
                    s.reply = (done - ctl.t0).as_nanos() as u64;
                    log.span(s);
                }
            }
            Err(e) => log.fail(|| e),
        }
    };
    let mut id = 0u64;
    while log.running(ctl) {
        if flight.len() == WINDOW {
            let oldest = flight.pop_front().expect("window is full");
            settle(oldest, log);
        }
        let gen_start = Instant::now();
        let op = gen();
        let sent = Instant::now();
        match submit(op) {
            Ok((pending, expect)) => {
                let spans = log.traced().then(|| ReqSpans {
                    id,
                    gen_start: (gen_start - ctl.t0).as_nanos() as u64,
                    submit_start: (sent - ctl.t0).as_nanos() as u64,
                    submit_end: ctl.t0.elapsed().as_nanos() as u64,
                    wait_start: 0,
                    reply: 0,
                });
                flight.push_back(InFlight { pending, expect, sent, spans });
            }
            Err(e) => log.fail(|| e),
        }
        id += 1;
    }
    // Drain: everything sent is answered before the oracle runs.
    for f in flight.drain(..) {
        settle(f, log);
    }
}

/// A closed loop of blocking calls (window 1) on one thread.
pub fn blocking_loop<Op>(
    ctl: &Ctl,
    log: &mut GenLog,
    mut gen: impl FnMut() -> Op,
    mut call: impl FnMut(Op) -> Result<(), String>,
) {
    let mut id = 0u64;
    while log.running(ctl) {
        let gen_start = Instant::now();
        let op = gen();
        let sent = Instant::now();
        match call(op) {
            Ok(()) => {
                let done = Instant::now();
                log.answered(done - sent);
                if log.traced() {
                    let at = |t: Instant| (t - ctl.t0).as_nanos() as u64;
                    // A blocking call has no separate wait: all of it is
                    // the `submit` span.
                    log.span(ReqSpans {
                        id,
                        gen_start: at(gen_start),
                        submit_start: at(sent),
                        submit_end: at(done),
                        wait_start: at(done),
                        reply: at(done),
                    });
                }
            }
            Err(e) => log.fail(|| e),
        }
        id += 1;
    }
}

/// One measured slice, all generators together.
#[derive(Clone, Copy)]
pub struct Slice {
    pub traced: bool,
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
}

impl Slice {
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Everything the run produced.
pub struct RunLog {
    pub slices: Vec<Slice>,
    pub logs: Vec<GenLog>,
}

impl RunLog {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.logs.iter().find_map(|l| l.first_failure.as_deref())
    }

    fn over(&self, traced: bool, f: impl Fn(&Slice) -> f64) -> Vec<f64> {
        self.slices.iter().filter(|s| s.traced == traced).map(f).collect()
    }

    /// Median over the untraced (or traced) slices.
    pub fn median_of(&self, traced: bool, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.over(traced, f))
    }

    /// Quartiles across the untraced slices, for the printed record.
    pub fn quartiles_of(&self, f: impl Fn(&Slice) -> f64) -> (f64, f64) {
        quartiles(&self.over(false, f))
    }
}

/// Drive `generators` threads through warm-up and the measured slices.
/// `generate(i, ctl, log)` runs generator `i` until the clock stops.
pub fn run_slices(
    plan: &Plan,
    generators: usize,
    sample_capacity: usize,
    generate: impl Fn(usize, &Ctl, &mut GenLog) + Sync,
) -> RunLog {
    assert!((1..=MAX_GENERATORS).contains(&generators));
    let ctl = Ctl { phase: AtomicUsize::new(0), traced: plan.traced.clone(), t0: Instant::now() };
    // (wall clock, process CPU) at every slice boundary.
    let mut edges: Vec<(Instant, f64)> = Vec::with_capacity(plan.traced.len() + 1);
    let mut logs: Vec<GenLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..generators)
            .map(|i| {
                let (ctl, generate) = (&ctl, &generate);
                s.spawn(move || {
                    let mut log = GenLog::with_capacity(sample_capacity);
                    generate(i, ctl, &mut log);
                    log
                })
            })
            .collect();
        std::thread::sleep(plan.warm);
        for k in 1..=plan.traced.len() {
            ctl.phase.store(k, Ordering::Relaxed);
            edges.push((Instant::now(), process_cpu_s()));
            std::thread::sleep(plan.slice);
        }
        edges.push((Instant::now(), process_cpu_s()));
        ctl.phase.store(PHASE_STOP, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("generator thread")).collect()
    });
    let slices = (0..plan.traced.len())
        .map(|k| {
            let mut lat: Vec<u32> = Vec::new();
            for log in &mut logs {
                // A generator that never saw slice k+1 begin answered
                // nothing in it.
                let end = log.samples.len();
                let from = log.marks.get(k).copied().unwrap_or(end);
                let to = log.marks.get(k + 1).copied().unwrap_or(end);
                lat.extend_from_slice(&log.samples[from..to]);
            }
            Slice {
                traced: plan.traced[k],
                ops: lat.len() as u64,
                wall_s: (edges[k + 1].0 - edges[k].0).as_secs_f64(),
                cpu_s: edges[k + 1].1 - edges[k].1,
                p50_ns: quantile_ns(&mut lat, 0.50),
                p95_ns: quantile_ns(&mut lat, 0.95),
                p99_ns: quantile_ns(&mut lat, 0.99),
            }
        })
        .collect();
    RunLog { slices, logs }
}
