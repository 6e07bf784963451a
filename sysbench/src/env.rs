//! The host side of a run: the pre-warm spin, process CPU time, peak RSS,
//! and the run directory every file the benchmark writes lives in.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What the record says about the host, so a noisy one is recognisable.
pub struct HostInfo {
    pub nproc: usize,
    /// ns per iteration of the spin kernel over the last fifth of the
    /// pre-warm (the part after the vCPUs have woken up).
    pub calib_ns: f64,
    pub loadavg: String,
}

/// Fixed xorshift kernel; returns the state so the loop cannot be elided.
#[inline(never)]
fn spin_chunk(mut x: u64, iters: u64) -> u64 {
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Busy-spin one thread per core for `dur` before any clock starts: an
/// idle KVM guest runs the same kernel 2x slower on its first iterations
/// (README, noise fact 1), which would otherwise land in `setup_s`.
pub fn prewarm(dur: Duration) -> HostInfo {
    const CHUNK: u64 = 1 << 20;
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let spin = move || {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut tail = (0u64, Duration::ZERO);
        while t0.elapsed() < dur {
            let c0 = Instant::now();
            x = spin_chunk(x, CHUNK);
            if t0.elapsed() * 5 >= dur * 4 {
                tail = (tail.0 + CHUNK, tail.1 + c0.elapsed());
            }
        }
        std::hint::black_box(x);
        tail.1.as_nanos() as f64 / tail.0.max(1) as f64
    };
    let calib_ns = std::thread::scope(|s| {
        let others: Vec<_> = (1..nproc).map(|_| s.spawn(spin)).collect();
        let mine = spin();
        for h in others {
            h.join().expect("pre-warm thread");
        }
        mine
    });
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default().trim().to_string();
    HostInfo { nproc, calib_ns, loadavg }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads), seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process in MB, with the kernel's
/// kB resolution.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-process scratch directory under the benchmark's own directory,
/// relative to the checkout root the command runs from (short, so a
/// socket path in it fits `sun_path`). Removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        let dir = PathBuf::from(format!("sysbench/.run/{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Where trace files go: beside the per-process directories, and kept.
    pub fn trace_file(workload: &str) -> PathBuf {
        PathBuf::from(format!("sysbench/.run/trace-{workload}.json"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
