//! A hang bound for long-running tests: a wedged pipeline becomes a
//! failure naming the test, not a CI job that sits until its own timeout.
//!
//! ```
//! let _deadline = tm_api::deadline::guard(std::time::Duration::from_secs(5));
//! // ... the test body; dropping the guard (also by unwinding) disarms it
//! ```

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A watcher thread armed for one test; dropping the guard stops it.
pub struct Deadline {
    disarm: Option<Sender<()>>,
    watcher: Option<JoinHandle<()>>,
}

/// Arm a deadline of `nominal × 3 + 60 s` for the calling test, where
/// `nominal` is how long the test normally runs. Past it, the watcher
/// prints the test's name (the test harness names each test's thread
/// after it) and aborts the process.
pub fn guard(nominal: Duration) -> Deadline {
    let name = std::thread::current().name().unwrap_or("an unnamed test").to_string();
    let limit = nominal * 3 + Duration::from_secs(60);
    let (disarm, armed) = mpsc::channel::<()>();
    let watcher = std::thread::Builder::new()
        .name("test-deadline".into())
        .spawn(move || {
            if armed.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                eprintln!("{name}: still running after {limit:?}, aborting");
                std::process::abort();
            }
        })
        .expect("spawn deadline watcher");
    Deadline { disarm: Some(disarm), watcher: Some(watcher) }
}

impl Drop for Deadline {
    fn drop(&mut self) {
        drop(self.disarm.take()); // disconnects the channel: the watcher returns
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn dropping_the_guard_stops_its_watcher_at_once() {
        let t0 = Instant::now();
        drop(guard(Duration::from_secs(3600)));
        assert!(t0.elapsed() < Duration::from_secs(5), "the watcher outlived its guard");
    }
}
