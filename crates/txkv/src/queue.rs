//! Bounded MPMC submission queues with shed-on-full admission control.
//!
//! One [`SubmitQueue`] holds two lanes — read-only and update — behind a
//! single mutex, with a condvar for executor parking. The mutex also
//! counts the parked executors, so a push notifies (a futex syscall) only
//! when one is actually parked. Capacities are fixed
//! at construction; a push against a full lane fails immediately with
//! [`PushError::Full`] (the caller surfaces `KvError::Overloaded`), so the
//! queue is the system's backpressure valve: under sustained overload
//! memory use stays bounded and latency of *admitted* requests stays
//! bounded by queue depth, instead of both growing without limit.
//!
//! All pop operations are non-blocking (`try_*`); the only blocking entry
//! point is [`SubmitQueue::wait_for_work`], which idle executors call with
//! a timeout. The `tm-check` scenario drives the same queue with the
//! non-blocking calls plus `hooks::emit(Event::Poll)` spin loops, so the
//! deterministic scheduler never parks an OS thread it cannot wake.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused. The rejected item is handed back so the caller
/// can retry or surface it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The lane is at capacity — admission control sheds the request.
    Full(T),
    /// The queue is closed (pipeline draining); no new work is accepted.
    Closed(T),
}

struct Inner<T> {
    ro: VecDeque<T>,
    rw: VecDeque<T>,
    closed: bool,
    /// Executors inside [`SubmitQueue::wait_for_work`]'s condvar wait.
    parked: usize,
}

/// Two-lane bounded MPMC queue (read-only + update).
pub struct SubmitQueue<T> {
    inner: Mutex<Inner<T>>,
    work: Condvar,
    ro_cap: usize,
    rw_cap: usize,
}

impl<T> SubmitQueue<T> {
    pub fn new(ro_cap: usize, rw_cap: usize) -> Self {
        assert!(ro_cap > 0 && rw_cap > 0, "queue capacities must be nonzero");
        SubmitQueue {
            inner: Mutex::new(Inner {
                ro: VecDeque::new(),
                rw: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            work: Condvar::new(),
            ro_cap,
            rw_cap,
        }
    }

    /// Admit `item` into the read-only (`true`) or update lane, or shed it.
    pub fn try_push(&self, read_only: bool, item: T) -> Result<(), PushError<T>> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        let (lane, cap) =
            if read_only { (&mut g.ro, self.ro_cap) } else { (&mut g.rw, self.rw_cap) };
        if lane.len() >= cap {
            return Err(PushError::Full(item));
        }
        lane.push_back(item);
        // A parker counts itself in under this mutex before it waits, so
        // `parked == 0` here means nobody can miss this push.
        let wake = g.parked > 0;
        drop(g);
        if wake {
            self.work.notify_one();
        }
        Ok(())
    }

    /// Pop one update-lane request, FIFO. Non-blocking.
    pub fn try_pop_update(&self) -> Option<T> {
        self.inner.lock().unwrap().rw.pop_front()
    }

    /// Pop up to `max` read-only requests into `out`, FIFO. Returns the
    /// number taken. Non-blocking. The whole batch is served by one
    /// read-only transaction, so everything popped here shares a snapshot.
    pub fn try_pop_ro_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut g = self.inner.lock().unwrap();
        let n = max.min(g.ro.len());
        out.extend(g.ro.drain(..n));
        n
    }

    /// Close admission: subsequent pushes fail with [`PushError::Closed`];
    /// queued work remains poppable. Wakes all parked executors.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.work.notify_all();
    }

    /// Wake all parked executors without changing state (used when the
    /// pipeline flips its hard-stop flag, which lives outside the queue).
    pub fn wake_all(&self) {
        let _g = self.inner.lock().unwrap();
        self.work.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Both lanes empty? (One lock acquisition; lanes observed together.)
    pub fn is_empty(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.ro.is_empty() && g.rw.is_empty()
    }

    /// `(read-only, update)` lane depths, observed atomically.
    pub fn depths(&self) -> (usize, usize) {
        let g = self.inner.lock().unwrap();
        (g.ro.len(), g.rw.len())
    }

    /// Closed *and* drained — the graceful-shutdown exit condition.
    pub fn is_done(&self) -> bool {
        let g = self.inner.lock().unwrap();
        g.closed && g.ro.is_empty() && g.rw.is_empty()
    }

    /// Park until work may be available, the queue closes, or `timeout`
    /// elapses. Returns `true` when a lane is non-empty or the queue is
    /// closed (spurious wakeups simply re-loop in the caller).
    pub fn wait_for_work(&self, timeout: Duration) -> bool {
        let mut g = self.inner.lock().unwrap();
        if !g.ro.is_empty() || !g.rw.is_empty() || g.closed {
            return true;
        }
        g.parked += 1;
        let (mut g, _timeout) = self.work.wait_timeout(g, timeout).unwrap();
        g.parked -= 1;
        !g.ro.is_empty() || !g.rw.is_empty() || g.closed
    }
}

impl<T> std::fmt::Debug for SubmitQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ro, rw) = self.depths();
        f.debug_struct("SubmitQueue")
            .field("ro", &format_args!("{ro}/{}", self.ro_cap))
            .field("rw", &format_args!("{rw}/{}", self.rw_cap))
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_fifo_and_independent() {
        let q = SubmitQueue::new(8, 8);
        q.try_push(true, 1).unwrap();
        q.try_push(false, 10).unwrap();
        q.try_push(true, 2).unwrap();
        q.try_push(false, 11).unwrap();
        assert_eq!(q.depths(), (2, 2));
        assert_eq!(q.try_pop_update(), Some(10));
        assert_eq!(q.try_pop_update(), Some(11));
        assert_eq!(q.try_pop_update(), None);
        let mut batch = Vec::new();
        assert_eq!(q.try_pop_ro_batch(16, &mut batch), 2);
        assert_eq!(batch, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn full_lane_sheds_without_touching_the_other() {
        let q = SubmitQueue::new(2, 1);
        q.try_push(true, 1).unwrap();
        q.try_push(true, 2).unwrap();
        assert_eq!(q.try_push(true, 3), Err(PushError::Full(3)));
        // Update lane unaffected by the full RO lane.
        q.try_push(false, 9).unwrap();
        assert_eq!(q.try_push(false, 9), Err(PushError::Full(9)));
        assert_eq!(q.depths(), (2, 1));
    }

    #[test]
    fn batch_pop_respects_max() {
        let q = SubmitQueue::new(64, 1);
        for i in 0..10 {
            q.try_push(true, i).unwrap();
        }
        let mut batch = Vec::new();
        assert_eq!(q.try_pop_ro_batch(4, &mut batch), 4);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        batch.clear();
        assert_eq!(q.try_pop_ro_batch(100, &mut batch), 6);
        assert_eq!(batch, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn close_rejects_pushes_but_keeps_queued_work() {
        let q = SubmitQueue::new(4, 4);
        q.try_push(false, 1).unwrap();
        q.close();
        assert_eq!(q.try_push(false, 2), Err(PushError::Closed(2)));
        assert_eq!(q.try_push(true, 2), Err(PushError::Closed(2)));
        assert!(!q.is_done(), "closed but not yet drained");
        assert_eq!(q.try_pop_update(), Some(1));
        assert!(q.is_done());
    }

    #[test]
    fn wait_for_work_sees_pushes_and_close() {
        let q = std::sync::Arc::new(SubmitQueue::new(4, 4));
        // Timeout path: nothing arrives.
        assert!(!q.wait_for_work(Duration::from_millis(1)));
        // Wake on push.
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.wait_for_work(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(false, 7).unwrap();
        assert!(t.join().unwrap());
        assert_eq!(q.try_pop_update(), Some(7));
        // Wake on close.
        let q3 = q.clone();
        let t = std::thread::spawn(move || q3.wait_for_work(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(t.join().unwrap());
    }

    #[test]
    fn every_push_reaches_a_parked_executor() {
        // Two executors park with a 30 s timeout; the producer pushes the
        // next item only after the previous one was consumed, so nearly
        // every push meets parked executors. One push that skips its
        // notify while both executors are parked stalls for the 30 s; the
        // whole run has 2 s.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        const ITEMS: usize = 10_000;
        let q = Arc::new(SubmitQueue::new(4, 4));
        let consumed = Arc::new(AtomicUsize::new(0));
        let start = std::time::Instant::now();
        let executors: Vec<_> = (0..2)
            .map(|_| {
                let (q, consumed) = (q.clone(), consumed.clone());
                std::thread::spawn(move || {
                    let mut batch = Vec::new();
                    while !q.is_done() {
                        let mut n = usize::from(q.try_pop_update().is_some());
                        n += q.try_pop_ro_batch(4, &mut batch);
                        batch.clear();
                        if n > 0 {
                            consumed.fetch_add(n, Ordering::SeqCst);
                        } else {
                            q.wait_for_work(Duration::from_secs(30));
                        }
                    }
                })
            })
            .collect();
        for i in 0..ITEMS {
            q.try_push(i % 2 == 0, i).unwrap();
            while consumed.load(Ordering::SeqCst) <= i {
                assert!(start.elapsed() < Duration::from_secs(2), "push {i} woke nobody");
                std::thread::yield_now();
            }
        }
        q.close();
        for t in executors {
            t.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::SeqCst), ITEMS);
    }
}
