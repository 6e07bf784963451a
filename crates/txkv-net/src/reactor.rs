//! Minimal readiness reactor: epoll(7) on Linux, poll(2) on other unix.
//!
//! The build environment is offline (no `mio`, no `libc` crate), so the
//! two syscall surfaces are declared directly as `extern "C"` items —
//! exactly the handful the reactor needs. Everything is level-triggered:
//! the server recomputes each connection's interest set after handling
//! it, which keeps the correctness argument local (no edge-trigger
//! starvation cases), and the connection counts here are small enough
//! that level-triggered wakeup cost is irrelevant.
//!
//! One `Poller` is owned by one reactor thread. Cross-thread wakeup (an
//! executor finished a burst of replies and queued output) goes through
//! a [`Waker`]: a nonblocking `UnixStream` pair whose read end is
//! registered like any other fd.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Readiness of one registered fd.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up or the fd errored; the owner should close.
    pub hangup: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
}

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors the kernel's `struct epoll_event`; packed on x86-64 (the
    /// one ABI where the kernel definition is unaligned).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub struct Poller {
        ep: i32,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no memory involved.
            let ep = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if ep < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { ep })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut mask = EPOLLRDHUP;
            if interest.readable {
                mask |= EPOLLIN;
            }
            if interest.writable {
                mask |= EPOLLOUT;
            }
            let mut ev = EpollEvent { events: mask, data: token as u64 };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.ep, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest { readable: false, writable: false })
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
            let ms = timeout.map(|t| t.as_millis().min(i32::MAX as u128) as i32).unwrap_or(-1);
            // SAFETY: `buf` is valid for 64 entries for the duration.
            let n = unsafe { epoll_wait(self.ep, buf.as_mut_ptr(), 64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let mask = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data as usize,
                    readable: mask & EPOLLIN != 0,
                    writable: mask & EPOLLOUT != 0,
                    hangup: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `ep` is an fd we own exclusively.
            unsafe { close(self.ep) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// poll(2)-backed fallback: the registration table is rebuilt into a
    /// pollfd array on every wait. O(n) per wakeup, which is fine at the
    /// connection counts this serves on non-Linux dev machines.
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, (usize, Interest)>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { registered: Mutex::new(HashMap::new()) })
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registered.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registered.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let (mut fds, tokens): (Vec<PollFd>, Vec<usize>) = {
                let reg = self.registered.lock().unwrap();
                reg.iter()
                    .map(|(&fd, &(token, i))| {
                        let mut ev = 0i16;
                        if i.readable {
                            ev |= POLLIN;
                        }
                        if i.writable {
                            ev |= POLLOUT;
                        }
                        (PollFd { fd, events: ev, revents: 0 }, token)
                    })
                    .unzip()
            };
            let ms = timeout.map(|t| t.as_millis().min(i32::MAX as u128) as i32).unwrap_or(-1);
            // SAFETY: `fds` is a valid array of `fds.len()` entries.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &token) in fds.iter().zip(tokens.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

pub use imp::Poller;

/// Cross-thread reactor wakeup: a nonblocking socketpair. `wake` writes
/// one byte; the reactor drains on readability. The server sends one byte
/// per *burst* of replies, not one per reply: a sender calls `wake` only
/// when it flips the server's `wake_pending` flag from clear to set, and
/// the reactor clears the flag before it takes the list of connections
/// to serve (DESIGN.md §15.2 has the ordering argument). Waking a reactor
/// that already exited is a silently-ignored broken pipe, which is
/// exactly the semantics the reply hooks need during shutdown.
pub struct Waker {
    tx: UnixStream,
    /// Fault point for the lost-wake-up detector's negative control: the
    /// next `wake` is swallowed.
    #[cfg(test)]
    pub(crate) drop_next: std::sync::atomic::AtomicBool,
}

impl Waker {
    /// Returns the waker and the read end to register with the poller.
    pub fn new() -> io::Result<(Waker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        let waker = Waker {
            tx,
            #[cfg(test)]
            drop_next: std::sync::atomic::AtomicBool::new(false),
        };
        Ok((waker, rx))
    }

    pub fn wake(&self) {
        #[cfg(test)]
        if self.drop_next.swap(false, std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        // Full pipe (WouldBlock) means a wakeup is already pending;
        // broken pipe means the reactor is gone. Both are fine.
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Drain all pending wakeup bytes from the read end. A short read
    /// emptied the socket, so the usual single byte costs one `read`.
    pub fn drain(rx: &UnixStream) {
        let mut buf = [0u8; 64];
        while matches!((&*rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }
}

/// The read end's fd, for registration.
pub fn raw_fd<T: AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_and_drains() {
        let (poller, (waker, rx)) = (Poller::new().unwrap(), Waker::new().unwrap());
        poller.register(rx.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing yet: a zero-timeout wait returns empty.
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty());
        waker.wake();
        waker.wake();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        Waker::drain(&rx);
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "drained waker must go quiet");
    }

    #[test]
    fn readiness_tracks_interest_and_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "no data yet");

        use std::io::Write as _;
        (&a).write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        // Writable interest on an idle socket fires immediately.
        poller.modify(b.as_raw_fd(), 1, Interest { readable: true, writable: true }).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Peer close surfaces as hangup (or at least readability+EOF).
        drop(a);
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && (e.hangup || e.readable)));

        poller.deregister(b.as_raw_fd()).unwrap();
    }
}
