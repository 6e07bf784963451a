//! The serving side: listeners, connection state machines, admission,
//! and the executor→reactor completion path.
//!
//! One reactor thread owns every socket. Inbound bytes are framed
//! ([`crate::frame`]), each `Request` runs the tenant gates
//! ([`crate::tenant`]) and is then submitted to the [`KvClient`]; the
//! reply comes back through [`txkv::PendingReply::on_reply`] — the
//! executor that filled the slot encodes the reply frame straight into
//! the connection's outbound buffer and, once per *burst* of replies,
//! lists the connection as dirty and wakes the reactor (the flag
//! protocol is on [`Shared::mark_dirty`]). No thread is parked per
//! in-flight request anywhere on the server.
//!
//! ## Backpressure
//!
//! Two per-connection brakes, both of which *stop reading the socket*
//! instead of buffering unboundedly:
//!
//! * **window** — at most `window` requests in flight per connection;
//!   while full, inbound bytes stay in the kernel socket buffer and the
//!   peer's TCP window closes end-to-end.
//! * **outbound high-water mark** — a peer that sends requests but never
//!   reads replies would otherwise grow the outbound buffer without
//!   bound (refusals are generated at read time); past [`OUT_HWM`] the
//!   connection stops reading until the peer drains.
//!
//! ## Disconnects
//!
//! A dropped connection marks its outbound half dead and frees the
//! buffer. In-flight requests keep their reply slots — the pipeline's
//! answered-or-shed invariant is untouched — and each late reply runs
//! its hook, observes the dead connection, and is counted in
//! [`NetReport::replies_to_dead`] instead of leaking or blocking.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use txkv::{KvClient, KvReply};

use crate::frame::{self, Frame, Kind, ProtoCode, Refusal, RefusalScope};
use crate::reactor::{Event, Interest, Poller, Waker};
use crate::tenant::{Gate, ShedConfig, TenantReport, TenantSpec, TenantTable};

/// Outbound-buffer high-water mark per connection: past this the server
/// stops reading from the peer until it drains what it already owes.
const OUT_HWM: usize = 1 << 20;
/// Chunk size for socket reads.
const READ_CHUNK: usize = 64 * 1024;

const TOK_WAKE: usize = 0;
const TOK_TCP: usize = 1;
const TOK_UDS: usize = 2;
const TOK_CONN0: usize = 3;

/// Server configuration. At least one of `tcp`/`uds` must be set.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// TCP listen address, e.g. `"127.0.0.1:0"` (0 = ephemeral port,
    /// read back via [`NetServer::tcp_addr`]).
    pub tcp: Option<String>,
    /// Unix-domain socket path; any stale file is replaced.
    pub uds: Option<PathBuf>,
    /// Per-connection in-flight request window.
    pub window: usize,
    /// Tenant directory; a `Hello` for an unlisted tenant is refused.
    pub tenants: Vec<TenantSpec>,
    /// Pressure-shed watermarks.
    pub shed: ShedConfig,
}

impl NetServerConfig {
    pub fn new() -> Self {
        NetServerConfig {
            tcp: None,
            uds: None,
            window: 128,
            tenants: Vec::new(),
            shed: ShedConfig::new(),
        }
    }
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate serving stats, returned by [`NetServer::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct NetReport {
    pub conns_accepted: u64,
    pub conns_closed: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    /// Protocol errors answered (framing + payload + auth-state).
    pub proto_errors: u64,
    /// Well-formed requests from authenticated tenants.
    pub requests: u64,
    /// Requests accepted into the pipeline.
    pub accepted: u64,
    /// Typed refusals by gate.
    pub refused_quota: u64,
    pub refused_pressure: u64,
    pub refused_backend: u64,
    /// `Hello` frames that failed authentication.
    pub auth_failures: u64,
    /// Replies whose connection was already gone when they landed; the
    /// reply slot was still answered (never leaked), just undeliverable.
    pub replies_to_dead: u64,
    /// Reactor polls that timed out with no event and still found the
    /// dirty list non-empty: a reply burst whose wake-up was lost and that
    /// only the poll timeout rescued. Always 0 unless the burst hand-off
    /// protocol is broken.
    pub wake_rescues: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantReport>,
}

impl NetReport {
    /// Answered-or-shed accounting at the wire: every request accepted
    /// into the pipeline must have produced exactly one reply hook run
    /// (served, shed, or delivered-to-dead-connection).
    pub fn answered(&self) -> u64 {
        self.tenants.iter().map(|t| t.answered + t.shed).sum()
    }
}

// ------------------------------------------------------------- sockets

enum Sock {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Sock {
    fn raw_fd(&self) -> RawFd {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Uds(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Uds(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Uds(s) => s.write(buf),
        }
    }
}

// -------------------------------------------------------- shared state

/// The half of a connection that reply hooks touch from executor
/// threads: outbound bytes and the in-flight count.
struct ConnOut {
    state: Mutex<OutState>,
    inflight: AtomicUsize,
    /// Set while the connection sits in [`Shared::dirty`] (or is about to
    /// be pumped for it): the first reply of a burst lists the
    /// connection, the rest only append bytes.
    dirty: AtomicBool,
}

struct OutState {
    buf: Vec<u8>,
    dead: bool,
}

struct Shared {
    client: KvClient,
    tenants: TenantTable,
    window: usize,
    stop: AtomicBool,
    waker: Waker,
    /// Connections that need reactor attention (queued output, reopened
    /// window): token plus the connection it meant, so an entry that
    /// outlives its connection cannot pump whichever one reuses the slot.
    /// Pushed by hooks, taken by the reactor.
    dirty: Mutex<Vec<(usize, Arc<ConnOut>)>>,
    /// Set by the hook that wrote the wake byte for the current burst.
    wake_pending: AtomicBool,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    proto_errors: AtomicU64,
    requests: AtomicU64,
    accepted: AtomicU64,
    refused_quota: AtomicU64,
    refused_pressure: AtomicU64,
    refused_backend: AtomicU64,
    auth_failures: AtomicU64,
    replies_to_dead: AtomicU64,
    wake_rescues: AtomicU64,
}

impl Shared {
    /// Hand a connection with fresh output to the reactor, at the cost of
    /// one list push per connection per burst and one wake byte per burst.
    ///
    /// The caller has already appended its bytes and released its window
    /// slot. Each flag is set *after* the work it announces and cleared by
    /// the reactor *before* it looks for that work (`wake_pending` before
    /// it takes the list, `out.dirty` before it pumps), so a hook that
    /// finds a flag already set knows a reactor pass over its work is
    /// still to come. All flag and window accesses are `SeqCst`.
    fn mark_dirty(&self, token: usize, out: &Arc<ConnOut>) {
        if out.dirty.swap(true, Ordering::SeqCst) {
            return;
        }
        self.dirty.lock().unwrap().push((token, out.clone()));
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn report(&self) -> NetReport {
        NetReport {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            proto_errors: self.proto_errors.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            refused_quota: self.refused_quota.load(Ordering::Relaxed),
            refused_pressure: self.refused_pressure.load(Ordering::Relaxed),
            refused_backend: self.refused_backend.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            replies_to_dead: self.replies_to_dead.load(Ordering::Relaxed),
            wake_rescues: self.wake_rescues.load(Ordering::Relaxed),
            tenants: self.tenants.tenants.iter().map(TenantReport::from_state).collect(),
        }
    }
}

// --------------------------------------------------------- connections

struct Conn {
    sock: Sock,
    /// Inbound bytes not yet handled; `rbuf[..rpos]` is already parsed
    /// and dropped once per pump.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Outbound bytes taken from `out` for writing; `wbuf[..wpos]` is on
    /// the wire. Swapped with the shared buffer, never copied.
    wbuf: Vec<u8>,
    wpos: usize,
    out: Arc<ConnOut>,
    /// Authenticated tenant (index into the table), set by `Hello`.
    tenant: Option<usize>,
    /// Currently-registered poller interest.
    interest: Interest,
    /// Flush remaining output, then close (stream-poisoning error or
    /// auth failure).
    closing: bool,
}

/// The wire front end. Owns the reactor thread; [`shutdown`] returns the
/// final [`NetReport`].
///
/// To deliver every in-flight reply before the sockets close, shut the
/// *pipeline* down first (its drain fills every slot, pushing the frames
/// into connection buffers), then the server.
///
/// [`shutdown`]: NetServer::shutdown
pub struct NetServer {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl NetServer {
    /// Bind listeners and start the reactor. `client` is the pipeline
    /// submission handle the served requests flow into.
    pub fn start(client: KvClient, cfg: NetServerConfig) -> io::Result<NetServer> {
        assert!(cfg.tcp.is_some() || cfg.uds.is_some(), "NetServerConfig needs tcp or uds");
        assert!(cfg.window > 0, "window must be positive");
        let tcp = match &cfg.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let uds = match &cfg.uds {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        let (waker, wake_rx) = Waker::new()?;
        let shared = Arc::new(Shared {
            client,
            tenants: TenantTable::new(&cfg.tenants, cfg.shed),
            window: cfg.window,
            stop: AtomicBool::new(false),
            waker,
            dirty: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
            conns_accepted: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            refused_quota: AtomicU64::new(0),
            refused_pressure: AtomicU64::new(0),
            refused_backend: AtomicU64::new(0),
            auth_failures: AtomicU64::new(0),
            replies_to_dead: AtomicU64::new(0),
            wake_rescues: AtomicU64::new(0),
        });
        let reactor = Reactor {
            shared: shared.clone(),
            poller: Poller::new()?,
            wake_rx,
            tcp,
            uds,
            conns: Vec::new(),
            free: Vec::new(),
            chunk: vec![0u8; READ_CHUNK],
            depth_cache: (0, Instant::now() - Duration::from_secs(1)),
        };
        reactor.poller.register(reactor.wake_rx.as_raw_fd(), TOK_WAKE, Interest::READ)?;
        if let Some(l) = &reactor.tcp {
            reactor.poller.register(l.as_raw_fd(), TOK_TCP, Interest::READ)?;
        }
        if let Some(l) = &reactor.uds {
            reactor.poller.register(l.as_raw_fd(), TOK_UDS, Interest::READ)?;
        }
        let thread = std::thread::Builder::new()
            .name("txkv-net-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor");
        Ok(NetServer { shared, thread: Some(thread), tcp_addr, uds_path: cfg.uds })
    }

    /// Bound TCP address (the real port when configured with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// Stop accepting, close every connection, and return the totals.
    pub fn shutdown(mut self) -> NetReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
        self.shared.report()
    }

    /// Live snapshot of the counters (the reactor keeps running).
    pub fn report(&self) -> NetReport {
        self.shared.report()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

// ------------------------------------------------------------- reactor

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    wake_rx: UnixStream,
    tcp: Option<TcpListener>,
    uds: Option<UnixListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// The one buffer every socket read lands in.
    chunk: Vec<u8>,
    /// (combined queue depth, refreshed-at): the pressure signal is read
    /// at most once per millisecond, not per request.
    depth_cache: (usize, Instant),
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut dirty: Vec<(usize, Arc<ConnOut>)> = Vec::new();
        // Connections to pump this turn, each once: (token, hangup).
        let mut todo: Vec<(usize, bool)> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.poller.wait(&mut events, Some(Duration::from_millis(100))).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOK_WAKE => Waker::drain(&self.wake_rx),
                    TOK_TCP => self.accept_tcp(),
                    TOK_UDS => self.accept_uds(),
                    // Level-triggered: pump handles read+write+close
                    // in one pass; a hangup still pumps first so
                    // buffered frames are answered before the close.
                    t => todo.push((t, ev.hangup)),
                }
            }
            let socket_events = todo.len();
            // Clear-then-take, clear-then-pump: see `Shared::mark_dirty`.
            self.shared.wake_pending.store(false, Ordering::SeqCst);
            std::mem::swap(&mut dirty, &mut *self.shared.dirty.lock().unwrap());
            if events.is_empty() && !dirty.is_empty() {
                self.shared.wake_rescues.fetch_add(1, Ordering::Relaxed);
            }
            for (token, out) in dirty.drain(..) {
                // A late hook's entry can outlive its connection; the slot
                // may be empty or belong to a newer connection by now.
                let conn = self.conns.get(token - TOK_CONN0).and_then(Option::as_ref);
                if !conn.is_some_and(|c| Arc::ptr_eq(&c.out, &out)) {
                    continue;
                }
                out.dirty.store(false, Ordering::SeqCst);
                if !todo[..socket_events].iter().any(|&(t, _)| t == token) {
                    todo.push((token, false));
                }
            }
            for (token, hangup) in todo.drain(..) {
                self.pump(token, hangup);
            }
        }
        // Shutdown: every connection's outbound half goes dead so late
        // reply hooks account to `replies_to_dead` instead of buffering.
        for ix in 0..self.conns.len() {
            self.close_conn(TOK_CONN0 + ix);
        }
    }

    fn accept_tcp(&mut self) {
        while let Some(l) = &self.tcp {
            match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    if s.set_nonblocking(true).is_ok() {
                        self.install_conn(Sock::Tcp(s));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn accept_uds(&mut self) {
        while let Some(l) = &self.uds {
            match l.accept() {
                Ok((s, _)) => {
                    if s.set_nonblocking(true).is_ok() {
                        self.install_conn(Sock::Uds(s));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn install_conn(&mut self, sock: Sock) {
        let conn = Conn {
            sock,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            out: Arc::new(ConnOut {
                state: Mutex::new(OutState { buf: Vec::new(), dead: false }),
                inflight: AtomicUsize::new(0),
                dirty: AtomicBool::new(false),
            }),
            tenant: None,
            interest: Interest::READ,
            closing: false,
        };
        let ix = match self.free.pop() {
            Some(ix) => {
                self.conns[ix] = Some(conn);
                ix
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let token = TOK_CONN0 + ix;
        let c = self.conns[ix].as_ref().unwrap();
        if self.poller.register(c.sock.raw_fd(), token, Interest::READ).is_err() {
            self.conns[ix] = None;
            self.free.push(ix);
            return;
        }
        self.shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    fn close_conn(&mut self, token: usize) {
        let ix = token - TOK_CONN0;
        let Some(conn) = self.conns.get_mut(ix).and_then(Option::take) else {
            return;
        };
        {
            let mut st = conn.out.state.lock().unwrap();
            st.dead = true;
            st.buf = Vec::new();
        }
        let _ = self.poller.deregister(conn.sock.raw_fd());
        self.free.push(ix);
        self.shared.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Pressure signal, refreshed at most every millisecond.
    fn queue_depth(&mut self) -> usize {
        if self.depth_cache.1.elapsed() > Duration::from_millis(1) {
            let (ro, rw) = self.shared.client.queue_depths();
            self.depth_cache = (ro + rw, Instant::now());
        }
        self.depth_cache.0
    }

    /// One full service pass over a connection: parse + admit buffered
    /// frames while the window and outbound buffer allow, read more,
    /// flush output, recompute poller interest, close if due.
    fn pump(&mut self, token: usize, hangup: bool) {
        let ix = token - TOK_CONN0;
        if self.conns.get(ix).map(|c| c.is_none()).unwrap_or(true) {
            return; // closed earlier in this turn
        }
        let mut eof = false;
        // Whether the kernel buffer may hold more bytes: a short read
        // emptied it, and the poller reports whatever arrives next.
        let mut more = true;
        loop {
            self.drain_frames(ix);
            // Window or HWM closed: leave bytes in the kernel buffer. At
            // EOF the full frames that already arrived were just answered.
            if self.conn(ix).closing || eof || !more || !self.may_read(ix) {
                break;
            }
            let conn = self.conns[ix].as_mut().unwrap();
            match conn.sock.read(&mut self.chunk) {
                Ok(0) => eof = true,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    more = n == self.chunk.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => more = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => eof = true,
            }
        }
        let c = self.conn_mut(ix);
        c.rbuf.drain(..c.rpos);
        c.rpos = 0;
        let flushed = self.flush(ix);
        let out_empty = flushed && self.unsent(ix) == 0;
        let c = self.conn(ix);
        if eof || hangup || (c.closing && out_empty) || !flushed {
            self.close_conn(token);
            return;
        }
        let want = Interest { readable: !c.closing && self.may_read(ix), writable: !out_empty };
        let c = self.conn_mut(ix);
        if want != c.interest {
            c.interest = want;
            let fd = c.sock.raw_fd();
            let _ = self.poller.modify(fd, token, want);
        }
    }

    fn conn(&self, ix: usize) -> &Conn {
        self.conns[ix].as_ref().unwrap()
    }

    fn conn_mut(&mut self, ix: usize) -> &mut Conn {
        self.conns[ix].as_mut().unwrap()
    }

    /// Outbound bytes the peer has not taken yet.
    fn unsent(&self, ix: usize) -> usize {
        let c = self.conn(ix);
        c.wbuf.len() - c.wpos + c.out.state.lock().unwrap().buf.len()
    }

    fn may_read(&self, ix: usize) -> bool {
        self.conn(ix).out.inflight.load(Ordering::SeqCst) < self.shared.window
            && self.unsent(ix) < OUT_HWM
    }

    /// Parse and handle complete frames from the connection's read
    /// buffer, stopping at the admission window / HWM / poison.
    fn drain_frames(&mut self, ix: usize) {
        // The frames borrow the buffer while their handlers borrow the
        // reactor, so the buffer steps out of the connection meanwhile.
        let rbuf = std::mem::take(&mut self.conn_mut(ix).rbuf);
        let mut pos = self.conn(ix).rpos;
        while !self.conn(ix).closing && self.may_read(ix) {
            match frame::decode_frame(&rbuf[pos..]) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    pos += used;
                    self.shared.frames_in.fetch_add(1, Ordering::Relaxed);
                    self.handle_frame(ix, frame);
                }
                Err(e) => {
                    // Stream poisoned: answer with the typed error and
                    // flush-then-close. corr 0 (no frame to correlate).
                    self.proto_error(ix, 0, e.code());
                    break;
                }
            }
        }
        let c = self.conn_mut(ix);
        c.rbuf = rbuf;
        c.rpos = pos;
    }

    fn proto_error(&mut self, ix: usize, corr: u64, code: ProtoCode) {
        self.shared.proto_errors.fetch_add(1, Ordering::Relaxed);
        self.send(ix, Kind::ProtoError, corr, |out| frame::encode_proto_error(code, out));
        if code.poisons_stream()
            || matches!(
                code,
                ProtoCode::NotAuthed
                    | ProtoCode::AuthFailed
                    | ProtoCode::DuplicateHello
                    | ProtoCode::BadKind
            )
        {
            self.conn_mut(ix).closing = true;
        }
    }

    /// Append one frame to the connection's outbound buffer.
    fn send(&mut self, ix: usize, kind: Kind, corr: u64, payload: impl FnOnce(&mut Vec<u8>)) {
        self.shared.frames_out.fetch_add(1, Ordering::Relaxed);
        let mut st = self.conn(ix).out.state.lock().unwrap();
        if !st.dead {
            frame::encode_frame_with(kind, corr, &mut st.buf, payload);
        }
    }

    fn handle_frame(&mut self, ix: usize, f: Frame<'_>) {
        match Kind::from_u8(f.kind) {
            Some(Kind::Hello) => self.handle_hello(ix, f),
            Some(Kind::Request) => self.handle_request(ix, f),
            _ => self.proto_error(ix, f.corr, ProtoCode::BadKind),
        }
    }

    fn handle_hello(&mut self, ix: usize, f: Frame<'_>) {
        if self.conn(ix).tenant.is_some() {
            self.proto_error(ix, f.corr, ProtoCode::DuplicateHello);
            return;
        }
        let Ok((id, token)) = frame::decode_hello(f.payload) else {
            self.proto_error(ix, f.corr, ProtoCode::BadPayload);
            return;
        };
        match self.shared.tenants.auth(id, token) {
            Some(tix) => {
                self.conn_mut(ix).tenant = Some(tix);
                let window = self.shared.window as u32;
                self.send(ix, Kind::HelloOk, f.corr, |out| frame::encode_hello_ok(window, out));
            }
            None => {
                self.shared.auth_failures.fetch_add(1, Ordering::Relaxed);
                self.proto_error(ix, f.corr, ProtoCode::AuthFailed);
            }
        }
    }

    fn handle_request(&mut self, ix: usize, f: Frame<'_>) {
        let Some(tix) = self.conn(ix).tenant else {
            self.proto_error(ix, f.corr, ProtoCode::NotAuthed);
            return;
        };
        let Ok(op) = frame::decode_op(f.payload) else {
            self.proto_error(ix, f.corr, ProtoCode::BadPayload);
            return;
        };
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        let class = op.class();
        let depth = self.queue_depth();
        match self.shared.tenants.admit(tix, class, depth) {
            Gate::Admit => {}
            Gate::Refuse(r) => {
                match r.scope {
                    RefusalScope::Quota => {
                        self.shared.refused_quota.fetch_add(1, Ordering::Relaxed)
                    }
                    _ => self.shared.refused_pressure.fetch_add(1, Ordering::Relaxed),
                };
                self.refuse(ix, f.corr, &r);
                return;
            }
        }
        let t0 = Instant::now();
        match self.shared.client.submit(op) {
            Ok(pending) => {
                let tenant_state = &self.shared.tenants.tenants[tix];
                tenant_state.accepted.fetch_add(1, Ordering::Relaxed);
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                let out = self.conn(ix).out.clone();
                out.inflight.fetch_add(1, Ordering::SeqCst);
                let shared = self.shared.clone();
                let token = TOK_CONN0 + ix;
                let corr = f.corr;
                pending.on_reply(move |reply| {
                    deliver(&shared, &out, token, tix, corr, t0, reply);
                });
            }
            Err(e) => {
                let tenant_id = self.shared.tenants.tenants[tix].spec.id;
                self.shared.tenants.note_backend_refusal(tix, e.class());
                self.shared.refused_backend.fetch_add(1, Ordering::Relaxed);
                self.refuse(ix, f.corr, &Refusal::from_kv(e, tenant_id));
            }
        }
    }

    fn refuse(&mut self, ix: usize, corr: u64, r: &Refusal) {
        self.send(ix, Kind::Refused, corr, |out| frame::encode_refusal(r, out));
    }

    /// Write as much queued output as the socket takes. `false` = the
    /// connection died mid-write.
    fn flush(&mut self, ix: usize) -> bool {
        let c = self.conns[ix].as_mut().unwrap();
        loop {
            if c.wpos == c.wbuf.len() {
                // Everything taken so far is on the wire: trade the spent
                // buffer for whatever the hooks queued since.
                c.wbuf.clear();
                c.wpos = 0;
                std::mem::swap(&mut c.wbuf, &mut c.out.state.lock().unwrap().buf);
                if c.wbuf.is_empty() {
                    return true;
                }
            }
            match c.sock.write(&c.wbuf[c.wpos..]) {
                Ok(0) => return false,
                Ok(n) => c.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

/// The executor-side completion: encode, enqueue, account, wake. Runs on
/// whichever thread filled the reply slot; never blocks on the network.
fn deliver(
    shared: &Arc<Shared>,
    out: &Arc<ConnOut>,
    token: usize,
    tix: usize,
    corr: u64,
    t0: Instant,
    reply: KvReply,
) {
    let t = &shared.tenants.tenants[tix];
    if matches!(reply, KvReply::Shed) {
        t.shed.fetch_add(1, Ordering::Relaxed);
    } else {
        t.answered.fetch_add(1, Ordering::Relaxed);
    }
    t.e2e.lock().unwrap().record(t0.elapsed());
    let delivered = {
        let mut st = out.state.lock().unwrap();
        if !st.dead {
            frame::encode_frame_with(Kind::Reply, corr, &mut st.buf, |buf| {
                frame::encode_reply(&reply, buf)
            });
        }
        !st.dead
    };
    // The window slot frees regardless of deliverability — and only
    // after the bytes are queued, so a reopened window can't overtake
    // its own reply.
    out.inflight.fetch_sub(1, Ordering::SeqCst);
    if delivered {
        shared.frames_out.fetch_add(1, Ordering::Relaxed);
        shared.mark_dirty(token, out);
    } else {
        // Nothing to flush and nobody to read more from.
        shared.replies_to_dead.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetClient, TenantSpec};
    use tm_api::TmBackend;
    use txkv::{KvOp, KvStore, Pipeline, PipelineConfig};

    /// The negative control for [`NetReport::wake_rescues`]: swallow the
    /// one wake byte a reply burst sends. The reply must still arrive —
    /// by the poll timeout — and the detector must say so. A reply that
    /// lands while the reactor is still awake from its request never
    /// needed the byte, so the fault is re-armed until a call is rescued.
    #[test]
    fn a_dropped_wake_byte_is_rescued_by_the_poll_timeout_and_counted() {
        let backend = si_htm::SiHtm::with_defaults(1 << 16);
        let store = KvStore::create(backend.memory(), 0, 1 << 16);
        let pipeline = Pipeline::start(backend, store, PipelineConfig::quick());
        let sock = std::env::temp_dir().join(format!("txkv-net-wake-{}.sock", std::process::id()));
        let server = NetServer::start(
            pipeline.client(),
            NetServerConfig {
                uds: Some(sock),
                tenants: vec![TenantSpec { id: 1, token: 2, priority: 0, rate: 1000, burst: 1000 }],
                ..NetServerConfig::new()
            },
        )
        .expect("server start");
        let client = NetClient::connect_uds(server.uds_path().unwrap(), 1, 2).expect("connect");
        client.call(&KvOp::Put { key: 1, val: 10 }).expect("healthy call");
        assert_eq!(server.report().wake_rescues, 0);

        let mut waits = Vec::new();
        loop {
            assert!(waits.len() < 100, "no call needed its wake byte; replies after {waits:?}");
            server.shared.waker.drop_next.store(true, Ordering::SeqCst);
            let t0 = Instant::now();
            assert_eq!(client.call(&KvOp::Get { key: 1 }), Ok(KvReply::Value(Some(10))));
            waits.push(t0.elapsed());
            let rescues = server.report().wake_rescues;
            if rescues > 0 {
                assert_eq!(rescues, 1, "replies after {waits:?}");
                break;
            }
        }
        assert!(!server.shared.waker.drop_next.load(Ordering::SeqCst), "the fault fired");

        // The rescue re-armed the protocol: the next burst wakes normally.
        client.call(&KvOp::Get { key: 1 }).expect("call after the rescue");
        drop(client);
        pipeline.shutdown();
        assert_eq!(server.shutdown().wake_rescues, 1);
    }
}
