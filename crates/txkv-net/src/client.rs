//! Client library: blocking submission API over a multiplexed
//! connection.
//!
//! One connection carries many in-flight requests. `submit` assigns a
//! correlation id, writes the frame, and returns a [`NetPending`]; a
//! dedicated reader thread demultiplexes server frames back to their
//! waiters. The server's advertised window is enforced client-side too:
//! `submit` blocks while `window` requests are outstanding, so a
//! well-behaved client never relies on the server-side brake.
//!
//! Every outcome is typed: a served [`KvReply`], a per-tenant
//! [`Refusal`], a [`ProtoCode`] protocol error, or [`NetError::Closed`]
//! when the connection died with requests in flight (the local
//! answered-or-shed mirror: a dropped connection fails every waiter, it
//! never strands one).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use txkv::{KvOp, KvReply, ReplySlot};

use crate::frame::{self, Kind, ProtoCode, Refusal};

/// Client-side failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Transport error (message carries the `io::Error` rendering).
    Io(String),
    /// The server answered a typed protocol error.
    Proto(ProtoCode),
    /// The server refused the request with a typed, per-tenant refusal.
    Refused(Refusal),
    /// Connection closed (or poisoned) with this request in flight.
    Closed,
    /// `Hello` was rejected: unknown tenant or bad token.
    AuthFailed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Proto(c) => write!(f, "protocol error: {c:?}"),
            NetError::Refused(r) => write!(f, "refused: {r:?}"),
            NetError::Closed => write!(f, "connection closed with request in flight"),
            NetError::AuthFailed => write!(f, "authentication failed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

enum Sock {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Sock {
    fn try_clone(&self) -> io::Result<Sock> {
        Ok(match self {
            Sock::Tcp(s) => Sock::Tcp(s.try_clone()?),
            Sock::Uds(s) => Sock::Uds(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(Shutdown::Both),
            Sock::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.set_read_timeout(t),
            Sock::Uds(s) => s.set_read_timeout(t),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Uds(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Sock::Tcp(s) => s.write_all(buf),
            Sock::Uds(s) => s.write_all(buf),
        }
    }
}

/// The write-once outcome cell behind one [`NetPending`]: the pipeline's
/// reply cell over this client's typed outcome. First write wins, so a
/// poisoned connection can fill every slot `Closed`.
type Slot = ReplySlot<Result<KvReply, NetError>>;

struct WState {
    inflight: usize,
    dead: Option<NetError>,
    /// Submitters parked on [`SharedCl::cv`] for a window slot.
    waiting: usize,
}

/// State shared between the API half and the reader thread.
struct SharedCl {
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    state: Mutex<WState>,
    cv: Condvar,
}

impl SharedCl {
    /// Mark the connection dead and fail every in-flight waiter. First
    /// cause wins; idempotent.
    fn poison(&self, err: NetError) {
        {
            let mut st = self.state.lock().unwrap();
            if st.dead.is_none() {
                st.dead = Some(err);
            }
            self.cv.notify_all();
        }
        let drained: Vec<Arc<Slot>> =
            self.pending.lock().unwrap().drain().map(|(_, s)| s).collect();
        for slot in drained {
            slot.fill(Err(NetError::Closed));
        }
    }
}

/// One in-flight request; `wait` blocks for its typed outcome.
pub struct NetPending {
    slot: Arc<Slot>,
}

impl NetPending {
    pub fn wait(self) -> Result<KvReply, NetError> {
        self.slot.wait()
    }

    pub fn try_get(&self) -> Option<Result<KvReply, NetError>> {
        self.slot.try_get()
    }
}

/// A multiplexed connection to a [`crate::NetServer`].
pub struct NetClient {
    shared: Arc<SharedCl>,
    /// The write half and the buffer each request frame is encoded into.
    write: Mutex<(Sock, Vec<u8>)>,
    next_corr: AtomicU64,
    window: usize,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl NetClient {
    /// Connect over TCP and authenticate as `tenant`.
    pub fn connect_tcp<A: ToSocketAddrs>(
        addr: A,
        tenant: u64,
        token: u64,
    ) -> Result<NetClient, NetError> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        Self::handshake(Sock::Tcp(sock), tenant, token)
    }

    /// Connect over a Unix-domain socket and authenticate as `tenant`.
    pub fn connect_uds<P: AsRef<Path>>(
        path: P,
        tenant: u64,
        token: u64,
    ) -> Result<NetClient, NetError> {
        let sock = UnixStream::connect(path)?;
        Self::handshake(Sock::Uds(sock), tenant, token)
    }

    fn handshake(mut sock: Sock, tenant: u64, token: u64) -> Result<NetClient, NetError> {
        // Hello/HelloOk runs synchronously with a bounded wait so a
        // wedged server is a typed timeout, not a hang.
        sock.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut wire = Vec::new();
        frame::encode_frame_with(Kind::Hello, 0, &mut wire, |out| {
            frame::encode_hello(tenant, token, out)
        });
        sock.write_all(&wire)?;
        let mut buf = Vec::new();
        let window = loop {
            match frame::decode_frame(&buf) {
                Err(_) => return Err(NetError::Proto(ProtoCode::BadPayload)),
                Ok(Some((f, _))) => match Kind::from_u8(f.kind) {
                    Some(Kind::HelloOk) => {
                        break frame::decode_hello_ok(f.payload)
                            .map_err(|_| NetError::Proto(ProtoCode::BadPayload))?
                            as usize;
                    }
                    Some(Kind::ProtoError) => {
                        let code = frame::decode_proto_error(f.payload)
                            .map_err(|_| NetError::Proto(ProtoCode::BadPayload))?;
                        return Err(match code {
                            ProtoCode::AuthFailed => NetError::AuthFailed,
                            c => NetError::Proto(c),
                        });
                    }
                    _ => return Err(NetError::Proto(ProtoCode::BadKind)),
                },
                Ok(None) => {
                    let mut chunk = [0u8; 4096];
                    let n = sock.read(&mut chunk)?;
                    if n == 0 {
                        return Err(NetError::Closed);
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        };
        sock.set_read_timeout(None)?;
        let shared = Arc::new(SharedCl {
            pending: Mutex::new(HashMap::new()),
            state: Mutex::new(WState { inflight: 0, dead: None, waiting: 0 }),
            cv: Condvar::new(),
        });
        let read_half = sock.try_clone()?;
        let reader = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("txkv-net-client".into())
                .spawn(move || reader_loop(read_half, &shared))
                .expect("spawn client reader")
        };
        Ok(NetClient {
            shared,
            write: Mutex::new((sock, wire)),
            next_corr: AtomicU64::new(1),
            window: window.max(1),
            reader: Some(reader),
        })
    }

    /// The server's advertised per-connection window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Submit one op; blocks while the window is full. The returned
    /// handle resolves to the typed outcome.
    pub fn submit(&self, op: &KvOp) -> Result<NetPending, NetError> {
        {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(dead) = &st.dead {
                    return Err(dead.clone());
                }
                if st.inflight < self.window {
                    st.inflight += 1;
                    break;
                }
                st.waiting += 1;
                st = self.shared.cv.wait(st).unwrap();
                st.waiting -= 1;
            }
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new());
        self.shared.pending.lock().unwrap().insert(corr, slot.clone());
        let write_res = {
            let mut w = self.write.lock().unwrap();
            let (sock, wire) = &mut *w;
            wire.clear();
            frame::encode_frame_with(Kind::Request, corr, wire, |out| frame::encode_op(op, out));
            sock.write_all(wire)
        };
        if let Err(e) = write_res {
            self.shared.pending.lock().unwrap().remove(&corr);
            release_window(&self.shared);
            self.shared.poison(NetError::Io(e.to_string()));
            return Err(NetError::Io(e.to_string()));
        }
        Ok(NetPending { slot })
    }

    /// Submit and block for the outcome.
    pub fn call(&self, op: &KvOp) -> Result<KvReply, NetError> {
        self.submit(op)?.wait()
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        self.write.lock().unwrap().0.shutdown();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn release_window(shared: &Arc<SharedCl>) {
    let mut st = shared.state.lock().unwrap();
    st.inflight = st.inflight.saturating_sub(1);
    // Submitters count themselves in under this mutex before they wait.
    if st.waiting > 0 {
        shared.cv.notify_all();
    }
}

fn reader_loop(mut sock: Sock, shared: &Arc<SharedCl>) {
    // One buffer for the connection's lifetime; `buf[start..end]` is the
    // unparsed tail of the reply stream.
    let mut buf = vec![0u8; 64 * 1024];
    let (mut start, mut end) = (0, 0);
    loop {
        // Drain complete frames first, then block for more bytes.
        loop {
            match frame::decode_frame(&buf[start..end]) {
                Ok(None) => break,
                Ok(Some((f, used))) => {
                    start += used;
                    let outcome: Result<KvReply, NetError> = match Kind::from_u8(f.kind) {
                        Some(Kind::Reply) => match frame::decode_reply(f.payload) {
                            Ok(r) => Ok(r),
                            Err(_) => Err(NetError::Proto(ProtoCode::BadPayload)),
                        },
                        Some(Kind::Refused) => match frame::decode_refusal(f.payload) {
                            Ok(r) => Err(NetError::Refused(r)),
                            Err(_) => Err(NetError::Proto(ProtoCode::BadPayload)),
                        },
                        Some(Kind::ProtoError) => {
                            let code = frame::decode_proto_error(f.payload)
                                .unwrap_or(ProtoCode::BadPayload);
                            if code.poisons_stream() || f.corr == 0 {
                                shared.poison(NetError::Proto(code));
                                sock.shutdown();
                                return;
                            }
                            Err(NetError::Proto(code))
                        }
                        _ => {
                            shared.poison(NetError::Proto(ProtoCode::BadKind));
                            sock.shutdown();
                            return;
                        }
                    };
                    if let Some(slot) = shared.pending.lock().unwrap().remove(&f.corr) {
                        slot.fill(outcome);
                        release_window(shared);
                    }
                }
                Err(e) => {
                    // The server's reply stream is corrupt: nothing after
                    // this point can be trusted.
                    shared.poison(NetError::Proto(e.code()));
                    sock.shutdown();
                    return;
                }
            }
        }
        if start == end {
            (start, end) = (0, 0);
        } else if end == buf.len() {
            // A partial frame touches the end: slide it to the front, or
            // grow when it fills the buffer by itself.
            if start == 0 {
                buf.resize(2 * buf.len(), 0);
            }
            buf.copy_within(start..end, 0);
            (start, end) = (0, end - start);
        }
        match sock.read(&mut buf[end..]) {
            Ok(0) => {
                shared.poison(NetError::Closed);
                return;
            }
            Ok(n) => end += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                shared.poison(NetError::Io(e.to_string()));
                return;
            }
        }
    }
}
