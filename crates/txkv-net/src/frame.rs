//! Wire format: length-prefixed, CRC-guarded binary frames.
//!
//! Every frame is
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0x54584B56 ("TXKV" big-endian bytes, LE word)
//!      4     1  version    1
//!      5     1  kind       [`Kind`]
//!      6     2  flags      reserved, must be 0
//!      8     8  corr       correlation id, echoed verbatim in the answer
//!     16     4  len        payload length, <= [`MAX_PAYLOAD`]
//!     20     4  crc        CRC-32 (ISO-HDLC) over bytes [4, 20) + payload
//!     24   len  payload
//! ```
//!
//! all little-endian. The CRC covers everything except the magic (a fixed
//! resync marker) and the CRC field itself, so a torn or bit-flipped frame
//! is detected before any payload is interpreted. Framing errors (bad
//! magic, unsupported version, oversized length, CRC mismatch) poison the
//! *stream* — the reader can no longer trust where the next frame starts —
//! so the server answers with a [`Kind::ProtoError`] frame and closes.
//! Payload errors inside a well-framed request (unknown op tag, short
//! payload) are answered per-correlation-id and the connection lives on.
//!
//! Payload codecs for [`KvOp`] / [`KvReply`] mirror the in-process enums
//! one-to-one; every variable-length vector is validated against the
//! *remaining* payload length before allocation, so a fuzzer-supplied
//! length field cannot trigger an out-of-memory allocation.

use txkv::{KvError, KvOp, KvReply, OpClass};

/// Frame magic: `b"VKXT"` little-endian, i.e. the bytes `TXKV` reversed on
/// the wire so a hexdump of a frame starts `56 4B 58 54`.
pub const MAGIC: u32 = 0x5458_4B56;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed frame header size in bytes (payload follows).
pub const HEADER_LEN: usize = 24;
/// Hard payload bound; a `len` beyond this is a framing error regardless
/// of how many bytes actually arrived (protects the read buffer).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Frame kinds. Client-to-server: `Hello`, `Request`. Server-to-client:
/// `HelloOk`, `Reply`, `Refused`, `ProtoError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// First client frame: tenant id + auth token.
    Hello = 0,
    /// One [`KvOp`], answered by exactly one `Reply`, `Refused` or
    /// `ProtoError` carrying the same correlation id.
    Request = 1,
    /// Successful auth; payload carries the server's per-connection
    /// outstanding-request window.
    HelloOk = 2,
    /// A [`KvReply`].
    Reply = 3,
    /// Typed admission refusal ([`Refusal`]): the request was *answered*,
    /// not dropped — per-tenant `Overloaded`/`TooLarge`/`Unavailable`
    /// carried over the wire.
    Refused = 4,
    /// Protocol-level failure ([`ProtoCode`]). Stream-poisoning codes are
    /// followed by server-side close.
    ProtoError = 5,
}

impl Kind {
    pub fn from_u8(v: u8) -> Option<Kind> {
        match v {
            0 => Some(Kind::Hello),
            1 => Some(Kind::Request),
            2 => Some(Kind::HelloOk),
            3 => Some(Kind::Reply),
            4 => Some(Kind::Refused),
            5 => Some(Kind::ProtoError),
            _ => None,
        }
    }
}

/// Why a frame could not be interpreted at the protocol level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProtoCode {
    /// Version byte differs from [`VERSION`]. Stream-poisoning.
    BadVersion = 1,
    /// CRC mismatch: torn or corrupted frame. Stream-poisoning.
    BadCrc = 2,
    /// `len` exceeds [`MAX_PAYLOAD`]. Stream-poisoning.
    Oversize = 3,
    /// Unknown `kind` byte (well-framed; answered, connection lives).
    BadKind = 4,
    /// Payload did not decode for the declared kind (answered, lives).
    BadPayload = 5,
    /// A `Request` arrived before a successful `Hello`.
    NotAuthed = 6,
    /// `Hello` named an unknown tenant or a wrong token.
    AuthFailed = 7,
    /// Magic mismatch: the reader lost framing entirely. Stream-poisoning.
    BadMagic = 8,
    /// A second `Hello` on an authenticated connection.
    DuplicateHello = 9,
}

impl ProtoCode {
    pub fn from_u8(v: u8) -> Option<ProtoCode> {
        match v {
            1 => Some(ProtoCode::BadVersion),
            2 => Some(ProtoCode::BadCrc),
            3 => Some(ProtoCode::Oversize),
            4 => Some(ProtoCode::BadKind),
            5 => Some(ProtoCode::BadPayload),
            6 => Some(ProtoCode::NotAuthed),
            7 => Some(ProtoCode::AuthFailed),
            8 => Some(ProtoCode::BadMagic),
            9 => Some(ProtoCode::DuplicateHello),
            _ => None,
        }
    }

    /// Whether the error invalidates stream framing (the sender closes
    /// after answering) or only the one frame it answers.
    pub fn poisons_stream(self) -> bool {
        matches!(
            self,
            ProtoCode::BadMagic | ProtoCode::BadVersion | ProtoCode::BadCrc | ProtoCode::Oversize
        )
    }
}

/// One decoded frame; the payload borrows the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    pub kind: u8,
    pub corr: u64,
    pub payload: &'a [u8],
}

/// Framing-level decode failure (vs. payload-level [`PayloadError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    BadMagic,
    BadVersion(u8),
    Oversize(u32),
    BadCrc,
}

impl FrameError {
    pub fn code(self) -> ProtoCode {
        match self {
            FrameError::BadMagic => ProtoCode::BadMagic,
            FrameError::BadVersion(_) => ProtoCode::BadVersion,
            FrameError::Oversize(_) => ProtoCode::Oversize,
            FrameError::BadCrc => ProtoCode::BadCrc,
        }
    }
}

/// Payload did not decode for its declared kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadError;

// ------------------------------------------------------------------ CRC

/// CRC-32/ISO-HDLC (the zlib polynomial, reflected 0xEDB88320) — table
/// built at compile time, no dependency.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

pub fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for chunk in chunks {
        for &b in *chunk {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------- framing

/// Append one frame to `out`, its payload written in place by `payload`
/// (an `encode_*` call appending to the same vector): the header goes
/// first with length and CRC left open, and both are patched once the
/// payload is there — no intermediate payload buffer.
pub fn encode_frame_with(
    kind: Kind,
    corr: u64,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let at = out.len();
    let mut head = [0u8; HEADER_LEN]; // flags, len and crc start as 0
    head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    head[4] = VERSION;
    head[5] = kind as u8;
    head[8..16].copy_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(&head);
    payload(out);
    let (head, body) = out[at..].split_at_mut(HEADER_LEN);
    debug_assert!(body.len() <= MAX_PAYLOAD as usize);
    head[16..20].copy_from_slice(&(body.len() as u32).to_le_bytes());
    let crc = crc32(&[&head[4..20], body]);
    head[20..24].copy_from_slice(&crc.to_le_bytes());
}

/// Append one encoded frame carrying `payload` to `out`.
pub fn encode_frame(kind: Kind, corr: u64, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(HEADER_LEN + payload.len());
    encode_frame_with(kind, corr, out, |out| out.extend_from_slice(payload));
}

/// Try to decode one frame from the front of `buf`.
///
/// `Ok(Some((frame, consumed)))` — a whole valid frame; drop `consumed`
/// bytes. `Ok(None)` — incomplete, read more. `Err(_)` — the stream is
/// poisoned at its current position; the caller answers and closes.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    if u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let ver = buf[4];
    if ver != VERSION {
        return Err(FrameError::BadVersion(ver));
    }
    let len = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversize(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let crc_wire = u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]);
    let payload = &buf[HEADER_LEN..total];
    if crc32(&[&buf[4..20], payload]) != crc_wire {
        return Err(FrameError::BadCrc);
    }
    let corr =
        u64::from_le_bytes([buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15]]);
    Ok(Some((Frame { kind: buf[5], corr, payload }, total)))
}

// ------------------------------------------------------- payload: reader

/// Bounds-checked little-endian payload cursor.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        let b = *self.buf.get(self.pos).ok_or(PayloadError)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, PayloadError> {
        let end = self.pos.checked_add(4).ok_or(PayloadError)?;
        let s = self.buf.get(self.pos..end).ok_or(PayloadError)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        let end = self.pos.checked_add(8).ok_or(PayloadError)?;
        let s = self.buf.get(self.pos..end).ok_or(PayloadError)?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, PayloadError> {
        Ok(self.u64()? as i64)
    }

    /// Declared element count, validated against bytes actually left
    /// (`elem_bytes` per element) *before* any allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, PayloadError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(elem_bytes).ok_or(PayloadError)?;
        if self.buf.len() - self.pos < need {
            return Err(PayloadError);
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), PayloadError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PayloadError)
        }
    }
}

fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        None => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
    }
}

fn get_opt(r: &mut Reader) -> Result<Option<u64>, PayloadError> {
    let tag = r.u8()?;
    let v = r.u64()?;
    match tag {
        0 => Ok(None),
        1 => Ok(Some(v)),
        _ => Err(PayloadError),
    }
}

// ------------------------------------------------------------ ops

const OP_GET: u8 = 0;
const OP_MULTI_GET: u8 = 1;
const OP_SCAN_PREFIX: u8 = 2;
const OP_SCAN_RANGE: u8 = 3;
const OP_PUT: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_CAS: u8 = 6;
const OP_MULTI_PUT: u8 = 7;
const OP_MULTI_ADD: u8 = 8;
const OP_CALL: u8 = 9;

pub fn encode_op(op: &KvOp, out: &mut Vec<u8>) {
    match op {
        KvOp::Get { key } => {
            out.push(OP_GET);
            out.extend_from_slice(&key.to_le_bytes());
        }
        KvOp::MultiGet { keys } => {
            out.push(OP_MULTI_GET);
            out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for k in keys {
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
        KvOp::ScanPrefix { prefix, shift, limit } => {
            out.push(OP_SCAN_PREFIX);
            out.extend_from_slice(&prefix.to_le_bytes());
            out.extend_from_slice(&shift.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        KvOp::ScanRange { from, to, limit } => {
            out.push(OP_SCAN_RANGE);
            out.extend_from_slice(&from.to_le_bytes());
            out.extend_from_slice(&to.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        KvOp::Put { key, val } => {
            out.push(OP_PUT);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&val.to_le_bytes());
        }
        KvOp::Delete { key } => {
            out.push(OP_DELETE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        KvOp::Cas { key, expect, new } => {
            out.push(OP_CAS);
            out.extend_from_slice(&key.to_le_bytes());
            put_opt(out, *expect);
            out.extend_from_slice(&new.to_le_bytes());
        }
        KvOp::MultiPut { pairs } => {
            out.push(OP_MULTI_PUT);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (k, v) in pairs {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        KvOp::MultiAdd { deltas } => {
            out.push(OP_MULTI_ADD);
            out.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
            for (k, d) in deltas {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        KvOp::Call { proc, args, footprint, read_only } => {
            out.push(OP_CALL);
            out.extend_from_slice(&proc.to_le_bytes());
            out.push(u8::from(*read_only));
            out.extend_from_slice(&(args.len() as u32).to_le_bytes());
            for a in args {
                out.extend_from_slice(&a.to_le_bytes());
            }
            out.extend_from_slice(&(footprint.len() as u32).to_le_bytes());
            for k in footprint {
                out.extend_from_slice(&k.to_le_bytes());
            }
        }
    }
}

pub fn decode_op(payload: &[u8]) -> Result<KvOp, PayloadError> {
    let mut r = Reader::new(payload);
    let op = match r.u8()? {
        OP_GET => KvOp::Get { key: r.u64()? },
        OP_MULTI_GET => {
            let n = r.count(8)?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.u64()?);
            }
            KvOp::MultiGet { keys }
        }
        OP_SCAN_PREFIX => KvOp::ScanPrefix { prefix: r.u64()?, shift: r.u32()?, limit: r.u64()? },
        OP_SCAN_RANGE => KvOp::ScanRange { from: r.u64()?, to: r.u64()?, limit: r.u64()? },
        OP_PUT => KvOp::Put { key: r.u64()?, val: r.u64()? },
        OP_DELETE => KvOp::Delete { key: r.u64()? },
        OP_CAS => KvOp::Cas { key: r.u64()?, expect: get_opt(&mut r)?, new: r.u64()? },
        OP_MULTI_PUT => {
            let n = r.count(16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((r.u64()?, r.u64()?));
            }
            KvOp::MultiPut { pairs }
        }
        OP_MULTI_ADD => {
            let n = r.count(16)?;
            let mut deltas = Vec::with_capacity(n);
            for _ in 0..n {
                deltas.push((r.u64()?, r.i64()?));
            }
            KvOp::MultiAdd { deltas }
        }
        OP_CALL => {
            let proc = r.u64()?;
            let read_only = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PayloadError),
            };
            let na = r.count(8)?;
            let mut args = Vec::with_capacity(na);
            for _ in 0..na {
                args.push(r.u64()?);
            }
            let nf = r.count(8)?;
            let mut footprint = Vec::with_capacity(nf);
            for _ in 0..nf {
                footprint.push(r.u64()?);
            }
            KvOp::Call { proc, args, footprint, read_only }
        }
        _ => return Err(PayloadError),
    };
    r.done()?;
    Ok(op)
}

// ---------------------------------------------------------- replies

const RE_VALUE: u8 = 0;
const RE_VALUES: u8 = 1;
const RE_SCAN: u8 = 2;
const RE_DONE: u8 = 3;
const RE_CAS_OK: u8 = 4;
const RE_CAS_FAIL: u8 = 5;
const RE_CALL_OK: u8 = 6;
const RE_CALL_ABORTED: u8 = 7;
const RE_SHED: u8 = 8;
const RE_UNAVAILABLE: u8 = 9;

pub fn encode_reply(reply: &KvReply, out: &mut Vec<u8>) {
    match reply {
        KvReply::Value(v) => {
            out.push(RE_VALUE);
            put_opt(out, *v);
        }
        KvReply::Values(vs) => {
            out.push(RE_VALUES);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                put_opt(out, *v);
            }
        }
        KvReply::Scan { count, sum } => {
            out.push(RE_SCAN);
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&sum.to_le_bytes());
        }
        KvReply::Done { changed } => {
            out.push(RE_DONE);
            out.push(u8::from(*changed));
        }
        KvReply::CasOk => out.push(RE_CAS_OK),
        KvReply::CasFail(v) => {
            out.push(RE_CAS_FAIL);
            put_opt(out, *v);
        }
        KvReply::CallOk(vs) => {
            out.push(RE_CALL_OK);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for v in vs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        KvReply::CallAborted => out.push(RE_CALL_ABORTED),
        KvReply::Shed => out.push(RE_SHED),
        KvReply::Unavailable => out.push(RE_UNAVAILABLE),
    }
}

pub fn decode_reply(payload: &[u8]) -> Result<KvReply, PayloadError> {
    let mut r = Reader::new(payload);
    let reply = match r.u8()? {
        RE_VALUE => KvReply::Value(get_opt(&mut r)?),
        RE_VALUES => {
            let n = r.count(9)?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(get_opt(&mut r)?);
            }
            KvReply::Values(vs)
        }
        RE_SCAN => KvReply::Scan { count: r.u64()?, sum: r.u64()? },
        RE_DONE => KvReply::Done {
            changed: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PayloadError),
            },
        },
        RE_CAS_OK => KvReply::CasOk,
        RE_CAS_FAIL => KvReply::CasFail(get_opt(&mut r)?),
        RE_CALL_OK => {
            let n = r.count(8)?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(r.u64()?);
            }
            KvReply::CallOk(vs)
        }
        RE_CALL_ABORTED => KvReply::CallAborted,
        RE_SHED => KvReply::Shed,
        RE_UNAVAILABLE => KvReply::Unavailable,
        _ => return Err(PayloadError),
    };
    r.done()?;
    Ok(reply)
}

// --------------------------------------------------------- refusals

/// Where in the admission stack an [`RefusedKind::Overloaded`] refusal
/// originated — the wire-visible difference between "the backend queue is
/// full" and "*your tenant* is over quota".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RefusalScope {
    /// Backend submission-queue lane full ([`KvError::Overloaded`]).
    Queue = 0,
    /// The tenant's token bucket is empty: per-tenant quota refusal.
    Quota = 1,
    /// SLO-aware pressure shedding picked this (tenant, class) to drop.
    Pressure = 2,
}

impl RefusalScope {
    fn from_u8(v: u8) -> Option<RefusalScope> {
        match v {
            0 => Some(RefusalScope::Queue),
            1 => Some(RefusalScope::Quota),
            2 => Some(RefusalScope::Pressure),
            _ => None,
        }
    }
}

/// Refusal categories, mirroring [`KvError`] with per-tenant context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RefusedKind {
    Overloaded = 0,
    ShuttingDown = 1,
    TooLarge = 2,
    Unavailable = 3,
}

impl RefusedKind {
    fn from_u8(v: u8) -> Option<RefusedKind> {
        match v {
            0 => Some(RefusedKind::Overloaded),
            1 => Some(RefusedKind::ShuttingDown),
            2 => Some(RefusedKind::TooLarge),
            3 => Some(RefusedKind::Unavailable),
            _ => None,
        }
    }
}

/// A typed admission refusal as carried on the wire: which tenant, which
/// op class, which shard (when routing had resolved one), and — for
/// `Overloaded` — which layer of the admission stack refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    pub kind: RefusedKind,
    pub scope: RefusalScope,
    /// Tenant the refusal is charged to.
    pub tenant: u64,
    pub class: Option<OpClass>,
    pub shard: Option<u32>,
    /// `TooLarge` detail: keys carried / pipeline maximum.
    pub keys: u32,
    pub max: u32,
}

impl Refusal {
    /// Lift a backend [`KvError`] into a wire refusal charged to `tenant`.
    pub fn from_kv(err: KvError, tenant: u64) -> Refusal {
        let (kind, keys, max) = match err {
            KvError::Overloaded { .. } => (RefusedKind::Overloaded, 0, 0),
            KvError::ShuttingDown => (RefusedKind::ShuttingDown, 0, 0),
            KvError::TooLarge { keys, max, .. } => (RefusedKind::TooLarge, keys, max),
            KvError::Unavailable { .. } => (RefusedKind::Unavailable, 0, 0),
        };
        Refusal {
            kind,
            scope: RefusalScope::Queue,
            tenant,
            class: err.class(),
            shard: err.shard(),
            keys,
            max,
        }
    }

    /// Per-tenant quota refusal (token bucket empty).
    pub fn quota(tenant: u64, class: OpClass) -> Refusal {
        Refusal {
            kind: RefusedKind::Overloaded,
            scope: RefusalScope::Quota,
            tenant,
            class: Some(class),
            shard: None,
            keys: 0,
            max: 0,
        }
    }

    /// SLO-aware pressure shed of (tenant, class).
    pub fn pressure(tenant: u64, class: OpClass) -> Refusal {
        Refusal {
            kind: RefusedKind::Overloaded,
            scope: RefusalScope::Pressure,
            tenant,
            class: Some(class),
            shard: None,
            keys: 0,
            max: 0,
        }
    }
}

fn class_to_u8(c: Option<OpClass>) -> u8 {
    c.map(|c| c.index() as u8).unwrap_or(u8::MAX)
}

fn class_from_u8(v: u8) -> Result<Option<OpClass>, PayloadError> {
    if v == u8::MAX {
        return Ok(None);
    }
    OpClass::ALL.get(v as usize).copied().map(Some).ok_or(PayloadError)
}

pub fn encode_refusal(r: &Refusal, out: &mut Vec<u8>) {
    out.push(r.kind as u8);
    out.push(r.scope as u8);
    out.push(class_to_u8(r.class));
    out.extend_from_slice(&r.shard.map(i64::from).unwrap_or(-1).to_le_bytes());
    out.extend_from_slice(&r.tenant.to_le_bytes());
    out.extend_from_slice(&r.keys.to_le_bytes());
    out.extend_from_slice(&r.max.to_le_bytes());
}

pub fn decode_refusal(payload: &[u8]) -> Result<Refusal, PayloadError> {
    let mut r = Reader::new(payload);
    let kind = RefusedKind::from_u8(r.u8()?).ok_or(PayloadError)?;
    let scope = RefusalScope::from_u8(r.u8()?).ok_or(PayloadError)?;
    let class = class_from_u8(r.u8()?)?;
    let shard_raw = r.i64()?;
    let shard = if shard_raw < 0 {
        None
    } else {
        Some(u32::try_from(shard_raw).map_err(|_| PayloadError)?)
    };
    let tenant = r.u64()?;
    let keys = r.u32()?;
    let max = r.u32()?;
    r.done()?;
    Ok(Refusal { kind, scope, tenant, class, shard, keys, max })
}

// ---------------------------------------------------- hello / control

pub fn encode_hello(tenant: u64, token: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&token.to_le_bytes());
}

pub fn decode_hello(payload: &[u8]) -> Result<(u64, u64), PayloadError> {
    let mut r = Reader::new(payload);
    let tenant = r.u64()?;
    let token = r.u64()?;
    r.done()?;
    Ok((tenant, token))
}

pub fn encode_hello_ok(window: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&window.to_le_bytes());
}

pub fn decode_hello_ok(payload: &[u8]) -> Result<u32, PayloadError> {
    let mut r = Reader::new(payload);
    let w = r.u32()?;
    r.done()?;
    Ok(w)
}

pub fn encode_proto_error(code: ProtoCode, out: &mut Vec<u8>) {
    out.push(code as u8);
}

pub fn decode_proto_error(payload: &[u8]) -> Result<ProtoCode, PayloadError> {
    let mut r = Reader::new(payload);
    let c = ProtoCode::from_u8(r.u8()?).ok_or(PayloadError)?;
    r.done()?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<KvOp> {
        vec![
            KvOp::Get { key: 7 },
            KvOp::MultiGet { keys: vec![1, 2, 3, u64::MAX] },
            KvOp::MultiGet { keys: vec![] },
            KvOp::ScanPrefix { prefix: 9, shift: 12, limit: 100 },
            KvOp::ScanRange { from: 3, to: 11, limit: 5 },
            KvOp::Put { key: 1, val: 2 },
            KvOp::Delete { key: 0 },
            KvOp::Cas { key: 5, expect: None, new: 9 },
            KvOp::Cas { key: 5, expect: Some(4), new: 9 },
            KvOp::MultiPut { pairs: vec![(1, 2), (3, 4)] },
            KvOp::MultiAdd { deltas: vec![(1, -5), (2, 5)] },
            KvOp::Call { proc: 1, args: vec![4, 5], footprint: vec![6], read_only: false },
            KvOp::Call { proc: 2, args: vec![], footprint: vec![], read_only: true },
        ]
    }

    fn all_replies() -> Vec<KvReply> {
        vec![
            KvReply::Value(None),
            KvReply::Value(Some(42)),
            KvReply::Values(vec![None, Some(1), Some(u64::MAX)]),
            KvReply::Values(vec![]),
            KvReply::Scan { count: 3, sum: 99 },
            KvReply::Done { changed: true },
            KvReply::Done { changed: false },
            KvReply::CasOk,
            KvReply::CasFail(None),
            KvReply::CasFail(Some(8)),
            KvReply::CallOk(vec![1, 2, 3]),
            KvReply::CallAborted,
            KvReply::Shed,
            KvReply::Unavailable,
        ]
    }

    #[test]
    fn ops_roundtrip() {
        for op in all_ops() {
            let mut p = Vec::new();
            encode_op(&op, &mut p);
            assert_eq!(decode_op(&p).unwrap(), op, "roundtrip {op:?}");
        }
    }

    #[test]
    fn replies_roundtrip() {
        for reply in all_replies() {
            let mut p = Vec::new();
            encode_reply(&reply, &mut p);
            assert_eq!(decode_reply(&p).unwrap(), reply, "roundtrip {reply:?}");
        }
    }

    #[test]
    fn frames_roundtrip_and_split_reads_resume() {
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        encode_op(&KvOp::Get { key: 1 }, &mut payload);
        encode_frame(Kind::Request, 77, &payload, &mut wire);
        // Byte-at-a-time delivery: Ok(None) until the last byte.
        for cut in 0..wire.len() {
            assert_eq!(decode_frame(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
        let (frame, used) = decode_frame(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(frame.corr, 77);
        assert_eq!(frame.kind, Kind::Request as u8);
        assert_eq!(decode_op(frame.payload).unwrap(), KvOp::Get { key: 1 });
    }

    #[test]
    fn in_place_encoding_is_the_documented_layout_at_any_offset() {
        let reply = KvReply::Values(vec![Some(3), None]);
        let mut payload = Vec::new();
        encode_reply(&reply, &mut payload);
        let mut want = b"earlier frames".to_vec();
        want.extend_from_slice(&MAGIC.to_le_bytes());
        want.extend_from_slice(&[VERSION, Kind::Reply as u8, 0, 0]);
        want.extend_from_slice(&9u64.to_le_bytes());
        want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32(&[&want[18..34], &payload]);
        want.extend_from_slice(&crc.to_le_bytes());
        want.extend_from_slice(&payload);
        let mut via_slice = b"earlier frames".to_vec();
        encode_frame(Kind::Reply, 9, &payload, &mut via_slice);
        assert_eq!(via_slice, want);
        let mut in_place = b"earlier frames".to_vec();
        encode_frame_with(Kind::Reply, 9, &mut in_place, |out| encode_reply(&reply, out));
        assert_eq!(in_place, want);
        let (frame, used) = decode_frame(&in_place[14..]).unwrap().unwrap();
        assert_eq!((frame.corr, used), (9, want.len() - 14));
        assert_eq!(decode_reply(frame.payload).unwrap(), reply);
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let mut wire = Vec::new();
        encode_frame(Kind::Reply, 5, &[1, 2, 3, 4], &mut wire);
        // Any single-bit flip anywhere outside the magic must surface as
        // a framing error or a changed-but-detected CRC; flips inside the
        // magic are BadMagic.
        for byte in 0..wire.len() {
            let mut t = wire.clone();
            t[byte] ^= 0x01;
            match decode_frame(&t) {
                Err(_) => {}
                Ok(Some(_)) => panic!("bit flip at byte {byte} went undetected"),
                // Flipping a length byte can make the frame "incomplete";
                // that is safe (the reader just waits for more bytes).
                Ok(None) => assert!((16..20).contains(&byte), "byte {byte} vanished"),
            }
        }
    }

    #[test]
    fn oversize_and_version_are_refused() {
        let mut wire = Vec::new();
        encode_frame(Kind::Request, 1, &[0u8; 4], &mut wire);
        let mut big = wire.clone();
        big[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_frame(&big), Err(FrameError::Oversize(_))));
        let mut vers = wire.clone();
        vers[4] = 2;
        assert!(matches!(decode_frame(&vers), Err(FrameError::BadVersion(2))));
        let mut magic = wire;
        magic[0] ^= 0xFF;
        assert!(matches!(decode_frame(&magic), Err(FrameError::BadMagic)));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A MultiGet claiming u32::MAX keys in a 13-byte payload must be
        // rejected by the pre-allocation bounds check, not by OOM.
        let mut p = vec![OP_MULTI_GET];
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_op(&p), Err(PayloadError));
    }

    #[test]
    fn refusals_roundtrip() {
        let cases = [
            Refusal::from_kv(txkv::KvError::Overloaded { class: OpClass::Put, shard: Some(3) }, 9),
            Refusal::from_kv(txkv::KvError::ShuttingDown, 1),
            Refusal::from_kv(
                txkv::KvError::TooLarge { class: OpClass::MultiPut, keys: 64, max: 16 },
                2,
            ),
            Refusal::from_kv(txkv::KvError::Unavailable { class: OpClass::Cas, shard: 0 }, 3),
            Refusal::quota(7, OpClass::Scan),
            Refusal::pressure(8, OpClass::MultiGet),
        ];
        for r in cases {
            let mut p = Vec::new();
            encode_refusal(&r, &mut p);
            assert_eq!(decode_refusal(&p).unwrap(), r, "roundtrip {r:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_a_payload_error() {
        let mut p = Vec::new();
        encode_op(&KvOp::Get { key: 1 }, &mut p);
        p.push(0);
        assert_eq!(decode_op(&p), Err(PayloadError));
    }

    #[test]
    fn crc_reference_vector() {
        // CRC-32/ISO-HDLC of "123456789" is the classic 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
    }
}
