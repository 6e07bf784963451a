//! Protocol robustness: hostile and torn input must never panic the
//! server, stall an executor, or leak a connection — every outcome is a
//! typed protocol error or a clean close, and the server keeps serving
//! fresh connections afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tm_api::TmBackend;
use txkv::{KvOp, KvReply, KvStore, Pipeline, PipelineConfig};
use txkv_net::frame::{self, Kind, ProtoCode, MAX_PAYLOAD};
use txkv_net::{
    NetClient, NetError, NetReport, NetServer, NetServerConfig, ShedConfig, TenantSpec,
};

const TENANT: u64 = 1;
const TOKEN: u64 = 0xBEEF;

fn tenant_spec() -> TenantSpec {
    TenantSpec { id: TENANT, token: TOKEN, priority: 0, rate: 1_000_000, burst: 1_000_000 }
}

fn start_service() -> (Pipeline<si_htm::SiHtm>, NetServer) {
    let backend = si_htm::SiHtm::with_defaults(1 << 16);
    let store = KvStore::create(backend.memory(), 0, 1 << 16);
    let pipeline = Pipeline::start(backend, store, PipelineConfig::quick());
    let server = NetServer::start(
        pipeline.client(),
        NetServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            uds: Some(uds_path()),
            window: 64,
            tenants: vec![tenant_spec()],
            shed: ShedConfig::new(),
        },
    )
    .expect("server start");
    (pipeline, server)
}

fn uds_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "txkv-net-test-{}-{}.sock",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every test's server must stop without ever having needed the poll
/// timeout to notice a reply burst (a lost reactor wake-up).
fn shutdown_checked(server: NetServer) -> NetReport {
    let net = server.shutdown();
    assert_eq!(net.wake_rescues, 0, "a reply burst waited for the reactor's poll timeout");
    net
}

/// The liveness probe: a fresh, well-behaved connection must round-trip.
fn assert_alive(server: &NetServer) {
    let client =
        NetClient::connect_tcp(server.tcp_addr().unwrap(), TENANT, TOKEN).expect("connect");
    assert_eq!(
        client.call(&KvOp::Put { key: 999, val: 1 }).unwrap(),
        KvReply::Done { changed: true }
    );
    assert_eq!(client.call(&KvOp::Get { key: 999 }).unwrap(), KvReply::Value(Some(1)));
    assert_eq!(client.call(&KvOp::Delete { key: 999 }).unwrap(), KvReply::Done { changed: true });
}

/// A decoded frame that owns its payload (`frame::Frame` borrows it).
struct OwnedFrame {
    kind: u8,
    corr: u64,
    payload: Vec<u8>,
}

/// Read frames from a raw socket until one decodes (or EOF / timeout).
fn read_frame(sock: &mut TcpStream) -> Option<OwnedFrame> {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    loop {
        match frame::decode_frame(&buf) {
            Ok(Some((f, _))) => {
                return Some(OwnedFrame {
                    kind: f.kind,
                    corr: f.corr,
                    payload: f.payload.to_vec(),
                });
            }
            Ok(None) => {}
            Err(_) => panic!("server sent an undecodable frame"),
        }
        let mut chunk = [0u8; 4096];
        match sock.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
}

fn expect_proto_error(sock: &mut TcpStream, code: ProtoCode) {
    let f = read_frame(sock).expect("expected a ProtoError frame before close");
    assert_eq!(f.kind, Kind::ProtoError as u8, "expected ProtoError, got kind {}", f.kind);
    assert_eq!(frame::decode_proto_error(&f.payload).unwrap(), code);
}

fn expect_eof(sock: &mut TcpStream) {
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 64];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => return,
            Ok(_) => continue, // drain whatever the server flushed first
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
}

fn raw_conn(server: &NetServer) -> TcpStream {
    TcpStream::connect(server.tcp_addr().unwrap()).expect("raw connect")
}

fn hello_frame() -> Vec<u8> {
    let mut payload = Vec::new();
    frame::encode_hello(TENANT, TOKEN, &mut payload);
    let mut wire = Vec::new();
    frame::encode_frame(Kind::Hello, 0, &payload, &mut wire);
    wire
}

#[test]
fn roundtrip_over_tcp_and_uds() {
    let (pipeline, server) = start_service();
    for make in [true, false] {
        let client = if make {
            NetClient::connect_tcp(server.tcp_addr().unwrap(), TENANT, TOKEN).unwrap()
        } else {
            NetClient::connect_uds(server.uds_path().unwrap(), TENANT, TOKEN).unwrap()
        };
        let base = if make { 0u64 } else { 1000 };
        assert_eq!(
            client.call(&KvOp::Put { key: base + 1, val: 11 }).unwrap(),
            KvReply::Done { changed: true }
        );
        assert_eq!(
            client.call(&KvOp::Cas { key: base + 1, expect: Some(11), new: 12 }).unwrap(),
            KvReply::CasOk
        );
        assert_eq!(
            client.call(&KvOp::MultiGet { keys: vec![base + 1, base + 2] }).unwrap(),
            KvReply::Values(vec![Some(12), None])
        );
        assert_eq!(
            client.call(&KvOp::MultiPut { pairs: vec![(base + 2, 2), (base + 3, 3)] }).unwrap(),
            KvReply::Done { changed: true }
        );
        match client.call(&KvOp::ScanRange { from: base, to: base + 10, limit: 100 }).unwrap() {
            KvReply::Scan { count, sum } => {
                assert_eq!(count, 3);
                assert_eq!(sum, 12 + 2 + 3);
            }
            other => panic!("scan answered {other:?}"),
        }
        // No procedures registered: Call is answered CallAborted, typed.
        assert_eq!(
            client
                .call(&KvOp::Call {
                    proc: 9,
                    args: vec![],
                    footprint: vec![base],
                    read_only: false
                })
                .unwrap(),
            KvReply::CallAborted
        );
    }
    let report = pipeline.shutdown();
    assert_eq!(report.starved_executors, 0);
    let net = shutdown_checked(server);
    assert_eq!(net.proto_errors, 0);
    assert_eq!(net.accepted, net.answered());
}

#[test]
fn pipelined_requests_demultiplex_by_correlation_id() {
    let (pipeline, server) = start_service();
    let client = NetClient::connect_tcp(server.tcp_addr().unwrap(), TENANT, TOKEN).unwrap();
    for k in 0..200u64 {
        client.call(&KvOp::Put { key: k, val: k * 7 }).unwrap();
    }
    // Fire a full window of gets without waiting, then match them all.
    let pending: Vec<_> =
        (0..200u64).map(|k| (k, client.submit(&KvOp::Get { key: k }).unwrap())).collect();
    for (k, p) in pending {
        assert_eq!(p.wait().unwrap(), KvReply::Value(Some(k * 7)), "corr mixed up key {k}");
    }
    pipeline.shutdown();
    shutdown_checked(server);
}

#[test]
fn bad_magic_answers_typed_error_and_closes() {
    let (pipeline, server) = start_service();
    let mut sock = raw_conn(&server);
    sock.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    expect_proto_error(&mut sock, ProtoCode::BadMagic);
    expect_eof(&mut sock);
    assert_alive(&server);
    pipeline.shutdown();
    let net = shutdown_checked(server);
    assert!(net.proto_errors >= 1);
}

#[test]
fn oversized_length_is_refused_before_buffering() {
    let (pipeline, server) = start_service();
    let mut sock = raw_conn(&server);
    let mut wire = hello_frame();
    // Corrupt the hello into an oversized frame: len > MAX_PAYLOAD.
    wire[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    sock.write_all(&wire).unwrap();
    expect_proto_error(&mut sock, ProtoCode::Oversize);
    expect_eof(&mut sock);
    assert_alive(&server);
    pipeline.shutdown();
    shutdown_checked(server);
}

#[test]
fn crc_mismatch_is_refused() {
    let (pipeline, server) = start_service();
    let mut sock = raw_conn(&server);
    let mut wire = hello_frame();
    let last = wire.len() - 1;
    wire[last] ^= 0x40; // flip one payload bit; header still parses
    sock.write_all(&wire).unwrap();
    expect_proto_error(&mut sock, ProtoCode::BadCrc);
    expect_eof(&mut sock);
    assert_alive(&server);
    pipeline.shutdown();
    shutdown_checked(server);
}

#[test]
fn wrong_version_is_refused() {
    let (pipeline, server) = start_service();
    let mut sock = raw_conn(&server);
    let mut wire = hello_frame();
    wire[4] = 99;
    sock.write_all(&wire).unwrap();
    expect_proto_error(&mut sock, ProtoCode::BadVersion);
    expect_eof(&mut sock);
    assert_alive(&server);
    pipeline.shutdown();
    shutdown_checked(server);
}

#[test]
fn truncated_frame_then_disconnect_is_harmless() {
    let (pipeline, server) = start_service();
    for cut in [1usize, 4, 10, 23] {
        let mut sock = raw_conn(&server);
        let wire = hello_frame();
        sock.write_all(&wire[..cut]).unwrap();
        drop(sock); // mid-frame disconnect
    }
    // Also: a valid hello followed by half a request, then disconnect.
    let mut sock = raw_conn(&server);
    sock.write_all(&hello_frame()).unwrap();
    let mut payload = Vec::new();
    frame::encode_op(&KvOp::Put { key: 1, val: 2 }, &mut payload);
    let mut req = Vec::new();
    frame::encode_frame(Kind::Request, 42, &payload, &mut req);
    sock.write_all(&req[..req.len() / 2]).unwrap();
    drop(sock);
    assert_alive(&server);
    let report = pipeline.shutdown();
    assert_eq!(report.starved_executors, 0);
    assert_eq!(report.panicked_executors, 0);
    shutdown_checked(server);
}

#[test]
fn request_before_hello_is_refused() {
    let (pipeline, server) = start_service();
    let mut sock = raw_conn(&server);
    let mut payload = Vec::new();
    frame::encode_op(&KvOp::Get { key: 1 }, &mut payload);
    let mut wire = Vec::new();
    frame::encode_frame(Kind::Request, 7, &payload, &mut wire);
    sock.write_all(&wire).unwrap();
    expect_proto_error(&mut sock, ProtoCode::NotAuthed);
    expect_eof(&mut sock);
    assert_alive(&server);
    pipeline.shutdown();
    shutdown_checked(server);
}

#[test]
fn bad_token_is_auth_failed() {
    let (pipeline, server) = start_service();
    match NetClient::connect_tcp(server.tcp_addr().unwrap(), TENANT, TOKEN ^ 1).map(|_| ()) {
        Err(NetError::AuthFailed) => {}
        other => panic!("wrong token must fail auth, got {other:?}"),
    }
    match NetClient::connect_tcp(server.tcp_addr().unwrap(), 777, TOKEN).map(|_| ()) {
        Err(NetError::AuthFailed) => {}
        other => panic!("unknown tenant must fail auth, got {other:?}"),
    }
    assert_alive(&server);
    pipeline.shutdown();
    let net = shutdown_checked(server);
    assert_eq!(net.auth_failures, 2);
}

#[test]
fn bad_payload_answers_per_request_and_connection_survives() {
    let (pipeline, server) = start_service();
    let mut sock = raw_conn(&server);
    sock.write_all(&hello_frame()).unwrap();
    let hello_ok = read_frame(&mut sock).expect("hello answered");
    assert_eq!(hello_ok.kind, Kind::HelloOk as u8);
    // Well-framed request whose payload is garbage for every op tag.
    let mut wire = Vec::new();
    frame::encode_frame(Kind::Request, 55, &[0xFF, 0xEE], &mut wire);
    sock.write_all(&wire).unwrap();
    let err = read_frame(&mut sock).expect("bad payload answered");
    assert_eq!(err.kind, Kind::ProtoError as u8);
    assert_eq!(err.corr, 55, "payload errors correlate to the offending request");
    assert_eq!(frame::decode_proto_error(&err.payload).unwrap(), ProtoCode::BadPayload);
    // Same connection still serves valid requests afterwards.
    let mut payload = Vec::new();
    frame::encode_op(&KvOp::Put { key: 5, val: 6 }, &mut payload);
    let mut wire = Vec::new();
    frame::encode_frame(Kind::Request, 56, &payload, &mut wire);
    sock.write_all(&wire).unwrap();
    let ok = read_frame(&mut sock).expect("valid request after bad payload answered");
    assert_eq!(ok.kind, Kind::Reply as u8);
    assert_eq!(ok.corr, 56);
    assert_eq!(frame::decode_reply(&ok.payload).unwrap(), KvReply::Done { changed: true });
    pipeline.shutdown();
    shutdown_checked(server);
}

/// Seeded frame fuzzer: random byte soup, frame-shaped garbage, and
/// truncated-valid-frame prefixes, interleaved with liveness probes.
/// The server must answer or close every fuzz connection and keep
/// serving well-behaved clients throughout.
#[test]
fn seeded_frame_fuzzer_never_wedges_the_server() {
    let (pipeline, server) = start_service();
    let mut rng = 0x5EED_F00D_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let deadline = Instant::now() + Duration::from_secs(15);
    for round in 0..60 {
        if Instant::now() > deadline {
            break; // stay bounded on slow machines; coverage is per-round
        }
        let mut sock = raw_conn(&server);
        let style = round % 3;
        let mut bytes = Vec::new();
        match style {
            // Pure noise.
            0 => {
                for _ in 0..(next() % 512 + 1) {
                    bytes.push(next() as u8);
                }
            }
            // Frame-shaped: valid magic + version, random rest; CRC is
            // correct half the time so payload decoding gets exercised.
            1 => {
                let kind = (next() % 8) as u8;
                let corr = next();
                let n = (next() % 64) as usize;
                let payload: Vec<u8> = (0..n).map(|_| next() as u8).collect();
                match Kind::from_u8(kind % 6) {
                    Some(k) if next() % 2 == 0 => {
                        frame::encode_frame(k, corr, &payload, &mut bytes)
                    }
                    _ => {
                        frame::encode_frame(Kind::Request, corr, &payload, &mut bytes);
                        bytes[5] = kind; // undo kind validity, keep framing
                        let len = bytes.len();
                        bytes[len - 1] ^= (next() % 255 + 1) as u8; // break crc sometimes
                    }
                }
            }
            // Valid hello + truncated valid request.
            _ => {
                bytes.extend_from_slice(&hello_frame());
                let mut payload = Vec::new();
                frame::encode_op(&KvOp::MultiGet { keys: vec![1, 2, 3] }, &mut payload);
                let mut req = Vec::new();
                frame::encode_frame(Kind::Request, next(), &payload, &mut req);
                let cut = (next() as usize % req.len()).max(1);
                bytes.extend_from_slice(&req[..cut]);
            }
        }
        let _ = sock.write_all(&bytes);
        if next() % 2 == 0 {
            drop(sock); // slam the door
        } else {
            // Politely read whatever the server answers until close or a
            // short timeout, then drop.
            sock.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let mut chunk = [0u8; 1024];
            while matches!(sock.read(&mut chunk), Ok(n) if n > 0) {}
        }
        if round % 10 == 9 {
            assert_alive(&server);
        }
    }
    assert_alive(&server);
    let report = pipeline.shutdown();
    assert_eq!(report.starved_executors, 0, "fuzzing must not stall an executor");
    assert_eq!(report.panicked_executors, 0, "fuzzing must not panic an executor");
    let net = shutdown_checked(server);
    assert_eq!(net.accepted, net.answered(), "every accepted request answered-or-shed");
}
