//! Hostile-request tests: malformed wire input and corrupted payloads
//! must come back as *typed 4xx responses* — never a panic, never a
//! hung daemon. Reuses the `ppdt_data::corrupt` mutators so the same
//! corruption population that exercises the CLI fault-injection
//! harness also exercises the HTTP surface.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;

use ppdt_data::corrupt::{corrupt_csv, ALL_CSV_CORRUPTIONS};
use ppdt_data::csv::to_csv;
use ppdt_data::gen::census_like;
use ppdt_serve::handlers::{EncodeRequest, StoreKeyRequest, StoreKeyResponse};
use ppdt_serve::{request, ServerConfig};
use ppdt_transform::{EncodeConfig, Encoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Writes raw bytes to the daemon and returns the full response text
/// (status line + headers + body).
fn raw(srv: &common::TestServer, bytes: &[u8]) -> String {
    ppdt_serve::client::raw_probe(srv.addr, bytes, std::time::Duration::from_secs(10))
        .expect("raw probe")
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

fn assert_healthy(srv: &common::TestServer) {
    let (status, _) = request(srv.addr, "GET", "/healthz", "").expect("healthz reachable");
    assert_eq!(status, 200, "daemon must stay healthy after hostile input");
}

#[test]
fn wire_level_garbage_gets_typed_4xx() {
    let srv = common::start(ServerConfig::default(), "wire");

    // Truncated body: Content-Length promises more than arrives.
    let r = raw(&srv, b"POST /v1/encode HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"a\":");
    assert_eq!(status_of(&r), 400);
    assert!(r.contains("truncated_body"), "{r}");

    // Content-Length beyond the body cap is refused before buffering.
    let r = raw(&srv, b"POST /v1/encode HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n");
    assert!(matches!(status_of(&r), 400 | 413), "{r}");

    // Garbage request line.
    let r = raw(&srv, b"\x01\x02\x03 nonsense\r\n\r\n");
    assert_eq!(status_of(&r), 400);

    // Oversized head.
    let mut big = b"GET /healthz HTTP/1.1\r\n".to_vec();
    big.extend(std::iter::repeat_n(b'x', 20 * 1024));
    big.extend_from_slice(b": y\r\n\r\n");
    let r = raw(&srv, &big);
    assert_eq!(status_of(&r), 431);

    // Chunked transfer is supported now — but broken chunk framing
    // (a garbage chunk-size line) is a 400, answered without reading
    // further into the poisoned stream.
    let r = raw(
        &srv,
        b"POST /v1/encode HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n",
    );
    assert_eq!(status_of(&r), 400);
    assert!(r.contains("bad_chunk"), "{r}");

    // A chunked body that just stops mid-frame is also a clean 400.
    let r = raw(&srv, b"POST /v1/encode HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");

    // Unknown route and wrong method.
    let (status, body) = request(srv.addr, "GET", "/nope", "").expect("request");
    assert_eq!(status, 404);
    assert!(body.contains("unknown_route"), "{body}");
    let (status, _) = request(srv.addr, "GET", "/v1/encode", "").expect("request");
    assert_eq!(status, 405);
    // Debug endpoints are not routable unless enabled.
    let (status, _) = request(srv.addr, "POST", "/v1/debug/sleep", "{\"ms\":1}").expect("request");
    assert_eq!(status, 404);

    assert_healthy(&srv);
    srv.stop();
}

#[test]
fn malformed_payloads_get_typed_4xx() {
    let srv = common::start(ServerConfig::default(), "payload");

    // Non-UTF-8 body.
    let r = raw(&srv, b"POST /v1/encode HTTP/1.1\r\ncontent-length: 4\r\n\r\n\xff\xfe\x00\x01");
    assert_eq!(status_of(&r), 400);
    assert!(r.contains("invalid_utf8"), "{r}");

    // Valid UTF-8, invalid JSON.
    let (status, body) = request(srv.addr, "POST", "/v1/encode", "{not json").expect("request");
    assert_eq!(status, 400);
    assert!(body.contains("invalid_json"), "{body}");

    // Valid JSON, wrong shape.
    let (status, _) = request(srv.addr, "POST", "/v1/encode", "{\"x\": 3}").expect("request");
    assert_eq!(status, 400);

    // Nesting past the parser's 512-level cap is refused as invalid
    // JSON instead of recursing the worker's stack away.
    let deep = "[".repeat(100_000);
    let (status, body) = request(srv.addr, "POST", "/v1/encode", &deep).expect("request");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_json"), "{body}");

    // Nesting at the cap parses on a worker's stack, then fails the
    // request's shape.
    let at_cap = format!("{}1{}", "{\"a\":".repeat(512), "}".repeat(512));
    let (status, body) = request(srv.addr, "POST", "/v1/encode", &at_cap).expect("request");
    assert_eq!(status, 400, "{body}");

    // Both csv and rows (ambiguous) is a usage error.
    let (status, body) = request(
        srv.addr,
        "POST",
        "/v1/encode",
        "{\"key_id\": \"00000000000000000000000000000000\", \"csv\": \"a\", \"rows\": [[1.0]]}",
    )
    .expect("request");
    assert_eq!(status, 400, "{body}");

    // Unknown (well-formed) key id is a 404, malformed id a 400:
    // the client sent garbage, no stored key is corrupt.
    let (status, body) = request(
        srv.addr,
        "POST",
        "/v1/encode",
        "{\"key_id\": \"00000000000000000000000000000000\", \"csv\": \"a,label\\n1,x\\n\"}",
    )
    .expect("request");
    assert_eq!(status, 404);
    assert!(body.contains("unknown_key"), "{body}");
    let (status, body) = request(
        srv.addr,
        "POST",
        "/v1/encode",
        "{\"key_id\": \"../../etc/passwd\", \"csv\": \"a,label\\n1,x\\n\"}",
    )
    .expect("request");
    assert_eq!(status, 400, "path-traversal ids are client usage errors: {body}");
    assert!(body.contains("invalid_key_id"), "{body}");

    assert_healthy(&srv);
    srv.stop();
}

/// The REVIEW-1 regression: a connection that accepts and then stalls
/// mid-request (slow-loris) must not stall the daemon. The acceptor
/// never reads, parsing happens on dedicated threads under an overall
/// parse deadline, so `/healthz` keeps answering promptly and the
/// loris is cut off with `408`.
#[test]
fn slow_connections_cannot_stall_liveness() {
    use std::time::{Duration, Instant};
    let cfg =
        ServerConfig { parse_deadline: Duration::from_millis(700), ..ServerConfig::default() };
    let srv = common::start(cfg, "loris");

    // Partial head, then silence. The connection stays open.
    let mut loris = TcpStream::connect(srv.addr).expect("connect");
    loris.write_all(b"POST /v1/encode HTTP/1.1\r\ncontent-le").expect("write");
    std::thread::sleep(Duration::from_millis(50));

    // While the loris dangles, liveness answers promptly.
    let started = Instant::now();
    let (status, _) = request(srv.addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    assert!(
        started.elapsed() < Duration::from_millis(600),
        "healthz must not wait on a slow connection ({:?})",
        started.elapsed()
    );

    // A slow *body* (full head, Content-Length never delivered) is
    // bounded by the same deadline.
    let mut slow_body = TcpStream::connect(srv.addr).expect("connect");
    slow_body
        .write_all(b"POST /v1/encode HTTP/1.1\r\ncontent-length: 100000\r\n\r\n{\"key_id")
        .expect("write");

    // Both are cut off at the parse deadline with 408.
    for mut conn in [loris, slow_body] {
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
        let mut out = Vec::new();
        conn.read_to_end(&mut out).expect("read");
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("request_timeout"), "{text}");
    }

    assert_healthy(&srv);
    srv.stop();
}

/// Slow heads cost no thread: with a single worker and three
/// connections stalled mid-head — more than any fixed set of reader
/// threads would hold — liveness and a pooled request still answer
/// promptly, and every stalled connection is cut off with `408` at the
/// parse deadline.
#[test]
fn slow_heads_cost_no_worker() {
    use std::time::{Duration, Instant};
    let cfg = ServerConfig {
        workers: 1,
        parse_deadline: Duration::from_millis(700),
        ..ServerConfig::default()
    };
    let srv = common::start(cfg, "slowheads");

    let mut stalled = Vec::new();
    for _ in 0..3 {
        let mut conn = TcpStream::connect(srv.addr).expect("connect");
        conn.write_all(b"GET /v1/keys HTTP/1.1\r\nhost: loc").expect("write");
        stalled.push(conn);
    }
    std::thread::sleep(Duration::from_millis(50));

    for path in ["/healthz", "/v1/keys"] {
        let started = Instant::now();
        let (status, body) = request(srv.addr, "GET", path, "").expect("answered");
        assert_eq!(status, 200, "{path}: {body}");
        assert!(
            started.elapsed() < Duration::from_millis(300),
            "{path} waited {:?} behind stalled heads",
            started.elapsed()
        );
    }

    for mut conn in stalled {
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut out = Vec::new();
        conn.read_to_end(&mut out).expect("read");
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("request_timeout"), "{text}");
    }

    assert_healthy(&srv);
    srv.stop();
}

/// Clients that pipeline requests and never read the answers cannot
/// stall the daemon: its own answers never wait on a full socket, so
/// liveness on another connection stays prompt while they fill up.
#[test]
fn clients_that_stop_reading_cannot_stall_liveness() {
    use std::time::{Duration, Instant};
    let cfg = ServerConfig { keep_alive_requests: u64::MAX, ..ServerConfig::default() };
    let srv = common::start(cfg, "nonreader");

    let burst = b"GET /metrics HTTP/1.1\r\n\r\n".repeat(40_000);
    let mut hogs = Vec::new();
    for _ in 0..3 {
        let mut hog = TcpStream::connect(srv.addr).expect("connect");
        hog.set_write_timeout(Some(Duration::from_secs(5))).expect("timeout");
        // The daemon may drop the connection before it takes it all.
        let _ = hog.write_all(&burst);
        hogs.push(hog);
    }

    for _ in 0..5 {
        let started = Instant::now();
        let (status, _) = request(srv.addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "healthz waited {:?} behind clients that stopped reading",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    drop(hogs);
    srv.stop();
}

/// A panicking handler costs one `500`, not a worker thread: with a
/// single worker, a dead worker would hang every later request, and a
/// leaked in-flight increment would pin the gauge above zero forever.
#[test]
fn handler_panic_answers_500_and_the_worker_survives() {
    let cfg = ServerConfig { workers: 1, debug_endpoints: true, ..ServerConfig::default() };
    let srv = common::start(cfg, "panic");

    let (status, body) = request(srv.addr, "POST", "/v1/debug/panic", "").expect("answered");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");

    // The single worker is still alive and serving.
    let (status, _) = request(srv.addr, "GET", "/v1/keys", "").expect("daemon alive");
    assert_eq!(status, 200);

    // The in-flight gauge was not leaked by the panic path.
    let (status, text) = request(srv.addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let v: serde::Value = serde_json::from_str(&text).expect("metrics parses");
    let in_flight = v
        .get("serve")
        .and_then(|s| s.get("in_flight"))
        .and_then(|x| x.as_f64())
        .expect("serve.in_flight");
    assert_eq!(in_flight, 0.0, "panic must not leak the in-flight count");

    srv.stop();
}

#[test]
fn corrupted_csv_bodies_never_break_the_daemon() {
    let srv = common::start(ServerConfig::default(), "corrupt");

    let mut rng = StdRng::seed_from_u64(0xF417);
    let d = census_like(&mut rng, 80);
    let (key, _) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    let payload = serde_json::to_string(&StoreKeyRequest { key }).expect("serialize");
    let (status, text) = request(srv.addr, "POST", "/v1/keys", &payload).expect("store key");
    assert_eq!(status, 201, "{text}");
    let stored: StoreKeyResponse = serde_json::from_str(&text).expect("parses");

    let good = to_csv(&d);
    let mut rejected = 0usize;
    for (k, kind) in ALL_CSV_CORRUPTIONS.iter().enumerate() {
        for i in 0..6u64 {
            let seed = 0xBAD_5EED ^ ((k as u64) << 8) ^ i;
            let bad = corrupt_csv(&good, *kind, seed);
            let body = serde_json::to_string(&EncodeRequest {
                key_id: stored.key_id.clone(),
                csv: Some(bad),
                rows: None,
            })
            .expect("serialize");
            let (status, text) =
                request(srv.addr, "POST", "/v1/encode", &body).expect("daemon answers");
            // A mutation can leave the CSV parseable-and-in-domain
            // (a flipped digit), so success is legal; a server error
            // or a hang is not.
            assert!(
                status == 200 || (400..500).contains(&status),
                "corruption {kind:?} seed {seed}: unexpected {status}: {text}"
            );
            if status != 200 {
                rejected += 1;
                assert!(text.contains("\"error\""), "typed error body expected: {text}");
            }
        }
    }
    assert!(rejected > 0, "at least some corruptions must be rejected");

    assert_healthy(&srv);
    srv.stop();
}
