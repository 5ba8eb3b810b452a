//! Streaming (chunked) bodies on `/v1/encode` and `/v1/classify`:
//! round-trips against the buffered path, clean errors before the
//! response starts, chunked bodies on buffered endpoints, and the
//! connection surviving a successful stream.

mod common;

use ppdt_data::csv::to_csv;
use ppdt_data::gen::census_like;
use ppdt_data::AttrId;
use ppdt_serve::api::{
    ClassifyRequest, ClassifyResponse, EncodeRequest, EncodeResponse, StoreKeyRequest,
    StoreKeyResponse,
};
use ppdt_serve::http::Client;
use ppdt_serve::{request, ServerConfig};
use ppdt_transform::{EncodeConfig, Encoder, TransformKey};
use ppdt_tree::TreeBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn sample(seed: u64, rows: usize) -> (ppdt_data::Dataset, TransformKey) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = census_like(&mut rng, rows);
    let (key, _) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    (d, key)
}

fn store(srv: &common::TestServer, key: &TransformKey) -> String {
    let payload = serde_json::to_string(&StoreKeyRequest { key: key.clone() }).expect("serialize");
    let (status, text) = request(srv.addr, "POST", "/v1/keys", &payload).expect("store");
    assert!(status == 200 || status == 201, "store answered {status}: {text}");
    let stored: StoreKeyResponse = serde_json::from_str(&text).expect("parses");
    stored.key_id
}

/// Streams `body` up a chunked request in deliberately awkward chunk
/// sizes and returns the (status, body) of the chunked response.
fn stream_request(client: &mut Client, path: &str, header_line: &str, body: &str) -> (u16, String) {
    client.send_chunked_head("POST", path).expect("chunked head");
    client.send_chunk(format!("{header_line}\n").as_bytes()).expect("header chunk");
    // Split the payload mid-line so the daemon has to reassemble rows
    // across chunk boundaries.
    for piece in body.as_bytes().chunks(97) {
        client.send_chunk(piece).expect("body chunk");
    }
    client.finish_chunks().expect("finish");
    client.read_response().expect("response")
}

#[test]
fn chunked_encode_matches_the_buffered_answer() {
    ppdt_obs::set_enabled(true);
    let srv = common::start(ServerConfig::default(), "streamenc");
    let (d, key) = sample(11, 300);
    let key_id = store(&srv, &key);
    let csv = to_csv(&d);

    // Buffered reference answer.
    let payload = serde_json::to_string(&EncodeRequest {
        key_id: key_id.clone(),
        csv: Some(csv.clone()),
        rows: None,
    })
    .expect("serialize");
    let (status, text) = request(srv.addr, "POST", "/v1/encode", &payload).expect("encode");
    assert_eq!(status, 200, "{text}");
    let buffered: EncodeResponse = serde_json::from_str(&text).expect("parses");
    let expected = buffered.csv.expect("buffered csv");

    // Streamed answer over one keep-alive connection.
    let mut client = Client::connect(srv.addr).expect("connect");
    let header = format!("{{\"key_id\": \"{key_id}\"}}");
    let (status, streamed) = stream_request(&mut client, "/v1/encode", &header, &csv);
    assert_eq!(status, 200, "{streamed}");
    assert_eq!(streamed, expected, "streamed and buffered encodes must match byte-for-byte");

    // The connection survives a successful stream.
    let (status, _) = client.request("GET", "/healthz", "").expect("healthz after stream");
    assert_eq!(status, 200);

    // And the chunk traffic is visible in /metrics.
    let (_, body) = client.request("GET", "/metrics", "").expect("metrics");
    let v: serde::Value = serde_json::from_str(&body).expect("metrics parses");
    let chunks = v
        .get("serve")
        .and_then(|s| s.get("streamed_chunks"))
        .and_then(|x| x.as_f64())
        .expect("streamed_chunks in /metrics");
    assert!(chunks >= 4.0, "a multi-chunk stream moved chunks: got {chunks}");

    srv.stop();
}

#[test]
fn chunked_classify_matches_the_buffered_labels() {
    let srv = common::start(ServerConfig::default(), "streamcls");
    let (d, key) = sample(13, 220);
    let key_id = store(&srv, &key);

    // Mine a tree on the transformed data, like the paper's miner.
    let payload = serde_json::to_string(&EncodeRequest {
        key_id: key_id.clone(),
        csv: Some(to_csv(&d)),
        rows: None,
    })
    .expect("serialize");
    let (status, text) = request(srv.addr, "POST", "/v1/encode", &payload).expect("encode");
    assert_eq!(status, 200, "{text}");
    let enc: EncodeResponse = serde_json::from_str(&text).expect("parses");
    let d_prime = ppdt_data::csv::parse_csv(&enc.csv.expect("csv")).expect("parses");
    let t_prime = TreeBuilder::default().fit(&d_prime);

    // Buffered reference labels.
    let rows: Vec<Vec<f64>> = (0..d.num_rows())
        .map(|i| (0..d.num_attrs()).map(|a| d.column(AttrId(a))[i]).collect())
        .collect();
    let payload = serde_json::to_string(&ClassifyRequest {
        key_id: key_id.clone(),
        tree: t_prime.clone(),
        rows: rows.clone(),
    })
    .expect("serialize");
    let (status, text) = request(srv.addr, "POST", "/v1/classify", &payload).expect("classify");
    assert_eq!(status, 200, "{text}");
    let buffered: ClassifyResponse = serde_json::from_str(&text).expect("parses");

    // Streamed: header line with the tree, then bare attribute rows.
    let tree_json = serde_json::to_string(&t_prime).expect("tree json");
    let header = format!("{{\"key_id\": \"{key_id}\", \"tree\": {tree_json}}}");
    let body: String = rows
        .iter()
        .map(|r| {
            let fields: Vec<String> = r.iter().map(|v| format!("{v}")).collect();
            format!("{}\n", fields.join(","))
        })
        .collect();
    let mut client = Client::connect(srv.addr).expect("connect");
    let (status, streamed) = stream_request(&mut client, "/v1/classify", &header, &body);
    assert_eq!(status, 200, "{streamed}");
    let labels: Vec<u16> = streamed.lines().map(|l| l.trim().parse().expect("label id")).collect();
    assert_eq!(labels, buffered.labels, "streamed labels must match the buffered path");

    srv.stop();
}

#[test]
fn streaming_failures_before_the_response_are_clean_errors() {
    let srv = common::start(ServerConfig::default(), "streamerr");
    let (d, key) = sample(17, 60);
    let key_id = store(&srv, &key);
    let csv = to_csv(&d);

    // Unknown key: a 404 JSON error, not a broken stream.
    let mut client = Client::connect(srv.addr).expect("connect");
    let header = format!("{{\"key_id\": \"{}\"}}", "0f".repeat(16));
    let (status, body) = stream_request(&mut client, "/v1/encode", &header, &csv);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown_key"), "{body}");

    // Garbage stream header: 400. (New connection: streaming errors
    // close, because the body was never drained.)
    let mut client = Client::connect(srv.addr).expect("connect");
    let (status, body) = stream_request(&mut client, "/v1/encode", "not json", &csv);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_json"), "{body}");

    // A non-numeric cell in the first batch: typed 4xx, not a 200
    // that dies mid-stream.
    let mut client = Client::connect(srv.addr).expect("connect");
    let header = format!("{{\"key_id\": \"{key_id}\"}}");
    let bad = "a,b,class\n1.0,oops,yes\n";
    let (status, body) = stream_request(&mut client, "/v1/encode", &header, bad);
    assert!((400..500).contains(&status), "{status}: {body}");

    srv.stop();
}

#[test]
fn chunked_bodies_work_on_buffered_endpoints_too() {
    let srv = common::start(ServerConfig::default(), "streambuf");
    let (_, key) = sample(19, 40);

    // `POST /v1/keys` is not a streaming endpoint; a chunked body is
    // simply decoded into the usual buffered request.
    let payload = serde_json::to_string(&StoreKeyRequest { key }).expect("serialize");
    let mut client = Client::connect(srv.addr).expect("connect");
    client.send_chunked_head("POST", "/v1/keys").expect("head");
    for piece in payload.as_bytes().chunks(256) {
        client.send_chunk(piece).expect("chunk");
    }
    client.finish_chunks().expect("finish");
    let (status, body) = client.read_response().expect("response");
    assert_eq!(status, 201, "{body}");
    let stored: StoreKeyResponse = serde_json::from_str(&body).expect("parses");
    assert!(stored.created);

    srv.stop();
}

#[test]
fn requests_pipelined_after_a_chunked_body_are_answered_in_order() {
    let srv = common::start(ServerConfig::default(), "streampipe");
    // Bodies large enough that a worker stops reading a chunked body
    // with bytes of the next requests both in its own read buffer and
    // still in what the loop had buffered.
    let (d, key) = sample(23, 1000);
    let key_id = store(&srv, &key);
    let (_, other) = sample(29, 1000);
    let chunk = |data: &[u8]| {
        let mut framed = format!("{:x}\r\n", data.len()).into_bytes();
        framed.extend_from_slice(data);
        framed.extend_from_slice(b"\r\n");
        framed
    };

    // One write: a chunked store (buffered by a worker), a pipelined
    // healthz, a chunked streaming encode, a pipelined version. Every
    // byte past each chunked body belongs to the next request.
    let mut wire = b"POST /v1/keys HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
    let payload = serde_json::to_string(&StoreKeyRequest { key: other }).expect("serialize");
    for piece in payload.as_bytes().chunks(300) {
        wire.extend(chunk(piece));
    }
    wire.extend_from_slice(b"0\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
    wire.extend_from_slice(b"POST /v1/encode HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
    wire.extend(chunk(format!("{{\"key_id\": \"{key_id}\"}}\n{}", to_csv(&d)).as_bytes()));
    wire.extend_from_slice(b"0\r\n\r\nGET /v1/version HTTP/1.1\r\nconnection: close\r\n\r\n");

    let text = ppdt_serve::client::raw_probe(srv.addr, &wire, std::time::Duration::from_secs(10))
        .expect("pipelined burst");
    let statuses: Vec<&str> =
        text.split("HTTP/1.1 ").skip(1).filter_map(|r| r.split_whitespace().next()).collect();
    assert_eq!(statuses, ["201", "200", "200", "200"], "{text}");
    let healthz = text.find("\"ok\"").expect("healthz answered");
    let encoded = text.find("text/csv").expect("encode streamed");
    let version = text.find("api_schema_version").expect("version answered");
    assert!(healthz < encoded && encoded < version, "in request order: {text}");

    srv.stop();
}

#[test]
fn a_stream_longer_than_the_idle_timeout_keeps_its_connection() {
    let cfg = ServerConfig { idle_timeout: Duration::from_millis(400), ..ServerConfig::default() };
    let srv = common::start(cfg, "streamidle");
    let (d, key) = sample(31, 60);
    let key_id = store(&srv, &key);

    // The upload outlasts the idle timeout, counted from the accept.
    let mut client = Client::connect(srv.addr).expect("connect");
    client.send_chunked_head("POST", "/v1/encode").expect("chunked head");
    client.send_chunk(format!("{{\"key_id\": \"{key_id}\"}}\n").as_bytes()).expect("header");
    std::thread::sleep(Duration::from_millis(900));
    client.send_chunk(to_csv(&d).as_bytes()).expect("rows");
    client.finish_chunks().expect("finish");
    let (status, body) = client.read_response().expect("streamed answer");
    assert_eq!(status, 200, "{body}");
    assert!(!client.server_closed(), "the stream answered keep-alive");

    // The idle clock starts when the answer ends, so the same socket
    // takes a request sent well inside the idle timeout after it.
    std::thread::sleep(Duration::from_millis(100));
    client.send("GET", "/healthz", "").expect("second request");
    let (status, body) = client.read_response().expect("answered on the same connection");
    assert_eq!(status, 200, "{body}");

    srv.stop();
}

#[test]
fn a_refused_stream_is_answered_before_its_body_ends() {
    let srv = common::start(ServerConfig::default(), "streamrefuse");
    let (d, _) = sample(37, 400);

    // An unknown key is refused as soon as the stream header arrives,
    // before a single row is sent.
    let mut client = Client::connect(srv.addr).expect("connect");
    client.send_chunked_head("POST", "/v1/encode").expect("chunked head");
    let header = format!("{{\"key_id\": \"{}\"}}\n", "0f".repeat(16));
    client.send_chunk(header.as_bytes()).expect("header");
    let started = Instant::now();
    let (status, body) = client.read_response().expect("early answer");
    assert_eq!(status, 404, "{body}");
    assert!(started.elapsed() < Duration::from_secs(5), "answered at once");
    assert!(client.server_closed(), "the unread body closes the connection");

    // A client that uploads its rows anyway is not cut off by a reset:
    // the daemon reads and discards them before it closes.
    for piece in to_csv(&d).as_bytes().chunks(97) {
        client.send_chunk(piece).expect("rows after the answer");
    }
    client.finish_chunks().expect("finish");

    srv.stop();
}
