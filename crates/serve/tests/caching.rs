//! Hot-path cache behavior over the wire: version negotiation, warm
//! requests hitting the compiled-plan and decoded-tree caches,
//! bit-identical cold-vs-warm answers, and — the part that matters for
//! trust — a cached plan being *invalidated* when the key's envelope on
//! disk is replaced with different content.

mod common;

use ppdt_data::csv::{parse_csv, to_csv};
use ppdt_data::gen::census_like;
use ppdt_serve::handlers::{
    ClassifyRequest, ClassifyResponse, DecodeTreeRequest, EncodeRequest, EncodeResponse,
    StoreKeyRequest, StoreKeyResponse,
};
use ppdt_serve::{request, ServerConfig, VersionResponse};
use ppdt_transform::{EncodeConfig, Encoder, TransformKey};
use ppdt_tree::TreeBuilder;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn encode_csv(srv: &common::TestServer, key_id: &str, csv: &str) -> (u16, String) {
    let payload = serde_json::to_string(&EncodeRequest {
        key_id: key_id.to_string(),
        csv: Some(csv.to_string()),
        rows: None,
    })
    .expect("serialize");
    request(srv.addr, "POST", "/v1/encode", &payload).expect("encode request")
}

fn counter_value(srv: &common::TestServer, name: &str) -> u64 {
    let (status, text) = request(srv.addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let v: serde::Value = serde_json::from_str(&text).expect("metrics parses");
    v.get("process")
        .and_then(|p| p.get("counters"))
        .and_then(|c| c.as_array())
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
                .and_then(|r| r.get("value"))
                .and_then(|x| x.as_f64())
        })
        .unwrap_or_else(|| panic!("counter {name} missing from /metrics")) as u64
}

#[test]
fn version_endpoint_reports_schema_versions() {
    let srv = common::start(ServerConfig::default(), "version");
    let (status, text) = request(srv.addr, "GET", "/v1/version", "").expect("version");
    assert_eq!(status, 200, "{text}");
    let v: VersionResponse = serde_json::from_str(&text).expect("version body parses");
    assert_eq!(v.api_schema_version, ppdt_serve::API_SCHEMA_VERSION);
    assert_eq!(v.keystore_schema_version, ppdt_serve::KEYSTORE_SCHEMA_VERSION);
    assert_eq!(v.bench_report_schema_version, ppdt_serve::BENCH_REPORT_SCHEMA_VERSION);
    assert_eq!(v.crate_version, env!("CARGO_PKG_VERSION"));
    srv.stop();
}

#[test]
fn warm_requests_hit_the_caches_and_match_cold_answers() {
    ppdt_obs::set_enabled(true);
    let warm_srv = common::start(ServerConfig::default(), "warmpath");
    let cold_srv = common::start(ServerConfig::default(), "coldpath");

    let (d, key) = sample(71, 150);
    let csv = to_csv(&d);
    let warm_id = store(&warm_srv, &key);
    // Storing through the API compiles the plan, so the second daemon
    // gets the envelope file straight into its store directory: its
    // first encode must load, audit and compile the key.
    let envelope = format!("{warm_id}.json");
    std::fs::copy(warm_srv.dir.join(&envelope), cold_srv.dir.join(&envelope))
        .expect("copy the envelope into the second store");

    // Same payload, cached plan vs. freshly compiled plan: the
    // answers must be byte-identical.
    let hits_before = counter_value(&warm_srv, "plan_cache_hits");
    let (s1, warm1) = encode_csv(&warm_srv, &warm_id, &csv);
    let (s2, warm2) = encode_csv(&warm_srv, &warm_id, &csv);
    let hits_after = counter_value(&warm_srv, "plan_cache_hits");
    let misses_before = counter_value(&cold_srv, "plan_cache_misses");
    let (s3, cold) = encode_csv(&cold_srv, &warm_id, &csv);
    let misses_after = counter_value(&cold_srv, "plan_cache_misses");
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert_eq!(warm1, warm2, "repeat encode must be deterministic");
    assert_eq!(warm1, cold, "cached plan must answer exactly like a plan-cache miss");
    assert!(
        hits_after >= hits_before + 2,
        "warm encodes must hit the plan cache ({hits_before} -> {hits_after})"
    );
    assert!(
        misses_after > misses_before,
        "the copied key's first encode must miss the plan cache ({misses_before} -> {misses_after})"
    );

    // Repeated classify of the same tree payload answers identically.
    let mut rng = StdRng::seed_from_u64(72);
    let d_prime =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("local encode").dataset;
    let t_prime = TreeBuilder::default().fit(&d_prime);
    let rows: Vec<Vec<f64>> =
        (0..d.num_rows()).map(|i| d.schema().attrs().map(|a| d.column(a)[i]).collect()).collect();
    let classify_payload = serde_json::to_string(&ClassifyRequest {
        key_id: warm_id.clone(),
        tree: t_prime,
        rows: rows.clone(),
    })
    .expect("serialize");
    let (sa, a) =
        request(warm_srv.addr, "POST", "/v1/classify", &classify_payload).expect("classify");
    let (sb, b) =
        request(warm_srv.addr, "POST", "/v1/classify", &classify_payload).expect("classify");
    assert_eq!((sa, sb), (200, 200), "{a}\n{b}");
    let ra: ClassifyResponse = serde_json::from_str(&a).expect("parses");
    let rb: ClassifyResponse = serde_json::from_str(&b).expect("parses");
    assert_eq!(ra.labels, rb.labels, "repeat classify must label identically");

    // Repeated decode-tree of the same payload hits the tree cache:
    // a tree mined on the daemon's own encode, replayed on the table.
    let encoded: EncodeResponse = serde_json::from_str(&warm1).expect("parses");
    let mined_d_prime = parse_csv(&encoded.csv.expect("csv")).expect("encoded CSV parses");
    let decode_payload = serde_json::to_string(&DecodeTreeRequest {
        key_id: warm_id.clone(),
        tree: TreeBuilder::default().fit(&mined_d_prime),
        csv: Some(csv.clone()),
    })
    .expect("serialize");
    let tree_hits_before = counter_value(&warm_srv, "tree_cache_hits");
    let (sa, a) =
        request(warm_srv.addr, "POST", "/v1/decode-tree", &decode_payload).expect("decode-tree");
    let (sb, b) =
        request(warm_srv.addr, "POST", "/v1/decode-tree", &decode_payload).expect("decode-tree");
    assert_eq!((sa, sb), (200, 200), "{a}\n{b}");
    assert_eq!(a, b, "cached decoded tree must answer identically");
    let tree_hits_after = counter_value(&warm_srv, "tree_cache_hits");
    assert!(
        tree_hits_after > tree_hits_before,
        "repeat decode-tree must hit the tree cache ({tree_hits_before} -> {tree_hits_after})"
    );

    warm_srv.stop();
    cold_srv.stop();
}

#[test]
fn stale_plan_is_not_served_when_key_envelope_changes_on_disk() {
    let srv = common::start(ServerConfig::default(), "stale");
    let (d, key_a) = sample(81, 120);
    let (_, key_b) = sample(82, 120);
    let csv = to_csv(&d);

    let id_a = store(&srv, &key_a);
    let id_b = store(&srv, &key_b);
    assert_ne!(id_a, id_b);

    // Warm the plan cache for key A.
    let (status, _) = encode_csv(&srv, &id_a, &csv);
    assert_eq!(status, 200);

    // An operator (or attacker) replaces A's envelope on disk with
    // different content — the one mutation content addressing cannot
    // rule out. The daemon holds a compiled plan for A, but serving it
    // would mean answering from a key that no longer matches storage:
    // the stamp check must force a reload, and the reload must fail
    // the digest check with 409.
    let path_a = srv.dir.join(format!("{id_a}.json"));
    let original = std::fs::read(&path_a).expect("read A's envelope");
    let foreign = std::fs::read(srv.dir.join(format!("{id_b}.json"))).expect("read B's envelope");
    assert_ne!(original.len(), foreign.len(), "distinct envelopes for a meaningful stamp change");
    std::fs::write(&path_a, &foreign).expect("replace A's envelope");
    let (status, text) = encode_csv(&srv, &id_a, &csv);
    assert_eq!(status, 409, "stale cached plan must not mask on-disk replacement: {text}");

    // Restoring the genuine envelope recovers: the next request
    // recompiles from the (again valid) file.
    std::fs::write(&path_a, &original).expect("restore A's envelope");
    let (status, _) = encode_csv(&srv, &id_a, &csv);
    assert_eq!(status, 200, "restored envelope must serve again");

    // And deleting the envelope drops the key entirely — 404, never a
    // resurrection from cache.
    std::fs::remove_file(&path_a).expect("delete A's envelope");
    let (status, text) = encode_csv(&srv, &id_a, &csv);
    assert_eq!(status, 404, "deleted key must vanish, not serve from cache: {text}");

    srv.stop();
}
