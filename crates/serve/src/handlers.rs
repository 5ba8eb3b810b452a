//! The pooled endpoint handlers and the routing table.
//!
//! Wire payloads live in [`crate::api`]; this module consumes them.
//! Handlers never panic on hostile input — every failure path
//! surfaces as an [`HttpError`] whose status comes from the workspace
//! category table ([`ppdt_error::ErrorCategory::http_status`]), plus
//! transport-level 404/405 for unknown keys and routes.
//!
//! Hot-path requests (`/v1/encode`, `/v1/classify`,
//! `/v1/decode-tree`) go through the [`Caches`]: the key is loaded,
//! audited, and lowered to a [`CompiledKey`] once per content id, and
//! a repeated decode-tree payload skips re-parsing and re-decoding.

use std::sync::Arc;

use ppdt_data::{csv, AttrId, Dataset};
use ppdt_error::PpdtError;
use ppdt_transform::{CompiledKey, TransformKey};
use ppdt_tree::{DecisionTree, ThresholdPolicy};
use serde::{Deserialize, Serialize};

// Re-exported so existing `handlers::*` paths keep working; the wire
// types canonically live in [`crate::api`].
pub use crate::api::{
    AuditRequestBody, AuditResponseBody, ClassifyRequest, ClassifyResponse, DecodeTreeRequest,
    DecodeTreeResponse, EncodeRequest, EncodeResponse, ListKeysResponse, PeerFetchRequest,
    PeerFetchResponse, PeerManifestEntry, PeerManifestResponse, RekeyRequest, RekeyResponse,
    SleepRequest, StoreKeyRequest, StoreKeyResponse,
};
use crate::cache::{CachedPlan, Caches, TreeCache};
use crate::http::{HttpError, Request, Response};
use crate::keystore::{KeyEnvelope, KeyStore, Tenant, KEYSTORE_SCHEMA_VERSION};
use crate::peer::Cluster;

/// Everything a pooled handler can touch, threaded as one borrow so
/// the worker pool, the streaming path, and the tests pass the same
/// shape. `cluster` is `None` on a standalone node — handlers that
/// consult it (read-through fetch, push-on-store) degrade to local
/// behavior.
pub struct HandlerCtx<'a> {
    /// The content-addressed key store.
    pub store: &'a KeyStore,
    /// Plan and tree caches.
    pub caches: &'a Caches,
    /// Cluster membership, when running with `--peer`.
    pub cluster: Option<&'a Cluster>,
    /// This node's advertised identity (its bound address).
    pub node_id: &'a str,
    /// Per-tenant stored-key quota (0 = unlimited), enforced by the
    /// store-key handler with a 429.
    pub tenant_max_keys: usize,
}

impl<'a> HandlerCtx<'a> {
    /// Scopes the shared daemon state to one request's namespace.
    pub fn scoped(&'a self, tenant: &'a Tenant) -> RequestCtx<'a> {
        RequestCtx {
            store: self.store,
            caches: self.caches,
            cluster: self.cluster,
            node_id: self.node_id,
            tenant_max_keys: self.tenant_max_keys,
            tenant,
        }
    }
}

/// One request's view of the daemon: the shared state plus the
/// [`Tenant`] the route resolved to. Handlers receive this instead of
/// re-parsing the path — the router ([`route_parts`]) is the only
/// place a tenant name is ever extracted from a URL.
pub struct RequestCtx<'a> {
    /// The content-addressed key store.
    pub store: &'a KeyStore,
    /// Plan and tree caches.
    pub caches: &'a Caches,
    /// Cluster membership, when running with `--peer`.
    pub cluster: Option<&'a Cluster>,
    /// This node's advertised identity (its bound address).
    pub node_id: &'a str,
    /// Per-tenant stored-key quota (0 = unlimited).
    pub tenant_max_keys: usize,
    /// The namespace this request is scoped to.
    pub tenant: &'a Tenant,
}

/// The routable endpoints, used for dispatch, per-endpoint counters,
/// and phase-timer names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/keys` — store a key, get its content address.
    StoreKey,
    /// `GET /v1/keys` — list stored keys with validity.
    ListKeys,
    /// `POST /v1/encode` — transform CSV text or raw rows under a key.
    Encode,
    /// `POST /v1/classify` — encode query rows and route them through
    /// a mined tree (custodian-side inference).
    Classify,
    /// `POST /v1/decode-tree` — decode a mined tree with a stored key.
    DecodeTree,
    /// `POST /v1/audit` — structural audit of a stored key.
    Audit,
    /// `POST /v2/t/<tenant>/rekey` — re-encode a dataset from one
    /// stored key to another through the fused decode∘encode plan
    /// (online key rotation; `/v2`-only).
    Rekey,
    /// `GET /healthz` — liveness (answered inline, never queued).
    Healthz,
    /// `GET /metrics` — counters (answered inline, never queued).
    Metrics,
    /// `GET /v1/version` — crate + schema versions (answered inline,
    /// never queued: clients probe it before committing to a dialect).
    Version,
    /// `POST /v1/debug/sleep` — test-only worker occupier; routed only
    /// when `ServerConfig::debug_endpoints` is set.
    DebugSleep,
    /// `POST /v1/debug/panic` — test-only deliberate handler panic
    /// (exercises the worker pool's panic containment); routed only
    /// when `ServerConfig::debug_endpoints` is set.
    DebugPanic,
    /// `GET /v1/peer/keys` — anti-entropy manifest: every servable
    /// key's id plus a digest of its raw envelope bytes.
    PeerManifest,
    /// `POST /v1/peer/fetch` — one full envelope by content address,
    /// for a peer that found itself behind.
    PeerFetch,
}

/// All endpoints, for metrics table construction.
pub const ENDPOINTS: [Endpoint; 14] = [
    Endpoint::StoreKey,
    Endpoint::ListKeys,
    Endpoint::Encode,
    Endpoint::Classify,
    Endpoint::DecodeTree,
    Endpoint::Audit,
    Endpoint::Rekey,
    Endpoint::Healthz,
    Endpoint::Metrics,
    Endpoint::Version,
    Endpoint::DebugSleep,
    Endpoint::DebugPanic,
    Endpoint::PeerManifest,
    Endpoint::PeerFetch,
];

impl Endpoint {
    /// Stable snake_case name used in `/metrics`.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::StoreKey => "store_key",
            Endpoint::ListKeys => "list_keys",
            Endpoint::Encode => "encode",
            Endpoint::Classify => "classify",
            Endpoint::DecodeTree => "decode_tree",
            Endpoint::Audit => "audit",
            Endpoint::Rekey => "rekey",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Version => "version",
            Endpoint::DebugSleep => "debug_sleep",
            Endpoint::DebugPanic => "debug_panic",
            Endpoint::PeerManifest => "peer_manifest",
            Endpoint::PeerFetch => "peer_fetch",
        }
    }

    /// The `ppdt_obs` phase-timer name for this endpoint.
    pub fn phase_name(self) -> &'static str {
        match self {
            Endpoint::StoreKey => "serve.store_key",
            Endpoint::ListKeys => "serve.list_keys",
            Endpoint::Encode => "serve.encode",
            Endpoint::Classify => "serve.classify",
            Endpoint::DecodeTree => "serve.decode_tree",
            Endpoint::Audit => "serve.audit",
            Endpoint::Rekey => "serve.rekey",
            Endpoint::Healthz => "serve.healthz",
            Endpoint::Metrics => "serve.metrics",
            Endpoint::Version => "serve.version",
            Endpoint::DebugSleep => "serve.debug_sleep",
            Endpoint::DebugPanic => "serve.debug_panic",
            Endpoint::PeerManifest => "serve.peer_manifest",
            Endpoint::PeerFetch => "serve.peer_fetch",
        }
    }

    /// Position in [`ENDPOINTS`] (stable metrics index).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the readiness loop answers this endpoint itself
    /// instead of queueing it: liveness, metrics, and version
    /// negotiation must keep responding while the worker pool is
    /// saturated.
    pub fn is_inline(self) -> bool {
        matches!(self, Endpoint::Healthz | Endpoint::Metrics | Endpoint::Version)
    }
}

/// A resolved route: the endpoint plus the [`Tenant`] the path
/// scoped it to. `/v1/*` routes are a shim onto the default tenant —
/// the mapping happens here, once, and handlers never look at the
/// path again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// The endpoint to dispatch to.
    pub endpoint: Endpoint,
    /// The namespace the path scoped the request to
    /// ([`Tenant::Default`] for every `/v1/*` route).
    pub tenant: Tenant,
}

impl Route {
    /// A default-tenant route (what every `/v1` path resolves to).
    pub fn v1(endpoint: Endpoint) -> Route {
        Route { endpoint, tenant: Tenant::Default }
    }
}

/// Routes a parsed request. `debug` enables the test-only routes.
pub fn route(req: &Request, debug: bool) -> Result<Route, HttpError> {
    route_parts(&req.method, &req.path, debug)
}

/// Routes on the request line alone, before any body bytes are read —
/// the readiness loop decides buffered-vs-streaming dispatch from the
/// head, so routing cannot wait for the body.
///
/// `/v2/t/<tenant>/...` routes carry the namespace in the path;
/// `/v1/*` routes live on as a shim onto [`Tenant::Default`], and
/// `/v2/t/default/...` is an exact alias of the corresponding `/v1`
/// route. A syntactically invalid tenant name is a 400 before any
/// endpoint matching (the name gate is what makes path traversal
/// unrepresentable downstream).
pub fn route_parts(method: &str, path: &str, debug: bool) -> Result<Route, HttpError> {
    // The `/v2` route table. `{tenant}` stands for one validated
    // tenant name segment; `scripts/protocol_gate.py` reads these
    // tuples and pins them against `docs/PROTOCOL.md`.
    const V2_ROUTES: [(&str, &str, Endpoint); 7] = [
        ("POST", "/v2/t/{tenant}/keys", Endpoint::StoreKey),
        ("GET", "/v2/t/{tenant}/keys", Endpoint::ListKeys),
        ("POST", "/v2/t/{tenant}/encode", Endpoint::Encode),
        ("POST", "/v2/t/{tenant}/classify", Endpoint::Classify),
        ("POST", "/v2/t/{tenant}/decode-tree", Endpoint::DecodeTree),
        ("POST", "/v2/t/{tenant}/audit", Endpoint::Audit),
        ("POST", "/v2/t/{tenant}/rekey", Endpoint::Rekey),
    ];
    const V2_PREFIX: &str = "/v2/t/";
    const V2_PATTERN_PREFIX: &str = "/v2/t/{tenant}";

    if let Some(rest) = path.strip_prefix(V2_PREFIX) {
        let Some(slash) = rest.find('/') else {
            return Err(HttpError::not_found("unknown_route", format!("no such route: {path}")));
        };
        let (name, suffix) = rest.split_at(slash);
        let Some(tenant) = Tenant::parse(name) else {
            return Err(HttpError::bad_request(
                "invalid_tenant",
                format!("malformed tenant name {name:?}: expected 1-32 chars of [a-z0-9_-]"),
            ));
        };
        let mut known_path = false;
        for (m, pattern, endpoint) in V2_ROUTES {
            let pattern_suffix =
                pattern.strip_prefix(V2_PATTERN_PREFIX).expect("v2 patterns share the prefix");
            if suffix == pattern_suffix {
                if method == m {
                    return Ok(Route { endpoint, tenant });
                }
                known_path = true;
            }
        }
        if known_path {
            return Err(HttpError::method_not_allowed(path));
        }
        return Err(HttpError::not_found("unknown_route", format!("no such route: {path}")));
    }

    let endpoint = match (method, path) {
        ("POST", "/v1/keys") => Endpoint::StoreKey,
        ("GET", "/v1/keys") => Endpoint::ListKeys,
        ("POST", "/v1/encode") => Endpoint::Encode,
        ("POST", "/v1/classify") => Endpoint::Classify,
        ("POST", "/v1/decode-tree") => Endpoint::DecodeTree,
        ("POST", "/v1/audit") => Endpoint::Audit,
        ("GET", "/healthz") => Endpoint::Healthz,
        ("GET", "/metrics") => Endpoint::Metrics,
        ("GET", "/v1/version") => Endpoint::Version,
        ("GET", "/v1/peer/keys") => Endpoint::PeerManifest,
        ("POST", "/v1/peer/fetch") => Endpoint::PeerFetch,
        ("POST", "/v1/debug/sleep") if debug => Endpoint::DebugSleep,
        ("POST", "/v1/debug/panic") if debug => Endpoint::DebugPanic,
        (
            _,
            p @ ("/v1/keys" | "/v1/encode" | "/v1/classify" | "/v1/decode-tree" | "/v1/audit"
            | "/v1/version" | "/healthz" | "/metrics" | "/v1/peer/keys" | "/v1/peer/fetch"),
        ) => return Err(HttpError::method_not_allowed(p)),
        _ => return Err(HttpError::not_found("unknown_route", format!("no such route: {path}"))),
    };
    Ok(Route::v1(endpoint))
}

// ---------------------------------------------------------- handlers

fn parse_body<T: Deserialize>(req: &Request) -> Result<T, HttpError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|e| HttpError::bad_request("invalid_utf8", format!("body is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| HttpError::bad_request("invalid_json", format!("body does not parse: {e}")))
}

fn json_response<T: Serialize>(status: u16, value: &T) -> Result<Response, HttpError> {
    let body = serde_json::to_string(value).map_err(|e| {
        HttpError::from(PpdtError::internal(format!("response serialization: {e}")))
    })?;
    Ok(Response::with_status(status, body))
}

/// Rejects ids that are not 32 lowercase hex chars with a `400`: a
/// malformed id is a client usage error, not a corrupt stored key —
/// `409 corrupt_key` is reserved for envelopes that fail validation
/// on disk.
fn check_key_id(key_id: &str) -> Result<(), HttpError> {
    if !crate::keystore::valid_id(key_id) {
        return Err(HttpError::bad_request(
            "invalid_key_id",
            format!("malformed key id {key_id:?}: expected 32 lowercase hex characters"),
        ));
    }
    Ok(())
}

/// Resolves `key_id` to its compiled plan: a cache hit skips the disk
/// read, digest check, audit, and lowering entirely; a miss performs
/// all of them once and caches the result.
///
/// In cluster mode a locally *absent* key triggers a read-through
/// fetch from the peers (bounded by the fetch deadline) before the
/// 404 — during sync lag any node can answer for any key some node
/// holds. A locally *corrupt* key deliberately does not: 409 is a
/// report about this node's disk, and papering over it with a peer
/// copy would hide the fault from operators (the anti-entropy loop
/// repairs it out-of-band instead).
pub(crate) fn load_plan(ctx: &RequestCtx, key_id: &str) -> Result<Arc<CachedPlan>, HttpError> {
    check_key_id(key_id)?;
    match ctx.caches.plans.get_or_compile(ctx.store, ctx.tenant, key_id) {
        Ok(Some(plan)) => Ok(plan),
        Ok(None) => {
            if let Some(cluster) = ctx.cluster {
                if cluster.fetch_from_peers(ctx.store, ctx.tenant, key_id) {
                    if let Ok(Some(plan)) =
                        ctx.caches.plans.get_or_compile(ctx.store, ctx.tenant, key_id)
                    {
                        return Ok(plan);
                    }
                }
            }
            Err(HttpError::not_found("unknown_key", format!("no key stored under {key_id:?}")))
        }
        Err(e) => Err(HttpError::from(e)),
    }
}

fn parse_csv_body(csv_text: &str) -> Result<Dataset, HttpError> {
    csv::parse_csv(csv_text).map_err(|e| HttpError::from(PpdtError::from(e)))
}

pub(crate) fn check_arity(key: &TransformKey, num_attrs: usize) -> Result<(), HttpError> {
    if key.transforms.len() != num_attrs {
        return Err(HttpError::from(PpdtError::SchemaMismatch {
            detail: format!(
                "key has {} transform(s) but the payload has {} attribute(s)",
                key.transforms.len(),
                num_attrs
            ),
        }));
    }
    Ok(())
}

/// Encodes one plaintext row through the compiled plan.
fn encode_row(plan: &CompiledKey, row: &[f64], row_idx: usize) -> Result<Vec<f64>, HttpError> {
    let mut out = Vec::new();
    encode_row_into(plan, row, row_idx, &mut out)?;
    Ok(out)
}

/// [`encode_row`] into a caller-owned buffer (cleared, capacity
/// retained): classify reuses one point buffer across every query row
/// instead of allocating per row.
fn encode_row_into(
    plan: &CompiledKey,
    row: &[f64],
    row_idx: usize,
    out: &mut Vec<f64>,
) -> Result<(), HttpError> {
    out.clear();
    if row.len() != plan.num_attrs() {
        return Err(HttpError::from(PpdtError::DataCorrupt {
            row: Some(row_idx + 1),
            column: None,
            detail: format!(
                "row has {} value(s) but the key has {} transform(s)",
                row.len(),
                plan.num_attrs()
            ),
        }));
    }
    out.reserve(row.len());
    for (a, &x) in row.iter().enumerate() {
        out.push(plan.encode_value(AttrId(a), x).map_err(HttpError::from)?);
    }
    Ok(())
}

/// Validates a request tree and `check_tree`s it against the key. Both
/// are cheap next to keying a cache on the tree, which would mean
/// re-serializing and digesting the whole payload on every request.
pub(crate) fn check_tree(plan: &CachedPlan, tree: &DecisionTree) -> Result<(), HttpError> {
    tree.validate(Some(plan.key.transforms.len())).map_err(HttpError::from)?;
    plan.key.check_tree(tree).map_err(HttpError::from)
}

/// Dispatches a pooled request. Inline endpoints
/// (`Endpoint::Healthz`/`Metrics`/`Version`) never arrive here (the
/// server renders them itself); routing them in is an internal error
/// by construction.
pub fn handle(route: &Route, req: &Request, shared: &HandlerCtx) -> Result<Response, HttpError> {
    let ctx = shared.scoped(&route.tenant);
    match route.endpoint {
        Endpoint::StoreKey => store_key(req, &ctx),
        Endpoint::ListKeys => list_keys(&ctx),
        Endpoint::Encode => encode(req, &ctx),
        Endpoint::Classify => classify(req, &ctx),
        Endpoint::DecodeTree => decode_tree(req, &ctx),
        Endpoint::Audit => audit(req, &ctx),
        Endpoint::Rekey => rekey(req, &ctx),
        Endpoint::PeerManifest => peer_manifest(&ctx),
        Endpoint::PeerFetch => peer_fetch(req, &ctx),
        Endpoint::DebugSleep => debug_sleep(req),
        Endpoint::DebugPanic => panic!("debug panic endpoint: deliberate handler panic"),
        Endpoint::Healthz | Endpoint::Metrics | Endpoint::Version => {
            Err(HttpError::from(PpdtError::internal("inline endpoint reached the worker pool")))
        }
    }
}

fn store_key(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: StoreKeyRequest = parse_body(req)?;
    let num_attrs = body.key.transforms.len();
    // Per-tenant key quota: a 429 (with Retry-After) singles the
    // tenant out without touching the daemon's global health.
    // Re-storing an already-held key is always allowed — it is a
    // no-op that changes nothing the quota measures.
    if ctx.tenant_max_keys > 0 {
        let held = ctx.store.key_count(ctx.tenant).map_err(HttpError::from)?;
        if held >= ctx.tenant_max_keys {
            let id = KeyStore::key_id(&body.key).map_err(HttpError::from)?;
            if ctx.store.stamp_in(ctx.tenant, &id).is_none() {
                return Err(HttpError::too_many_requests(format!(
                    "tenant {:?} holds {held} of {} allowed keys",
                    ctx.tenant.as_str(),
                    ctx.tenant_max_keys
                )));
            }
        }
    }
    let (key_id, created) = ctx.store.put_in(ctx.tenant, &body.key).map_err(HttpError::from)?;
    // Compile at store time so the first encode/classify under this
    // key is already warm.
    ctx.caches.plans.warm(ctx.store, ctx.tenant, &key_id);
    // Best-effort push so new keys cross the cluster in milliseconds
    // instead of a sync interval. Only a *created* store queues one:
    // the pushed copy arrives at each peer as `created = false` (or
    // races the pull to `created = true` exactly once), so push
    // ping-pong between peers terminates by construction.
    if created {
        if let Some(cluster) = ctx.cluster {
            cluster.notify_stored(ctx.tenant, &key_id);
        }
    }
    let status = if created { 201 } else { 200 };
    json_response(
        status,
        &StoreKeyResponse { tenant: ctx.tenant.wire(), key_id, num_attrs, created },
    )
}

/// `GET /v1/peer/keys`: the anti-entropy manifest. Only entries that
/// pass the full load-time validation are advertised — a node never
/// offers a peer something it would refuse to serve itself — and the
/// digest is over the raw envelope bytes, so manifest agreement
/// across nodes is byte-identical convergence.
fn peer_manifest(ctx: &RequestCtx) -> Result<Response, HttpError> {
    let mut keys = Vec::new();
    for tenant in ctx.store.list_tenants().map_err(HttpError::from)? {
        for entry in ctx.store.list_in(&tenant).map_err(HttpError::from)? {
            if !entry.valid {
                continue;
            }
            if let Ok(Some(bytes)) = ctx.store.raw_in(&tenant, &entry.key_id) {
                keys.push(PeerManifestEntry {
                    tenant: tenant.wire(),
                    key_id: entry.key_id,
                    envelope_digest: crate::keystore::content_id(&bytes),
                });
            }
        }
    }
    json_response(200, &PeerManifestResponse { node_id: ctx.node_id.to_string(), keys })
}

/// `POST /v1/peer/fetch`: one full envelope. Goes through the fully
/// validating [`KeyStore::get`] — a torn or tampered local entry is a
/// 409, never served to a peer — and deliberately does *not*
/// read-through to other peers (the fetcher already fans out itself;
/// recursing here could bounce a missing id around the cluster).
fn peer_fetch(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: PeerFetchRequest = parse_body(req)?;
    check_key_id(&body.key_id)?;
    // The namespace rides in the body (the peer protocol stays on its
    // `/v1` paths): a missing field is the default tenant, so
    // pre-tenancy peers keep interoperating.
    let Some(tenant) = Tenant::from_wire(body.tenant.as_deref()) else {
        return Err(HttpError::bad_request(
            "invalid_tenant",
            format!("malformed tenant name {:?}", body.tenant),
        ));
    };
    match ctx.store.get_in(&tenant, &body.key_id) {
        Ok(Some(key)) => {
            let envelope = KeyEnvelope {
                schema_version: KEYSTORE_SCHEMA_VERSION,
                key_id: body.key_id.clone(),
                num_attrs: key.transforms.len(),
                key,
            };
            json_response(200, &PeerFetchResponse { key_id: body.key_id, envelope })
        }
        Ok(None) => Err(HttpError::not_found(
            "unknown_key",
            format!("no key stored under {:?}", body.key_id),
        )),
        Err(e) => Err(HttpError::from(e)),
    }
}

fn list_keys(ctx: &RequestCtx) -> Result<Response, HttpError> {
    let keys = ctx.store.list_in(ctx.tenant).map_err(HttpError::from)?;
    json_response(200, &ListKeysResponse { tenant: ctx.tenant.wire(), keys })
}

fn encode(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: EncodeRequest = parse_body(req)?;
    // Shape errors are usage errors regardless of whether the key
    // exists, so validate the payload before touching the store.
    if body.csv.is_some() == body.rows.is_some() {
        return Err(HttpError::bad_request(
            "invalid_payload",
            "send exactly one of `csv` (a labelled dataset) or `rows` (raw attribute rows)",
        ));
    }
    let plan = load_plan(ctx, &body.key_id)?;
    match (body.csv, body.rows) {
        (Some(csv_text), None) => {
            let d = parse_csv_body(&csv_text)?;
            check_arity(&plan.key, d.num_attrs())?;
            let mut columns = Vec::with_capacity(d.num_attrs());
            for a in d.schema().attrs() {
                let mut col = Vec::new();
                plan.plan.encode_column(a, d.column(a), &mut col).map_err(HttpError::from)?;
                columns.push(col);
            }
            let d_prime = d.with_columns(columns);
            ppdt_obs::add(ppdt_obs::Counter::RowsEncoded, d.num_rows() as u64);
            json_response(
                200,
                &EncodeResponse {
                    tenant: ctx.tenant.wire(),
                    key_id: body.key_id,
                    rows_encoded: d.num_rows() as u64,
                    csv: Some(csv::to_csv(&d_prime)),
                    rows: None,
                },
            )
        }
        (None, Some(rows)) => {
            let encoded: Vec<Vec<f64>> = rows
                .iter()
                .enumerate()
                .map(|(i, row)| encode_row(&plan.plan, row, i))
                .collect::<Result<_, _>>()?;
            ppdt_obs::add(ppdt_obs::Counter::RowsEncoded, encoded.len() as u64);
            json_response(
                200,
                &EncodeResponse {
                    tenant: ctx.tenant.wire(),
                    key_id: body.key_id,
                    rows_encoded: encoded.len() as u64,
                    csv: None,
                    rows: Some(encoded),
                },
            )
        }
        _ => Err(HttpError::bad_request(
            "invalid_payload",
            "send exactly one of `csv` (a labelled dataset) or `rows` (raw attribute rows)",
        )),
    }
}

fn classify(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: ClassifyRequest = parse_body(req)?;
    let plan = load_plan(ctx, &body.key_id)?;
    check_tree(&plan, &body.tree)?;
    let mut labels = Vec::with_capacity(body.rows.len());
    let mut encoded = Vec::new();
    for (i, row) in body.rows.iter().enumerate() {
        // The custodian encodes the plaintext query point and routes
        // it through the miner's tree T' — inference without ever
        // decoding the tree (§5 custodian workflow).
        encode_row_into(&plan.plan, row, i, &mut encoded)?;
        labels.push(body.tree.predict(&encoded).0);
    }
    json_response(200, &ClassifyResponse { tenant: ctx.tenant.wire(), key_id: body.key_id, labels })
}

fn decode_tree(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: DecodeTreeRequest = parse_body(req)?;
    let plan = load_plan(ctx, &body.key_id)?;
    let replayed = body.csv.is_some();
    // The cached artifact here is the *decoded* tree, so the cache key
    // digests everything the decode depends on: the mined tree AND the
    // dataset text (a replayed decode over different data is a
    // different result).
    let tree_json = serde_json::to_string(&body.tree)
        .map_err(|e| HttpError::from(PpdtError::internal(format!("tree re-serialization: {e}"))))?;
    let mut payload = tree_json.into_bytes();
    if let Some(csv_text) = &body.csv {
        payload.push(b'\n');
        payload.extend_from_slice(csv_text.as_bytes());
    }
    let composite = TreeCache::cache_key(ctx.tenant, &body.key_id, &payload);
    if let Some(decoded) = ctx.caches.trees.get(&composite) {
        return json_response(
            200,
            &DecodeTreeResponse {
                tenant: ctx.tenant.wire(),
                key_id: body.key_id,
                replayed,
                tree: (*decoded).clone(),
            },
        );
    }
    body.tree.validate(Some(plan.key.transforms.len())).map_err(HttpError::from)?;
    let decoded = match body.csv {
        Some(csv_text) => {
            let d = parse_csv_body(&csv_text)?;
            check_arity(&plan.key, d.num_attrs())?;
            plan.key
                .decode_tree(&body.tree, ThresholdPolicy::DataValue, &d)
                .map_err(HttpError::from)?
        }
        None => plan
            .key
            .decode_tree_blind(&body.tree, ThresholdPolicy::DataValue)
            .map_err(HttpError::from)?,
    };
    ctx.caches.trees.put(composite, Arc::new(decoded.clone()));
    json_response(
        200,
        &DecodeTreeResponse {
            tenant: ctx.tenant.wire(),
            key_id: body.key_id,
            replayed,
            tree: decoded,
        },
    )
}

fn audit(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: AuditRequestBody = parse_body(req)?;
    check_key_id(&body.key_id)?;
    // The audit endpoint deliberately bypasses the plan cache: its job
    // is to re-examine the envelope as stored *right now*, not a
    // previously-blessed compiled form.
    let key = match ctx.store.get_in(ctx.tenant, &body.key_id) {
        Ok(Some(key)) => key,
        Ok(None) => {
            return Err(HttpError::not_found(
                "unknown_key",
                format!("no key stored under {:?}", body.key_id),
            ))
        }
        // get() refuses to *serve* a corrupt key, but the audit
        // endpoint's whole point is to report on it: fall back to the
        // raw envelope read failing with the typed error.
        Err(e) => return Err(HttpError::from(e)),
    };
    let report = match body.csv {
        Some(csv_text) => {
            let d = parse_csv_body(&csv_text)?;
            ppdt_transform::audit_key_against(&key, &d)
        }
        None => ppdt_transform::audit_key(&key),
    };
    let passed = report.passed();
    json_response(
        200,
        &AuditResponseBody { tenant: ctx.tenant.wire(), key_id: body.key_id, passed, report },
    )
}

/// `POST /v2/t/<tenant>/rekey`: online key rotation. The dataset
/// arrives in `from_key_id`'s transformed space and leaves in
/// `to_key_id`'s, re-encoded column-by-column through the fused
/// [`ppdt_transform::RekeyPlan`] — one pass, with the plaintext
/// confined to a scratch buffer inside this handler. The fused path
/// is bit-identical to decode-then-encode by construction (proven by
/// the transform crate's property tests), so a rekeyed dataset mines
/// the same tree as a fresh encode under the target key.
fn rekey(req: &Request, ctx: &RequestCtx) -> Result<Response, HttpError> {
    let body: RekeyRequest = parse_body(req)?;
    check_key_id(&body.from_key_id)?;
    check_key_id(&body.to_key_id)?;
    let from = load_plan(ctx, &body.from_key_id)?;
    let to = load_plan(ctx, &body.to_key_id)?;
    let d_prime = parse_csv_body(&body.csv)?;
    check_arity(&from.key, d_prime.num_attrs())?;
    let mut plan = ppdt_transform::RekeyPlan::new(&from.plan, &to.plan).map_err(HttpError::from)?;
    let rekeyed = plan.rekey_dataset(&d_prime).map_err(HttpError::from)?;
    ppdt_obs::add(ppdt_obs::Counter::RowsEncoded, d_prime.num_rows() as u64);
    json_response(
        200,
        &RekeyResponse {
            tenant: ctx.tenant.wire(),
            from_key_id: body.from_key_id,
            to_key_id: body.to_key_id,
            rows_rekeyed: d_prime.num_rows() as u64,
            csv: csv::to_csv(&rekeyed),
        },
    )
}

fn debug_sleep(req: &Request) -> Result<Response, HttpError> {
    let body: SleepRequest = parse_body(req)?;
    let ms = body.ms.min(10_000);
    std::thread::sleep(std::time::Duration::from_millis(ms));
    json_response(200, &SleepRequest { ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request { method: "GET".into(), path: path.into(), body: Vec::new() }
    }

    fn post(path: &str) -> Request {
        Request { method: "POST".into(), path: path.into(), body: Vec::new() }
    }

    #[test]
    fn routing_table() {
        assert_eq!(route(&post("/v1/encode"), false).unwrap(), Route::v1(Endpoint::Encode));
        assert_eq!(route(&get("/healthz"), false).unwrap(), Route::v1(Endpoint::Healthz));
        assert_eq!(route(&get("/v1/keys"), false).unwrap(), Route::v1(Endpoint::ListKeys));
        assert_eq!(route(&post("/v1/keys"), false).unwrap(), Route::v1(Endpoint::StoreKey));
        assert_eq!(route(&get("/v1/version"), false).unwrap(), Route::v1(Endpoint::Version));
        // Cluster routes are always live (a standalone node serves an
        // honest manifest of itself).
        assert_eq!(route(&get("/v1/peer/keys"), false).unwrap(), Route::v1(Endpoint::PeerManifest));
        assert_eq!(route(&post("/v1/peer/fetch"), false).unwrap(), Route::v1(Endpoint::PeerFetch));
        // Wrong method on a known path is 405, unknown path 404.
        assert_eq!(route(&get("/v1/encode"), false).unwrap_err().status, 405);
        assert_eq!(route(&post("/healthz"), false).unwrap_err().status, 405);
        assert_eq!(route(&post("/v1/version"), false).unwrap_err().status, 405);
        assert_eq!(route(&post("/v1/peer/keys"), false).unwrap_err().status, 405);
        assert_eq!(route(&get("/v1/peer/fetch"), false).unwrap_err().status, 405);
        assert_eq!(route(&get("/nope"), false).unwrap_err().status, 404);
        // Debug routes exist only when enabled.
        assert_eq!(route(&post("/v1/debug/sleep"), false).unwrap_err().status, 404);
        assert_eq!(route(&post("/v1/debug/sleep"), true).unwrap(), Route::v1(Endpoint::DebugSleep));
        assert_eq!(route(&post("/v1/debug/panic"), false).unwrap_err().status, 404);
        assert_eq!(route(&post("/v1/debug/panic"), true).unwrap(), Route::v1(Endpoint::DebugPanic));
    }

    #[test]
    fn v2_routing_carries_the_tenant() {
        let acme = Tenant::parse("acme").unwrap();
        for (path, endpoint) in [
            ("/v2/t/acme/encode", Endpoint::Encode),
            ("/v2/t/acme/classify", Endpoint::Classify),
            ("/v2/t/acme/decode-tree", Endpoint::DecodeTree),
            ("/v2/t/acme/audit", Endpoint::Audit),
            ("/v2/t/acme/keys", Endpoint::StoreKey),
            ("/v2/t/acme/rekey", Endpoint::Rekey),
        ] {
            let r = route(&post(path), false).unwrap();
            assert_eq!(r.endpoint, endpoint, "{path}");
            assert_eq!(r.tenant, acme, "{path}");
        }
        assert_eq!(
            route(&get("/v2/t/acme/keys"), false).unwrap(),
            Route { endpoint: Endpoint::ListKeys, tenant: acme.clone() }
        );
        // `/v2/t/default/...` is an exact alias of the `/v1` route.
        assert_eq!(
            route(&post("/v2/t/default/encode"), false).unwrap(),
            Route::v1(Endpoint::Encode)
        );
        // Known path + wrong method is 405; unknown suffix is 404.
        assert_eq!(route(&get("/v2/t/acme/encode"), false).unwrap_err().status, 405);
        assert_eq!(route(&get("/v2/t/acme/rekey"), false).unwrap_err().status, 405);
        assert_eq!(route(&post("/v2/t/acme/nope"), false).unwrap_err().status, 404);
        assert_eq!(route(&post("/v2/t/acme"), false).unwrap_err().status, 404);
        // A malformed tenant name is a 400 *before* endpoint matching:
        // the name gate is the path-traversal boundary.
        for bad in ["/v2/t/UPPER/keys", "/v2/t/dot.dot/keys", "/v2/t//keys"] {
            let err = route(&post(bad), false).unwrap_err();
            assert_eq!(err.status, 400, "{bad}");
            assert_eq!(err.code, "invalid_tenant", "{bad}");
        }
        // There is no tenant-scoped spelling of the infra routes.
        assert_eq!(route(&get("/v2/t/acme/version"), false).unwrap_err().status, 404);
        assert_eq!(route(&get("/v2/t/acme/peer/keys"), false).unwrap_err().status, 404);
        // Rekey is /v2-only: no /v1 spelling exists.
        assert_eq!(route(&post("/v1/rekey"), false).unwrap_err().status, 404);
    }

    #[test]
    fn malformed_key_ids_are_client_errors() {
        for bad in ["../../etc/passwd", "short", "", &"A".repeat(32)] {
            let err = check_key_id(bad).expect_err("malformed id must be rejected");
            assert_eq!(err.status, 400, "{bad:?}");
            assert_eq!(err.code, "invalid_key_id", "{bad:?}");
        }
        assert!(check_key_id(&"0a".repeat(16)).is_ok());
    }

    #[test]
    fn endpoint_names_and_indices_are_stable() {
        for (i, e) in ENDPOINTS.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert!(e.phase_name().starts_with("serve."));
            assert!(e.phase_name().ends_with(e.name()));
        }
        assert!(Endpoint::Healthz.is_inline() && Endpoint::Metrics.is_inline());
        assert!(Endpoint::Version.is_inline(), "version must answer while workers are busy");
        assert!(!Endpoint::Encode.is_inline());
    }
}
