//! # ppdt-serve
//!
//! The custodian as a **long-running daemon**: the paper's workflow
//! (encode the relation, ship `D'` to the miner, decode the mined
//! tree, answer classification queries) exposed as a small JSON API
//! over hand-rolled HTTP/1.1 on stdlib TCP — no web framework, per
//! the vendored-dependencies-only policy.
//!
//! The wire protocol is specified normatively in `docs/PROTOCOL.md`
//! at the repository root; the types in [`api`] are its Rust shape.
//!
//! The daemon is **multi-tenant**: every data route exists in a
//! `/v2/t/{tenant}/...` form whose [`Tenant`] segment namespaces the
//! key store, the compiled-plan and tree caches, replication, and the
//! per-tenant quotas/metrics. The whole `/v1` surface is a shim over
//! the same handlers bound to the implicit `default` tenant, so
//! pre-tenancy clients (and the on-disk layout they wrote) keep
//! working unchanged. `POST /v2/t/{tenant}/rekey` rotates a dataset
//! between two stored keys in one fused pass
//! ([`ppdt_transform::RekeyPlan`]) — plaintext never leaves the
//! custodian boundary.
//!
//! Modules:
//!
//! * [`http`] — minimal HTTP/1.1 framing: persistent keep-alive
//!   connections, `Content-Length` and `Transfer-Encoding: chunked`
//!   bodies, hard head/body caps, typed [`HttpError`]s, plus the
//!   persistent blocking loopback [`Client`],
//! * [`api`] — the public wire types (request/response payloads) and
//!   the schema-version constants reported by `GET /v1/version`,
//! * [`keystore`] — the persistent versioned key store:
//!   [`TransformKey`](ppdt_transform::TransformKey)s under
//!   content-addressed ids in schema-versioned envelopes, written
//!   atomically (write-then-rename) and audited on load so a
//!   corrupted key can never serve,
//! * [`cache`] — the hot-path caches: audited keys lowered once into
//!   [`CompiledKey`](ppdt_transform::CompiledKey) plans (stamp-checked
//!   against the envelope file so on-disk replacement invalidates),
//!   plus a decoded-tree cache keyed by `(key id, payload digest)`,
//! * [`handlers`] — the API surface: `POST /v1/keys`, `/v1/encode`,
//!   `/v1/classify`, `/v1/decode-tree`, `/v1/audit`, their
//!   tenant-scoped `/v2/t/{tenant}/...` forms plus
//!   `POST /v2/t/{tenant}/rekey`, the cluster `GET /v1/peer/keys` /
//!   `POST /v1/peer/fetch`, and the inline `GET /healthz` /
//!   `GET /metrics` / `GET /v1/version`,
//! * [`client`] — the deadline-aware loopback client with
//!   `Retry-After`-honoring retry, shared by the cluster sync loop,
//!   the integration tests, and the bench binaries, and the one-shot
//!   [`request`] built on it,
//! * [`peer`] — cluster membership and the pull-based anti-entropy
//!   sync loop: manifest polling, read-through fetch for
//!   not-yet-synced keys, best-effort push on store, per-peer health
//!   with bounded exponential backoff,
//! * [`server`] — the daemon: one `poll(2)` readiness loop that
//!   accepts, reads only ready sockets and frames whole requests in
//!   each connection's buffer (idle and slow connections cost no
//!   thread; a slow-loris meets a `408` at the parse deadline), in
//!   front of one worker pool fed by one bounded queue; a connection
//!   has one request at a worker at a time, so pipelined responses stay
//!   in order by construction; plus streaming chunked
//!   encode/classify, `503 + Retry-After` backpressure, per-request
//!   deadlines, panic-contained workers, graceful drain, and (with
//!   peers configured) the cluster sync thread,
//! * [`signal`] — SIGINT/SIGTERM latching without a libc dependency.
//!
//! Error mapping is the workspace table
//! ([`ppdt_error::ErrorCategory::http_status`]): usage → 400, corrupt
//! data → 422, corrupt key → 409, incompatible tree → 424, io/internal
//! → 500, with transport-level 404/405/408/413/431/503 on top
//! (and a `400 invalid_key_id` for ids that are not 32 lowercase hex
//! chars — 409 is reserved for keys corrupt *on disk*). Every failure
//! is a structured JSON body — hostile input gets a typed 4xx, never
//! a panic.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
mod conn;
pub mod handlers;
pub mod http;
pub mod keystore;
pub mod peer;
mod peer_client;
mod poller;
pub mod server;
pub mod signal;
mod stream;

pub use api::{VersionResponse, API_SCHEMA_VERSION, BENCH_REPORT_SCHEMA_VERSION};
pub use cache::{Caches, PlanCache, TreeCache};
pub use client::{request, ClientConfig, Exchange, RequestOutcome, RetryingClient};
pub use handlers::{Endpoint, Route};
pub use http::{Client, HttpError, Request, Response};
pub use keystore::{KeyEntry, KeyEnvelope, KeyStore, Tenant, KEYSTORE_SCHEMA_VERSION};
pub use peer::PeerSnapshot;
pub use server::{Server, ServerConfig};
