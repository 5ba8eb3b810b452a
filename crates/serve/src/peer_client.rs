//! Typed client for the `/v1/peer/*` endpoints — the wire half of
//! the anti-entropy loop in [`crate::peer`].
//!
//! Built on [`crate::client::RetryingClient`], so every call gets the
//! shared deadline/retry policy: a fresh connection per attempt, hard
//! connect/read deadlines, and a bounded retry budget
//! ([`crate::client::ClientConfig::attempts`]) so a dead peer costs
//! bounded wall-clock time per sync round instead of a wedged loop.

use std::net::SocketAddr;
use std::time::Duration;

use ppdt_error::PpdtError;
use ppdt_transform::TransformKey;

use crate::api::{PeerFetchRequest, PeerFetchResponse, PeerManifestResponse, StoreKeyRequest};
use crate::client::{ClientConfig, RetryingClient};
use crate::keystore::{KeyEnvelope, Tenant};

/// One peer's typed endpoint surface.
#[derive(Debug)]
pub(crate) struct PeerClient {
    http: RetryingClient,
}

impl PeerClient {
    /// A client for `addr`: `deadline` bounds each attempt's I/O,
    /// `attempts` is the per-call retry budget.
    pub fn new(addr: SocketAddr, deadline: Duration, attempts: usize) -> PeerClient {
        let cfg = ClientConfig {
            connect_timeout: deadline.min(Duration::from_secs(1)),
            io_timeout: deadline,
            attempts,
            backoff: Duration::from_millis(25),
        };
        PeerClient { http: RetryingClient::with_config(addr, cfg) }
    }

    /// The peer's address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    fn unexpected(&self, what: &str, status: u16, body: &str) -> PpdtError {
        PpdtError::Io {
            path: Some(format!("http://{}", self.http.addr())),
            detail: format!("{what}: peer answered {status}: {}", &body[..body.len().min(200)]),
        }
    }

    /// `GET /v1/peer/keys`: the peer's manifest of servable keys.
    pub fn manifest(&self) -> Result<PeerManifestResponse, PpdtError> {
        let (status, body) = self.http.request("GET", "/v1/peer/keys", "")?;
        if status != 200 {
            return Err(self.unexpected("manifest", status, &body));
        }
        serde_json::from_str(&body)
            .map_err(|e| self.unexpected("manifest parse", status, &e.to_string()))
    }

    /// `POST /v1/peer/fetch`: one full envelope by `(tenant, id)`.
    /// The caller re-derives the id and re-audits before storing —
    /// this client does not trust the peer. The tenant travels in the
    /// body (omitted for the default tenant, so pre-tenancy peers
    /// parse the request unchanged).
    pub fn fetch(&self, tenant: &Tenant, key_id: &str) -> Result<KeyEnvelope, PpdtError> {
        let req = serde_json::to_string(&PeerFetchRequest {
            tenant: tenant.wire(),
            key_id: key_id.to_string(),
        })
        .map_err(|e| PpdtError::internal(format!("peer fetch serialization: {e}")))?;
        let (status, body) = self.http.request("POST", "/v1/peer/fetch", &req)?;
        if status != 200 {
            return Err(self.unexpected("fetch", status, &body));
        }
        let resp: PeerFetchResponse = serde_json::from_str(&body)
            .map_err(|e| self.unexpected("fetch parse", status, &e.to_string()))?;
        Ok(resp.envelope)
    }

    /// Best-effort push of a freshly stored key: a plain store on the
    /// peer (`POST /v1/keys` for the default tenant,
    /// `POST /v2/t/<name>/keys` otherwise), so a push and a pull of
    /// the same key are indistinguishable and idempotent.
    pub fn push(&self, tenant: &Tenant, key: &TransformKey) -> Result<(), PpdtError> {
        let req = serde_json::to_string(&StoreKeyRequest { key: key.clone() })
            .map_err(|e| PpdtError::internal(format!("peer push serialization: {e}")))?;
        let path = format!("{}/keys", tenant.route_prefix());
        let (status, body) = self.http.request("POST", &path, &req)?;
        if status != 200 && status != 201 {
            return Err(self.unexpected("push", status, &body));
        }
        Ok(())
    }
}
