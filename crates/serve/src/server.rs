//! The daemon: one readiness loop in front of one worker pool, with
//! keep-alive connections, pipelining and graceful drain.
//!
//! The loop runs on the thread that calls [`Server::run`]. It polls
//! the listener and every connection it holds (the private `poller`
//! module), accepts on readiness, reads the ready bytes into each
//! connection's own buffer and frames complete requests (the private
//! `conn` module). It never waits on a peer: it reads only after
//! readiness, and an answer of its own that the socket cannot take at
//! once drops the connection. It answers `/healthz`, `/metrics` and
//! `/v1/version`, routing errors, wire errors (400/408/413/431) and
//! overload `503`s itself, so liveness keeps answering while every
//! worker is busy. Every other request goes, with its connection, to
//! a worker through one bounded queue; when the queue is full the
//! request is answered `503` with `Retry-After` at once — the
//! backpressure is visible to the client, not hidden in latency — and
//! the connection closes (a 503 always closes: the daemon sheds load,
//! it does not babysit it). The loop answers at most one request per
//! connection per wake-up, so one pipelining client cannot starve the
//! others.
//!
//! A connection has at most one request at a worker. The worker runs
//! the handler, writes the answer straight to the socket and hands the
//! connection back to the loop, so pipelined answers leave in request
//! order by construction. A `Content-Length` request reaches a worker
//! whole: no worker waits on a peer's bytes for one, and a slow-loris
//! costs a buffer, not a thread, until
//! [`ServerConfig::parse_deadline`] answers it `408` — even as the
//! second request of a pipeline. A chunked body is read by the worker
//! itself: `/v1/encode` and `/v1/classify` (and their `/v2/t/{tenant}/`
//! forms) stream it batch by batch within 120 s (the private `stream`
//! module);
//! other endpoints buffer it under `parse_deadline`. A chunked request
//! refused before its body is read closes lingeringly: the loop reads
//! and discards the rest, within `max_body_bytes` and `parse_deadline`,
//! so a client still uploading reads the answer instead of a reset.
//! The loop buffers at most two [`ServerConfig::max_body_bytes`] of
//! bodies longer than one read at once; a body past that is not read
//! until room frees.
//!
//! A connection stays open across requests (HTTP/1.1 keep-alive,
//! honoring `Connection: close`/`keep-alive`) up to
//! [`ServerConfig::keep_alive_requests`] requests,
//! [`ServerConfig::idle_timeout`] between requests, and 300 s
//! overall.
//!
//! Tenant quotas are enforced at the worker boundary: a tenant past
//! [`ServerConfig::tenant_max_inflight`] concurrent requests is
//! answered `429` with `Retry-After` — unlike a `503` the daemon is
//! healthy; the quota, not the queue, said no. Workers drop jobs that
//! waited past the per-request deadline (the client has likely given
//! up; doing the work anyway is wasted CPU under overload), and a
//! panicking handler is caught, answered `500`, and the worker lives
//! on.
//!
//! Shutdown is cooperative: a SIGINT/SIGTERM (or a programmatic
//! [`Server::shutdown_flag`] store) ends the loop, which closes the
//! connections it holds; workers drain the queued jobs and finish
//! their in-flight requests, and [`Server::run`] returns.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppdt_error::PpdtError;
use ppdt_obs::Counter;
use serde::Serialize;

use crate::cache::{Caches, PLAN_CACHE_CAPACITY, TREE_CACHE_CAPACITY};
use crate::conn::{Conn, Frame, READ_CHUNK};
use crate::handlers::{self, Endpoint, HandlerCtx, Route, ENDPOINTS};
use crate::http::{read_chunked_into, HttpError, Request, Response};
use crate::keystore::Tenant;
use crate::peer::{Cluster, PeerSnapshot};
use crate::poller::{self, Handback, Poller, POLL_TICK};
use crate::stream::{self, StreamEnd};

/// How long the loop leaves the listener out of its polls after an
/// `accept` error such as `EMFILE`, instead of spinning on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Everything tunable about a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads; `0` resolves via [`ppdt_obs::threads`]
    /// (`PPDT_THREADS` / available parallelism).
    pub workers: usize,
    /// Bounded queue depth between the readiness loop and the worker
    /// pool; a full queue answers `503` immediately.
    pub queue_capacity: usize,
    /// Queued requests older than this are answered `503` instead of
    /// being processed.
    pub request_deadline: Duration,
    /// Per-request body cap, bytes (declared `Content-Length` or
    /// accumulated chunked payload alike). The readiness loop buffers
    /// at most two such bodies at once, and a lingering close discards
    /// at most this much.
    pub max_body_bytes: usize,
    /// Hard ceiling on the total time a connection may take to deliver
    /// one complete request (head + body). Unlike the 30 s socket
    /// write timeout it is not reset by each byte, so it bounds
    /// slow-loris peers; on a kept-alive connection it re-arms once
    /// per request. It also bounds a lingering close.
    pub parse_deadline: Duration,
    /// Routes the test-only `POST /v1/debug/*` endpoints.
    pub debug_endpoints: bool,
    /// Requests served per connection before the daemon closes it
    /// (`0` disables keep-alive entirely: every response carries
    /// `Connection: close`).
    pub keep_alive_requests: u64,
    /// How long an idle keep-alive connection (no request in flight,
    /// nothing buffered) may wait on the readiness loop before it is
    /// closed.
    pub idle_timeout: Duration,
    /// Connections the readiness loop holds at once (those at a worker
    /// are not counted); above it new connections are shed with `503`.
    pub max_connections: usize,
    /// Cluster peers (other daemons' addresses, from repeated
    /// `--peer` flags). Empty means standalone: no sync thread, no
    /// read-through, peer endpoints answer about this node only.
    pub peers: Vec<SocketAddr>,
    /// Anti-entropy cadence: how often the sync thread polls each
    /// peer's manifest (unreachable peers back off exponentially from
    /// this base).
    pub sync_interval: Duration,
    /// Keys one tenant may hold at once; storing past the quota
    /// answers `429` with `Retry-After`. `0` disables the quota.
    pub tenant_max_keys: usize,
    /// Requests one tenant may have in flight on the worker pool at
    /// once; past it the request is answered `429` (the connection
    /// survives — unlike a `503` the daemon is healthy, the tenant is
    /// over its share). `0` disables the quota.
    pub tenant_max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            request_deadline: Duration::from_secs(10),
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
            parse_deadline: Duration::from_secs(5),
            debug_endpoints: false,
            keep_alive_requests: 100,
            idle_timeout: Duration::from_secs(10),
            max_connections: 1024,
            peers: Vec::new(),
            sync_interval: Duration::from_secs(2),
            tenant_max_keys: 0,
            tenant_max_inflight: 0,
        }
    }
}

/// Per-endpoint request/error/latency counters, readable while the
/// server runs. Latency goes through the shared log-bucketed
/// histogram so `/metrics` can report percentiles, not just
/// min/mean/max.
#[derive(Debug, Default)]
struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: ppdt_obs::AtomicLogHistogram,
}

/// Per-tenant counters: one row per tenant that has been seen since
/// the daemon started. The in-flight gauge doubles as the enforcement
/// point for [`ServerConfig::tenant_max_inflight`].
#[derive(Debug, Default)]
struct TenantStats {
    requests: AtomicU64,
    errors: AtomicU64,
    quota_rejected: AtomicU64,
    in_flight: AtomicU64,
}

/// RAII handle on one tenant's in-flight slot (a panicking handler
/// cannot leak it).
struct TenantFlight(Arc<TenantStats>);

impl Drop for TenantFlight {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Live serve-side metrics (lock-free except the per-tenant map,
/// which takes one short mutex hop per request; rendered by
/// `/metrics`).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    per_endpoint: [EndpointStats; ENDPOINTS.len()],
    tenants: Mutex<HashMap<String, Arc<TenantStats>>>,
    rejected: AtomicU64,
    in_flight: AtomicU64,
    in_flight_peak: AtomicU64,
    keepalive_reuses: AtomicU64,
    pipelined_requests: AtomicU64,
    streamed_chunks: AtomicU64,
}

impl ServeMetrics {
    fn requested(&self, e: Endpoint) {
        self.per_endpoint[e.index()].requests.fetch_add(1, Ordering::Relaxed);
    }

    /// The stats row for one tenant, created on first sight (the only
    /// time the name is copied).
    fn tenant(&self, tenant: &Tenant) -> Arc<TenantStats> {
        let mut map = self.tenants.lock().expect("tenant metrics lock");
        if let Some(stats) = map.get(tenant.as_str()) {
            return Arc::clone(stats);
        }
        Arc::clone(map.entry(tenant.as_str().to_owned()).or_default())
    }

    fn tenant_errored(&self, tenant: &Tenant) {
        self.tenant(tenant).errors.fetch_add(1, Ordering::Relaxed);
    }

    fn errored(&self, e: Endpoint) {
        self.per_endpoint[e.index()].errors.fetch_add(1, Ordering::Relaxed);
    }

    fn timed(&self, e: Endpoint, elapsed: Duration) {
        let micros = elapsed.as_micros() as u64;
        self.per_endpoint[e.index()].latency.record(micros);
    }

    /// Requests answered `503` (queue full or deadline expired).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently processed requests.
    pub fn in_flight_peak(&self) -> u64 {
        self.in_flight_peak.load(Ordering::Relaxed)
    }

    /// Requests served on an already-open connection.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Point-in-time copy for `/metrics` and reports.
    pub fn snapshot(&self) -> ServeSnapshot {
        let mut tenants: Vec<TenantSnapshot> = self
            .tenants
            .lock()
            .expect("tenant metrics lock")
            .iter()
            .map(|(name, s)| TenantSnapshot {
                tenant: name.clone(),
                requests: s.requests.load(Ordering::Relaxed),
                errors: s.errors.load(Ordering::Relaxed),
                quota_rejected: s.quota_rejected.load(Ordering::Relaxed),
                in_flight: s.in_flight.load(Ordering::Relaxed),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServeSnapshot {
            rejected: self.rejected(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            in_flight_peak: self.in_flight_peak(),
            keepalive_reuses: self.keepalive_reuses(),
            pipelined_requests: self.pipelined_requests.load(Ordering::Relaxed),
            streamed_chunks: self.streamed_chunks.load(Ordering::Relaxed),
            endpoints: ENDPOINTS
                .iter()
                .map(|&e| {
                    let s = &self.per_endpoint[e.index()];
                    let h = s.latency.snapshot();
                    EndpointSnapshot {
                        endpoint: e.name().to_string(),
                        requests: s.requests.load(Ordering::Relaxed),
                        errors: s.errors.load(Ordering::Relaxed),
                        latency_micros: h.sum(),
                        min_micros: h.min(),
                        mean_micros: h.mean(),
                        p50_micros: h.quantile(0.5),
                        p99_micros: h.quantile(0.99),
                        max_micros: h.max(),
                    }
                })
                .collect(),
            tenants,
        }
    }
}

/// One per-tenant `/metrics` row.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct TenantSnapshot {
    /// Tenant name (`default` for the implicit `/v1` tenant).
    pub tenant: String,
    /// Requests routed under the tenant (all endpoints).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx.
    pub errors: u64,
    /// Requests bounced `429` by a tenant quota (keys or in-flight).
    pub quota_rejected: u64,
    /// The tenant's requests being processed right now.
    pub in_flight: u64,
}

/// One `/metrics` row.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct EndpointSnapshot {
    /// Stable endpoint name ([`Endpoint::name`]).
    pub endpoint: String,
    /// Requests routed to the endpoint (including rejected ones).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx.
    pub errors: u64,
    /// Summed handler latency, microseconds (inline endpoints included).
    pub latency_micros: u64,
    /// Fastest timed request, microseconds (0 when nothing was timed).
    pub min_micros: u64,
    /// Mean handler latency, microseconds (0 when nothing was timed).
    pub mean_micros: f64,
    /// Median handler latency, microseconds — upper bound from the
    /// log-bucketed histogram (≤ 1.6% over the exact sample median).
    pub p50_micros: u64,
    /// 99th-percentile handler latency, microseconds (same bound).
    pub p99_micros: u64,
    /// Slowest timed request, microseconds.
    pub max_micros: u64,
}

/// The `serve` half of the `/metrics` body.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct ServeSnapshot {
    /// `503` answers (queue full + deadline expiries).
    pub rejected: u64,
    /// Requests being processed right now.
    pub in_flight: u64,
    /// High-water mark of `in_flight`.
    pub in_flight_peak: u64,
    /// Requests served on an already-open keep-alive connection.
    pub keepalive_reuses: u64,
    /// Requests whose bytes the daemon had already read when the
    /// previous request on the same connection was framed, before its
    /// answer was written.
    pub pipelined_requests: u64,
    /// Transfer-encoding chunks moved by streaming encode/classify
    /// (request chunks decoded plus response chunks written).
    pub streamed_chunks: u64,
    /// Per-endpoint counters, [`ENDPOINTS`] order.
    pub endpoints: Vec<EndpointSnapshot>,
    /// Per-tenant counters, sorted by tenant name. Only tenants seen
    /// since startup appear.
    pub tenants: Vec<TenantSnapshot>,
}

/// `GET /healthz` body.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct HealthzBody {
    /// Always `"ok"` while the daemon answers at all.
    pub status: String,
    /// Resolved worker-pool size.
    pub workers: usize,
    /// Configured queue depth.
    pub queue_capacity: usize,
    /// Per-peer sync health (empty on a standalone node).
    pub peers: Vec<PeerSnapshot>,
}

/// `GET /metrics` body.
#[derive(Clone, Debug, Serialize, serde::Deserialize)]
pub struct MetricsBody {
    /// Serve-layer counters.
    pub serve: ServeSnapshot,
    /// Process-wide [`ppdt_obs`] counters and phase timings.
    pub process: ppdt_obs::MetricsSnapshot,
    /// Per-peer sync health (empty on a standalone node).
    pub peers: Vec<PeerSnapshot>,
}

/// One request on its way to a worker, with the connection it came on.
struct Job {
    conn: Conn,
    req: Request,
    /// The body is chunked and still on the wire: the worker reads it.
    chunked: bool,
    /// A routing error reaches a worker only behind a chunked body,
    /// which must be read before the connection can take another
    /// request.
    route: Result<Route, HttpError>,
    close: bool,
    enqueued: Instant,
}

/// A bound, not-yet-running custodian daemon.
pub struct Server {
    cfg: ServerConfig,
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    store: crate::keystore::KeyStore,
    caches: Caches,
    cluster: Option<Cluster>,
    node_id: String,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
}

impl Server {
    /// Binds the listener (so the final address — including an
    /// OS-assigned port for `:0` — is known before [`Server::run`]).
    pub fn bind(cfg: ServerConfig, store: crate::keystore::KeyStore) -> Result<Server, PpdtError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| PpdtError::Io {
            path: Some(cfg.addr.clone()),
            detail: format!("bind: {e}"),
        })?;
        let addr = listener.local_addr().map_err(|e| PpdtError::Io {
            path: Some(cfg.addr.clone()),
            detail: format!("local_addr: {e}"),
        })?;
        // The loop accepts only after readiness and must never block.
        listener.set_nonblocking(true).map_err(|e| PpdtError::Io {
            path: Some(cfg.addr.clone()),
            detail: format!("set_nonblocking: {e}"),
        })?;
        let workers = if cfg.workers == 0 { ppdt_obs::threads(None) } else { cfg.workers };
        let caches = Caches::new(PLAN_CACHE_CAPACITY, TREE_CACHE_CAPACITY);
        // The bound address (with `:0` resolved) is the node's cluster
        // identity: unique per daemon and exactly what peers dial.
        let node_id = addr.to_string();
        let cluster = (!cfg.peers.is_empty())
            .then(|| Cluster::new(node_id.clone(), &cfg.peers, cfg.sync_interval));
        Ok(Server {
            cfg,
            listener,
            addr,
            workers,
            store,
            caches,
            cluster,
            node_id,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(ServeMetrics::default()),
        })
    }

    /// The bound address (resolves `:0` to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cooperative shutdown handle: store `true` and [`Server::run`]
    /// drains and returns.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Live metrics handle (shared with `/metrics`).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::signalled()
    }

    /// The borrow bundle every pooled handler runs against.
    fn ctx(&self) -> HandlerCtx<'_> {
        HandlerCtx {
            store: &self.store,
            caches: &self.caches,
            cluster: self.cluster.as_ref(),
            node_id: &self.node_id,
            tenant_max_keys: self.cfg.tenant_max_keys,
        }
    }

    /// Serves until shutdown, then drains. The readiness loop runs on
    /// the calling thread, which this blocks for the daemon's whole
    /// life.
    pub fn run(self) -> Result<(), PpdtError> {
        let (poller, handback) = poller::pair().map_err(|e| PpdtError::Io {
            path: None,
            detail: format!("poller wake channel: {e}"),
        })?;
        let (jobs, queue) = std::sync::mpsc::sync_channel::<Job>(self.cfg.queue_capacity);
        let queue = Mutex::new(queue);
        let (this, queue, handback) = (&self, &queue, &handback);
        crossbeam::thread::scope(|s| {
            for _ in 0..this.workers {
                s.spawn(move |_| this.worker_loop(queue, handback));
            }
            // Cluster mode: one sync thread per daemon runs the
            // anti-entropy loop; it polls the shutdown flag at sub-tick
            // granularity so the drain never waits on a sleeping peer
            // poll.
            if let Some(cluster) = &this.cluster {
                s.spawn(move |_| cluster.run_sync(&this.store, &|| this.stopping()));
            }
            // The loop returns at shutdown and drops the job sender:
            // the workers drain the queue, then their `recv()` fails
            // and they exit.
            this.serve_loop(poller, jobs);
        })
        .map_err(|_| PpdtError::internal("a server thread panicked"))
    }

    /// The readiness loop: accepts, reads and frames, answers what it
    /// can itself, hands the rest to the workers, and closes idle,
    /// expired and dead connections.
    fn serve_loop(&self, mut poller: Poller, jobs: SyncSender<Job>) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut kept: Vec<Conn> = Vec::new();
        let mut ready: Vec<usize> = Vec::new();
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut accept_paused: Option<Instant> = None;
        let mut timeout = POLL_TICK;
        // The request-body bytes the loop buffers at once: two
        // maximal bodies, besides bodies that fit in one read.
        let budget = self.cfg.max_body_bytes.saturating_mul(2);
        while !self.stopping() {
            for mut conn in poller.returned() {
                conn.handed_back();
                conns.push(conn);
            }
            // A body longer than one read stays unread, its sender held
            // back by TCP flow control, until it fits in the budget.
            let mut held: usize = conns.iter().map(Conn::held).sum();
            for conn in &mut conns {
                held += conn.admit(budget.saturating_sub(held));
            }
            if accept_paused.is_some_and(|until| Instant::now() >= until) {
                accept_paused = None;
            }
            let listener = accept_paused.is_none().then_some(&self.listener);
            let pending = poller.wait(listener, &conns, timeout, &mut ready);
            ready.sort_unstable();
            let now = Instant::now();
            let mut next =
                accept_paused.map_or(now + POLL_TICK, |until| until.min(now + POLL_TICK));
            let mut ready = ready.iter().copied().peekable();
            for (i, conn) in conns.drain(..).enumerate() {
                let conn = if ready.next_if_eq(&i).is_some() {
                    self.serve(conn, &mut scratch, &jobs)
                } else {
                    Some(conn)
                };
                if let Some(conn) = conn.and_then(|c| self.expire(c, now, &mut next)) {
                    kept.push(conn);
                }
            }
            std::mem::swap(&mut conns, &mut kept);
            if pending && self.accept(&mut conns).is_err() {
                accept_paused = Some(Instant::now() + ACCEPT_BACKOFF);
                next = next.min(Instant::now() + ACCEPT_BACKOFF);
            }
            timeout = next.saturating_duration_since(Instant::now());
        }
        // Shutdown: dropping `conns` closes every connection the loop
        // holds, and dropping `jobs` starts the workers' drain.
    }

    /// Accepts every pending connection. An accept error such as
    /// `EMFILE` is returned, and the loop leaves the listener out of
    /// its polls for [`ACCEPT_BACKOFF`] instead of spinning on it.
    fn accept(&self, conns: &mut Vec<Conn>) -> std::io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if crate::conn::would_block(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            let Ok(conn) = Conn::new(stream) else { continue };
            if conns.len() >= self.cfg.max_connections {
                let shed = HttpError::overloaded("connection ceiling reached").to_response();
                self.reply(conn, None, shed, true, false);
            } else {
                conns.push(conn);
            }
        }
    }

    /// Applies the deadlines to a connection the loop holds: a request
    /// that has not arrived whole by its parse deadline is answered
    /// `408`; a connection idle past `idle_timeout`, older than
    /// `CONN_LIFETIME` between requests, or lingering past its
    /// deadline is closed silently. Lowers `next` to the connection's
    /// next deadline.
    fn expire(&self, mut conn: Conn, now: Instant, next: &mut Instant) -> Option<Conn> {
        let due = conn.due(now, &self.cfg);
        if now < due {
            *next = (*next).min(due);
            return Some(conn);
        }
        if conn.mid_request() {
            let late = HttpError::request_timeout("request").to_response();
            self.reply(conn, None, late, true, false);
        }
        None
    }

    /// Reads what a ready connection has and acts on at most one
    /// request: answers it here, or hands it with the connection to a
    /// worker. A lingering close only discards what it reads. Returns
    /// the connection while the loop keeps it.
    fn serve(&self, mut conn: Conn, scratch: &mut [u8], jobs: &SyncSender<Job>) -> Option<Conn> {
        if conn.lingering() {
            return conn.discard(scratch).then_some(conn);
        }
        // A connection ready without a poll has nothing new to read.
        if !conn.ready() && !conn.fill(scratch) {
            return None;
        }
        let (head, body, pipelined) = match conn.frame(self.cfg.max_body_bytes) {
            Frame::Partial => return Some(conn),
            Frame::Closed => return None,
            // The byte stream is not trustworthy past a wire-level
            // failure (400/413/431), so answer and close.
            Frame::Bad(e) => return self.reply(conn, None, e.to_response(), true, false),
            Frame::Request { head, body, pipelined } => (head, body, pipelined),
        };
        ppdt_obs::add(Counter::HttpRequests, 1);
        if conn.requests() > 1 {
            ppdt_obs::add(Counter::HttpKeepaliveReuses, 1);
            self.metrics.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
        }
        if pipelined {
            ppdt_obs::add(Counter::HttpPipelinedRequests, 1);
            self.metrics.pipelined_requests.fetch_add(1, Ordering::Relaxed);
        }
        let close = head.close || conn.spent(&self.cfg) || self.stopping();
        let route = handlers::route_parts(&head.method, &head.path, self.cfg.debug_endpoints);
        if let Ok(r) = &route {
            self.metrics.requested(r.endpoint);
            self.metrics.tenant(&r.tenant).requests.fetch_add(1, Ordering::Relaxed);
        }
        let req = Request { method: head.method, path: head.path, body };
        // With the whole request here, routing errors (404/405) and
        // the inline endpoints need no worker: liveness, metrics and
        // version negotiation keep answering while the pool is
        // saturated.
        let route = match route {
            Err(e) if !head.chunked => {
                conn.recycle(req.body);
                return self.reply(conn, None, e.to_response(), close, false);
            }
            Ok(r) if !head.chunked && r.endpoint.is_inline() => {
                conn.recycle(req.body);
                let start = Instant::now();
                let resp = self.render(r.endpoint);
                self.metrics.timed(r.endpoint, start.elapsed());
                return self.reply(conn, Some(r.endpoint), resp, close, false);
            }
            route => route,
        };
        let job = Job { conn, req, chunked: head.chunked, route, close, enqueued: Instant::now() };
        match jobs.try_send(job) {
            Ok(()) => None,
            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                let endpoint = job.route.as_ref().ok().map(|r| r.endpoint);
                let full = HttpError::overloaded("request queue is full").to_response();
                if job.chunked {
                    self.refuse(job.conn, endpoint, full, false)
                } else {
                    self.reply(job.conn, endpoint, full, true, false)
                }
            }
        }
    }

    fn worker_loop(&self, queue: &Mutex<Receiver<Job>>, handback: &Handback) {
        loop {
            // Lock only around `recv` so workers take turns pulling
            // jobs; processing runs unlocked.
            let job = {
                let Ok(guard) = queue.lock() else { return };
                match guard.recv() {
                    Ok(job) => job,
                    Err(_) => return, // sender dropped: drain complete
                }
            };
            if let Some(mut conn) = self.process(job) {
                if conn.unblock().is_ok() {
                    handback.give(conn);
                }
            }
        }
    }

    /// RAII in-flight gauge (a panicking handler cannot leak it).
    fn enter_flight(&self) -> impl Drop + '_ {
        let in_flight = self.metrics.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.in_flight_peak.fetch_max(in_flight, Ordering::SeqCst);
        ppdt_obs::record_max(Counter::HttpInFlightPeak, in_flight);
        struct InFlight<'a>(&'a ServeMetrics);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        InFlight(&self.metrics)
    }

    /// Per-tenant RAII in-flight gauge, doubling as the enforcement
    /// point for [`ServerConfig::tenant_max_inflight`]: over the
    /// quota the slot is still released on drop but the request is
    /// answered `429` instead of being processed.
    fn enter_tenant_flight(&self, tenant: &Tenant) -> Result<TenantFlight, HttpError> {
        let stats = self.metrics.tenant(tenant);
        let n = stats.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let guard = TenantFlight(stats);
        let cap = self.cfg.tenant_max_inflight as u64;
        if cap > 0 && n > cap {
            guard.0.quota_rejected.fetch_add(1, Ordering::Relaxed);
            self.metrics.tenant_errored(tenant);
            return Err(HttpError::too_many_requests(format!(
                "tenant {tenant} is over its in-flight quota ({cap})"
            )));
        }
        Ok(guard)
    }

    /// Runs one request on a worker and writes its answer. Returns the
    /// connection if it stays open.
    fn process(&self, job: Job) -> Option<Conn> {
        let Job { mut conn, mut req, chunked, route, close, enqueued } = job;
        let endpoint = route.as_ref().ok().map(|r| r.endpoint);
        if enqueued.elapsed() > self.cfg.request_deadline {
            let late = HttpError::overloaded("request waited past its deadline").to_response();
            return if chunked {
                self.refuse(conn, endpoint, late, true)
            } else {
                self.reply(conn, endpoint, late, true, true)
            };
        }
        if chunked {
            if let Ok(r) = &route {
                if matches!(r.endpoint, Endpoint::Encode | Endpoint::Classify) {
                    return self.process_stream(conn, r, close);
                }
            }
            // Other endpoints buffer a chunked body under the parse
            // deadline.
            let deadline = Instant::now() + self.cfg.parse_deadline;
            let max = self.cfg.max_body_bytes;
            match conn.read_through(deadline, |body, _| read_chunked_into(body, max, &mut req.body))
            {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return self.refuse(conn, endpoint, e.to_response(), true),
                Err(_) => return None,
            }
        }
        let route = match route {
            Ok(route) => route,
            Err(e) => {
                conn.recycle(req.body);
                return self.reply(conn, None, e.to_response(), close, true);
            }
        };
        let resp = self.run_handler(&route, &req);
        // The handler is done with the body: recycle the buffer for
        // the connection's next keep-alive request.
        conn.recycle(req.body);
        self.reply(conn, endpoint, resp, close, true)
    }

    /// Runs the handler of a whole request under the in-flight gauges,
    /// which close before its answer is written. A tenant over its
    /// in-flight quota is answered `429`; its body was read, so the
    /// connection survives that.
    fn run_handler(&self, route: &Route, req: &Request) -> Response {
        let _in_flight = self.enter_flight();
        let _tenant_flight = match self.enter_tenant_flight(&route.tenant) {
            Ok(guard) => guard,
            Err(e) => return e.to_response(),
        };
        let _t = ppdt_obs::phase(route.endpoint.phase_name());
        let start = Instant::now();
        // A handler panic is a bug, but it must cost one 500, not a
        // worker thread for the daemon's remaining lifetime.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if route.endpoint.is_inline() {
                Ok(self.render(route.endpoint))
            } else {
                handlers::handle(route, req, &self.ctx())
            }
        }));
        self.metrics.timed(route.endpoint, start.elapsed());
        let resp = match outcome {
            Ok(Ok(resp)) => resp,
            Ok(Err(e)) => e.to_response(),
            Err(_) => HttpError::from(PpdtError::internal(format!(
                "handler for {} panicked",
                route.endpoint.name()
            )))
            .to_response(),
        };
        if resp.status >= 400 {
            self.metrics.tenant_errored(&route.tenant);
        }
        resp
    }

    /// Runs one streaming (chunked encode/classify) request on a
    /// worker. Returns the connection if it stays open.
    fn process_stream(&self, mut conn: Conn, route: &Route, close: bool) -> Option<Conn> {
        let endpoint = route.endpoint;
        match self.run_stream(&mut conn, route, close) {
            Ok(StreamEnd::Done { chunks, .. }) => {
                self.metrics.streamed_chunks.fetch_add(chunks, Ordering::Relaxed);
                (!close).then_some(conn)
            }
            Ok(StreamEnd::Error(e)) => {
                // Failed before the response started; the body was not
                // fully consumed, so the connection must close.
                self.metrics.tenant_errored(&route.tenant);
                self.refuse(conn, Some(endpoint), e.to_response(), true)
            }
            Ok(StreamEnd::Aborted) => {
                // Mid-response failure: dropping the connection ends
                // the body without its terminal chunk.
                self.metrics.errored(endpoint);
                self.metrics.tenant_errored(&route.tenant);
                ppdt_obs::add(Counter::HttpErrors, 1);
                None
            }
            // Over the tenant's in-flight quota, with the chunked body
            // still on the wire: answer `429` and close.
            Err(e) => self.refuse(conn, Some(endpoint), e.to_response(), true),
        }
    }

    /// Runs a streaming handler, which writes its own answer, under
    /// the in-flight gauges. `Err` is a tenant over its in-flight
    /// quota, refused before the handler ran.
    fn run_stream(
        &self,
        conn: &mut Conn,
        route: &Route,
        close: bool,
    ) -> Result<StreamEnd, HttpError> {
        let _in_flight = self.enter_flight();
        let _tenant_flight = self.enter_tenant_flight(&route.tenant)?;
        let _t = ppdt_obs::phase(route.endpoint.phase_name());
        let start = Instant::now();
        let mut started = false;
        let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream::run(conn, &mut started, close, route, &self.ctx(), &self.cfg)
        }));
        self.metrics.timed(route.endpoint, start.elapsed());
        Ok(end.unwrap_or_else(|_| {
            if started {
                StreamEnd::Aborted
            } else {
                StreamEnd::Error(HttpError::from(PpdtError::internal(format!(
                    "streaming handler for {} panicked",
                    route.endpoint.name()
                ))))
            }
        }))
    }

    /// Books an answer and writes it; every `503` closes. `may_block`
    /// lets a worker wait on a slow reader; the loop never does.
    /// Returns the connection if it stays open.
    fn reply(
        &self,
        mut conn: Conn,
        endpoint: Option<Endpoint>,
        resp: Response,
        close: bool,
        may_block: bool,
    ) -> Option<Conn> {
        let close = close || resp.status == 503;
        (self.answer(&mut conn, endpoint, &resp, close, may_block) && !close).then_some(conn)
    }

    /// Answers a request whose body is still on the wire, and closes
    /// the connection lingeringly: the loop reads and discards what
    /// the peer still sends, up to `max_body_bytes` and until the
    /// parse deadline, so a client still uploading reads the answer
    /// instead of a reset. Returns the connection, for the loop to
    /// linger on.
    fn refuse(
        &self,
        mut conn: Conn,
        endpoint: Option<Endpoint>,
        resp: Response,
        may_block: bool,
    ) -> Option<Conn> {
        let sent = self.answer(&mut conn, endpoint, &resp, true, may_block);
        (sent && conn.linger(self.cfg.max_body_bytes)).then_some(conn)
    }

    /// Books an answer and writes it: an error status counts against
    /// its endpoint, a `503` as backpressure. Returns whether the
    /// answer went out whole.
    fn answer(
        &self,
        conn: &mut Conn,
        endpoint: Option<Endpoint>,
        resp: &Response,
        close: bool,
        may_block: bool,
    ) -> bool {
        if resp.status >= 400 {
            if let Some(ep) = endpoint {
                self.metrics.errored(ep);
            }
            if resp.status == 503 {
                ppdt_obs::add(Counter::HttpRejected, 1);
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            } else {
                ppdt_obs::add(Counter::HttpErrors, 1);
            }
        }
        conn.send(resp, close, may_block).is_ok()
    }

    /// The answer to an inline endpoint.
    fn render(&self, endpoint: Endpoint) -> Response {
        match endpoint {
            Endpoint::Healthz => self.render_healthz(),
            Endpoint::Version => self.render_version(),
            _ => self.render_metrics(),
        }
    }

    fn render_healthz(&self) -> Response {
        let body = HealthzBody {
            status: "ok".to_string(),
            workers: self.workers,
            queue_capacity: self.cfg.queue_capacity,
            peers: self.cluster.as_ref().map(Cluster::snapshots).unwrap_or_default(),
        };
        match serde_json::to_string(&body) {
            Ok(s) => Response::ok(s),
            Err(e) => HttpError::from(PpdtError::internal(format!("healthz: {e}"))).to_response(),
        }
    }

    fn render_version(&self) -> Response {
        let body = crate::api::VersionResponse {
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            api_schema_version: crate::api::API_SCHEMA_VERSION,
            keystore_schema_version: crate::keystore::KEYSTORE_SCHEMA_VERSION,
            bench_report_schema_version: crate::api::BENCH_REPORT_SCHEMA_VERSION,
        };
        match serde_json::to_string(&body) {
            Ok(s) => Response::ok(s),
            Err(e) => HttpError::from(PpdtError::internal(format!("version: {e}"))).to_response(),
        }
    }

    fn render_metrics(&self) -> Response {
        let body = MetricsBody {
            serve: self.metrics.snapshot(),
            process: ppdt_obs::snapshot(),
            peers: self.cluster.as_ref().map(Cluster::snapshots).unwrap_or_default(),
        };
        match serde_json::to_string(&body) {
            Ok(s) => Response::ok(s),
            Err(e) => HttpError::from(PpdtError::internal(format!("metrics: {e}"))).to_response(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{CONN_LIFETIME, WRITE_TIMEOUT};
    use crate::peer::PEER_FETCH_DEADLINE;
    use crate::stream::{STREAM_CHUNK_ROWS, STREAM_DEADLINE};

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.workers, 0, "0 means auto-resolve");
        assert!(cfg.queue_capacity > 0);
        assert!(cfg.request_deadline > Duration::ZERO);
        assert_eq!(cfg.max_body_bytes, crate::http::DEFAULT_MAX_BODY_BYTES);
        assert!(cfg.keep_alive_requests > 1, "keep-alive is on by default");
        assert!(cfg.idle_timeout > Duration::ZERO);
        assert!(cfg.max_connections > 0);
        assert!(cfg.peers.is_empty(), "standalone by default");
        assert!(cfg.sync_interval > Duration::ZERO);
        // Fixed settings, which no config field overrides.
        assert_eq!((PLAN_CACHE_CAPACITY, TREE_CACHE_CAPACITY), (64, 32));
        assert_eq!(CONN_LIFETIME, Duration::from_secs(300));
        assert_eq!(STREAM_DEADLINE, Duration::from_secs(120));
        assert_eq!(STREAM_CHUNK_ROWS, 8192);
        assert_eq!(PEER_FETCH_DEADLINE, Duration::from_secs(2));
        assert_eq!(WRITE_TIMEOUT, Duration::from_secs(30));
        assert!(CONN_LIFETIME >= cfg.idle_timeout);
        assert!(STREAM_DEADLINE >= cfg.parse_deadline);
        assert!(
            PEER_FETCH_DEADLINE <= cfg.request_deadline,
            "a read-through fetch must fit inside the request budget"
        );
        assert_eq!(cfg.tenant_max_keys, 0, "tenant key quota off by default");
        assert_eq!(cfg.tenant_max_inflight, 0, "tenant in-flight quota off by default");
    }

    #[test]
    fn serve_snapshot_shape_is_stable() {
        let m = ServeMetrics::default();
        m.requested(Endpoint::Encode);
        m.errored(Endpoint::Encode);
        m.timed(Endpoint::Encode, Duration::from_micros(42));
        m.timed(Endpoint::Encode, Duration::from_micros(8));
        m.keepalive_reuses.fetch_add(3, Ordering::Relaxed);
        m.pipelined_requests.fetch_add(2, Ordering::Relaxed);
        m.streamed_chunks.fetch_add(7, Ordering::Relaxed);
        let acme = Tenant::parse("acme").expect("valid tenant");
        m.tenant(&acme).requests.fetch_add(4, Ordering::Relaxed);
        m.tenant(&acme).quota_rejected.fetch_add(1, Ordering::Relaxed);
        m.tenant(&Tenant::Default).requests.fetch_add(9, Ordering::Relaxed);
        m.tenant_errored(&Tenant::Default);
        let snap = m.snapshot();
        assert_eq!(snap.endpoints.len(), ENDPOINTS.len());
        // Tenant rows are sorted by name and carry their counters.
        let names: Vec<&str> = snap.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["acme", "default"]);
        assert_eq!((snap.tenants[0].requests, snap.tenants[0].quota_rejected), (4, 1));
        assert_eq!((snap.tenants[1].requests, snap.tenants[1].errors), (9, 1));
        assert_eq!(
            (snap.keepalive_reuses, snap.pipelined_requests, snap.streamed_chunks),
            (3, 2, 7)
        );
        let enc =
            snap.endpoints.iter().find(|s| s.endpoint == "encode").expect("encode row present");
        assert_eq!((enc.requests, enc.errors, enc.latency_micros), (1, 1, 50));
        assert_eq!((enc.min_micros, enc.max_micros), (8, 42));
        assert!((enc.mean_micros - 25.0).abs() < 1e-9, "{}", enc.mean_micros);
        // Sub-64µs samples land in exact histogram buckets, so the
        // percentiles are exact: p50 = lower of the two samples
        // (rank ceil(0.5·2) = 1), p99 = the upper one.
        assert_eq!((enc.p50_micros, enc.p99_micros), (8, 42));
        // Untouched endpoints render zeros, not the MAX sentinel.
        let idle = snap.endpoints.iter().find(|s| s.endpoint == "classify").expect("classify row");
        assert_eq!((idle.min_micros, idle.max_micros), (0, 0));
        assert_eq!(idle.mean_micros, 0.0);
        assert_eq!((idle.p50_micros, idle.p99_micros), (0, 0));
        // Round-trips through the JSON body type, peers row included.
        let peers = vec![PeerSnapshot {
            addr: "127.0.0.1:7071".to_string(),
            reachable: true,
            last_sync_age_ms: Some(120),
            keys_behind: 0,
            consecutive_failures: 0,
        }];
        let body = MetricsBody { serve: snap, process: ppdt_obs::snapshot(), peers };
        let text = serde_json::to_string(&body).expect("serializes");
        let back: MetricsBody = serde_json::from_str(&text).expect("parses");
        assert_eq!(back.serve.endpoints.len(), ENDPOINTS.len());
        assert_eq!(back.peers, body.peers);
    }
}
