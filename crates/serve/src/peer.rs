//! Cluster membership, per-peer health, and the pull-based
//! anti-entropy sync loop.
//!
//! The replication model leans entirely on the key store being
//! content-addressed (see [`crate::keystore`]): an envelope's id *is*
//! a digest of its key, puts are idempotent, and two valid envelopes
//! under one id are byte-identical by construction. There is
//! therefore no conflict to resolve, no vector clock, and no
//! leader — replication is just "fetch what you are missing", safe to
//! repeat, safe to race, and safe to interleave with client stores.
//!
//! Each node runs one sync thread:
//!
//! * every [`sync interval`](crate::server::ServerConfig::sync_interval)
//!   it polls each peer's `GET /v1/peer/keys` manifest (key id +
//!   envelope digest), fetches whatever it lacks through
//!   `POST /v1/peer/fetch`, and commits via the idempotent
//!   [`KeyStore::put`] — re-deriving the content address and
//!   re-auditing, so a lying or corrupt peer cannot implant a bad
//!   envelope;
//! * a manifest entry whose digest disagrees with a *valid* local
//!   envelope is ignored (the local copy is canonical by content
//!   addressing); a disagreement with an **invalid** local envelope
//!   is a detected torn write, repaired in place with
//!   `put_repairing`;
//! * an unreachable peer is polled with bounded exponential backoff
//!   (the sync interval doubling per consecutive failure, capped) so
//!   a dead node costs a bounded number of connect timeouts, not one
//!   per round forever;
//! * `POST /v1/keys` on this node queues a best-effort push of the
//!   new key to every peer, so fresh keys propagate in milliseconds
//!   rather than a full sync interval — the push is just a store on
//!   the peer, indistinguishable from a client store and idempotent
//!   against the concurrent pull.
//!
//! Read-through (`Cluster::fetch_from_peers`) covers the remaining
//! window: a request for a key this node has not synced yet fetches
//! it from a peer under a deadline instead of answering 404, so any
//! node can answer for any key as soon as *some* node has it.
//!
//! Tenancy changes none of the invariants: the unit of replication is
//! the `(tenant, key)` pair — manifests advertise the tenant next to
//! each id, fetches and pushes carry it, and content addressing stays
//! per file — so the same key under two tenants replicates as two
//! independent entries with the same zero-conflict guarantees.

use std::net::SocketAddr;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ppdt_obs::Counter;
use serde::{Deserialize, Serialize};

use crate::keystore::{valid_id, KeyEnvelope, KeyStore, Tenant};
use crate::peer_client::PeerClient;

/// Backoff ceiling: an unreachable peer is polled at most
/// `sync_interval << BACKOFF_CAP_SHIFT` apart (32x), so recovery
/// detection stays bounded too.
const BACKOFF_CAP_SHIFT: u32 = 5;

/// Queued best-effort pushes; beyond this the push is dropped and the
/// next anti-entropy round delivers the key instead.
const PUSH_QUEUE_DEPTH: usize = 64;

/// Budget for a read-through fetch: the longest a request for a
/// not-yet-synced key may wait on peers before answering 404.
pub(crate) const PEER_FETCH_DEADLINE: Duration = Duration::from_secs(2);

/// One peer's health row, rendered in `/healthz` and `/metrics`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeerSnapshot {
    /// The peer's address as configured via `--peer`.
    pub addr: String,
    /// Whether the last manifest poll succeeded.
    pub reachable: bool,
    /// Milliseconds since the last successful sync with this peer
    /// (`None` before the first success).
    pub last_sync_age_ms: Option<u64>,
    /// Keys the peer advertised that this node still failed to fetch
    /// in the last completed round (0 when converged).
    pub keys_behind: u64,
    /// Consecutive failed manifest polls (drives the backoff).
    pub consecutive_failures: u64,
}

/// Mutable per-peer sync state.
struct PeerState {
    reachable: bool,
    last_sync: Option<Instant>,
    keys_behind: u64,
    consecutive_failures: u32,
    next_poll: Instant,
}

struct PeerSlot {
    client: PeerClient,
    state: Mutex<PeerState>,
}

/// What one manifest entry needed locally.
enum Need {
    /// Local bytes match the advertised digest (or the local envelope
    /// is valid, which by content addressing means canonical).
    Nothing,
    /// No local envelope: a plain idempotent put commits it.
    Fetch,
    /// A local envelope exists but is invalid (torn write, bit rot):
    /// only an overwriting put can repair it.
    Repair,
}

/// The cluster membership of one node plus the sync machinery.
pub struct Cluster {
    node_id: String,
    sync_interval: Duration,
    peers: Vec<PeerSlot>,
    push_tx: SyncSender<(Tenant, String)>,
    push_rx: Mutex<Receiver<(Tenant, String)>>,
}

impl Cluster {
    /// Builds the membership for a node advertised as `node_id`
    /// (its bound address) with the given peer set.
    pub(crate) fn new(node_id: String, peers: &[SocketAddr], sync_interval: Duration) -> Cluster {
        let now = Instant::now();
        let (push_tx, push_rx) = std::sync::mpsc::sync_channel(PUSH_QUEUE_DEPTH);
        Cluster {
            node_id,
            sync_interval,
            peers: peers
                .iter()
                .map(|&addr| PeerSlot {
                    client: PeerClient::new(addr, PEER_FETCH_DEADLINE, 2),
                    state: Mutex::new(PeerState {
                        reachable: false,
                        last_sync: None,
                        keys_behind: 0,
                        consecutive_failures: 0,
                        next_poll: now,
                    }),
                })
                .collect(),
            push_tx,
            push_rx: Mutex::new(push_rx),
        }
    }

    /// This node's advertised identity (its bound address).
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// Point-in-time health of every peer, for `/healthz`/`/metrics`.
    pub fn snapshots(&self) -> Vec<PeerSnapshot> {
        self.peers
            .iter()
            .map(|slot| {
                let st = slot.state.lock().expect("peer state poisoned");
                PeerSnapshot {
                    addr: slot.client.addr().to_string(),
                    reachable: st.reachable,
                    last_sync_age_ms: st
                        .last_sync
                        .map(|t| t.elapsed().as_millis().min(u64::MAX as u128) as u64),
                    keys_behind: st.keys_behind,
                    consecutive_failures: u64::from(st.consecutive_failures),
                }
            })
            .collect()
    }

    /// Queues a best-effort push of a freshly stored key. Never
    /// blocks a handler: when the queue is full the push is dropped —
    /// the next anti-entropy round delivers the key anyway.
    pub(crate) fn notify_stored(&self, tenant: &Tenant, key_id: &str) {
        let _ = self.push_tx.try_send((tenant.clone(), key_id.to_string()));
    }

    /// Read-through: fetch `key_id` from the first peer that has it,
    /// committing through the audited idempotent put. Bounded by the
    /// fetch deadline across all peers; returns whether the key is
    /// now locally servable. Counted like any other peer fetch.
    pub(crate) fn fetch_from_peers(&self, store: &KeyStore, tenant: &Tenant, key_id: &str) -> bool {
        let deadline = Instant::now() + PEER_FETCH_DEADLINE;
        // Reachable peers first: sync lag is the common case and a
        // dead peer costs a whole connect timeout from the budget.
        let mut order: Vec<&PeerSlot> = self.peers.iter().collect();
        order.sort_by_key(|s| !s.state.lock().map(|st| st.reachable).unwrap_or(false));
        for slot in order {
            if Instant::now() >= deadline {
                break;
            }
            match slot.client.fetch(tenant, key_id) {
                Ok(envelope) => {
                    if commit(store, tenant, key_id, envelope, false) {
                        return true;
                    }
                }
                Err(_) => ppdt_obs::add(Counter::PeerFetchFailures, 1),
            }
        }
        false
    }

    /// The sync thread's body: anti-entropy rounds every sync
    /// interval, push notifications drained between rounds, `stopping`
    /// polled often enough for prompt shutdown.
    pub(crate) fn run_sync(&self, store: &KeyStore, stopping: &dyn Fn() -> bool) {
        let rx = self.push_rx.lock().expect("push queue poisoned");
        let mut next_round = Instant::now();
        while !stopping() {
            let wait =
                next_round.saturating_duration_since(Instant::now()).min(Duration::from_millis(50));
            match rx.recv_timeout(wait) {
                Ok((tenant, key_id)) => self.push_key(store, &tenant, &key_id),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while the Cluster owns a sender.
                Err(RecvTimeoutError::Disconnected) => return,
            }
            if Instant::now() >= next_round {
                self.sync_round(store);
                ppdt_obs::add(Counter::PeerSyncRounds, 1);
                next_round = Instant::now() + self.sync_interval;
            }
        }
    }

    /// One anti-entropy pass: poll each due peer's manifest and fetch
    /// whatever this node lacks.
    fn sync_round(&self, store: &KeyStore) {
        for slot in &self.peers {
            let now = Instant::now();
            {
                let st = slot.state.lock().expect("peer state poisoned");
                if now < st.next_poll {
                    continue; // backing off after failures
                }
            }
            match slot.client.manifest() {
                Err(_) => {
                    ppdt_obs::add(Counter::PeerUnreachable, 1);
                    let mut st = slot.state.lock().expect("peer state poisoned");
                    st.reachable = false;
                    st.consecutive_failures = st.consecutive_failures.saturating_add(1);
                    let shift = st.consecutive_failures.min(BACKOFF_CAP_SHIFT);
                    st.next_poll = now + self.sync_interval.saturating_mul(1 << shift);
                }
                Ok(manifest) => {
                    let mut behind = 0u64;
                    for entry in &manifest.keys {
                        // An unparseable tenant name is a hostile or
                        // broken peer — never let it shape a path.
                        let Some(tenant) = Tenant::from_wire(entry.tenant.as_deref()) else {
                            ppdt_obs::add(Counter::PeerFetchFailures, 1);
                            behind += 1;
                            continue;
                        };
                        if !self.reconcile(
                            store,
                            slot,
                            &tenant,
                            &entry.key_id,
                            &entry.envelope_digest,
                        ) {
                            behind += 1;
                        }
                    }
                    let mut st = slot.state.lock().expect("peer state poisoned");
                    st.reachable = true;
                    st.consecutive_failures = 0;
                    st.last_sync = Some(Instant::now());
                    st.keys_behind = behind;
                    st.next_poll = now;
                }
            }
        }
    }

    /// Brings one advertised `(tenant, key)` pair locally in sync
    /// with `slot`'s copy. Returns whether this node now holds a
    /// servable copy.
    fn reconcile(
        &self,
        store: &KeyStore,
        slot: &PeerSlot,
        tenant: &Tenant,
        key_id: &str,
        digest: &str,
    ) -> bool {
        if !valid_id(key_id) {
            // A hostile or broken peer advertising a malformed id.
            ppdt_obs::add(Counter::PeerFetchFailures, 1);
            return false;
        }
        let need = match store.raw_in(tenant, key_id) {
            Ok(Some(bytes)) if crate::keystore::content_id(&bytes) == *digest => Need::Nothing,
            Ok(Some(_)) => {
                // Digest disagreement. A valid local envelope is
                // canonical by content addressing — the peer is the
                // one with the problem. An invalid one is a detected
                // torn write: re-fetch and repair in place.
                match store.get_in(tenant, key_id) {
                    Ok(Some(_)) => Need::Nothing,
                    _ => Need::Repair,
                }
            }
            Ok(None) => Need::Fetch,
            Err(_) => Need::Repair,
        };
        match need {
            Need::Nothing => true,
            Need::Fetch | Need::Repair => match slot.client.fetch(tenant, key_id) {
                Ok(envelope) => {
                    commit(store, tenant, key_id, envelope, matches!(need, Need::Repair))
                }
                Err(_) => {
                    ppdt_obs::add(Counter::PeerFetchFailures, 1);
                    false
                }
            },
        }
    }

    /// Best-effort push of one freshly stored key to every peer. Each
    /// push is a plain `POST /v1/keys` store on the peer — idempotent
    /// and indistinguishable from a client store — so failures are
    /// simply left for the peer's own pull loop to repair.
    fn push_key(&self, store: &KeyStore, tenant: &Tenant, key_id: &str) {
        let Ok(Some(key)) = store.get_in(tenant, key_id) else {
            return; // vanished or invalid since the store: pull will sort it out
        };
        for slot in &self.peers {
            let _ = slot.client.push(tenant, &key);
        }
    }
}

/// Commits a fetched envelope through the audited idempotent put.
/// The content address is re-derived locally and must equal the id
/// the envelope was requested under — a lying peer cannot implant a
/// key under a foreign id, and `put` re-audits the key itself.
fn commit(
    store: &KeyStore,
    tenant: &Tenant,
    key_id: &str,
    envelope: KeyEnvelope,
    repair: bool,
) -> bool {
    let derived = match KeyStore::key_id(&envelope.key) {
        Ok(d) => d,
        Err(_) => {
            ppdt_obs::add(Counter::PeerFetchFailures, 1);
            return false;
        }
    };
    if derived != key_id {
        ppdt_obs::add(Counter::PeerFetchFailures, 1);
        return false;
    }
    let result = if repair {
        store.put_repairing(tenant, &envelope.key)
    } else {
        store.put_in(tenant, &envelope.key)
    };
    match result {
        Ok(_) => {
            ppdt_obs::add(Counter::PeerKeysFetched, 1);
            true
        }
        Err(_) => {
            ppdt_obs::add(Counter::PeerFetchFailures, 1);
            false
        }
    }
}
