//! # ppdt-obs
//!
//! Lightweight instrumentation for the custodian pipeline: scoped
//! wall-clock [`phase`] timers, global pipeline [`Counter`]s, and
//! peak-RSS sampling, all aggregated into a serializable
//! [`MetricsSnapshot`].
//!
//! Instrumentation is **off by default** and costs one relaxed atomic
//! load per probe while disabled, so library code can stay
//! instrumented permanently. Benchmarks (and anything else that wants
//! numbers) opt in with [`set_enabled`]:
//!
//! ```
//! ppdt_obs::reset();
//! ppdt_obs::set_enabled(true);
//! {
//!     let _t = ppdt_obs::phase("encode");
//!     ppdt_obs::add(ppdt_obs::Counter::RowsEncoded, 1_000);
//! }
//! let snap = ppdt_obs::snapshot();
//! assert_eq!(snap.counters[ppdt_obs::Counter::RowsEncoded.index()].value, 1_000);
//! assert_eq!(snap.phases[0].name, "encode");
//! assert!(snap.phases[0].seconds >= 0.0);
//! ppdt_obs::set_enabled(false);
//! ```
//!
//! Phase timers aggregate by name: every `phase("encode")` guard adds
//! its elapsed wall-clock time to the same row. Phases freely nest and
//! overlap — a `"risk"` phase typically contains many `"encode"` and
//! `"attack"` phases, and guards dropped on worker threads all count —
//! so per-phase totals are *inclusive* and can exceed both each other
//! and the process wall-clock. Treat them as "time spent inside this
//! stage, summed over threads", not as a partition of the run.
//!
//! The registry is process-global. Concurrent snapshots are safe, but
//! benchmark binaries that want per-run numbers should [`reset`]
//! between runs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;

pub use hist::{AtomicLogHistogram, LogHistogram};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Global enable flag; all probes are near-free while this is false.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Pipeline counters, one atomic cell per [`Counter`] variant.
#[allow(clippy::declare_interior_mutable_const)]
static COUNTERS: [AtomicU64; Counter::ALL.len()] = {
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; Counter::ALL.len()]
};

/// Phase accumulator rows: `(name, total nanoseconds, calls)`.
/// Locked only when a guard drops or a snapshot is taken, never on
/// the disabled path.
static PHASES: Mutex<Vec<(&'static str, u64, u64)>> = Mutex::new(Vec::new());

/// Turns instrumentation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all counters and phase totals (the enable flag is kept).
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    PHASES.lock().expect("phase registry poisoned").clear();
}

/// The events the pipeline counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Tuples passed through the dataset encoder (rows, not cells).
    RowsEncoded,
    /// Pieces materialized across all per-attribute transforms.
    PiecesDrawn,
    /// Candidate breakpoint positions examined by `plan_pieces`.
    BoundariesScanned,
    /// Randomized trials executed by the risk harness.
    TrialsRun,
    /// Split nodes decoded by the custodian's key.
    NodesDecoded,
    /// Extra transform-draw attempts consumed by the bounded-retry
    /// loop in `encode_attribute` (0 when every first draw validates).
    DrawRetries,
    /// Rounds of the verified encode that redrew the attributes its
    /// Theorem 2 certificate flagged (0 when the first draw
    /// certifies, as every key with no anti-monotone attribute does).
    VerifyRetries,
    /// Error-severity findings raised by the key/dataset audit.
    AuditViolations,
    /// Tuple visits performed by the tree builder's split-search scans
    /// (one per `(row, attribute)` pair examined — the miner's true
    /// workload, robust against timer resolution on fast hardware).
    SplitScanRows,
    /// Widest worker fan-out used by a mining call in this process
    /// (a high-water mark maintained with [`record_max`], not a sum).
    MiningThreads,
    /// Buffers served from a reuse pool instead of a fresh allocation
    /// (a per-level scan arena refilled in place by the tree builder, a
    /// connection's request-body buffer in the serve daemon).
    PoolReuseHits,
    /// HTTP requests fully parsed by the `ppdt-serve` daemon
    /// (including inline `/healthz` and `/metrics` hits; malformed
    /// requests that never parse are counted as [`Counter::HttpErrors`]
    /// only).
    HttpRequests,
    /// Requests rejected with `503 Retry-After` by the serve daemon —
    /// queue-full backpressure plus queue-deadline expiries.
    HttpRejected,
    /// Error responses (4xx/5xx other than overload 503s) written by
    /// the serve daemon.
    HttpErrors,
    /// Widest number of requests simultaneously inside the serve
    /// worker pool (a high-water mark via [`record_max`], not a sum).
    HttpInFlightPeak,
    /// Serve requests that found a compiled plan already in the
    /// daemon's plan cache (no key re-load, re-audit, or re-compile).
    PlanCacheHits,
    /// Serve requests that had to load, audit, and compile a key
    /// because no cached plan existed for its content id.
    PlanCacheMisses,
    /// Compiled plans evicted from the bounded plan cache to make room
    /// for a newer key.
    PlanCacheEvictions,
    /// Classify/decode-tree requests that reused a mined tree cached
    /// under the same `(key id, dataset digest)` pair instead of
    /// re-mining.
    TreeCacheHits,
    /// Requests served on an already-open keep-alive connection (the
    /// second and later requests on one socket).
    HttpKeepaliveReuses,
    /// Requests whose bytes the daemon had already read when the
    /// previous request on the same connection was framed, before its
    /// response was written (HTTP/1.1 pipelining).
    HttpPipelinedRequests,
    /// Transfer-encoding chunks moved by streaming encode/classify
    /// requests (request chunks decoded plus response chunks written).
    StreamedChunks,
    /// Anti-entropy passes completed by the cluster sync loop (one per
    /// full sweep over the configured peer list).
    PeerSyncRounds,
    /// Key envelopes fetched from a peer and committed to the local
    /// store (anti-entropy pulls plus read-through fetches).
    PeerKeysFetched,
    /// Failed attempts to fetch a manifest or an envelope from a peer
    /// (each retry counts; a peer answering with an error counts too).
    PeerFetchFailures,
    /// Sync rounds that found a peer unreachable (manifest poll failed
    /// after retry) — the raw material of the per-peer health status.
    PeerUnreachable,
    /// Values pushed through the batched column paths of a compiled
    /// plan (`encode_column`/`decode_column` cells, not rows).
    BatchedValues,
    /// Piece lookups resolved by a compiled transform's direct-index
    /// breakpoint table (the dense, branch-free fast path).
    PieceLookupDirect,
    /// Piece lookups that fell back to binary search over `input_hi`
    /// (no table: sparse breakpoints, degenerate span, or a bucket the
    /// density heuristic rejected).
    PieceLookupBsearch,
}

impl Counter {
    /// Every counter, in [`Counter::index`] order.
    pub const ALL: [Counter; 29] = [
        Counter::RowsEncoded,
        Counter::PiecesDrawn,
        Counter::BoundariesScanned,
        Counter::TrialsRun,
        Counter::NodesDecoded,
        Counter::DrawRetries,
        Counter::VerifyRetries,
        Counter::AuditViolations,
        Counter::SplitScanRows,
        Counter::MiningThreads,
        Counter::PoolReuseHits,
        Counter::HttpRequests,
        Counter::HttpRejected,
        Counter::HttpErrors,
        Counter::HttpInFlightPeak,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::TreeCacheHits,
        Counter::HttpKeepaliveReuses,
        Counter::HttpPipelinedRequests,
        Counter::StreamedChunks,
        Counter::PeerSyncRounds,
        Counter::PeerKeysFetched,
        Counter::PeerFetchFailures,
        Counter::PeerUnreachable,
        Counter::BatchedValues,
        Counter::PieceLookupDirect,
        Counter::PieceLookupBsearch,
    ];

    /// Stable position of this counter in [`Counter::ALL`] and in
    /// [`MetricsSnapshot::counters`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake_case name used in snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RowsEncoded => "rows_encoded",
            Counter::PiecesDrawn => "pieces_drawn",
            Counter::BoundariesScanned => "boundaries_scanned",
            Counter::TrialsRun => "trials_run",
            Counter::NodesDecoded => "nodes_decoded",
            Counter::DrawRetries => "draw_retries",
            Counter::VerifyRetries => "verify_retries",
            Counter::AuditViolations => "audit_violations",
            Counter::SplitScanRows => "split_scan_rows",
            Counter::MiningThreads => "mining_threads",
            Counter::PoolReuseHits => "pool_reuse_hits",
            Counter::HttpRequests => "http_requests",
            Counter::HttpRejected => "http_rejected",
            Counter::HttpErrors => "http_errors",
            Counter::HttpInFlightPeak => "http_in_flight_peak",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::PlanCacheEvictions => "plan_cache_evictions",
            Counter::TreeCacheHits => "tree_cache_hits",
            Counter::HttpKeepaliveReuses => "http_keepalive_reuses",
            Counter::HttpPipelinedRequests => "http_pipelined_requests",
            Counter::StreamedChunks => "streamed_chunks",
            Counter::PeerSyncRounds => "peer_sync_rounds",
            Counter::PeerKeysFetched => "peer_keys_fetched",
            Counter::PeerFetchFailures => "peer_fetch_failures",
            Counter::PeerUnreachable => "peer_unreachable",
            Counter::BatchedValues => "batched_values",
            Counter::PieceLookupDirect => "piece_lookup_direct",
            Counter::PieceLookupBsearch => "piece_lookup_bsearch",
        }
    }
}

/// Adds `n` to a counter. No-op while instrumentation is disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter.index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises a counter to at least `n` (a high-water mark for gauge-like
/// counters such as [`Counter::MiningThreads`]). No-op while
/// instrumentation is disabled.
#[inline]
pub fn record_max(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter.index()].fetch_max(n, Ordering::Relaxed);
    }
}

/// Current value of a counter.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter.index()].load(Ordering::Relaxed)
}

/// Resolves the worker-thread count for a parallel stage. This is the
/// single thread-count policy for the whole workspace — the parallel
/// encoder, the risk Monte Carlo, the tree miners, and the attack
/// fan-outs all route through it, so one knob controls them all:
///
/// 1. `requested` — an explicit caller choice (e.g. the CLI's
///    `--mining-threads`) wins, clamped to at least 1;
/// 2. the `PPDT_THREADS` environment variable (a positive integer)
///    overrides the hardware default for every stage at once, which is
///    how nested parallel stages are kept from oversubscribing cores;
/// 3. otherwise [`std::thread::available_parallelism`], falling back
///    to 1 when the platform cannot report it (running serial is
///    always correct; guessing a wider fan-out is not).
///
/// Thread counts never influence results anywhere in the workspace —
/// every parallel stage is bit-identical to its serial path — so this
/// choice is purely a performance knob.
pub fn threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("PPDT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        // Malformed or zero values fall through to the hardware default.
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A scoped phase timer. Created by [`phase`]; on drop it adds the
/// elapsed wall-clock time to the named row of the global registry.
#[must_use = "the timer measures until it is dropped; bind it with `let _t = ...`"]
pub struct PhaseGuard {
    armed: Option<(&'static str, Instant)>,
}

/// Starts timing a named phase. While instrumentation is disabled the
/// guard is inert (no clock read, no lock).
#[inline]
pub fn phase(name: &'static str) -> PhaseGuard {
    let armed = enabled().then(|| (name, Instant::now()));
    PhaseGuard { armed }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut rows = PHASES.lock().expect("phase registry poisoned");
            match rows.iter_mut().find(|(n, _, _)| *n == name) {
                Some(row) => {
                    row.1 += nanos;
                    row.2 += 1;
                }
                None => rows.push((name, nanos, 1)),
            }
        }
    }
}

/// One phase's aggregate in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseMetric {
    /// Phase name as passed to [`phase`].
    pub name: String,
    /// Total wall-clock seconds across all guards with this name
    /// (inclusive; sums over threads).
    pub seconds: f64,
    /// Number of guards that completed.
    pub calls: u64,
}

/// One counter's value in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterMetric {
    /// Counter name (see [`Counter::name`]).
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// A point-in-time copy of every metric, ready for serialization.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether instrumentation was enabled when the snapshot was taken.
    pub enabled: bool,
    /// All counters, in [`Counter::ALL`] order (zero entries included
    /// so the schema is stable).
    pub counters: Vec<CounterMetric>,
    /// Phase rows in first-recorded order; empty when nothing ran.
    pub phases: Vec<PhaseMetric>,
    /// Peak resident set size of the process in bytes, if the platform
    /// exposes it (Linux `VmHWM`); `None` elsewhere.
    pub peak_rss_bytes: Option<u64>,
}

/// Captures the current counters, phase totals, and peak RSS.
pub fn snapshot() -> MetricsSnapshot {
    let counters = Counter::ALL
        .iter()
        .map(|&c| CounterMetric { name: c.name().to_string(), value: counter(c) })
        .collect();
    let phases = PHASES
        .lock()
        .expect("phase registry poisoned")
        .iter()
        .map(|&(name, nanos, calls)| PhaseMetric {
            name: name.to_string(),
            seconds: nanos as f64 / 1e9,
            calls,
        })
        .collect();
    MetricsSnapshot { enabled: enabled(), counters, phases, peak_rss_bytes: peak_rss_bytes() }
}

/// Peak resident set size in bytes, read from `/proc/self/status`
/// (`VmHWM`). Returns `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `cargo test` runs tests on
    // threads of one process, so everything that toggles global state
    // lives in this single test.
    #[test]
    fn counters_phases_and_snapshot() {
        reset();
        set_enabled(false);

        // Disabled probes are inert.
        add(Counter::RowsEncoded, 5);
        {
            let _t = phase("encode");
        }
        assert_eq!(counter(Counter::RowsEncoded), 0);
        assert!(snapshot().phases.is_empty());

        set_enabled(true);
        add(Counter::RowsEncoded, 5);
        add(Counter::RowsEncoded, 2);
        add(Counter::TrialsRun, 1);
        {
            let _t = phase("encode");
            let _inner = phase("mine");
        }
        {
            let _t = phase("encode");
        }

        let snap = snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counters.len(), Counter::ALL.len());
        assert_eq!(snap.counters[Counter::RowsEncoded.index()].value, 7);
        assert_eq!(snap.counters[Counter::TrialsRun.index()].value, 1);
        assert_eq!(snap.counters[Counter::PiecesDrawn.index()].value, 0);

        let encode = snap.phases.iter().find(|p| p.name == "encode").expect("encode row");
        assert_eq!(encode.calls, 2);
        assert!(encode.seconds >= 0.0);
        assert!(snap.phases.iter().any(|p| p.name == "mine"));

        // record_max is a high-water mark, not a sum.
        record_max(Counter::MiningThreads, 3);
        record_max(Counter::MiningThreads, 2);
        assert_eq!(counter(Counter::MiningThreads), 3);

        // threads(): explicit request wins; PPDT_THREADS overrides the
        // hardware default; malformed values fall through. The env var
        // is process-global, so this probe lives in the single
        // global-state test too. Thread counts never change outputs,
        // so other tests racing a read here can at worst run serial.
        assert_eq!(threads(Some(3)), 3);
        assert_eq!(threads(Some(0)), 1);
        std::env::set_var("PPDT_THREADS", "2");
        assert_eq!(threads(None), 2);
        assert_eq!(threads(Some(5)), 5);
        std::env::set_var("PPDT_THREADS", "zero");
        assert!(threads(None) >= 1);
        std::env::remove_var("PPDT_THREADS");
        assert!(threads(None) >= 1);

        // Concurrent updates from worker threads all land.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _t = phase("worker");
                    add(Counter::PiecesDrawn, 10);
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.counters[Counter::PiecesDrawn.index()].value, 40);
        assert_eq!(snap.phases.iter().find(|p| p.name == "worker").unwrap().calls, 4);

        // Snapshot round-trips through serde.
        let json = serde_json_roundtrip(&snap);
        assert_eq!(json, snap);

        reset();
        set_enabled(false);
        assert_eq!(counter(Counter::RowsEncoded), 0);
    }

    fn serde_json_roundtrip(snap: &MetricsSnapshot) -> MetricsSnapshot {
        use serde::{Deserialize, Serialize};
        MetricsSnapshot::from_value(&snap.to_value()).expect("snapshot round-trips")
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // A running test process surely holds > 64 KiB and < 1 TiB.
            assert!(bytes > 64 * 1024, "{bytes}");
            assert!(bytes < 1 << 40, "{bytes}");
        }
    }

    #[test]
    fn counter_names_are_stable() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "rows_encoded",
                "pieces_drawn",
                "boundaries_scanned",
                "trials_run",
                "nodes_decoded",
                "draw_retries",
                "verify_retries",
                "audit_violations",
                "split_scan_rows",
                "mining_threads",
                "pool_reuse_hits",
                "http_requests",
                "http_rejected",
                "http_errors",
                "http_in_flight_peak",
                "plan_cache_hits",
                "plan_cache_misses",
                "plan_cache_evictions",
                "tree_cache_hits",
                "http_keepalive_reuses",
                "http_pipelined_requests",
                "streamed_chunks",
                "peer_sync_rounds",
                "peer_keys_fetched",
                "peer_fetch_failures",
                "peer_unreachable",
                "batched_values",
                "piece_lookup_direct",
                "piece_lookup_bsearch"
            ]
        );
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
