//! # ppdt-bencher
//!
//! Open-loop load generation and a declarative experiment harness for
//! the `ppdt-serve` custodian daemon.
//!
//! A closed-loop client issues the next request only after the
//! previous answer arrives, so the measured rate *is* the service rate
//! and latency under overload is invisible — the clients simply slow
//! down with the server (coordinated omission). This crate measures at
//! a controlled offered rate instead, which is what locating the
//! overload knee needs:
//!
//! * [`openloop`] — fire requests at a **controlled offered rate**
//!   from a schedule fixed before the run. A slow server does not
//!   slow the schedule down; it makes requests late, and the lateness
//!   (queue wait) and per-request latency are both recorded.
//! * [`config`] — the declarative experiment: endpoint mix, payload
//!   shape, rate sweep, duration, concurrency, connection regime,
//!   optional cluster targets. Strictly parsed — unknown fields are
//!   rejected, bounds are validated.
//! * [`record`] — one CSV line per request (schedule time, queue
//!   wait, latency, status, bytes, retry accounting), the raw
//!   artifact every summary number can be recomputed from.
//! * [`summary`] — per-rate-step percentiles (p50/p95/p99/p999 via
//!   the shared [`ppdt_obs::LogHistogram`]) and the **knee** finder:
//!   the first rate step where 503s begin or p99 degrades past 5× the
//!   base-rate p99.
//! * [`orchestrate`] — spawn the daemon(s) from a `ppdt` binary the
//!   way the smoke scripts do, seed a key and a mined tree, run the
//!   sweep, write CSVs plus a machine-readable `summary.json`.
//!
//! The `ppdt-bencher` binary wires these together:
//!
//! ```text
//! ppdt-bencher --config experiment.json --out-dir out/ --ppdt target/release/ppdt
//! ppdt-bencher --config experiment.json --out-dir out/ --target 127.0.0.1:7070
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod openloop;
pub mod orchestrate;
pub mod record;
pub mod summary;

pub use config::{BenchEndpoint, Connection, ExperimentConfig, MixEntry};
pub use record::RequestRecord;
pub use summary::{find_knee, summarize, StepSummary};

/// Schema version of the `summary.json` an orchestrated sweep writes
/// (`openloop_schema_version` in the document); bump on breaking
/// shape changes so readers such as `scripts/bencher_smoke.py` can
/// tell the layouts apart.
pub const OPENLOOP_SCHEMA_VERSION: u64 = 1;
