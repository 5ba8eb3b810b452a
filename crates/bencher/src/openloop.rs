//! The open-loop runner: fire requests on a schedule fixed before
//! the run, regardless of how the server responds.
//!
//! A closed-loop driver waits for each answer before sending the next
//! request, so a slow server receives *less* load exactly when it is
//! slow — the measured latency distribution silently omits the
//! requests that would have queued (coordinated omission). The
//! open-loop runner instead derives every send time from the offered
//! rate alone: tick `i` fires at `start + i/rate`. A slow server
//! makes ticks *late*, and the lateness is recorded per request as
//! [`RequestRecord::wait_us`] alongside the exchange latency.
//!
//! Concurrency is a partially-open worker pool: worker `w` of `c`
//! owns exactly the ticks `i ≡ w (mod c)`, so the schedule needs no
//! shared queue, no locks, and is perfectly reproducible. A worker
//! that falls behind (its previous exchange outlived the next tick)
//! fires immediately and the slip shows up in `wait_us` — ticks are
//! never dropped. The endpoint for tick `i` is a deterministic
//! weighted hash of `i`, so two runs of the same config issue the
//! same request sequence.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ppdt_serve::client::ClientConfig;
use ppdt_serve::{Client, RetryingClient};

use crate::config::{BenchEndpoint, Connection, MixEntry};
use crate::record::RequestRecord;

/// Request bodies and routes for the weighted endpoints, materialized
/// once per experiment (see [`crate::orchestrate`]). The paths carry
/// the experiment's tenant: `/v1/...` for the default tenant,
/// `/v2/t/{tenant}/...` otherwise.
#[derive(Clone, Debug)]
pub struct Payloads {
    /// Encode route (`{prefix}/encode`).
    pub encode_path: String,
    /// Classify route (`{prefix}/classify`).
    pub classify_path: String,
    /// Key-listing route (`{prefix}/keys`).
    pub list_keys_path: String,
    /// Encode body (key id + rows).
    pub encode_body: String,
    /// Classify body (key id + tree + rows).
    pub classify_body: String,
}

/// One rate step to execute.
#[derive(Clone, Debug)]
pub struct StepPlan<'a> {
    /// Daemon addresses; worker `w` pins to `targets[w % len]`, so a
    /// multi-node sweep spreads workers round-robin over the cluster.
    pub targets: &'a [SocketAddr],
    /// Offered rate, requests/second.
    pub rate: f64,
    /// How long to run the schedule.
    pub duration: Duration,
    /// Worker count.
    pub concurrency: usize,
    /// Connection regime.
    pub connection: Connection,
    /// Weighted endpoint mix (non-empty).
    pub mix: &'a [MixEntry],
    /// Materialized request bodies.
    pub payloads: &'a Payloads,
    /// Retry budget in the `fresh` regime (1 = never retry).
    pub max_attempts: usize,
}

/// splitmix64 finalizer — a cheap, well-mixed hash of the tick index
/// used to pick the endpoint deterministically.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The endpoint tick `i` fires: weighted choice by hashed index.
fn endpoint_for(i: u64, mix: &[MixEntry], total_weight: u64) -> BenchEndpoint {
    let mut pick = mix64(i) % total_weight;
    for m in mix {
        let w = u64::from(m.weight);
        if pick < w {
            return m.endpoint;
        }
        pick -= w;
    }
    mix[mix.len() - 1].endpoint
}

fn method_path_body(e: BenchEndpoint, p: &Payloads) -> (&'static str, &str, &str) {
    match e {
        BenchEndpoint::Encode => ("POST", p.encode_path.as_str(), p.encode_body.as_str()),
        BenchEndpoint::Classify => ("POST", p.classify_path.as_str(), p.classify_body.as_str()),
        BenchEndpoint::ListKeys => ("GET", p.list_keys_path.as_str(), ""),
    }
}

/// Runs one rate step and returns every record, in tick order. The
/// schedule has `ceil(rate × duration)` ticks; the runner returns
/// once the last tick's exchange finishes (it does not cut off
/// in-flight requests at the duration boundary).
pub fn run_step(plan: &StepPlan<'_>) -> Vec<RequestRecord> {
    assert!(!plan.targets.is_empty(), "run_step needs at least one target");
    assert!(!plan.mix.is_empty(), "run_step needs a non-empty mix");
    let total_ticks = ((plan.rate * plan.duration.as_secs_f64()).ceil() as u64).max(1);
    let total_weight: u64 = plan.mix.iter().map(|m| u64::from(m.weight)).sum();
    let interval = Duration::from_secs_f64(1.0 / plan.rate);
    let workers = plan.concurrency.min(total_ticks as usize).max(1);
    let start = Instant::now();

    let mut per_worker: Vec<Vec<RequestRecord>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let target = plan.targets[w % plan.targets.len()];
                s.spawn(move || {
                    worker_loop(
                        plan,
                        w,
                        workers,
                        target,
                        total_ticks,
                        total_weight,
                        interval,
                        start,
                    )
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("bencher worker panicked"));
        }
    });

    let mut records: Vec<RequestRecord> = per_worker.into_iter().flatten().collect();
    records.sort_by_key(|r| r.seq);
    records
}

/// A fresh-socket client honoring the step's retry budget.
fn fresh_client(target: SocketAddr, max_attempts: usize) -> RetryingClient {
    RetryingClient::with_config(
        target,
        ClientConfig { attempts: max_attempts, ..ClientConfig::default() },
    )
}

#[allow(clippy::too_many_arguments)] // one call site; a struct would just rename these
fn worker_loop(
    plan: &StepPlan<'_>,
    w: usize,
    workers: usize,
    target: SocketAddr,
    total_ticks: u64,
    total_weight: u64,
    interval: Duration,
    start: Instant,
) -> Vec<RequestRecord> {
    let mut out = Vec::with_capacity((total_ticks as usize).div_ceil(workers));
    // Keep-alive regime: one persistent socket, re-dialed lazily
    // after any error (a 503 always closes the connection).
    let mut conn: Option<Client> = None;
    let fresh = fresh_client(target, plan.max_attempts);

    let mut i = w as u64;
    while i < total_ticks {
        let sched = interval.mul_f64(i as f64);
        let now = start.elapsed();
        if now < sched {
            std::thread::sleep(sched - now);
        }
        let endpoint = endpoint_for(i, plan.mix, total_weight);
        let (method, path, body) = method_path_body(endpoint, plan.payloads);
        let sent = start.elapsed();
        let t0 = Instant::now();
        let (status, bytes, attempts, retry_wait) = match plan.connection {
            Connection::Keepalive => {
                let c = match conn.take() {
                    Some(c) => Some(c),
                    None => Client::connect(target).ok(),
                };
                match c {
                    Some(mut c) => match c.request(method, path, body) {
                        Ok((status, text)) => {
                            // The server closes the socket on 503s and
                            // announces `Connection: close` when its
                            // per-connection request budget is spent;
                            // keep the socket only when it will answer
                            // again.
                            if status != 503 && !c.server_closed() {
                                conn = Some(c);
                            }
                            (status, text.len() as u64, 1, Duration::ZERO)
                        }
                        Err(_) => (0, 0, 1, Duration::ZERO),
                    },
                    None => (0, 0, 1, Duration::ZERO),
                }
            }
            Connection::Fresh => match fresh.request_traced(method, path, body) {
                Ok(o) => (o.status, o.body.len() as u64, o.attempts as u32, o.retry_wait),
                Err(_) => (0, 0, plan.max_attempts.max(1) as u32, Duration::ZERO),
            },
        };
        out.push(RequestRecord {
            seq: i,
            endpoint: endpoint.name(),
            sched_us: sched.as_micros() as u64,
            wait_us: sent.saturating_sub(sched).as_micros() as u64,
            latency_us: t0.elapsed().as_micros() as u64,
            status,
            bytes,
            attempts,
            retry_wait_us: retry_wait.as_micros() as u64,
        });
        i += workers as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A canned keep-alive HTTP responder: answers every request 200
    /// with a tiny body until `stop` flips.
    fn spawn_responder(stop: Arc<AtomicBool>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        std::thread::spawn(move || {
            let mut conns: Vec<std::net::TcpStream> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Ok((c, _)) = listener.accept() {
                    c.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
                    conns.push(c);
                }
                conns.retain_mut(|c| {
                    let mut buf = [0u8; 65536];
                    match c.read(&mut buf) {
                        Ok(0) => false,
                        Ok(n) => {
                            // One response per request head seen; the
                            // test bodies are small enough that each
                            // read delivers whole requests.
                            let heads =
                                buf[..n].windows(4).filter(|w| w == b"\r\n\r\n").count().max(1);
                            for _ in 0..heads {
                                let _ =
                                    c.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
                            }
                            true
                        }
                        Err(_) => true,
                    }
                });
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        addr
    }

    fn v1_payloads() -> Payloads {
        Payloads {
            encode_path: "/v1/encode".to_string(),
            classify_path: "/v1/classify".to_string(),
            list_keys_path: "/v1/keys".to_string(),
            encode_body: "{}".to_string(),
            classify_body: "{}".to_string(),
        }
    }

    #[test]
    fn open_loop_keeps_schedule_against_a_fast_server() {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = spawn_responder(stop.clone());
        let payloads = v1_payloads();
        let mix = [MixEntry { endpoint: BenchEndpoint::ListKeys, weight: 1 }];
        let plan = StepPlan {
            targets: &[addr],
            rate: 200.0,
            duration: Duration::from_millis(500),
            concurrency: 2,
            connection: Connection::Keepalive,
            mix: &mix,
            payloads: &payloads,
            max_attempts: 1,
        };
        let t0 = Instant::now();
        let records = run_step(&plan);
        let elapsed = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        assert_eq!(records.len(), 100, "ceil(200 × 0.5s) ticks, none dropped");
        assert!(records.iter().all(|r| r.status == 200), "canned responder answers 200");
        assert!(records.iter().all(|r| r.endpoint == "list_keys"));
        // Tick order and schedule shape survive the worker split.
        assert!(records.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(records[0].sched_us, 0);
        assert_eq!(records[99].sched_us, 495_000);
        // Against a fast responder the run takes ~the configured
        // duration: the schedule, not the server, sets the pace.
        assert!(elapsed >= 0.49, "ran {elapsed}s; must not finish ahead of schedule");
        assert!(elapsed < 3.0, "ran {elapsed}s; fast server must not slow the schedule");
    }

    #[test]
    fn transport_failures_are_recorded_not_dropped() {
        // Bind then drop: connects fail fast with ECONNREFUSED.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let payloads = v1_payloads();
        let mix = [MixEntry { endpoint: BenchEndpoint::ListKeys, weight: 1 }];
        let plan = StepPlan {
            targets: &[addr],
            rate: 100.0,
            duration: Duration::from_millis(100),
            concurrency: 2,
            connection: Connection::Fresh,
            mix: &mix,
            payloads: &payloads,
            max_attempts: 1,
        };
        let records = run_step(&plan);
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|r| r.status == 0), "every tick records its failure");
    }

    #[test]
    fn endpoint_mix_is_deterministic_and_roughly_weighted() {
        let mix = [
            MixEntry { endpoint: BenchEndpoint::Encode, weight: 8 },
            MixEntry { endpoint: BenchEndpoint::Classify, weight: 1 },
            MixEntry { endpoint: BenchEndpoint::ListKeys, weight: 1 },
        ];
        let total = 10u64;
        let picks: Vec<BenchEndpoint> = (0..10_000).map(|i| endpoint_for(i, &mix, total)).collect();
        let again: Vec<BenchEndpoint> = (0..10_000).map(|i| endpoint_for(i, &mix, total)).collect();
        assert_eq!(picks, again, "same tick index → same endpoint");
        let encodes = picks.iter().filter(|&&e| e == BenchEndpoint::Encode).count();
        assert!((7_600..8_400).contains(&encodes), "~80% encode, got {encodes}/10000");
    }
}
