//! Per-rate-step summaries and the overload-knee finder.
//!
//! A sweep runs each offered rate for a fixed duration and reduces
//! the per-request records of each step to a [`StepSummary`]:
//! achieved vs offered rate, outcome counts, and latency percentiles
//! over the *successful* (2xx) requests, computed through the shared
//! [`ppdt_obs::LogHistogram`] so a step's percentiles carry the same
//! ≤ 1/64 relative-error bound `/metrics` has. Retry sleeps are
//! subtracted out ([`crate::RequestRecord::retry_wait_us`]) so a step
//! measures service latency, not client backoff policy.
//!
//! [`find_knee`] then walks the summaries in rate order and names the
//! **overload knee**: the first step where the daemon visibly stopped
//! keeping up — any 503s, or p99 degraded past [`KNEE_P99_FACTOR`] ×
//! the base (first) step's p99. That knee is the headline of a sweep:
//! the offered rate at which the daemon stops keeping up.

use serde::{Deserialize, Serialize};

use crate::record::RequestRecord;

/// p99 degradation factor (vs the base step) that marks the knee even
/// before 503s appear.
pub const KNEE_P99_FACTOR: f64 = 5.0;

/// One rate step, reduced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepSummary {
    /// Offered rate, requests/second (the schedule).
    pub offered_rate: f64,
    /// Achieved send rate, requests/second (requests actually sent
    /// over the step's wall clock — lags offered when the generator
    /// itself cannot keep schedule).
    pub achieved_rate: f64,
    /// Step wall clock, seconds (last completion vs first schedule).
    pub duration_secs: f64,
    /// Requests scheduled (records written).
    pub requests: u64,
    /// 2xx answers.
    pub ok: u64,
    /// 503 answers (the daemon shedding load).
    pub rejected: u64,
    /// Requests with no HTTP answer at all (connect/read failures).
    pub transport_errors: u64,
    /// Non-503 HTTP errors.
    pub other_errors: u64,
    /// Median latency over 2xx requests, µs.
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// Slowest 2xx request, µs.
    pub max_us: u64,
    /// Mean 2xx latency, µs.
    pub mean_us: f64,
    /// Mean schedule slip at send time, µs — how late the generator
    /// fired ticks; large values mean the *offered* load itself was
    /// degraded and achieved_rate is the honest denominator.
    pub mean_wait_us: f64,
}

/// Reduces one step's records. `offered_rate` is the configured rate;
/// the achieved rate and percentiles come from the records.
pub fn summarize(offered_rate: f64, records: &[RequestRecord]) -> StepSummary {
    let mut hist = ppdt_obs::LogHistogram::new();
    let mut ok = 0u64;
    let mut rejected = 0u64;
    let mut transport = 0u64;
    let mut other = 0u64;
    let mut wait_sum = 0u128;
    let mut span_us = 0u64;
    for r in records {
        wait_sum += u128::from(r.wait_us);
        // The step spans first schedule to last completion.
        span_us = span_us.max(r.sched_us + r.wait_us + r.latency_us);
        if r.is_ok() {
            ok += 1;
            hist.record(r.latency_us.saturating_sub(r.retry_wait_us));
        } else if r.status == 503 {
            rejected += 1;
        } else if r.status == 0 {
            transport += 1;
        } else {
            other += 1;
        }
    }
    let n = records.len() as u64;
    let duration_secs = span_us as f64 / 1e6;
    StepSummary {
        offered_rate,
        achieved_rate: if duration_secs > 0.0 { n as f64 / duration_secs } else { 0.0 },
        duration_secs,
        requests: n,
        ok,
        rejected,
        transport_errors: transport,
        other_errors: other,
        p50_us: hist.quantile(0.50),
        p95_us: hist.quantile(0.95),
        p99_us: hist.quantile(0.99),
        p999_us: hist.quantile(0.999),
        max_us: hist.max(),
        mean_us: hist.mean(),
        mean_wait_us: if n > 0 { wait_sum as f64 / n as f64 } else { 0.0 },
    }
}

/// Index of the first step (ascending rate order) where overload is
/// visible: any 503s, or p99 above [`KNEE_P99_FACTOR`] × the base
/// step's p99 (the base step is the first one — the sweep's low-rate
/// anchor). `None` when every step stayed healthy.
pub fn find_knee(steps: &[StepSummary]) -> Option<usize> {
    let base_p99 = steps.first().map(|s| s.p99_us)?;
    steps.iter().position(|s| {
        s.rejected > 0 || (base_p99 > 0 && s.p99_us as f64 > KNEE_P99_FACTOR * base_p99 as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, sched_us: u64, latency_us: u64, status: u16) -> RequestRecord {
        RequestRecord {
            seq,
            endpoint: "encode",
            sched_us,
            wait_us: 0,
            latency_us,
            status,
            bytes: 10,
            attempts: 1,
            retry_wait_us: 0,
        }
    }

    #[test]
    fn summarize_counts_and_percentiles() {
        // 100 OK requests with latencies 1..=100ms spaced 10ms apart,
        // plus a 503, a transport error, and a 400.
        let mut records: Vec<RequestRecord> =
            (0..100).map(|i| rec(i, i * 10_000, (i + 1) * 1_000, 200)).collect();
        records.push(rec(100, 1_000_000, 10, 503));
        records.push(rec(101, 1_010_000, 0, 0));
        records.push(rec(102, 1_020_000, 10, 400));
        let s = summarize(100.0, &records);
        assert_eq!(
            (s.requests, s.ok, s.rejected, s.transport_errors, s.other_errors),
            (103, 100, 1, 1, 1)
        );
        // Exact sample p50 over 1..=100ms is 50ms; the histogram may
        // overshoot by ≤ 1/64.
        for (q, exact) in [(s.p50_us, 50_000u64), (s.p95_us, 95_000), (s.p99_us, 99_000)] {
            assert!(
                q >= exact && q as f64 <= exact as f64 * (1.0 + 1.0 / 64.0) + 1.0,
                "{q} vs exact {exact}"
            );
        }
        assert_eq!(s.max_us, 100_000);
        assert!(s.duration_secs > 1.0, "{}", s.duration_secs);
        assert!(s.achieved_rate > 0.0);
    }

    #[test]
    fn retry_wait_is_subtracted_from_service_latency() {
        let mut r = rec(0, 0, 2_500_000, 200);
        r.attempts = 2;
        r.retry_wait_us = 2_000_000;
        let s = summarize(1.0, &[r]);
        assert_eq!(s.p50_us, 500_000, "the Retry-After sleep must not count as latency");
    }

    fn step(offered: f64, rejected: u64, p99_us: u64) -> StepSummary {
        StepSummary {
            offered_rate: offered,
            achieved_rate: offered,
            duration_secs: 1.0,
            requests: 100,
            ok: 100 - rejected,
            rejected,
            transport_errors: 0,
            other_errors: 0,
            p50_us: p99_us / 2,
            p95_us: p99_us,
            p99_us,
            p999_us: p99_us,
            max_us: p99_us,
            mean_us: p99_us as f64 / 2.0,
            mean_wait_us: 0.0,
        }
    }

    #[test]
    fn knee_finds_first_503_or_p99_blowup() {
        // Healthy sweep: no knee.
        let healthy = vec![step(25.0, 0, 1000), step(50.0, 0, 1200), step(100.0, 0, 2000)];
        assert_eq!(find_knee(&healthy), None);
        // 503s mark the knee even with flat latency.
        let shed = vec![step(25.0, 0, 1000), step(50.0, 3, 1000), step(100.0, 40, 1000)];
        assert_eq!(find_knee(&shed), Some(1));
        // p99 blowup past 5× base marks it without any 503.
        let slow = vec![step(25.0, 0, 1000), step(50.0, 0, 4999), step(100.0, 0, 5001)];
        assert_eq!(find_knee(&slow), Some(2));
        // The base step itself can be the knee (saturated from go).
        let doomed = vec![step(25.0, 9, 1000)];
        assert_eq!(find_knee(&doomed), Some(0));
        assert_eq!(find_knee(&[]), None);
    }
}
