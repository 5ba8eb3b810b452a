//! The arithmetic every figure rests on, kept free of I/O so the
//! package's own tests can check it: percentiles of latencies timed
//! from each operation's due time, failure accounting, `max_rps` from
//! capacity bursts, and span self time.

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it. Failed operations
/// are stored as `f64::INFINITY`, so they sort after every latency
/// and count as slower than any limit.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q)]
}

/// Index of the nearest-rank `q`-percentile in a sample of `n`.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples that lie strictly beyond the nearest-rank `q`-percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Median of an unsorted sample (upper median for even counts, the
/// same nearest-rank rule as [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The median over `parts` equal parts of `[0, span)` of the mean of
/// the samples in each part; each sample is `(at, value)`, placed by
/// `at` (samples at or past `span` fall in the last part, empty parts
/// are skipped). When single samples fall on a few levels (a host
/// switching between a fast and a slow phase, a wait rounded up by a
/// sleep loop), their median jumps from one level to another as the
/// levels' shares cross one half; a part's mean weighs the levels by
/// their share instead, and the median over parts still shrugs off one
/// disturbed part.
pub fn median_of_part_means(samples: &[(f64, f64)], span: f64, parts: usize) -> f64 {
    let mut sums = vec![(0.0, 0usize); parts];
    for &(at, value) in samples {
        let i = ((at / span * parts as f64) as usize).min(parts - 1);
        sums[i].0 += value;
        sums[i].1 += 1;
    }
    let means: Vec<f64> = sums.iter().filter(|p| p.1 > 0).map(|p| p.0 / p.1 as f64).collect();
    median(&means)
}

/// How one scheduled operation ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Answered correctly; latency in milliseconds from its due time.
    Ok(f64),
    /// Answered 503 or 429: the daemon refused the work.
    Refused,
    /// Any other non-2xx status, or a 2xx of the wrong kind.
    Error,
    /// Connect, write or read failed.
    Transport,
    /// Answered 2xx with a body that differs from the in-process result.
    Wrong,
    /// Due before the step ended but never sent.
    Unsent,
}

/// Counts of outcomes over the operations attempted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Every scheduled operation, sent or not.
    pub attempted: u64,
    /// Correct answers.
    pub ok: u64,
    /// Refusals (503/429).
    pub refused: u64,
    /// Other non-2xx answers.
    pub errors: u64,
    /// Transport failures.
    pub transport: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// Ticks never sent.
    pub unsent: u64,
}

impl Tally {
    /// Tallies `outcomes`.
    pub fn of(outcomes: &[Outcome]) -> Tally {
        let mut t = Tally { attempted: outcomes.len() as u64, ..Tally::default() };
        for o in outcomes {
            match o {
                Outcome::Ok(_) => t.ok += 1,
                Outcome::Refused => t.refused += 1,
                Outcome::Error => t.errors += 1,
                Outcome::Transport => t.transport += 1,
                Outcome::Wrong => t.wrong += 1,
                Outcome::Unsent => t.unsent += 1,
            }
        }
        t
    }

    /// Every operation that did not end in a correct answer.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// Latencies of `outcomes` in ascending order, failures as infinity.
pub fn sorted_latencies(outcomes: &[Outcome]) -> Vec<f64> {
    let mut v: Vec<f64> = outcomes
        .iter()
        .map(|o| match o {
            Outcome::Ok(ms) => *ms,
            _ => f64::INFINITY,
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Correct answers per second of a capacity burst: those completed
/// (`done`, seconds from the burst's start) before it ended, over its
/// length. The at most one answer per connection still in flight at
/// the end is left out, as one was in flight at the start.
pub fn completion_rate(done: &[f64], seconds: f64) -> f64 {
    done.iter().filter(|&&d| d < seconds).count() as f64 / seconds
}

/// A figure over a run's eight rounds from the quartile of them on the
/// host's faster side: the second best (nearest rank, as
/// [`percentile`]), best meaning highest when `higher_is_better`
/// (`max_rps` over the bursts) and lowest otherwise (`p50_ms` over the
/// nominal slices). A shared 2-vCPU guest runs in slow phases, with and
/// without steal time, that come and go within a run: the median over
/// a run's rounds moves with the share of the run such a phase covers,
/// the fast quartile only when nearly the whole run is slow. A change
/// of the program moves every round, the fast ones too.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| if higher_is_better { b.total_cmp(a) } else { a.total_cmp(b) });
    percentile(&v, 0.25)
}

/// One timed interval of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran, e.g. `send` or `tree.fit_presorted`.
    pub name: &'static str,
    /// The request or round the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover. Children may nest, overlap
/// each other, or stick out of the parent; only their union inside
/// the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn percentiles_from_due_time_match_a_sorted_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        let rate = 200.0;
        // One server; each operation is due on the schedule, starts
        // when both it is due and the server is free, and takes a
        // random service time, so later operations inherit the wait.
        let mut free_at = 0.0f64;
        let mut outcomes = Vec::new();
        let mut oracle = Vec::new();
        for k in 0..2000 {
            let due = k as f64 / rate * 1e3;
            let start = due.max(free_at);
            let done = start + rng.gen_range(0.5..9.0);
            free_at = done;
            outcomes.push(Outcome::Ok(done - due));
            oracle.push(done - due);
        }
        oracle.sort_by(f64::total_cmp);
        let sorted = sorted_latencies(&outcomes);
        for &q in &[0.01, 0.45, 0.5, 0.55, 0.9, 0.98, 0.99, 0.995, 1.0] {
            let idx = ((q * oracle.len() as f64).ceil() as usize).max(1) - 1;
            assert_eq!(percentile(&sorted, q), oracle[idx], "q = {q}");
        }
        // The send-time latency would hide the inherited wait: from
        // due time, the tail is strictly longer than any service time.
        assert!(percentile(&sorted, 0.99) > 9.0);
        assert_eq!(beyond(2000, 0.99), 20);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn part_means_follow_the_share_of_a_slow_phase() {
        // Samples every 0.5 s for 32 s, 20 in a fast phase and 33 in a
        // slow one, the phases alternating every 1.5 s: 55% of the
        // samples are slow, and so is their median, while every part's
        // mean sits between the modes by the slow share.
        let samples: Vec<(f64, f64)> = (0..64)
            .map(|k| {
                let at = k as f64 * 0.5;
                (at, if (k / 3) % 2 == 0 { 33.0 } else { 20.0 })
            })
            .collect();
        let single: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(median(&single), 33.0);
        let m = median_of_part_means(&samples, 32.0, 4);
        assert!(m > 25.0 && m < 28.0, "median of part means {m}");
        // One part disturbed by a stall is outvoted by the others.
        let mut stalled = samples.clone();
        for s in stalled.iter_mut().filter(|s| s.0 < 8.0) {
            s.1 = 500.0;
        }
        assert!(median_of_part_means(&stalled, 32.0, 4) < 28.0);
        // Parts without samples are skipped; late samples go last.
        assert_eq!(median_of_part_means(&[(0.0, 2.0), (40.0, 4.0)], 32.0, 4), 2.0);
    }

    #[test]
    fn failures_count_against_attempted_and_past_every_limit() {
        let mut outcomes = vec![Outcome::Ok(1.0); 95];
        outcomes.extend([
            Outcome::Refused,
            Outcome::Error,
            Outcome::Transport,
            Outcome::Wrong,
            Outcome::Unsent,
        ]);
        let t = Tally::of(&outcomes);
        assert_eq!(t.attempted, 100);
        assert_eq!(t.ok, 95);
        assert_eq!(t.failed(), 5);
        assert_eq!((t.refused, t.errors, t.transport, t.wrong, t.unsent), (1, 1, 1, 1, 1));
        let sorted = sorted_latencies(&outcomes);
        assert_eq!(percentile(&sorted, 0.95), 1.0);
        assert!(percentile(&sorted, 0.96).is_infinite());
    }

    /// Completion times of a closed-loop burst of `seconds` against one
    /// server that answers in `service` s, two connections keeping it
    /// busy: answers every `service` s from the first one.
    fn synthetic_burst(service: f64, seconds: f64) -> Vec<f64> {
        (1..).map(|k| k as f64 * service).take_while(|&d| d < seconds + 2.0 * service).collect()
    }

    #[test]
    fn max_rps_finds_a_known_capacity_through_slow_phases() {
        for &capacity in &[53.0, 180.0, 800.0, 2750.0] {
            let fast = synthetic_burst(1.0 / capacity, 2.0);
            let slow = synthetic_burst(1.45 / capacity, 2.0);
            // The answers after the burst ended are left out.
            let r = completion_rate(&fast, 2.0);
            assert!((r - capacity).abs() <= 0.5, "capacity {capacity}: rate {r}");
            // Up to six of eight bursts in a slow phase leave the figure
            // at the fast capacity; seven or eight bring it down.
            for slow_bursts in 0..=8 {
                let rates: Vec<f64> = (0..8)
                    .map(|i| completion_rate(if i < slow_bursts { &slow } else { &fast }, 2.0))
                    .collect();
                let m = fast_quartile(&rates, true);
                let want = if slow_bursts <= 6 { capacity } else { capacity / 1.45 };
                assert!((m - want).abs() <= 1.0, "capacity {capacity}, {slow_bursts} slow: {m}");
            }
        }
        // The second best of eight, whatever the order: one round that
        // ran fast for a reason of its own moves nothing.
        let rates = [810.0, 790.0, 420.0, 1400.0, 805.0, 640.0, 700.0, 650.0];
        assert_eq!(fast_quartile(&rates, true), 810.0);
        // Lower is better for latency; a failed request's infinite
        // latency sorts as the slowest.
        let p50 = [3.1, 2.9, 4.2, 2.8, 3.0, f64::INFINITY, 4.1, 3.3];
        assert_eq!(fast_quartile(&p50, false), 2.9);
    }

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", id: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child
            span(Some(1), 15, 35),  // 2: grandchild, inside 1
            span(Some(0), 30, 60),  // 3: overlaps 1 by 10
            span(Some(0), 90, 130), // 4: sticks out of the root
            span(Some(3), 50, 70),  // 5: sticks out of 3
        ];
        let st = self_times(&spans);
        // root: 100 - |[10,60) ∪ [90,100)| = 100 - 60
        assert_eq!(st[0], 40);
        // 1: 30 - 20 (its grandchild); the grandchild does not count
        // against the root a second time.
        assert_eq!(st[1], 10);
        assert_eq!(st[2], 20);
        // 3: 30 - |[50,60)|
        assert_eq!(st[3], 20);
        assert_eq!(st[4], 40);
        assert_eq!(st[5], 20);
    }
}
