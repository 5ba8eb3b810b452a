//! `serve-hot` and `serve-churn`: the daemon as a child process, a
//! nominal-rate window for latency and CPU, then the `max_rps` sweep.

use std::path::Path;
use std::time::{Duration, Instant};

use ppdt_serve::api::StoreKeyRequest;
use ppdt_serve::server::MetricsBody;
use ppdt_transform::TransformKey;
use rand::rngs::StdRng;
use rand::Rng;

use crate::daemon::{Daemon, ProcSample};
use crate::inputs::{self, CHURN_ENDPOINTS, HOT_ENDPOINTS};
use crate::layers::{self, Probe};
use crate::load::{request_bytes, run_step, Conn, StepRecord, Traffic, CONNECTIONS};
use crate::stats::{self, Outcome, Tally};
use crate::{Report, Run};

/// The fixed constants of one serve workload, set when the benchmark
/// was defined and never recomputed per run.
pub struct Spec {
    /// Latency limit on p99, ms: about 5x the unloaded p50.
    pub limit_ms: f64,
    /// Nominal offered rate, per second: about half of `max_rps`.
    pub nominal_rps: f64,
    /// Rate a capacity burst schedules, per second: well above what the
    /// daemon sustains, so each generator thread sends its next request
    /// as soon as the last is answered and the burst runs closed loop.
    /// On serve-churn it also keeps new connections well under the
    /// ~470/s that 28k ephemeral ports and a 60 s TIME_WAIT allow.
    pub burst_rps: f64,
    /// Connections (and generator threads) of a capacity burst, out of
    /// the workload's two. serve-hot's bursts use one: with two
    /// requests in flight the daemon and the generator saturate both
    /// vCPUs of the guest, and the rate followed the hypervisor more
    /// than the daemon (one run's bursts ranged from 578 to 952 req/s);
    /// with one, the other vCPU is left to the generator, and a daemon
    /// that answers one request on both cores would still show.
    pub burst_connections: usize,
    /// Share of the run's seconds spent at the nominal rate; the rest
    /// goes to the capacity bursts.
    pub nominal_share: f64,
    /// Set-ups per run; `setup_s` is the median over [`SETUP_PARTS`]
    /// groups of them, in order, of each group's mean.
    pub setups: usize,
}

/// `serve-hot`.
pub const HOT: Spec = Spec {
    limit_ms: 15.0,
    nominal_rps: 200.0,
    burst_rps: 4000.0,
    burst_connections: 1,
    nominal_share: 0.5,
    setups: 16,
};
/// `serve-churn`.
pub const CHURN: Spec = Spec {
    limit_ms: 50.0,
    nominal_rps: 53.0,
    burst_rps: 300.0,
    burst_connections: 2,
    nominal_share: 0.6,
    setups: 3,
};

/// Groups of set-ups `setup_s` is the median over. Each fresh
/// connection of a set-up waits 0-10 ms for the daemon's acceptor (see
/// [`dither`]), so single serve-hot set-ups (about 50 ms) vary by
/// several ms; a group's mean averages those waits, and the median over
/// groups shrugs off one disturbed group.
const SETUP_PARTS: usize = 4;

/// Rounds the measured time is cut into. Each is a slice of the
/// nominal window followed, in untraced runs, by a capacity burst.
/// Interleaved, both sample the whole run: a host slow phase that
/// covers part of it moves some slices and some bursts rather than one
/// figure wholesale. `p50_ms` is the fast quartile of the slices' p50s
/// and `max_rps` that of the bursts' rates (see
/// [`stats::fast_quartile`]), `cpu_ms_per_req` the median over the
/// slices.
const ROUNDS: usize = 8;

/// How late past its end a nominal slice still sends a tick that is
/// due in it; later ticks are unsent and count as failed. A slice is
/// never meant to overload the daemon, but eight slice ends are eight
/// chances for a stall of the host to leave the generator behind: sent
/// late, such ticks are charged their wait from due time instead.
const SLICE_GRACE_S: f64 = 1.0;

/// Quiet time after each capacity burst, so its last answers and the
/// daemon's catching up never reach the next nominal slice.
const BURST_GAP: Duration = Duration::from_millis(150);

/// Keys a workload stores at set-up: (`/v2` tenant or `None`, key).
type Stores<'a> = Vec<(Option<&'a str>, &'a TransformKey)>;

/// Sleeps a random part of one 10 ms period of the daemon's acceptor,
/// which polls for new connections every 10 ms, and returns the seconds
/// slept. A set-up sleeps this before each burst of fresh connections
/// and leaves it out of its time. Without it a run's set-ups lock onto
/// one phase of that poll, so every set-up of a run waits the same and
/// serve-hot's `setup_s` sat on one of a few levels 5-10 ms apart,
/// chosen by the run; with it each wait is a fresh draw and `setup_s`
/// weighs the acceptor's wait at its average.
fn dither(rng: &mut StdRng) -> f64 {
    let t = Instant::now();
    std::thread::sleep(Duration::from_micros(rng.gen_range(0..10_000)));
    t.elapsed().as_secs_f64()
}

/// Starts a daemon over a fresh key store, stores `keys` and answers
/// one warm-up request per endpoint in `warm`; returns the daemon and
/// the seconds all of that took, the [`dither`] sleeps left out.
fn setup(
    run: &Run,
    dir: &Path,
    stores: &[(String, Vec<u8>)],
    traffic: &Traffic,
    warm: &[usize],
    keep_alive: u64,
    rng: &mut StdRng,
) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&run.ppdt, dir, keep_alive, run.trace)?;
    let mut dithered = dither(rng);
    // Keys go in over two kept-alive connections at once, as a bulk
    // load would send them.
    inputs::par_map(CONNECTIONS, |j| -> Result<(), String> {
        let mut conn: Option<Conn> = None;
        let mut body = Vec::new();
        for (path, bytes) in stores.iter().skip(j).step_by(CONNECTIONS) {
            let c = match conn.as_mut() {
                Some(c) if !c.closed => c,
                _ => conn.insert(Conn::open(daemon.addr).map_err(|e| format!("connect: {e}"))?),
            };
            let (status, _, _) = c.exchange(bytes, &mut body).map_err(|e| format!("store: {e}"))?;
            if status != 201 {
                return Err(format!("storing a key at {path} answered {status}"));
            }
        }
        Ok(())
    })
    .into_iter()
    .collect::<Result<Vec<()>, String>>()?;
    let mut body = Vec::new();
    for &t in warm {
        let tpl = &traffic.templates[t];
        dithered += dither(rng);
        let mut c = Conn::open(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        let (status, _, _) =
            c.exchange(&tpl.bytes, &mut body).map_err(|e| format!("warm-up: {e}"))?;
        if !matches!(traffic.judge(t, status, &body, 0.0), Outcome::Ok(_)) {
            return Err(format!("warm-up request {t} answered {status} with a wrong body"));
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64() - dithered))
}

fn store_requests(keys: &Stores) -> Vec<(String, Vec<u8>)> {
    keys.iter()
        .map(|(tenant, key)| {
            let path = match tenant {
                Some(t) => format!("/v2/t/{t}/keys"),
                None => "/v1/keys".to_string(),
            };
            let body =
                serde_json::to_string(&StoreKeyRequest { key: (*key).clone() }).expect("serialize");
            let bytes = request_bytes("POST", &path, &body, false);
            (path, bytes)
        })
        .collect()
}

/// Runs `serve-hot` (`churn == false`) or `serve-churn`.
pub fn run(run: &Run, churn: bool) -> Result<Report, String> {
    let spec = if churn { &CHURN } else { &HOT };
    let nominal_s = run.seconds * spec.nominal_share;
    let slice_s = nominal_s / ROUNDS as f64;
    let burst_s = (run.seconds - nominal_s) / ROUNDS as f64;
    // The store pool covers every store among the most ticks the
    // nominal slices and the bursts can schedule.
    let max_ticks = spec.nominal_rps * nominal_s + spec.burst_rps * (run.seconds - nominal_s);
    let t_inputs = Instant::now();
    let (hot, churned) = if churn {
        (None, Some(inputs::churn(run.seed, max_ticks as usize)))
    } else {
        (Some(inputs::hot(run.seed)), None)
    };
    let (traffic, endpoints, stores): (&Traffic, &[&str], Stores) = match (&hot, &churned) {
        (Some(h), _) => (&h.traffic, &HOT_ENDPOINTS, vec![(None, &h.key.key)]),
        (_, Some(c)) => (
            &c.traffic,
            &CHURN_ENDPOINTS,
            c.tenants
                .iter()
                .flat_map(|t| t.keys.iter().map(move |k| (Some(t.name.as_str()), &k.key)))
                .collect(),
        ),
        _ => unreachable!("one workload is built"),
    };
    let store_reqs = store_requests(&stores);
    let inputs_s = t_inputs.elapsed().as_secs_f64();
    // One warm-up per endpoint: the first template of each (stores are
    // exercised by the set-up itself).
    let warm: Vec<usize> = (0..endpoints.len())
        .filter_map(|e| traffic.templates.iter().position(|t| t.endpoint == e && t.status == 200))
        .collect();
    let keep_alive = if churn { 100 } else { 1_000_000_000 };

    let mut setups = Vec::new();
    let mut daemon = None;
    let mut rng = inputs::rng(run.seed, 90);
    let n_setups = if run.trace { 1 } else { spec.setups };
    for i in 0..n_setups {
        let dir = run.work.join(format!("keystore-{i}"));
        let (d, secs) = setup(run, &dir, &store_reqs, traffic, &warm, keep_alive, &mut rng)?;
        setups.push(secs);
        if i + 1 == n_setups {
            daemon = Some(d);
        } else {
            drop(d);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let daemon = daemon.expect("the last set-up is kept");
    let mut rep = Report::new(run);
    rep.detail("keystore_fs", format!("\"{}\"", crate::daemon::filesystem_of(&daemon.dir)));
    rep.detail("setup_s_all", json_list(&setups));
    rep.detail("inputs_s", inputs_s.to_string());

    // The nominal slices and, between them, the capacity bursts.
    let mut conns: Vec<Option<Conn>> = (0..CONNECTIONS).map(|_| None).collect();
    let root = format!("/proc/{}", daemon.pid());
    let metrics0 = if run.trace { Some(daemon.metrics()?) } else { None };
    let p0 = daemon.sample();
    let t_window = Instant::now();
    let mut nominal = StepRecord { ticks: Vec::new(), rows_ok: 0 };
    let mut bursts: Vec<StepRecord> = Vec::new();
    let (mut slice_p50, mut slice_cpu) = (Vec::new(), Vec::new());
    let (mut window_s, mut window_cpu, mut window_sys) = (0.0, 0.0, 0.0);
    let mut tick = 0;
    for _ in 0..ROUNDS {
        let at = t_window.elapsed().as_secs_f64();
        let c0 = ProcSample::of(&root);
        let t = Instant::now();
        let rec = run_step(
            daemon.addr,
            traffic,
            tick,
            spec.nominal_rps,
            slice_s,
            SLICE_GRACE_S,
            &mut conns,
        );
        window_s += t.elapsed().as_secs_f64();
        let c1 = ProcSample::of(&root);
        tick += rec.ticks.len();
        let ok = Tally::of(&rec.outcomes()).ok;
        slice_p50.push(stats::percentile(&stats::sorted_latencies(&rec.outcomes()), 0.5));
        slice_cpu.push((c1.cpu_ms - c0.cpu_ms) / ok.max(1) as f64);
        window_cpu += c1.cpu_ms - c0.cpu_ms;
        window_sys += c1.sys_ms - c0.sys_ms;
        nominal.append(rec, at);
        if !run.trace {
            let rec = run_step(
                daemon.addr,
                traffic,
                tick,
                spec.burst_rps,
                burst_s,
                0.0,
                &mut conns[..spec.burst_connections],
            );
            tick += rec.ticks.len();
            bursts.push(rec);
            std::thread::sleep(BURST_GAP);
        }
    }
    let p1 = daemon.sample();
    let metrics1 = if run.trace { Some(daemon.metrics()?) } else { None };

    let outcomes = nominal.outcomes();
    let tally = Tally::of(&outcomes);
    let sorted = stats::sorted_latencies(&outcomes);
    let p50 = finite(stats::fast_quartile(&slice_p50, false), run.seconds);
    let p99 = finite(stats::percentile(&sorted, 0.99), run.seconds);
    let cpu_ms_per_req = stats::median(&slice_cpu);
    rep.detail("slice_p50_ms", json_list(&slice_p50));
    rep.detail("slice_cpu_ms_per_req", json_list(&slice_cpu));
    rep.detail("window_cpu_ms_per_req", (window_cpu / tally.ok.max(1) as f64).to_string());
    rep.attempted += tally.attempted;
    rep.failed += tally.failed();
    rep.wrong += tally.wrong;
    let n = sorted.len();
    println!(
        "nominal window: {:.0} req/s in {ROUNDS} slices, {window_s:.1} s: {} attempted, {} ok, {} refused, {} errors, {} transport, {} wrong, {} unsent",
        spec.nominal_rps, tally.attempted, tally.ok, tally.refused, tally.errors, tally.transport, tally.wrong, tally.unsent
    );
    println!(
        "  latency from due time: p50 {p50:.3} ms (the fast quartile of the slices' p50s); p99 {p99:.3} ms over {n} requests, {} beyond it; limit {} ms",
        stats::beyond(n, 0.99),
        spec.limit_ms
    );
    println!("  daemon CPU per request, median over the slices: {cpu_ms_per_req:.3} ms");
    let own = nominal.own_lateness_ms();
    let own_p99 = if own.is_empty() { 0.0 } else { percentile_of(&own, 0.99) };
    let valid = own_p99 <= spec.limit_ms / 10.0;
    println!(
        "  generator lateness (own): p50 {:.3} ms, p99 {own_p99:.3} ms -> run {}",
        if own.is_empty() { 0.0 } else { percentile_of(&own, 0.5) },
        if valid { "valid" } else { "INVALID: the generator fell behind" }
    );
    rep.detail("generator_own_lateness_p99_ms", own_p99.to_string());
    rep.detail("valid", valid.to_string());
    for (name, q) in
        [("p45", 0.45), ("p50", 0.5), ("p55", 0.55), ("p98", 0.98), ("p99", 0.99), ("p99_5", 0.995)]
    {
        rep.detail(
            &format!("latency_{name}_ms"),
            finite(stats::percentile(&sorted, q), run.seconds).to_string(),
        );
    }
    rep.detail("latency_n", n.to_string());
    rep.detail("daemon_sys_ms_per_req", (window_sys / tally.ok.max(1) as f64).to_string());
    // Per endpoint, so a percentile sitting on a mix cliff shows.
    for (e, name) in endpoints.iter().enumerate() {
        let lat: Vec<f64> = nominal
            .ticks
            .iter()
            .filter(|t| t.template != usize::MAX && traffic.templates[t.template].endpoint == e)
            .map(|t| (t.done - t.due) * 1e3)
            .collect();
        if !lat.is_empty() {
            rep.detail(&format!("{name}_n"), lat.len().to_string());
            rep.detail(&format!("{name}_p50_ms"), percentile_of(&lat, 0.5).to_string());
            rep.detail(&format!("{name}_p99_ms"), percentile_of(&lat, 0.99).to_string());
        }
    }
    rep.detail("latency_beyond_p99", stats::beyond(n, 0.99).to_string());

    if run.trace {
        let m0 = metrics0.expect("scraped");
        let m1 = metrics1.expect("scraped");
        serve_layers(&mut rep, traffic, endpoints, &nominal, &m0, &m1, &p0, &p1);
        rep.metric("trace.p50_ms", "ms", p50);
        rep.metric("trace.p99_ms", "ms", p99);
        rep.metric("trace.cpu_ms_per_req", "ms", cpu_ms_per_req);
        let attempts: Vec<usize> = match (&hot, &churned) {
            (Some(h), _) => vec![h.key.attempts],
            (_, Some(c)) => {
                c.tenants.iter().flat_map(|t| t.keys.iter().map(|k| k.attempts)).collect()
            }
            _ => unreachable!("one workload is built"),
        };
        rep.metric(
            "transform.verify_attempts",
            "count",
            attempts.iter().sum::<usize>() as f64 / attempts.len() as f64,
        );
        rep.spans = nominal.spans();
        let rss = daemon.sample().hwm_mb;
        drop(daemon);
        let probe = match (&hot, &churned) {
            (Some(h), _) => Probe::hot(h, run.seed, &run.work),
            (_, Some(c)) => Probe::churn(c, &run.work, &run.work.join("keystore-0")),
            _ => unreachable!("one workload is built"),
        };
        layers::run_probes(&mut rep, &probe, run)?;
        rep.detail("rss_mb", rss.to_string());
        return Ok(rep);
    }

    // max_rps: correct answers per second in each burst, over the
    // bursts in the host's faster phases. A burst schedules more than
    // the daemon answers; the ticks left unsent when it ends are its
    // schedule outrunning the daemon, not failures, and count nowhere.
    let done: Vec<Vec<f64>> = bursts
        .iter()
        .map(|b| {
            b.ticks.iter().filter(|t| matches!(t.outcome, Outcome::Ok(_))).map(|t| t.done).collect()
        })
        .collect();
    let rates: Vec<f64> = done.iter().map(|d| stats::completion_rate(d, burst_s)).collect();
    let max_rps = stats::fast_quartile(&rates, true);
    let mut burst_tally = Tally::default();
    for b in &bursts {
        let t = Tally::of(&b.outcomes());
        burst_tally.attempted += t.attempted - t.unsent;
        burst_tally.ok += t.ok;
        burst_tally.refused += t.refused;
        burst_tally.errors += t.errors;
        burst_tally.transport += t.transport;
        burst_tally.wrong += t.wrong;
    }
    rep.attempted += burst_tally.attempted;
    rep.failed += burst_tally.failed();
    rep.wrong += burst_tally.wrong;
    // Latency from send: a closed-loop burst has no schedule to be
    // late against.
    let burst_latency: Vec<f64> = bursts
        .iter()
        .flat_map(|b| b.ticks.iter())
        .filter(|t| matches!(t.outcome, Outcome::Ok(_)))
        .map(|t| (t.done - t.send) * 1e3)
        .collect();
    let burst_p99 =
        if burst_latency.is_empty() { 0.0 } else { percentile_of(&burst_latency, 0.99) };
    println!(
        "capacity bursts: {ROUNDS} x {burst_s:.1} s closed loop on {} connection(s): {} sent, {} ok, {} refused, {} errors, {} transport, {} wrong; p99 from send {burst_p99:.2} ms",
        spec.burst_connections,
        burst_tally.attempted,
        burst_tally.ok,
        burst_tally.refused,
        burst_tally.errors,
        burst_tally.transport,
        burst_tally.wrong
    );
    println!(
        "  correct answers per second: {}",
        rates.iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>().join(", ")
    );
    println!("  max_rps {max_rps:.1} req/s (the fast quartile of the bursts)");
    rep.detail("burst_rps", json_list(&rates));
    rep.detail("burst_p99_from_send_ms", burst_p99.to_string());
    // Rows a correct answer carries on average over the whole run,
    // times the rate: the rows per second the daemon sustains at max_rps.
    let ok = tally.ok + burst_tally.ok;
    let rows = nominal.rows_ok + bursts.iter().map(|b| b.rows_ok).sum::<u64>();
    let rows_per_s = max_rps * rows as f64 / ok.max(1) as f64;
    let rss = daemon.sample().hwm_mb;
    drop(daemon);

    let setups: Vec<(f64, f64)> = setups.iter().enumerate().map(|(i, &s)| (i as f64, s)).collect();
    rep.metric(
        "setup_s",
        "s",
        stats::median_of_part_means(&setups, setups.len() as f64, SETUP_PARTS),
    );
    rep.metric("p50_ms", "ms", p50);
    rep.detail("p99_ms", p99.to_string());
    rep.metric("max_rps", "1/s", max_rps);
    rep.metric("cpu_ms_per_req", "ms", cpu_ms_per_req);
    rep.metric("rows_per_s", "rows/s", rows_per_s);
    rep.metric("rss_mb", "MiB", rss);
    Ok(rep)
}

/// `v` with an infinite percentile (a failure landed on it) replaced
/// by the whole run's length, which is slower than any limit.
fn finite(v: f64, run_seconds: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        run_seconds * 1e3
    }
}

fn percentile_of(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    stats::percentile(&s, q)
}

fn json_list(v: &[f64]) -> String {
    format!("[{}]", v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", "))
}

fn counter(m: &MetricsBody, name: &str) -> u64 {
    m.process.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

/// Per-layer serve, cache and lookup figures of a traced window.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    rep: &mut Report,
    traffic: &Traffic,
    endpoints: &[&str],
    window: &StepRecord,
    m0: &MetricsBody,
    m1: &MetricsBody,
    p0: &ProcSample,
    p1: &ProcSample,
) {
    let tally = Tally::of(&window.outcomes());
    let requests = tally.attempted.max(1) as f64;
    rep.metric("serve.failed_frac", "ratio", tally.failed() as f64 / requests);
    rep.metric(
        "serve.ctx_switches_per_req",
        "count",
        (p1.ctx_switches - p0.ctx_switches) as f64 / requests,
    );
    rep.metric("serve.syscalls_per_req", "count", (p1.syscalls - p0.syscalls) as f64 / requests);
    rep.metric("serve.threads", "count", p1.threads as f64);

    // Client send-to-done p50 per endpoint, against the daemon's
    // handler p50 for the same endpoint, weighted by requests.
    let mut outside = 0.0;
    let mut weight = 0.0;
    for name in inputs::ALL_ENDPOINTS {
        let e = endpoints.iter().position(|x| *x == name);
        let row = m1.serve.endpoints.iter().find(|r| r.endpoint == name);
        let (hp50, hp99) =
            row.map_or((0.0, 0.0), |r| (r.p50_micros as f64 / 1e3, r.p99_micros as f64 / 1e3));
        let served = e.map_or(0.0, |_| hp50);
        rep.metric(&format!("serve.{name}.handler_p50_ms"), "ms", served);
        rep.metric(&format!("serve.{name}.handler_p99_ms"), "ms", e.map_or(0.0, |_| hp99));
        let Some(e) = e else { continue };
        let client: Vec<f64> = window
            .ticks
            .iter()
            .filter(|t| t.template != usize::MAX && traffic.templates[t.template].endpoint == e)
            .filter(|t| matches!(t.outcome, Outcome::Ok(_)))
            .map(|t| (t.done - t.send) * 1e3)
            .collect();
        if !client.is_empty() {
            outside += (percentile_of(&client, 0.5) - hp50) * client.len() as f64;
            weight += client.len() as f64;
        }
    }
    rep.metric("serve.outside_handler_ms", "ms", outside / weight.max(1.0));
    // From connect until the request is written, on ticks that connected.
    let connects: Vec<f64> =
        window.ticks.iter().filter(|t| t.connected).map(|t| (t.sent - t.connect) * 1e3).collect();
    rep.metric(
        "serve.connect_ms",
        "ms",
        if connects.is_empty() { 0.0 } else { percentile_of(&connects, 0.5) },
    );

    let d = |name: &str| counter(m1, name).saturating_sub(counter(m0, name)) as f64;
    let plan = d("plan_cache_hits") / (d("plan_cache_hits") + d("plan_cache_misses")).max(1.0);
    rep.metric("cache.plan_hit_ratio", "ratio", plan);
    let tree_requests = window
        .ticks
        .iter()
        .filter(|t| t.template != usize::MAX)
        .filter(|t| {
            let name = endpoints[traffic.templates[t.template].endpoint];
            name == "classify" || name == "decode_tree"
        })
        .count() as f64;
    rep.metric("cache.tree_hit_ratio", "ratio", d("tree_cache_hits") / tree_requests.max(1.0));
    let direct = d("piece_lookup_direct");
    rep.metric(
        "transform.lookup_direct_ratio",
        "ratio",
        direct / (direct + d("piece_lookup_bsearch")).max(1.0),
    );
}
