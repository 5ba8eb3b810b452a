//! The repository benchmark: three workloads of the ppdt custodian,
//! every answer checked, end-to-end metrics by name and unit, and a
//! separate traced run that reports per-layer metrics.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-churn|custodian-batch> --seed N
//!           --seconds S --trace <0|1> --ppdt PATH --work DIR
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`
//! beside this package for the workloads and the metric map.

mod batch;
mod daemon;
mod inputs;
mod layers;
mod load;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Longest a run may take; past it the watchdog kills the daemons and
/// exits with code 3, so a stuck run never outlives its time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// End-to-end metrics and their units: every untraced run prints all.
/// The p99 is printed with its sample count but not gated: on a shared
/// 2-vCPU guest it follows the hypervisor's steal more than the program
/// (see README.md).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("max_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("rows_per_s", "rows/s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics and their units: every traced run prints all.
const PER_LAYER: [(&str, &str); 54] = [
    ("serve.outside_handler_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.ctx_switches_per_req", "count"),
    ("serve.threads", "count"),
    ("serve.syscalls_per_req", "count"),
    ("serve.failed_frac", "ratio"),
    ("serve.encode.handler_p50_ms", "ms"),
    ("serve.encode.handler_p99_ms", "ms"),
    ("serve.classify.handler_p50_ms", "ms"),
    ("serve.classify.handler_p99_ms", "ms"),
    ("serve.list_keys.handler_p50_ms", "ms"),
    ("serve.list_keys.handler_p99_ms", "ms"),
    ("serve.decode_tree.handler_p50_ms", "ms"),
    ("serve.decode_tree.handler_p99_ms", "ms"),
    ("serve.rekey.handler_p50_ms", "ms"),
    ("serve.rekey.handler_p99_ms", "ms"),
    ("serve.store_key.handler_p50_ms", "ms"),
    ("serve.store_key.handler_p99_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.json_decode_us", "us"),
    ("serve.json_encode_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.handle_residual_us", "us"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.tree_hit_ratio", "ratio"),
    ("cache.plan_lookup_hit_us", "us"),
    ("cache.plan_lookup_miss_ms", "ms"),
    ("cache.tree_key_us", "us"),
    ("keystore.stamp_us", "us"),
    ("keystore.get_cold_ms", "ms"),
    ("keystore.put_ms", "ms"),
    ("keystore.list_ms", "ms"),
    ("transform.encode_value_ns", "ns"),
    ("transform.encode_column_ns", "ns"),
    ("transform.lookup_direct_ratio", "ratio"),
    ("transform.rekey_ns", "ns"),
    ("transform.compile_ms", "ms"),
    ("transform.audit_ms", "ms"),
    ("transform.draw_ms", "ms"),
    ("transform.verify_attempts", "count"),
    ("transform.decode_tree_ms", "ms"),
    ("transform.pieces_drawn", "count"),
    ("transform.boundaries_scanned", "count"),
    ("transform.draw_retries", "count"),
    ("tree.fit_ms", "ms"),
    ("tree.fit_presorted_ms", "ms"),
    ("tree.split_scan_rows", "count"),
    ("tree.predict_ns", "ns"),
    ("tree.validate_us", "us"),
    ("data.parse_csv_ms", "ms"),
    ("data.to_csv_ms", "ms"),
    ("trace.p50_ms", "ms"),
    ("trace.p99_ms", "ms"),
    ("trace.cpu_ms_per_req", "ms"),
];

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// One custodian, persistent connections, hot caches.
    ServeHot,
    /// Many custodians, one-shot connections, a working set larger
    /// than the caches, stores beside reads.
    ServeChurn,
    /// The offline outsourcing round, closed loop, in process.
    CustodianBatch,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-churn" => Some(Workload::ServeChurn),
            "custodian-batch" => Some(Workload::CustodianBatch),
            _ => None,
        }
    }
}

/// One invocation's settings.
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or timed run (end-to-end).
    pub trace: bool,
    /// The `ppdt` binary.
    pub ppdt: PathBuf,
    /// Scratch directory, removed at the end.
    pub work: PathBuf,
}

/// What a run measured.
pub struct Report {
    workload: Workload,
    trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, wrong answers included.
    pub failed: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// (name, unit, value).
    pub metrics: Vec<(String, String, f64)>,
    /// Raw values for the steadiness study: (key, JSON value).
    pub details: Vec<(String, String)>,
    /// Request or round spans.
    pub spans: Vec<stats::Span>,
    /// Spans of the in-process probes.
    pub probe_spans: Vec<stats::Span>,
}

impl Report {
    /// An empty report for `run`.
    pub fn new(run: &Run) -> Report {
        Report {
            workload: run.workload,
            trace: run.trace,
            attempted: 0,
            failed: 0,
            wrong: 0,
            metrics: Vec::new(),
            details: Vec::new(),
            spans: Vec::new(),
            probe_spans: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push((name.to_string(), unit.to_string(), value));
    }

    /// Records a raw value (already JSON) for the `detail` line.
    pub fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }
}

/// A fixed CPU kernel owned by the benchmark: sort 2^18 pseudo-random
/// integers (2 MiB, so memory contention shows as well as core speed),
/// best of five, in ms. Timed before and after each run so a slow host
/// phase can be told apart from a slower program; it never scales a
/// metric.
fn cpu_probe() -> f64 {
    let mut v = vec![0u64; 1 << 18];
    (0..5)
        .map(|_| {
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for e in v.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *e = x;
            }
            let t = Instant::now();
            v.sort_unstable();
            std::hint::black_box(&v);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <serve-hot|serve-churn|custodian-batch> --seed N --seconds S --trace <0|1> --ppdt PATH --work DIR"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let workload = flag("--workload")
        .and_then(|w| Workload::parse(&w))
        .unwrap_or_else(|| usage("--workload must be serve-hot, serve-churn or custodian-batch"));
    let seed = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed needs an integer"));
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s >= 1.0)
        .unwrap_or_else(|| usage("--seconds needs a number of at least 1"));
    let trace = match flag("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let ppdt = PathBuf::from(flag("--ppdt").unwrap_or_else(|| usage("--ppdt is required")));
    let work = PathBuf::from(flag("--work").unwrap_or_else(|| usage("--work is required")));
    let run = Run { workload, seed, seconds, trace, ppdt, work };
    println!(
        "perfbench {:?} seed {seed}: {seconds} s, {}, {} CPUs",
        workload,
        if trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = std::fs::remove_dir_all(&run.work);
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        usage(&format!("cannot create {}: {e}", run.work.display()));
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        daemon::kill_all();
        eprintln!("perfbench: the run took longer than {} s; stopped", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let started = Instant::now();
    let steal0 = daemon::steal_jiffies();
    let before = cpu_probe();
    let result = match workload {
        Workload::ServeHot => serve::run(&run, false),
        Workload::ServeChurn => serve::run(&run, true),
        Workload::CustodianBatch => batch::run(&run),
    };
    let after = cpu_probe();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let wall_jiffies = started.elapsed().as_secs_f64() * 100.0 * cpus;
    let steal = daemon::steal_jiffies().saturating_sub(steal0) as f64 / wall_jiffies.max(1.0);
    let _ = std::fs::remove_dir_all(&run.work);
    let mut rep = match result {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("cpu probe (fixed sort, best of 5): {before:.3} ms before, {after:.3} ms after");
    println!(
        "host: {:.1}% of this guest's CPU time was stolen by the hypervisor during the run{}",
        steal * 100.0,
        if steal > 0.05 {
            " - a disturbed run; its figures reflect the host as much as the program"
        } else {
            ""
        }
    );
    rep.detail("host_steal_share", steal.to_string());
    rep.detail("cpu_probe_before_ms", before.to_string());
    rep.detail("cpu_probe_after_ms", after.to_string());
    rep.detail("run_wall_s", started.elapsed().as_secs_f64().to_string());
    if rep.trace {
        write_trace(&run, &rep);
    }
    finish(rep);
}

/// Writes every span of a traced run, one JSON object per line, with
/// its self time, and prints each span name's median self time.
fn write_trace(run: &Run, rep: &Report) {
    let dir = run.work.with_file_name("traces");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{:?}-seed{}.jsonl", run.workload, run.seed).to_lowercase());
    let mut out = String::new();
    let mut by_name: Vec<(&str, Vec<f64>)> = Vec::new();
    for spans in [&rep.spans, &rep.probe_spans] {
        let selfs = stats::self_times(spans);
        for (s, st) in spans.iter().zip(&selfs) {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                s.name,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                st
            ));
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => v.push(*st as f64 / 1e3),
                None => by_name.push((s.name, vec![*st as f64 / 1e3])),
            }
        }
    }
    let _ = std::fs::write(&path, out);
    println!(
        "trace: {} spans written to {}",
        rep.spans.len() + rep.probe_spans.len(),
        path.display()
    );
    for (name, v) in &by_name {
        println!(
            "  span {name:<28} n = {:>6}  median self {:>12.1} us  total self {:>12.1} ms",
            v.len(),
            stats::median(v),
            v.iter().sum::<f64>() / 1e3
        );
    }
}

/// Prints the metrics and the result line; fills per-layer metrics a
/// workload has no such work for with 0 and says so.
fn finish(mut rep: Report) {
    let table: &[(&str, &str)] = if rep.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit, _) in &rep.metrics {
        match table.iter().find(|(n, _)| n == name) {
            Some((_, u)) if u == unit => {}
            _ => {
                eprintln!("perfbench: internal error: metric {name} ({unit}) is not in the benchmark's table");
                std::process::exit(1);
            }
        }
    }
    let missing: Vec<&str> = table
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !rep.metrics.iter().any(|(m, _, _)| m == n))
        .collect();
    if !rep.trace && !missing.is_empty() {
        eprintln!("perfbench: internal error: end-to-end metrics missing: {missing:?}");
        std::process::exit(1);
    }
    if !missing.is_empty() {
        println!("no such work in {:?}, reported as 0: {}", rep.workload, missing.join(", "));
        for n in &missing {
            let unit = table.iter().find(|(m, _)| m == n).expect("from the table").1;
            rep.metric(n, unit, 0.0);
        }
    }
    for (name, unit, value) in &rep.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let details: Vec<String> = rep.details.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("detail {{{}}}", details.join(", "));
    let metrics: Vec<String> = table
        .iter()
        .map(|(n, u)| {
            let v = rep.metrics.iter().find(|(m, _, _)| m == n).expect("filled above").2;
            format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(v))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.wrong == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
