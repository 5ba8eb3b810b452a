//! # ppdt-cli
//!
//! The data-custodian command-line tool (binary name `ppdt`):
//!
//! ```text
//! ppdt stats  <data.csv>                      attribute statistics + release verdicts
//! ppdt encode <data.csv> --out D.csv --key K.json [--seed N]
//!             [--strategy maxmp|bp|none] [--w N] [--parallel]
//! ppdt decode-dataset <Dprime.csv> --key K.json --out orig.csv
//! ppdt mine   <data.csv> --out tree.json [--criterion gini|entropy]
//!             [--min-leaf N]                  (stand-in for the miner)
//! ppdt decode-tree <tree.json> --key K.json --data orig.csv
//!             --out decoded.json [--render]
//! ppdt report <tree.json> --data <data.csv>   rules, importance, rendering
//! ppdt audit  <data.csv> [--key K.json] [--json report.json]
//!             [--trials N] [--seed N]
//! ppdt serve  --keystore-dir <dir> [--addr 127.0.0.1:7070]
//!             [--workers N] [--queue N] [--deadline-ms N]
//!             [--max-body-mb N] [--debug-endpoints] ...
//! ```
//!
//! `ppdt help` prints every subcommand with exactly the flags it
//! accepts; any other flag is a usage error.
//!
//! The command surface mirrors the custodian workflow of the paper's
//! introduction: encode, ship, receive the mined tree, decode with the
//! key, and audit what a hacker could recover. All subcommand logic
//! lives in this library so it is unit-testable; `main.rs` only
//! forwards `std::env::args`.
//!
//! Every subcommand also accepts `--metrics`, which enables the
//! [`ppdt_obs`] instrumentation layer and prints phase timings,
//! pipeline counters, and peak RSS to stderr on exit (the metric
//! catalogue is documented in `BENCHMARKS.md`).
//!
//! ## Exit codes
//!
//! Failures carry a typed [`PpdtError`]; `main` maps its
//! [`ErrorCategory`](ppdt_error::ErrorCategory) to a stable exit code
//! via [`ErrorCategory::exit_code`](ppdt_error::ErrorCategory::exit_code),
//! and `ppdt serve` maps the same categories to HTTP statuses via
//! [`ErrorCategory::http_status`](ppdt_error::ErrorCategory::http_status)
//! (see the README error-code table):
//!
//! | exit | HTTP | meaning |
//! |-----:|-----:|---------|
//! | 1 | 500 | internal error (a bug) |
//! | 2 | 400 | usage / invalid configuration |
//! | 3 | 500 | I/O failure |
//! | 4 | 409 | corrupt key (audit failure, key/data mismatch) |
//! | 5 | 424 | incompatible mined tree |
//! | 6 | 422 | corrupt dataset |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ppdt_attack::HackerProfile;
use ppdt_data::{csv, AttrId, AttrStats, Dataset};
use ppdt_error::PpdtError;
use ppdt_risk::{domain_risk_trial, try_run_trials, DomainScenario};
use ppdt_transform::{
    BreakpointStrategy, CompiledKey, EncodeConfig, Encoder, Severity, TransformKey,
};
use ppdt_tree::{DecisionTree, SplitCriterion, ThresholdPolicy, TreeBuilder, TreeParams};

/// CLI failure: a typed [`PpdtError`] whose category determines the
/// process exit code. Rendered to stderr by `main`.
#[derive(Debug)]
pub struct CliError(pub PpdtError);

impl CliError {
    /// A usage error (exit code 2).
    fn usage(detail: impl Into<String>) -> Self {
        CliError(PpdtError::InvalidConfig { param: "usage".into(), detail: detail.into() })
    }

    /// The documented process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        self.0.category().exit_code()
    }

    /// The stable category name (`usage`, `io`, `corrupt_key`, ...).
    pub fn category_name(&self) -> &'static str {
        self.0.category().name()
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<PpdtError> for CliError {
    fn from(e: PpdtError) -> Self {
        CliError(e)
    }
}

impl From<csv::CsvError> for CliError {
    fn from(e: csv::CsvError) -> Self {
        CliError(e.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.into())
    }
}

/// One flag of a subcommand, as [`usage`] prints it.
#[derive(Clone, Copy, Debug)]
enum Flag {
    /// `--name VALUE`, without which the subcommand fails.
    Required(&'static str, &'static str),
    /// `[--name VALUE]`.
    Optional(&'static str, &'static str),
    /// `[--name VALUE]...`, which may be given more than once.
    Repeated(&'static str, &'static str),
    /// `[--name]`, which takes no value.
    Switch(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Required(name, _)
            | Flag::Optional(name, _)
            | Flag::Repeated(name, _)
            | Flag::Switch(name) => name,
        }
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flag::Required(name, value) => write!(f, "--{name} {value}"),
            Flag::Optional(name, value) => write!(f, "[--{name} {value}]"),
            Flag::Repeated(name, value) => write!(f, "[--{name} {value}]..."),
            Flag::Switch(name) => write!(f, "[--{name}]"),
        }
    }
}

/// Flags every subcommand accepts besides its own.
const GLOBAL_FLAGS: [Flag; 2] = [Flag::Switch("metrics"), Flag::Switch("lenient")];

/// A subcommand: its positional arguments and flags, as [`usage`]
/// prints them, and the function that runs it.
struct Command {
    name: &'static str,
    args: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), CliError>,
}

/// The strategy flags `encode` and the risk audit read through
/// `encode_config`.
const STRATEGY: Flag = Flag::Optional("strategy", "maxmp|bp|none");
const WIDTH: Flag = Flag::Optional("w", "N");

/// Every subcommand with exactly the flags it accepts.
const COMMANDS: [Command; 8] = {
    use Flag::{Optional as Opt, Repeated, Required as Req, Switch};
    [
        Command {
            name: "stats",
            args: "<data.csv>",
            flags: &[Opt("granularity", "X")],
            run: cmd_stats,
        },
        Command {
            name: "encode",
            args: "<data.csv>",
            flags: &[
                Req("out", "<Dprime.csv>"),
                Req("key", "<key.json>"),
                Opt("seed", "N"),
                STRATEGY,
                WIDTH,
                Switch("parallel"),
            ],
            run: cmd_encode,
        },
        Command {
            name: "decode-dataset",
            args: "<Dprime.csv>",
            flags: &[Req("key", "<key.json>"), Req("out", "<orig.csv>")],
            run: cmd_decode_dataset,
        },
        Command {
            name: "mine",
            args: "<data.csv>",
            flags: &[
                Req("out", "<tree.json>"),
                Opt("criterion", "gini|entropy"),
                Opt("min-leaf", "N"),
                Opt("mining-threads", "N"),
            ],
            run: cmd_mine,
        },
        Command {
            name: "decode-tree",
            args: "<tree.json>",
            flags: &[
                Req("key", "<key.json>"),
                Req("data", "<orig.csv>"),
                Req("out", "<decoded.json>"),
                Switch("render"),
            ],
            run: cmd_decode_tree,
        },
        Command {
            name: "report",
            args: "<tree.json>",
            flags: &[Req("data", "<data.csv>")],
            run: cmd_report,
        },
        Command {
            name: "audit",
            args: "<data.csv>",
            flags: &[
                Opt("key", "<key.json>"),
                Opt("json", "<report.json>"),
                Opt("trials", "N"),
                Opt("seed", "N"),
                STRATEGY,
                WIDTH,
            ],
            run: cmd_audit,
        },
        Command {
            name: "serve",
            args: "",
            flags: &[
                Req("keystore-dir", "<dir>"),
                Opt("addr", "127.0.0.1:7070"),
                Opt("workers", "N"),
                Opt("queue", "N"),
                Opt("deadline-ms", "N"),
                Opt("max-body-mb", "N"),
                Opt("keep-alive", "N"),
                Opt("idle-timeout", "SECS"),
                Opt("max-connections", "N"),
                Switch("debug-endpoints"),
                Repeated("peer", "HOST:PORT"),
                Opt("sync-interval-ms", "N"),
                Opt("tenant-max-keys", "N"),
                Opt("tenant-max-inflight", "N"),
            ],
            run: cmd_serve,
        },
    ]
};

/// Usage text: [`COMMANDS`], wrapped at 80 columns.
fn usage() -> String {
    let mut out = String::from("usage: ppdt <subcommand> [args]\n");
    for c in &COMMANDS {
        let mut line = format!("  {}", c.name);
        let words = c.args.split_whitespace().map(str::to_owned);
        for word in words.chain(c.flags.iter().map(Flag::to_string)) {
            if line.len() + 1 + word.len() > 80 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(c.name.len() + 2);
            }
            line.push(' ');
            line.push_str(&word);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(
        "any subcommand accepts --metrics (phase timings + counters on stderr)\n\
         and --lenient (skip malformed CSV rows instead of failing)\n\
         exit codes: 1 internal, 2 usage, 3 io, 4 corrupt key, 5 incompatible tree, 6 corrupt data\n",
    );
    out
}

/// A parsed command line: positional arguments plus the flags given,
/// each with its value (`None` for a switch).
struct Args {
    positional: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `args` against the flags of `command` and
    /// [`GLOBAL_FLAGS`]. A flag not among them, or a flag that takes
    /// a value given without one, is a usage error; a switch never
    /// takes the next argument, so positionals may follow it.
    fn parse(args: &[String], command: &Command) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let Some(&flag) = command.flags.iter().chain(&GLOBAL_FLAGS).find(|f| f.name() == name)
            else {
                return Err(CliError::usage(format!(
                    "{} has no flag --{name}\n{}",
                    command.name,
                    usage()
                )));
            };
            let value = match flag {
                Flag::Switch(_) => None,
                _ => match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(CliError::usage(format!("--{name} needs a value"))),
                },
            };
            flags.push((flag.name(), value));
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Every value of a repeatable flag, in order.
    fn flag_all(&self, name: &str) -> Vec<&str> {
        self.flags.iter().filter(|(n, _)| *n == name).filter_map(|(_, v)| v.as_deref()).collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flag(name).ok_or_else(|| CliError::usage(format!("missing required --{name} <value>")))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError::usage(format!("--{name}: cannot parse {v:?}")))
            }
        }
    }
}

/// Entry point: dispatches a full argument vector (without `argv[0]`).
pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(usage()));
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        return Err(CliError::usage(format!("unknown subcommand {cmd:?}\n{}", usage())));
    };
    let a = Args::parse(rest, command)?;
    if a.has("metrics") {
        ppdt_obs::set_enabled(true);
    }
    let result = (command.run)(&a);
    if a.has("metrics") {
        print_metrics();
    }
    result
}

/// Renders the [`ppdt_obs`] snapshot to stderr (the `--metrics` flag).
fn print_metrics() {
    let snap = ppdt_obs::snapshot();
    eprintln!("-- metrics --");
    for p in &snap.phases {
        eprintln!("  phase {:>8}: {:>10.6}s over {} call(s)", p.name, p.seconds, p.calls);
    }
    for c in snap.counters.iter().filter(|c| c.value > 0) {
        eprintln!("  count {:>18}: {}", c.name, c.value);
    }
    if let Some(rss) = snap.peak_rss_bytes {
        eprintln!("  peak rss: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
    }
}

fn load_data(a: &Args) -> Result<Dataset, CliError> {
    let path = a
        .positional
        .first()
        .ok_or_else(|| CliError::usage(format!("missing input file\n{}", usage())))?;
    let opts = csv::CsvOptions { lenient: a.has("lenient") };
    let (d, skips) = csv::read_csv_opts(path, opts)?;
    if !skips.is_clean() {
        eprintln!("warning: skipped {} malformed row(s) of {path}", skips.total_skipped);
        for row in skips.skipped.iter().take(5) {
            eprintln!("  line {}: {}", row.line, row.reason);
        }
    }
    Ok(d)
}

fn cmd_stats(a: &Args) -> Result<(), CliError> {
    let d = load_data(a)?;
    let granularity: f64 = a.parsed("granularity", 1.0)?;
    println!(
        "{:>16} | {:>9} {:>9} {:>9} {:>8} {:>9} {:>7}",
        "attribute", "min", "max", "#distinct", "#discont", "#mono-pc", "%mono"
    );
    for s in AttrStats::compute_all(&d, granularity, 5) {
        println!(
            "{:>16} | {:>9} {:>9} {:>9} {:>8} {:>9} {:>6.1}%",
            d.schema().attr_name(s.attr),
            s.min,
            s.max,
            s.num_distinct,
            s.num_discontinuities,
            s.num_mono_pieces,
            100.0 * s.pct_mono_values,
        );
    }
    Ok(())
}

fn encode_config(a: &Args) -> Result<EncodeConfig, CliError> {
    let w: usize = a.parsed("w", 20)?;
    let strategy = match a.flag("strategy").unwrap_or("maxmp") {
        "maxmp" => BreakpointStrategy::ChooseMaxMP { w, min_piece_len: 5 },
        "bp" => BreakpointStrategy::ChooseBP { w },
        "none" => BreakpointStrategy::None,
        other => return Err(CliError::usage(format!("--strategy: unknown {other:?}"))),
    };
    Ok(EncodeConfig { strategy, ..Default::default() })
}

fn cmd_encode(a: &Args) -> Result<(), CliError> {
    let d = load_data(a)?;
    let out = a.required("out")?;
    let key_path = a.required("key")?;
    let seed: u64 = a.parsed("seed", 7)?;
    let config = encode_config(a)?;
    // Serial by default; `--parallel` resolves the pool via
    // PPDT_THREADS / available parallelism. The output is
    // bit-identical either way.
    let threads = if a.has("parallel") { 0 } else { 1 };
    let encoded = Encoder::new(config)
        .threads(threads)
        .verify(true)
        .encode(&mut StdRng::seed_from_u64(seed), &d)?;
    eprintln!("verified encode in {} attempt(s)", encoded.attempts);

    csv::write_csv(&encoded.dataset, out)?;
    encoded.key.save_json(key_path)?;
    eprintln!(
        "encoded {} tuples x {} attributes -> {out}; key -> {key_path}",
        d.num_rows(),
        d.num_attrs()
    );
    Ok(())
}

fn cmd_decode_dataset(a: &Args) -> Result<(), CliError> {
    let d_prime = load_data(a)?;
    let key = TransformKey::load_json(a.required("key")?)?;
    let out = a.required("out")?;
    // The compiled plan's batched decode_column path — bit-identical
    // to the interpreted decode (pinned by the compiled_equivalence
    // proptest) but without per-value piece dispatch.
    let d = CompiledKey::compile(&key)?.decode_dataset(&d_prime)?;
    csv::write_csv(&d, out)?;
    eprintln!("decoded {} tuples -> {out}", d.num_rows());
    Ok(())
}

fn cmd_mine(a: &Args) -> Result<(), CliError> {
    let d = load_data(a)?;
    let out = a.required("out")?;
    let criterion = match a.flag("criterion").unwrap_or("gini") {
        "gini" => SplitCriterion::Gini,
        "entropy" => SplitCriterion::Entropy,
        other => return Err(CliError::usage(format!("--criterion: unknown {other:?}"))),
    };
    let min_leaf: u32 = a.parsed("min-leaf", 1)?;
    // Worker threads for split search; the emitted tree is identical
    // at any count. Default: PPDT_THREADS, else hardware parallelism.
    let mining_threads = match a.flag("mining-threads") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                return Err(CliError::usage(format!(
                    "--mining-threads: expected a positive integer, got {v:?}"
                )))
            }
        },
    };
    let params = TreeParams { criterion, min_samples_leaf: min_leaf, ..Default::default() };
    let tree = TreeBuilder::new(params).with_threads(mining_threads).fit(&d);
    let json = serde_json::to_string_pretty(&tree)
        .map_err(|e| PpdtError::internal(format!("tree serialization: {e}")))?;
    std::fs::write(out, json)?;
    eprintln!("mined tree: {} leaves, depth {} -> {out}", tree.num_leaves(), tree.depth());
    Ok(())
}

fn load_tree(path: &str) -> Result<DecisionTree, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| PpdtError::io(path, e))?;
    let tree: DecisionTree = serde_json::from_str(&text).map_err(|e| {
        PpdtError::TreeIncompatible { detail: format!("cannot parse tree json {path}: {e}") }
    })?;
    Ok(tree)
}

fn cmd_decode_tree(a: &Args) -> Result<(), CliError> {
    let tree_path = a
        .positional
        .first()
        .ok_or_else(|| CliError::usage(format!("missing tree file\n{}", usage())))?;
    let tree = load_tree(tree_path)?;
    let key = TransformKey::load_json(a.required("key")?)?;
    let d = csv::read_csv(a.required("data")?)?;
    let out = a.required("out")?;
    tree.validate(Some(d.num_attrs()))?;
    let decoded = key.decode_tree(&tree, ThresholdPolicy::DataValue, &d)?;
    let json = serde_json::to_string_pretty(&decoded)
        .map_err(|e| PpdtError::internal(format!("tree serialization: {e}")))?;
    std::fs::write(out, json)?;
    if a.has("render") {
        println!("{}", decoded.render(Some(d.schema())));
    }
    eprintln!("decoded tree -> {out}");
    Ok(())
}

fn cmd_report(a: &Args) -> Result<(), CliError> {
    let tree_path = a
        .positional
        .first()
        .ok_or_else(|| CliError::usage(format!("missing tree file\n{}", usage())))?;
    let tree = load_tree(tree_path)?;
    let d = csv::read_csv(a.required("data")?)?;
    println!("tree: {} leaves, depth {}", tree.num_leaves(), tree.depth());
    println!("\n{}", tree.render(Some(d.schema())));
    println!("rules:\n{}", ppdt_tree::render_rules(&tree, Some(d.schema())));
    println!("feature importance:");
    for (attr, score) in ppdt_tree::importance_ranking(&tree, d.num_attrs()) {
        if score > 0.0 {
            println!("  {:>16}: {:.1}%", d.schema().attr_name(attr), 100.0 * score);
        }
    }
    println!("\ntraining accuracy on the supplied data: {:.1}%", 100.0 * tree.accuracy(&d));
    Ok(())
}

fn cmd_audit(a: &Args) -> Result<(), CliError> {
    let d = load_data(a)?;
    if let Some(key_path) = a.flag("key") {
        return audit_key_mode(a, &d, key_path);
    }
    let trials: usize = a.parsed("trials", 25)?;
    let seed: u64 = a.parsed("seed", 7)?;
    let config = encode_config(a)?;
    println!("{:>16} | {:>10} {:>10} {:>10}", "attribute", "ignorant", "expert", "insider");
    for attr in d.schema().attrs() {
        let risk = |profile: HackerProfile, salt: u64| -> Result<f64, CliError> {
            let scenario = DomainScenario::polyline(profile);
            let stats = try_run_trials(trials, seed ^ salt ^ (attr.index() as u64) << 8, |rng| {
                domain_risk_trial(rng, &d, attr, &config, &scenario)
            })?;
            Ok(stats.median)
        };
        println!(
            "{:>16} | {:>9.1}% {:>9.1}% {:>9.1}%",
            d.schema().attr_name(attr),
            100.0 * risk(HackerProfile::Ignorant, 1)?,
            100.0 * risk(HackerProfile::Expert, 2)?,
            100.0 * risk(HackerProfile::Insider, 3)?,
        );
    }
    let _ = AttrId(0);
    Ok(())
}

/// `ppdt audit <data.csv> --key K.json [--json report.json]`: the
/// structural key/dataset audit. Prints a human summary, optionally
/// writes the machine-readable [`ppdt_transform::AuditReport`], and
/// fails (exit code 4) when the audit finds errors.
fn audit_key_mode(a: &Args, d: &Dataset, key_path: &str) -> Result<(), CliError> {
    let key = TransformKey::load_json(key_path)?;
    let report = ppdt_transform::audit_key_against(&key, d);
    if let Some(json_path) = a.flag("json") {
        std::fs::write(json_path, report.to_json_pretty())
            .map_err(|e| PpdtError::io(json_path, e))?;
        eprintln!("audit report -> {json_path}");
    }
    println!(
        "audit of {key_path}: {} attribute(s), {} row(s): {} error(s), {} warning(s){}",
        report.attrs_checked,
        report.rows_checked.unwrap_or(0),
        report.errors,
        report.warnings,
        if report.truncated { " (findings truncated)" } else { "" },
    );
    for f in &report.findings {
        let sev = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        print!("  [{sev}] {}: {}", f.code, f.message);
        if let Some(attr) = f.attr {
            print!(" [attribute {attr}");
            if let Some(piece) = f.piece {
                print!(", piece {piece}");
            }
            if let Some(row) = f.row {
                print!(", row {row}");
            }
            print!("]");
        }
        println!();
    }
    if report.passed() {
        println!("audit passed");
        Ok(())
    } else {
        Err(CliError(
            report.first_error().unwrap_or_else(|| PpdtError::key_corrupt("audit failed")),
        ))
    }
}

/// `ppdt serve`: run the custodian daemon until SIGINT/SIGTERM, then
/// drain gracefully. Prints one parseable line to stdout once bound:
/// `ppdt-serve listening on <addr> ...` — scripts read the address
/// from it (`--addr 127.0.0.1:0` binds an OS-assigned port).
fn cmd_serve(a: &Args) -> Result<(), CliError> {
    let defaults = ppdt_serve::ServerConfig::default();
    let keystore_dir = a.required("keystore-dir")?;
    // A fixed port for an operator's daemon; the config's own `:0`
    // default picks a free one.
    let addr = a.flag("addr").unwrap_or("127.0.0.1:7070").to_string();
    let workers: usize = a.parsed("workers", defaults.workers)?;
    let queue: usize = a.parsed("queue", defaults.queue_capacity)?;
    let deadline_ms: u64 = a.parsed("deadline-ms", defaults.request_deadline.as_millis() as u64)?;
    let max_body_mb: usize = a.parsed("max-body-mb", defaults.max_body_bytes >> 20)?;
    // 0 disables keep-alive (every connection answers one request).
    let keep_alive: u64 = a.parsed("keep-alive", defaults.keep_alive_requests)?;
    let idle_timeout_s: u64 = a.parsed("idle-timeout", defaults.idle_timeout.as_secs().max(1))?;
    // Load generators want this adjustable: the accept-side cap is
    // what a high-concurrency open-loop sweep hits first.
    let max_connections: usize = a.parsed("max-connections", defaults.max_connections)?;
    // Cluster flags: each --peer is another daemon to replicate with.
    let peers: Vec<std::net::SocketAddr> = a
        .flag_all("peer")
        .into_iter()
        .map(|p| {
            p.parse()
                .map_err(|_| CliError::usage(format!("--peer: cannot parse {p:?} as HOST:PORT")))
        })
        .collect::<Result<_, _>>()?;
    let sync_interval_ms: u64 =
        a.parsed("sync-interval-ms", defaults.sync_interval.as_millis() as u64)?;
    if sync_interval_ms == 0 {
        return Err(CliError::usage("--sync-interval-ms must be at least 1"));
    }
    if a.has("sync-interval-ms") && peers.is_empty() {
        return Err(CliError::usage("--sync-interval-ms needs at least one --peer"));
    }
    // Tenant quotas: 0 (the default) disables enforcement.
    let tenant_max_keys: usize = a.parsed("tenant-max-keys", defaults.tenant_max_keys)?;
    let tenant_max_inflight: usize =
        a.parsed("tenant-max-inflight", defaults.tenant_max_inflight)?;
    if queue == 0 {
        return Err(CliError::usage("--queue must be at least 1"));
    }
    if deadline_ms == 0 {
        return Err(CliError::usage("--deadline-ms must be at least 1"));
    }
    if max_body_mb == 0 {
        return Err(CliError::usage("--max-body-mb must be at least 1"));
    }
    if idle_timeout_s == 0 {
        return Err(CliError::usage("--idle-timeout must be at least 1 second"));
    }
    if max_connections == 0 {
        return Err(CliError::usage("--max-connections must be at least 1"));
    }
    let cfg = ppdt_serve::ServerConfig {
        addr,
        workers,
        queue_capacity: queue,
        request_deadline: std::time::Duration::from_millis(deadline_ms),
        max_body_bytes: max_body_mb * 1024 * 1024,
        debug_endpoints: a.has("debug-endpoints"),
        keep_alive_requests: keep_alive,
        idle_timeout: std::time::Duration::from_secs(idle_timeout_s),
        max_connections,
        peers: peers.clone(),
        sync_interval: std::time::Duration::from_millis(sync_interval_ms),
        tenant_max_keys,
        tenant_max_inflight,
        ..defaults
    };
    let store = ppdt_serve::KeyStore::open(keystore_dir)?;
    ppdt_serve::signal::install();
    let server = ppdt_serve::Server::bind(cfg, store)?;
    println!(
        "ppdt-serve listening on {} (workers={}, queue={}, keystore={}, peers={})",
        server.addr(),
        server.workers(),
        queue,
        keystore_dir,
        peers.len()
    );
    // Scripts wait for the line above before sending requests.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run()?;
    eprintln!("ppdt-serve drained and stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdt_data::gen::figure1;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ppdt_cli_{name}_{}", std::process::id()))
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    #[test]
    fn args_parser_flags_and_positionals() {
        let encode = command("encode");
        let a = Args::parse(&s(&["--parallel", "in.csv", "--out", "x.csv", "--w", "12"]), encode)
            .unwrap();
        // A switch does not take the positional after it.
        assert_eq!(a.positional, vec!["in.csv"]);
        assert_eq!(a.flag("out"), Some("x.csv"));
        assert!(a.has("parallel"));
        assert_eq!(a.parsed::<usize>("w", 0).unwrap(), 12);
        assert_eq!(a.parsed::<usize>("seed", 9).unwrap(), 9);
        assert!(a.required("key").is_err());
        // Flags of another subcommand, misspellings and the global
        // switches.
        for bad in [["--min-leef", "3"], ["--plan-cahce", "0"], ["--render", "x"]] {
            let err = Args::parse(&s(&bad), encode).err().expect("unknown flag rejected");
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
        assert!(Args::parse(&s(&["--metrics", "--lenient"]), encode).unwrap().has("lenient"));
        // Repeatable flags: flag() sees the first, flag_all() all of
        // them, and a bare occurrence is an error not a silent drop.
        let serve = command("serve");
        let a = Args::parse(&s(&["--peer", "a:1", "--peer", "b:2"]), serve).unwrap();
        assert_eq!(a.flag("peer"), Some("a:1"));
        assert_eq!(a.flag_all("peer"), vec!["a:1", "b:2"]);
        assert_eq!(a.flag_all("addr"), Vec::<&str>::new());
        assert!(Args::parse(&s(&["--peer", "a:1", "--peer", "--metrics"]), serve).is_err());
        assert!(Args::parse(&s(&["--peer"]), serve).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&s(&["help"])).is_ok());
    }

    #[test]
    fn full_workflow_through_files() {
        // stats -> encode -> mine(D') -> decode-tree == mine(D)
        let d = figure1();
        let data_csv = tmp("data.csv");
        let dprime_csv = tmp("dprime.csv");
        let key_json = tmp("key.json");
        let tprime_json = tmp("tprime.json");
        let decoded_json = tmp("decoded.json");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();

        run(&s(&["stats", data_csv.to_str().unwrap()])).unwrap();
        run(&s(&[
            "encode",
            data_csv.to_str().unwrap(),
            "--out",
            dprime_csv.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
            "--seed",
            "9",
        ]))
        .unwrap();
        run(&s(&["mine", dprime_csv.to_str().unwrap(), "--out", tprime_json.to_str().unwrap()]))
            .unwrap();
        run(&s(&[
            "decode-tree",
            tprime_json.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
            "--data",
            data_csv.to_str().unwrap(),
            "--out",
            decoded_json.to_str().unwrap(),
        ]))
        .unwrap();

        run(&s(&["report", decoded_json.to_str().unwrap(), "--data", data_csv.to_str().unwrap()]))
            .unwrap();

        // The decoded tree equals direct mining.
        let decoded: DecisionTree =
            serde_json::from_str(&std::fs::read_to_string(&decoded_json).unwrap()).unwrap();
        let direct = TreeBuilder::default().fit(&d);
        assert!(ppdt_tree::trees_equal(&decoded, &direct));

        // decode-dataset restores the table (the class-name interning
        // order may relabel classes, so compare via CSV text).
        let restored_csv = tmp("restored.csv");
        run(&s(&[
            "decode-dataset",
            dprime_csv.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
            "--out",
            restored_csv.to_str().unwrap(),
        ]))
        .unwrap();
        let restored = ppdt_data::csv::read_csv(&restored_csv).unwrap();
        assert_eq!(restored.num_rows(), d.num_rows());
        for a in d.schema().attrs() {
            assert_eq!(restored.column(a), d.column(a), "attr {a}");
        }

        for p in [&data_csv, &dprime_csv, &key_json, &tprime_json, &decoded_json, &restored_csv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn parallel_encode_with_metrics_matches_serial() {
        let d = figure1();
        let data_csv = tmp("par.csv");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();
        let serial_out = tmp("par_serial.csv");
        let parallel_out = tmp("par_parallel.csv");
        let unverified_out = tmp("par_unverified.csv");
        let serial_key = tmp("par_serial_key.json");
        let parallel_key = tmp("par_parallel_key.json");
        let unverified_key = tmp("par_unverified_key.json");
        run(&s(&[
            "encode",
            data_csv.to_str().unwrap(),
            "--out",
            serial_out.to_str().unwrap(),
            "--key",
            serial_key.to_str().unwrap(),
            "--seed",
            "11",
        ]))
        .unwrap();
        // The switch before the positional must leave it positional.
        run(&s(&[
            "encode",
            "--parallel",
            data_csv.to_str().unwrap(),
            "--out",
            parallel_out.to_str().unwrap(),
            "--key",
            parallel_key.to_str().unwrap(),
            "--seed",
            "11",
            "--metrics",
        ]))
        .unwrap();
        // The CLI always verifies; for the all-monotone keys it draws
        // that changes no byte against an unverified encode.
        let encoded = Encoder::new(EncodeConfig::default())
            .encode(&mut StdRng::seed_from_u64(11), &csv::read_csv(&data_csv).unwrap())
            .unwrap();
        csv::write_csv(&encoded.dataset, &unverified_out).unwrap();
        encoded.key.save_json(&unverified_key).unwrap();
        for (outs, what) in [
            ([&serial_out, &parallel_out, &unverified_out], "D'"),
            ([&serial_key, &parallel_key, &unverified_key], "key"),
        ] {
            let bytes: Vec<Vec<u8>> = outs.iter().map(|p| std::fs::read(p).unwrap()).collect();
            assert_eq!(bytes[0], bytes[1], "serial vs parallel {what}");
            assert_eq!(bytes[0], bytes[2], "verified vs unverified {what}");
        }
        for p in [
            &data_csv,
            &serial_out,
            &parallel_out,
            &unverified_out,
            &serial_key,
            &parallel_key,
            &unverified_key,
        ] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn encode_requires_out_and_key() {
        let d = figure1();
        let data_csv = tmp("noargs.csv");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();
        let err = run(&s(&["encode", data_csv.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("--out"));
        assert_eq!(err.exit_code(), 2, "missing flags are usage errors");
        let _ = std::fs::remove_file(&data_csv);
    }

    #[test]
    fn bad_strategy_rejected() {
        let d = figure1();
        let data_csv = tmp("badstrat.csv");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();
        let err = run(&s(&[
            "encode",
            data_csv.to_str().unwrap(),
            "--out",
            "/tmp/x.csv",
            "--key",
            "/tmp/k.json",
            "--strategy",
            "bogus",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("strategy"));
        assert_eq!(err.exit_code(), 2);
        let _ = std::fs::remove_file(&data_csv);
    }

    #[test]
    fn missing_input_file_is_io_error() {
        let err = run(&s(&["stats", "/nonexistent/ppdt_cli.csv"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn lenient_flag_skips_bad_rows() {
        let path = tmp("lenient.csv");
        std::fs::write(
            &path,
            "a,class
1,x
bogus,y
2,y
",
        )
        .unwrap();
        // Strict parse fails with a corrupt-data exit code...
        let err = run(&s(&["stats", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        // ...lenient parse skips the bad row and proceeds.
        run(&s(&["stats", path.to_str().unwrap(), "--lenient"])).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn audit_detects_corrupted_key_with_structured_report() {
        let d = figure1();
        let data_csv = tmp("audit_data.csv");
        let dprime_csv = tmp("audit_dprime.csv");
        let key_json = tmp("audit_key.json");
        let report_json = tmp("audit_report.json");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();
        run(&s(&[
            "encode",
            data_csv.to_str().unwrap(),
            "--out",
            dprime_csv.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
            "--seed",
            "3",
        ]))
        .unwrap();

        // A sound key passes the audit.
        run(&s(&["audit", data_csv.to_str().unwrap(), "--key", key_json.to_str().unwrap()]))
            .unwrap();

        // A bit-rotted key fails with exit code 4 and a JSON report.
        // Flipping digits until the audit trips keeps the test robust
        // to which digit the seed lands on (some flips are harmless,
        // e.g. inside an unused domain tail).
        let good = std::fs::read_to_string(&key_json).unwrap();
        let mut failed = None;
        for seed in 0..40u64 {
            let bad = ppdt_data::corrupt::flip_ascii_digit(&good, seed);
            std::fs::write(&key_json, &bad).unwrap();
            let r = run(&s(&[
                "audit",
                data_csv.to_str().unwrap(),
                "--key",
                key_json.to_str().unwrap(),
                "--json",
                report_json.to_str().unwrap(),
            ]));
            if let Err(e) = r {
                failed = Some(e);
                break;
            }
        }
        let err = failed.expect("some digit flip should corrupt the key");
        assert_eq!(err.exit_code(), 4, "{err}");
        let report = std::fs::read_to_string(&report_json).unwrap();
        assert!(report.contains("\"findings\""), "structured report written: {report}");

        // A truncated key is caught at load time (corrupt key too).
        std::fs::write(&key_json, ppdt_data::corrupt::truncate_at(&good, 0.5)).unwrap();
        let err =
            run(&s(&["audit", data_csv.to_str().unwrap(), "--key", key_json.to_str().unwrap()]))
                .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");

        for p in [&data_csv, &dprime_csv, &key_json, &report_json] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn tampered_tree_is_an_incompatible_tree_error() {
        let d = figure1();
        let data_csv = tmp("tamper_data.csv");
        let dprime_csv = tmp("tamper_dprime.csv");
        let key_json = tmp("tamper_key.json");
        let tree_json = tmp("tamper_tree.json");
        let out_json = tmp("tamper_out.json");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();
        run(&s(&[
            "encode",
            data_csv.to_str().unwrap(),
            "--out",
            dprime_csv.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&["mine", dprime_csv.to_str().unwrap(), "--out", tree_json.to_str().unwrap()]))
            .unwrap();

        // Point the tree at an attribute the dataset does not have.
        let tree_text = std::fs::read_to_string(&tree_json).unwrap();
        let mut tree: DecisionTree = serde_json::from_str(&tree_text).unwrap();
        if let ppdt_tree::Node::Split { attr, .. } = &mut tree.root {
            *attr = AttrId(99);
        }
        std::fs::write(&tree_json, serde_json::to_string_pretty(&tree).unwrap()).unwrap();
        let err = run(&s(&[
            "decode-tree",
            tree_json.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
            "--data",
            data_csv.to_str().unwrap(),
            "--out",
            out_json.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");

        // Unparseable tree JSON is also an incompatible-tree failure.
        std::fs::write(&tree_json, "{not json").unwrap();
        let err = run(&s(&[
            "decode-tree",
            tree_json.to_str().unwrap(),
            "--key",
            key_json.to_str().unwrap(),
            "--data",
            data_csv.to_str().unwrap(),
            "--out",
            out_json.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");

        for p in [&data_csv, &dprime_csv, &key_json, &tree_json, &out_json] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn serve_flags_are_validated() {
        // Missing keystore dir is a usage error before anything binds.
        let err = run(&s(&["serve"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("keystore-dir"), "{err}");
        // Degenerate pool/queue/body settings are rejected up front.
        for bad in [
            ["--queue", "0"],
            ["--deadline-ms", "0"],
            ["--max-body-mb", "0"],
            ["--workers", "x"],
            ["--idle-timeout", "0"],
            ["--max-connections", "0"],
            ["--keep-alive", "x"],
            ["--peer", "not-an-address"],
            ["--sync-interval-ms", "0"],
            // --sync-interval-ms without any --peer is meaningless.
            ["--sync-interval-ms", "500"],
            // The cache capacities are constants, not flags.
            ["--plan-cache", "0"],
            ["--tree-cache", "0"],
        ] {
            let mut args = s(&["serve", "--keystore-dir", "/tmp/ppdt-serve-flags"]);
            args.extend(s(&bad));
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
        // An unbindable address surfaces as an I/O failure, not a panic.
        let err = run(&s(&[
            "serve",
            "--keystore-dir",
            "/tmp/ppdt-serve-flags",
            "--addr",
            "256.256.256.256:1",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        let _ = std::fs::remove_dir_all("/tmp/ppdt-serve-flags");
    }

    #[test]
    fn retry_flags_are_validated() {
        // The draw bound is a constant and every encode is verified,
        // so no flag sets either: these are unknown flags.
        let d = figure1();
        let data_csv = tmp("retry.csv");
        ppdt_data::csv::write_csv(&d, &data_csv).unwrap();
        for bad in [&["--attempts", "0"][..], &["--on-exhaust", "fallback"], &["--verify"]] {
            let mut args = s(&[
                "encode",
                data_csv.to_str().unwrap(),
                "--out",
                "/tmp/ppdt_retry_out.csv",
                "--key",
                "/tmp/ppdt_retry_key.json",
            ]);
            args.extend(s(bad));
            let err = run(&args).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
        let _ = std::fs::remove_file(&data_csv);
    }
}
