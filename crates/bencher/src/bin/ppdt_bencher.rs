//! `ppdt-bencher` — open-loop load generation against the custodian
//! daemon, from a declarative experiment config.
//!
//! Two modes:
//!
//! * **Orchestrated** (`--ppdt PATH`): spawn the daemon(s) from the
//!   given `ppdt` binary (cluster size comes from the config's
//!   `nodes`), run the sweep, tear them down with SIGTERM.
//! * **Targeted** (`--target ADDR`, repeatable, or `targets` in the
//!   config): load an already-running daemon/cluster.
//!
//! Artifacts land in `--out-dir`: one `step_<k>_<rate>.csv` of
//! per-request records per rate step, plus `summary.json` with
//! per-step percentiles and the located overload knee. See
//! BENCHMARKS.md "Open-loop methodology" for how to read them.
//!
//! Usage:
//! `ppdt-bencher --config CFG.json --out-dir DIR (--ppdt PATH | --target ADDR...)
//!    [--daemon-arg ARG...]`

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use ppdt_bencher::orchestrate::{run_sweep, spawn_cluster};
use ppdt_bencher::ExperimentConfig;

struct Opts {
    config: PathBuf,
    out_dir: PathBuf,
    ppdt: Option<PathBuf>,
    targets: Vec<SocketAddr>,
    daemon_args: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ppdt-bencher --config CFG.json --out-dir DIR \
         (--ppdt PATH | --target HOST:PORT...) [--daemon-arg ARG...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut config = None;
    let mut out_dir = None;
    let mut ppdt = None;
    let mut targets = Vec::new();
    let mut daemon_args = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => config = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--out-dir" => out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--ppdt" => ppdt = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--target" => match it.next().and_then(|t| t.parse().ok()) {
                Some(t) => targets.push(t),
                None => usage(),
            },
            "--daemon-arg" => daemon_args.push(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let (Some(config), Some(out_dir)) = (config, out_dir) else { usage() };
    Opts { config, out_dir, ppdt, targets, daemon_args }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let text = match std::fs::read_to_string(&opts.config) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ppdt-bencher: read {}: {e}", opts.config.display());
            return ExitCode::FAILURE;
        }
    };
    let cfg = match ExperimentConfig::from_json(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ppdt-bencher: {}: {e}", opts.config.display());
            return ExitCode::FAILURE;
        }
    };

    // Resolve targets: explicit --target beats config targets beats
    // spawning our own cluster from --ppdt.
    let mut targets = opts.targets.clone();
    if targets.is_empty() {
        targets = cfg.targets.iter().map(|t| t.parse().expect("validated at parse")).collect();
    }
    let daemons = if targets.is_empty() {
        let Some(ppdt) = opts.ppdt.as_deref() else {
            eprintln!("ppdt-bencher: no targets: pass --target, config targets, or --ppdt");
            return ExitCode::FAILURE;
        };
        let scratch = opts.out_dir.join("keystores");
        match spawn_cluster(ppdt, &cfg, &scratch, &opts.daemon_args) {
            Ok(ds) => {
                targets = ds.iter().map(|d| d.addr).collect();
                eprintln!("ppdt-bencher: spawned {} daemon(s): {:?}", ds.len(), targets);
                ds
            }
            Err(e) => {
                eprintln!("ppdt-bencher: spawn daemons: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };

    let outcome = run_sweep(&cfg, &targets, &opts.out_dir);
    for d in daemons {
        if let Err(e) = d.stop() {
            eprintln!("ppdt-bencher: stop daemon: {e}");
        }
    }
    match outcome {
        Ok(o) => {
            match o.knee {
                Some(i) => println!(
                    "knee at step {i} ({} req/s offered): rejected={} p99={}us",
                    o.steps[i].offered_rate, o.steps[i].rejected, o.steps[i].p99_us
                ),
                None => println!("no knee within the swept rates"),
            }
            println!("summary: {}", o.summary_path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ppdt-bencher: sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}
