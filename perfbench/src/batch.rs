//! `custodian-batch`: the custodian's offline outsourcing round, run
//! back to back in this process through the library's public entry
//! points at their default thread counts.

use std::time::Instant;

use ppdt_data::{csv, Dataset};
use ppdt_transform::{CompiledKey, EncodeConfig, Encoder, TransformKey};
use ppdt_tree::{trees_equal, DecisionTree, ThresholdPolicy};
use rand::Rng;

use crate::daemon::ProcSample;
use crate::inputs;
use crate::layers::{self, Probe};
use crate::stats::{self, Span};
use crate::{Report, Run};

/// Share of the real covertype's 581,012 rows: 29,050 rows.
pub const SCALE: f64 = 0.05;
/// `setup_s` is the median over this many equal parts of the run of
/// the mean parse time in each part (see
/// [`stats::median_of_part_means`]): on a 2-vCPU KVM guest memory speed
/// switched between a fast and a slow phase for seconds at a time, and
/// single parses took about 20 or 33 ms with it.
const SETUP_PARTS: usize = 4;

/// One round's results: its key, `T'`, whether both checks held, and
/// the verified encoder's attempts.
struct Round {
    key: TransformKey,
    tree: DecisionTree,
    correct: bool,
    attempts: usize,
}

/// One outsourcing round on `d` with the key drawn from `(seed, i)`:
/// verified encode, the miner's fit on `D'`, decode and the Theorem 2
/// check, then compile and encode the held-out table and check that
/// it decodes back exactly. Each public call is a span under `root`.
fn round(
    seed: u64,
    i: u64,
    d: &Dataset,
    direct: &DecisionTree,
    held: &Dataset,
    spans: &mut Vec<Span>,
    t0: Instant,
) -> Result<Round, String> {
    let root = spans.len();
    let now = || (Instant::now() - t0).as_nanos() as u64;
    spans.push(Span { name: "round", id: i, parent: None, start_ns: now(), end_ns: 0 });
    let call = |spans: &mut Vec<Span>, name: &'static str, start: u64| {
        spans.push(Span { name, id: i, parent: Some(root), start_ns: start, end_ns: now() });
    };
    let s = now();
    let enc = Encoder::new(EncodeConfig::default())
        .verify(true)
        .encode(&mut inputs::rng(seed, 10_000 + i), d)
        .map_err(|e| format!("round {i}: verified encode: {e}"))?;
    call(spans, "transform.encode_verified", s);
    let s = now();
    let t_prime = inputs::miner().fit_presorted(&enc.dataset);
    call(spans, "tree.fit_presorted", s);
    let s = now();
    let decoded = enc.key.decode_tree(&t_prime, ThresholdPolicy::DataValue, d);
    call(spans, "transform.decode_tree", s);
    let theorem2 = decoded.as_ref().is_ok_and(|t| trees_equal(t, direct));
    let s = now();
    let plan = CompiledKey::compile(&enc.key).map_err(|e| format!("round {i}: compile: {e}"))?;
    call(spans, "transform.compile", s);
    let s = now();
    let encoded = inputs::encode_table(&plan, held);
    call(spans, "transform.encode_column", s);
    let s = now();
    let mut col = Vec::new();
    let mut exact = true;
    for a in held.schema().attrs() {
        exact &= plan.decode_column(a, encoded.column(a), &mut col).is_ok()
            && col.iter().zip(held.column(a)).all(|(x, y)| x.to_bits() == y.to_bits());
    }
    call(spans, "transform.decode_column", s);
    spans[root].end_ns = now();
    Ok(Round { key: enc.key, tree: t_prime, correct: theorem2 && exact, attempts: enc.attempts })
}

/// Whether `a` and `b` hold the same table: attribute names, values
/// bit for bit, and each row's class by name (a parse numbers classes
/// in order of first appearance).
fn same_table(a: &Dataset, b: &Dataset) -> bool {
    let (sa, sb) = (a.schema(), b.schema());
    a.num_rows() == b.num_rows()
        && sa.num_attrs() == sb.num_attrs()
        && sa.attrs().all(|x| {
            sa.attr_name(x) == sb.attr_name(x)
                && a.column(x).iter().zip(b.column(x)).all(|(u, v)| u.to_bits() == v.to_bits())
        })
        && a.labels().iter().zip(b.labels()).all(|(&u, &v)| sa.class_name(u) == sb.class_name(v))
}

/// Runs `custodian-batch`.
pub fn run(run: &Run) -> Result<Report, String> {
    let table = inputs::table(run.seed, 10, SCALE);
    let text = csv::to_csv(&table);
    // The set-up is `parse_csv` of the table. It runs once before the
    // rounds, which use its result, and again after every round, so
    // `setup_s` spans the run's host phases as the round figures do.
    // Every parse must give back the generated table.
    let t_run = Instant::now();
    let mut parses: Vec<(f64, f64)> = Vec::new();
    let parse = |parses: &mut Vec<(f64, f64)>| -> Result<Dataset, String> {
        let at = t_run.elapsed().as_secs_f64();
        let t = Instant::now();
        let d = csv::parse_csv(&text).map_err(|e| format!("parse: {e}"))?;
        parses.push((at, t.elapsed().as_secs_f64()));
        if !same_table(&d, &table) {
            return Err("parse_csv did not give back the generated table".into());
        }
        Ok(d)
    };
    let d = parse(&mut parses)?;
    // The held-out table: rows of `d` drawn with replacement, so every
    // value lies in the key's recorded domain and decodes exactly.
    let mut r = inputs::rng(run.seed, 11);
    let rows: Vec<usize> = (0..d.num_rows()).map(|_| r.gen_range(0..d.num_rows())).collect();
    let held = d.with_columns(
        d.schema().attrs().map(|a| rows.iter().map(|&i| d.value(i, a)).collect()).collect(),
    );
    let direct = inputs::miner().fit_presorted(&d);

    let mut rep = Report::new(run);
    let t0 = Instant::now();
    let mut spans = Vec::new();
    // Process CPU over the rounds, the parses between them left out.
    let mut cpu = 0.0;
    let mut times = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let budget = if run.trace { run.seconds / 2.0 } else { run.seconds };
    // Seconds spent in rounds, the parses between them left out.
    let mut elapsed = 0.0;
    while elapsed < budget {
        let cpu0 = ProcSample::of("/proc/self").cpu_ms;
        let t = Instant::now();
        let rd = round(run.seed, rounds.len() as u64, &d, &direct, &held, &mut spans, t0)?;
        let secs = t.elapsed().as_secs_f64();
        cpu += ProcSample::of("/proc/self").cpu_ms - cpu0;
        elapsed += secs;
        times.push(secs * 1e3);
        if !run.trace {
            parse(&mut parses)?;
        }
        rep.attempted += 1;
        if !rd.correct {
            rep.failed += 1;
            rep.wrong += 1;
        }
        // Keep the last few rounds only: their keys feed the probes.
        if rounds.len() >= 8 {
            rounds.remove(0);
        }
        rounds.push(rd);
    }
    let n = times.len();
    let mut sorted = times.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = stats::percentile(&sorted, 0.5);
    let p99 = stats::percentile(&sorted, 0.99);
    let rows_per_s = (d.num_rows() * n) as f64 / elapsed;
    println!(
        "{n} rounds of {} rows in {elapsed:.2} s: round p50 {p50:.1} ms, p99 {p99:.1} ms (n = {n}, {} beyond p99), {} failed",
        d.num_rows(),
        stats::beyond(n, 0.99),
        rep.failed
    );
    for (name, q) in
        [("p10", 0.10), ("p45", 0.45), ("p50", 0.5), ("p55", 0.55), ("p90", 0.9), ("p99", 0.99)]
    {
        rep.detail(&format!("round_{name}_ms"), stats::percentile(&sorted, q).to_string());
    }
    let setup_s = stats::median_of_part_means(&parses, t_run.elapsed().as_secs_f64(), SETUP_PARTS);
    rep.detail("setup_s_all", format!("{:?}", parses.iter().map(|p| p.1).collect::<Vec<_>>()));
    rep.detail("rounds", n.to_string());
    let attempts =
        rounds.iter().map(|r| r.attempts).sum::<usize>() as f64 / rounds.len().max(1) as f64;

    if run.trace {
        rep.metric("trace.p50_ms", "ms", p50);
        rep.metric("trace.p99_ms", "ms", p99);
        rep.metric("trace.cpu_ms_per_req", "ms", cpu / n as f64);
        rep.metric("transform.verify_attempts", "count", attempts);
        rep.spans = spans;
        let last = rounds.pop().expect("at least one round");
        let other = rounds.pop().map_or_else(
            || {
                Encoder::new(EncodeConfig::default())
                    .encode(&mut inputs::rng(run.seed, 12), &d)
                    .expect("draw")
                    .key
            },
            |r| r.key,
        );
        let mut new_keys: Vec<TransformKey> = rounds.into_iter().map(|r| r.key).collect();
        if new_keys.is_empty() {
            new_keys.push(
                Encoder::new(EncodeConfig::default())
                    .encode(&mut inputs::rng(run.seed, 13), &d)
                    .expect("draw")
                    .key,
            );
        }
        let dir = run.work.join("probe-store");
        let probe = Probe {
            tenant: ppdt_serve::Tenant::Default,
            table: d,
            key: last.key,
            tree: last.tree,
            other,
            stored: Vec::new(),
            new_keys,
            requests: Vec::new(),
            list_dir: dir.clone(),
            dir,
        };
        layers::run_probes(&mut rep, &probe, run)?;
        return Ok(rep);
    }

    rep.metric("setup_s", "s", setup_s);
    rep.metric("p50_ms", "ms", p50);
    rep.detail("p99_ms", p99.to_string());
    rep.metric("max_rps", "1/s", n as f64 / elapsed);
    rep.metric("cpu_ms_per_req", "ms", cpu / n as f64);
    rep.metric("rows_per_s", "rows/s", rows_per_s);
    rep.metric("rss_mb", "MiB", ProcSample::of("/proc/self").hwm_mb);
    Ok(rep)
}
