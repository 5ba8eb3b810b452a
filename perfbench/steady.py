#!/usr/bin/env python3
"""Steadiness study and tracing overhead for the repository benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, keeps every run's raw values, and prints for each end-to-end
metric its median, quartiles and spread (distance between the first
and third quartile, as a share of the median), beside the metric's
bound. With --compare it also holds each median against the same
workload's median in an earlier study (its --out file): a median worse
by more than the bound fails. With --traced it then makes one traced
run per workload and prints the tracing overhead: each traced
end-to-end value against the median of the untraced runs. Exits 1 when
a spread or a median moved past its bound.

Run from the root of a checkout:

    python3 perfbench/steady.py --seeds 10 --out first.json
    python3 perfbench/steady.py --seeds 10 --first-seed 11 --compare first.json
    python3 perfbench/steady.py --workloads serve-churn --seeds 5 --traced
"""

import argparse
import json
import math
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = next((json.loads(l[len("detail "):]) for l in lines
                   if l.startswith("detail ")), {})
    return {"seed": seed, "trace": trace, "result": result, "detail": detail}


def save(path, runs):
    """Writes the runs so far, so a stopped study keeps them."""
    if path:
        with open(path, "w") as f:
            json.dump(runs, f, indent=1)


def spread(values):
    """Median, quartiles and their distance as a share of the median
    (infinite when the median is 0)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare", help="an earlier study's --out file")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.load(open(a.compare)) if a.compare else []
    runs = []
    ok = True
    for w in names:
        rs = []
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            r = run(bench["command"], w, seed, bench["run_seconds"], 0)
            rs.append(r)
            save(a.out, runs + [dict(x, workload=w) for x in rs])
            res = r["result"]
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        runs += [dict(r, workload=w) for r in rs]
        print(f"\n{w}: {len(rs)} runs")
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rs]
            med, q1, q3, sp = spread(vals)
            bound = bounds[m["name"]]
            verdict = "ok" if sp <= bound else "TOO NOISY"
            ok &= sp <= bound
            third = " (< bound/3)" if sp < bound / 3 else ""
            print(f"  {m['name']:<16} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:6.1%} bound {bound:.0%} {verdict}{third}")
            before = [r["result"]["metrics"][m["name"]]["value"] for r in earlier
                      if r["workload"] == w and r["trace"] == 0]
            if before:
                first = statistics.median(before)
                worse = (med - first if better[m["name"]] == "lower" else first - med) / first \
                    if first else math.inf
                ok &= worse <= bound
                print(f"  {'':<16} earlier median {first:<14.6g} worse by {worse:6.1%} "
                      f"{'ok' if worse <= bound else 'MOVED PAST ITS BOUND'}")
        keys = sorted({k for r in rs for k, v in r["detail"].items()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)})
        for k in keys:
            vals = [r["detail"][k] for r in rs if k in r["detail"]]
            if len(vals) >= 4 and statistics.median(vals) != 0:
                med, q1, q3, sp = spread(vals)
                print(f"  detail {k:<34} median {med:<12.6g} spread {sp:6.1%}")
        if a.traced:
            t = run(bench["command"], w, a.first_seed, bench["run_seconds"], 1)
            runs.append(dict(t, workload=w))
            save(a.out, runs)
            tm = t["result"]["metrics"]
            print(f"  tracing overhead on {w} (traced value / untraced median):")
            for name in ("p50_ms", "p99_ms", "cpu_ms_per_req"):
                # p99 is not gated, so the untraced runs carry it in
                # their detail line.
                med = statistics.median(r["result"]["metrics"][name]["value"]
                                        if name in r["result"]["metrics"] else r["detail"][name]
                                        for r in rs)
                print(f"    {name:<16} {tm['trace.' + name]['value']:.6g} / {med:.6g} "
                      f"= {tm['trace.' + name]['value'] / med:.3f}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
