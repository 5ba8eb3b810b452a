#!/usr/bin/env python3
"""Smoke-test the open-loop bencher end to end.

Usage:
    bencher_smoke.py PPDT_BIN BENCHER_BIN

Runs one short low-rate open-loop step with ``ppdt-bencher``
orchestrating its own daemon (spawn, seed, sweep, tear down), then
asserts the whole reporting chain is sound:

* the bencher exits 0 and the daemon it spawned is gone afterwards;
* ``summary.json`` is a well-formed openloop_schema_version-1 document
  with exactly the configured rate steps;
* the achieved rate is within ``RATE_TOLERANCE`` of the offered rate —
  at 40 req/s even a single-core box must keep up, so missing the
  offered rate means the scheduler (not the server) is broken;
* nothing was dropped: every scheduled tick produced a CSV record, no
  transport errors, no non-2xx statuses at this trivial load.

Exits non-zero with a diagnostic on any failure. Used by check.sh.
"""

import json
import os
import subprocess
import sys
import tempfile


RATE = 40.0
DURATION_SECS = 3.0
RATE_TOLERANCE = 0.25

CONFIG = {
    "name": "smoke",
    "seed": 7,
    "scale": 0.001,
    "mix": [
        {"endpoint": "encode", "weight": 4},
        {"endpoint": "list_keys", "weight": 1},
    ],
    "rows_per_request": 16,
    "rates": [RATE],
    "duration_secs": DURATION_SECS,
    "concurrency": 2,
    "connection": "keepalive",
    "max_attempts": 1,
}

CSV_HEADER = ("seq,endpoint,sched_us,wait_us,latency_us,status,bytes,"
              "attempts,retry_wait_us")


def fail(msg):
    sys.exit(f"bencher smoke FAILED: {msg}")


def run(ppdt, bencher, tmp):
    cfg_path = os.path.join(tmp, "smoke.json")
    out_dir = os.path.join(tmp, "out")
    with open(cfg_path, "w") as fh:
        json.dump(CONFIG, fh)
    proc = subprocess.run(
        [bencher, "--config", cfg_path, "--out-dir", out_dir,
         "--ppdt", ppdt],
        capture_output=True, text=True, timeout=120)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"ppdt-bencher exited {proc.returncode}")

    leftover = subprocess.run(
        ["pgrep", "-f", f"^{ppdt} serve"], capture_output=True, text=True)
    if leftover.stdout.strip():
        fail(f"daemon leaked after the run (pids {leftover.stdout.split()})")

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if summary.get("openloop_schema_version") != 1:
        fail("summary.json is not an openloop_schema_version-1 document")
    steps = summary.get("steps", [])
    if len(steps) != len(CONFIG["rates"]):
        fail(f"expected {len(CONFIG['rates'])} rate steps, got {len(steps)}")
    step = steps[0]

    expected = int(RATE * DURATION_SECS)
    if step["requests"] != expected:
        fail(f"open-loop schedule dropped ticks: {step['requests']} records "
             f"for {expected} scheduled requests")
    if step["ok"] != expected:
        fail(f"non-2xx outcomes at trivial load: ok={step['ok']}, "
             f"rejected={step['rejected']}, "
             f"transport={step['transport_errors']}, "
             f"other={step['other_errors']}")
    achieved, offered = step["achieved_rate"], step["offered_rate"]
    if abs(achieved - offered) > RATE_TOLERANCE * offered:
        fail(f"achieved rate {achieved:.1f}/s outside "
             f"{RATE_TOLERANCE:.0%} of offered {offered:g}/s")
    if step["p99_us"] <= 0 or step["p99_us"] < step["p50_us"]:
        fail(f"nonsensical percentiles: p50={step['p50_us']} "
             f"p99={step['p99_us']}")

    csvs = [n for n in os.listdir(out_dir)
            if n.startswith("step_") and n.endswith(".csv")]
    if len(csvs) != 1:
        fail(f"expected one per-request CSV, found {csvs}")
    with open(os.path.join(out_dir, csvs[0])) as fh:
        lines = fh.read().splitlines()
    if lines[0] != CSV_HEADER:
        fail(f"CSV header mismatch: {lines[0]!r}")
    if len(lines) - 1 != expected:
        fail(f"CSV holds {len(lines) - 1} records, want {expected}")

    print(f"bencher smoke ok: {step['requests']} requests at "
          f"{achieved:.1f}/{offered:g} req/s, p50 {step['p50_us']} us, "
          f"p99 {step['p99_us']} us, CSV and summary well-formed")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip())
    ppdt, bencher = map(os.path.abspath, argv)
    for b in (ppdt, bencher):
        if not os.access(b, os.X_OK):
            sys.exit(f"{b}: not an executable")
    with tempfile.TemporaryDirectory() as tmp:
        run(ppdt, bencher, tmp)


if __name__ == "__main__":
    main(sys.argv[1:])
