"""Repeat the benchmark across seeds and record its baseline.

For each workload, runs ``run.py`` once per seed (untraced) and reports
every end-to-end metric's median, quartiles and spread — the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them — next to the bound
``BENCHMARK.json`` fixes for it.  Then it makes two traced runs of one
seed and checks that they agree exactly on every counter, the final-state
digest and the engine fingerprint, and that the commit ledger adds up.

Usage, from the repository root::

    python3 commitbench/baseline.py --runs 10                 # all workloads
    python3 commitbench/baseline.py --runs 5 --workload hr-payroll
    python3 commitbench/baseline.py --runs 10 --write commitbench/BASELINE.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
#: The traced runs' seed; the untraced runs use seeds 1..runs.
TRACE_SEED = 1


def _run(workload, seed, seconds, trace, report, trace_out=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--report", report]
    if trace_out:
        command += ["--trace-out", trace_out]
    start = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=600)
    wall = time.perf_counter() - start
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, completed.returncode))
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(report, encoding="utf-8") as handle:
        details = json.load(handle)
    return result, details, wall


def spread_of(values):
    """``(q1, median, q3, (q3 - q1) / median)`` with ``statistics.quantiles``."""
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return q1, middle, q3, (q3 - q1) / middle if middle else float("inf")


def _environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
    }


def _determinism(first, second):
    """Names of the exact-count fields on which two traced runs differ."""
    return [key for key in ("digest", "fingerprint", "commit_counters", "counters")
            if first[key] != second[key]]


def measure(workload, spec, runs, work_dir, log):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values = {name: [] for name in bounds}
    walls, failed, attempted = [], 0, 0
    samples = sizes = None
    for seed in range(1, runs + 1):
        report = os.path.join(work_dir, "%s-%d.json" % (workload, seed))
        result, details, wall = _run(workload, seed, seconds, 0, report)
        walls.append(wall)
        failed += result["failed"]
        attempted += result["attempted"]
        samples, sizes = details["details"]["samples"], details["sizes"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        log("%s seed %d: %.1f s wall, %d/%d checks failed" % (
            workload, seed, wall, result["failed"], result["attempted"]))
    end_to_end = {}
    for name, series in values.items():
        q1, middle, q3, spread = spread_of(series)
        end_to_end[name] = {
            "unit": units[name], "median": middle, "q1": q1, "q3": q3,
            "spread": spread, "bound": bounds[name],
            "within_bound": spread <= bounds[name],
            "within_third_of_bound": spread < bounds[name] / 3,
            "values": series,
        }
        log("  %-26s median %-12.6g spread %.3f (bound %.2f)" % (
            name, middle, spread, bounds[name]))

    traced = []
    for index in range(2):
        report = os.path.join(work_dir, "%s-trace%d.json" % (workload, index))
        artifact_path = os.path.join(work_dir, "%s-trace%d.spans.json" % (workload, index))
        result, details, wall = _run(workload, TRACE_SEED, seconds, 1, report, artifact_path)
        failed += result["failed"]
        attempted += result["attempted"]
        with open(artifact_path, encoding="utf-8") as handle:
            artifact = json.load(handle)
        traced.append((result, artifact, wall))
        log("%s traced run %d: %.1f s wall" % (workload, index, wall))
    differing = _determinism(traced[0][1], traced[1][1])
    ledger = traced[0][1]["ledger_ns"]
    adds_up = sum(ledger.values()) == traced[0][1]["commit_span_ns"]
    log("%s traced runs: exact counts %s%s, ledger adds up %s, unattributed share %.4f" % (
        workload, not differing, " (differ: %s)" % differing if differing else "", adds_up,
        traced[0][0]["metrics"]["active.unattributed_share"]["value"]))
    per_layer = {}
    for name, entry in traced[0][0]["metrics"].items():
        pair = [t[0]["metrics"][name]["value"] for t in traced]
        per_layer[name] = {"unit": entry["unit"], "median": statistics.median(pair),
                           "values": pair}
    return {
        "sizes": sizes,
        "samples": samples,
        "runs": runs,
        "seeds": [1, runs],
        "wall_s": {"median": statistics.median(walls), "max": max(walls)},
        "error_rate": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced_seed": TRACE_SEED,
        "determinism": {
            "exact": not differing,
            "differing": differing,
            "digest": traced[0][1]["digest"],
            "fingerprint": traced[0][1]["fingerprint"],
            "ledger_adds_up": adds_up,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    parser.add_argument("--write", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    def log(line):
        print(line, flush=True)

    baseline = {"environment": _environment(), "run_seconds": spec["run_seconds"],
                "closed_loop_clients": 1, "workloads": {}}
    work_dir = os.path.join(ROOT, ".commitbench_out", "baseline")
    os.makedirs(work_dir, exist_ok=True)
    for workload in workloads:
        entry = measure(workload, spec, args.runs, work_dir, log)
        entry["why"] = why[workload]
        baseline["workloads"][workload] = entry
    ok = all(
        e["determinism"]["exact"] and e["determinism"]["ledger_adds_up"]
        and e["error_rate"] == 0
        and all(m["within_bound"] for m in e["end_to_end"].values())
        for e in baseline["workloads"].values()
    )
    baseline["accepted"] = ok
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
    log("exact, correct and every spread within its bound: %s" % ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
