"""Strategy × backend benchmark runner for the PARK engine.

Runs the scaling workload families used by the pytest benchmark suites
(``bench_scaling_db``, ``bench_scaling_rules``, ``bench_eca``) under all
three Γ evaluation strategies and **both matcher backends** (the slot
``compiled`` register machine and the ``interpreted`` reference
backtracker), and writes ``BENCH_park.json`` with wall time, round
counts, and firings/sec per (workload, strategy, backend), plus two
derived speedups: each delta strategy over naive (on the default
compiled backend) and compiled over interpreted per strategy.  While
timing, the runner also asserts that every (strategy, backend)
combination and the ``facts=True`` run stay bit-identical (atoms,
blocked set, rounds, restarts, firings), so a regression shows up as a
hard failure rather than a silently wrong speedup.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--repeats N] [--out PATH] [--quick] [--metrics]

``--quick`` runs a reduced workload list with one repeat — the CI smoke
configuration.

``--metrics`` additionally runs every (strategy, backend) combination
once with a telemetry registry attached and embeds per-phase wall-time
breakdowns plus the semantic counter fingerprint into the report.  The
fingerprint (rounds, epochs, restarts, conflicts, firings, blocked — see
``repro.obs.metrics.SEMANTIC_COUNTERS``) is asserted identical across
all combinations, and a disabled-telemetry overhead check asserts that
runs made *after* metered and audited runs are no slower than runs made
before them — the median of per-round paired ratios over at least 40
interleaved rounds (tolerance ``REPRO_OVERHEAD_TOLERANCE``, default 3%) —
catching a leaked metrics registry, a leaked decision trail, and
creeping guard costs on the null path.  The same interleave times the
independence sanitizer (``repro.testing.sanitize``) against a
facts-enabled run with it off, gating a clean run's sanitizer overhead
under the same tolerance.  It also writes two
CI-uploadable artifacts next to the report: a Prometheus text snapshot
(``<out stem>.prom``) and a CRC-framed decision-trail file
(``<out stem>.audit``) that ``repro audit`` can inspect directly.
"""

import argparse
import json
import os
import statistics
import sys
import time

from repro.engine.match import clear_compile_cache, set_matcher_backend
from repro.obs import Metrics
from repro.obs import audit as _audit
from repro.obs import metrics as _obs
from repro.testing import sanitize as _sanitize
from repro.obs.audit import AuditLog, DecisionTrail
from repro.obs.export import write_prometheus
from repro.obs.profile import PHASES
from repro.workloads import (
    conflict_cascade,
    deactivation_batch,
    payroll_cleanup,
    propositional_chain,
    relational_reachability,
    transitive_closure,
)

STRATEGIES = ("naive", "seminaive", "incremental")
BACKENDS = ("compiled", "interpreted")


def _workloads(quick=False):
    """(name, workload) pairs — the upper ends of each suite's sweep."""
    if quick:
        return [
            ("tc-40", transitive_closure(40, seed=11)),
            ("reach-100", relational_reachability(100, fanout=2)),
            ("chain-200", propositional_chain(200)),
            ("batch-80", deactivation_batch(400, 80, seed=2)),
        ]
    return [
        ("tc-40", transitive_closure(40, seed=11)),
        ("tc-80", transitive_closure(80, seed=11)),
        ("reach-100", relational_reachability(100, fanout=2)),
        ("reach-200", relational_reachability(200, fanout=2)),
        ("hr-800", payroll_cleanup(800, inactive_fraction=0.2, seed=3)),
        ("cascade-16", conflict_cascade(16)),
        ("chain-200", propositional_chain(200)),
        ("batch-80", deactivation_batch(400, 80, seed=2)),
        ("batch-320", deactivation_batch(400, 320, seed=2)),
    ]


def _fingerprint(result):
    return (
        result.atoms,
        result.blocked,
        result.stats.rounds,
        result.stats.restarts,
        result.stats.firings_total,
    )


def _time_workload(workload, strategy, backend, repeats):
    set_matcher_backend(backend)
    clear_compile_cache()
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = workload.run(evaluation=strategy)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _time_facts_run(workload, repeats):
    """Best-of-N for the default configuration with static facts enabled.

    ``facts=True`` makes the engine analyze the program at run start and
    take every static fast path it can prove sound (conflict-scan skip,
    auto-seminaive, dead-rule pruning); the caller asserts the result
    fingerprint stayed identical.
    """
    set_matcher_backend("compiled")
    clear_compile_cache()
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = workload.run(evaluation="naive", facts=True)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else None


def _metered_run(workload, strategy, backend):
    """One run with a fresh registry attached; returns its Metrics."""
    set_matcher_backend(backend)
    clear_compile_cache()
    metrics = Metrics()
    workload.run(evaluation=strategy, metrics=metrics)
    return metrics


def _workload_telemetry(name, workload):
    """Phase breakdowns and the cross-combination counter fingerprint.

    Runs every (strategy, backend) combination once with telemetry on.
    The semantic fingerprint must be identical on all of them — the
    counters it covers describe the PARK computation, not the machinery —
    so any divergence is a correctness failure, not a perf artifact.
    """
    fingerprints = {}
    phases = {}
    counters = {}
    for strategy in STRATEGIES:
        for backend in BACKENDS:
            metrics = _metered_run(workload, strategy, backend)
            fingerprints[(strategy, backend)] = metrics.fingerprint()
            if backend == "compiled":
                breakdown = {}
                for phase, _label in PHASES:
                    entry = metrics.timers.get(phase)
                    if entry is not None:
                        breakdown[phase] = {
                            "calls": entry[0],
                            "seconds": round(entry[1], 6),
                        }
                phases[strategy] = breakdown
                counters[strategy] = dict(sorted(metrics.counters.items()))
    baseline = fingerprints[("naive", "compiled")]
    for key, fingerprint in fingerprints.items():
        if fingerprint != baseline:
            raise AssertionError(
                "telemetry fingerprint diverged on workload %s: %s/%s got %r,"
                " naive/compiled got %r"
                % (name, key[0], key[1], fingerprint, baseline)
            )
    return {
        "fingerprint": [[key, value] for key, value in baseline],
        "phases": phases,
        "counters": counters,
    }


#: Workloads the disabled-overhead check times (the matcher-bound ones).
OVERHEAD_WORKLOADS = ("tc-40", "reach-100")


#: Interleaved rounds per overhead-check workload (at least).  On a
#: 2-vCPU VM whose speed flips between two states at sub-second scale,
#: the median paired ratio of tc-40 and reach-100 ranged 0.97–1.04 over
#: five checks at 40 rounds, against 0.98–1.16 at 20.
OVERHEAD_ROUNDS = 40


def _ratio_summary(ratios):
    """Median, quartiles and range of per-round paired ratios."""
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "median": round(median, 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
        "min": round(min(ratios), 4),
        "max": round(max(ratios), 4),
    }


def _installed_registries():
    """The process-wide metrics, decision-trail and sanitizer globals."""
    return (_obs.ACTIVE, _audit.ACTIVE, _sanitize.ACTIVE)


def _overhead_check(workloads, repeats, tolerance, verbose=True):
    """Assert the null-telemetry path stays fast after metered runs.

    For each matcher-bound workload: run at least ``OVERHEAD_ROUNDS``
    interleaved rounds of disabled, metered, audited, again-disabled,
    facts and sanitized-facts runs (incremental/compiled — the hottest
    configuration).  Each round yields paired ratios ``after_i/before_i``
    and ``sanitized_i/facts_i`` whose two sides ran close together, so a
    slow machine phase mostly lands on both sides of a pair instead of on
    one side of a best-of-N comparison; the gate is the median of those
    ratios, which must stay under ``1 + tolerance``.  The report records
    each ratio's quartiles and range.  A registry left installed after a
    metered, audited or sanitized run (which would slow every later run,
    ``before`` included, and so hide from a paired ratio) is caught
    directly: every round asserts the three module globals are restored.
    """
    checks = {}
    rounds = max(repeats, OVERHEAD_ROUNDS)
    by_name = dict(workloads)
    for name in OVERHEAD_WORKLOADS:
        workload = by_name.get(name)
        if workload is None:
            continue
        set_matcher_backend("compiled")
        clear_compile_cache()

        def timed(**options):
            start = time.perf_counter()
            workload.run(evaluation="incremental", **options)
            return time.perf_counter() - start

        timed()  # warm the compile caches outside the measurement
        trail = DecisionTrail()
        samples = {
            key: []
            for key in ("before", "enabled", "audited", "facts", "sanitized", "after")
        }
        installed = _installed_registries()
        for _ in range(rounds):
            samples["before"].append(timed())
            samples["enabled"].append(timed(metrics=Metrics()))
            samples["audited"].append(timed(audit=trail))
            samples["after"].append(timed())
            # Sanitizer samples ride the same interleave: a facts-enabled
            # run with the sanitizer off, then the same run with it on.
            samples["facts"].append(timed(facts=True))
            previous = _sanitize.set_active(_sanitize.IndependenceSanitizer())
            try:
                samples["sanitized"].append(timed(facts=True))
            finally:
                _sanitize.set_active(previous)
            if _installed_registries() != installed:
                raise AssertionError(
                    "a metered, audited or sanitized run on %s left its "
                    "registry installed: %r" % (name, _installed_registries())
                )

        def paired(numerator, denominator):
            return _ratio_summary(
                [n / d for n, d in zip(samples[numerator], samples[denominator])]
            )

        disabled = paired("after", "before")
        sanitize = paired("sanitized", "facts")
        enabled = paired("enabled", "before")
        audited = paired("audited", "before")
        ratio = disabled["median"]
        sanitize_ratio = sanitize["median"]
        medians = {key: statistics.median(values) for key, values in samples.items()}
        entry = {
            "rounds": rounds,
            "disabled_before_s": round(medians["before"], 6),
            "disabled_after_s": round(medians["after"], 6),
            "enabled_s": round(medians["enabled"], 6),
            "audited_s": round(medians["audited"], 6),
            "facts_s": round(medians["facts"], 6),
            "sanitized_s": round(medians["sanitized"], 6),
            "disabled_ratio": ratio,
            "enabled_overhead": enabled["median"],
            "audited_overhead": audited["median"],
            "sanitize_overhead": sanitize_ratio,
            "disabled_ratio_spread": disabled,
            "sanitize_ratio_spread": sanitize,
            "tolerance": tolerance,
        }
        checks[name] = entry
        if verbose:
            print(
                "%-12s disabled %8.4fs -> %8.4fs after metered runs "
                "(median paired ratio %.3f, IQR %.3f-%.3f, tolerance %.2f); "
                "enabled %.2fx; audited %.2fx; sanitized %.2fx vs facts "
                "(IQR %.3f-%.3f) over %d rounds"
                % (
                    name,
                    medians["before"],
                    medians["after"],
                    ratio,
                    disabled["q1"],
                    disabled["q3"],
                    1.0 + tolerance,
                    enabled["median"],
                    audited["median"],
                    sanitize_ratio,
                    sanitize["q1"],
                    sanitize["q3"],
                    rounds,
                )
            )
        if ratio > 1.0 + tolerance:
            raise AssertionError(
                "disabled-telemetry path slowed down by %.1f%% on %s "
                "(tolerance %.0f%%): an active registry or decision "
                "trail leaked, or the null-telemetry fast path regressed"
                % ((ratio - 1.0) * 100, name, tolerance * 100)
            )
        if sanitize_ratio > 1.0 + tolerance:
            raise AssertionError(
                "independence sanitizer added %.1f%% to a clean run on %s "
                "(tolerance %.0f%%): the per-round certificate check is "
                "no longer cheap when nothing is violated"
                % ((sanitize_ratio - 1.0) * 100, name, tolerance * 100)
            )
    return checks


def _telemetry_artifacts(out, verbose=True):
    """Write the CI-uploadable telemetry artifacts next to the report.

    ``<out stem>.prom`` — Prometheus text-format snapshot of a metered
    run (the same registry the phase breakdowns come from).
    ``<out stem>.audit`` — the decision trail of a conflict-bearing run,
    in the CRC-framed format the :class:`~repro.active.activedb`
    sidecar uses, so ``repro audit verify``/``show``/``inspect`` work
    on the artifact unchanged.
    """
    base = os.path.splitext(out)[0]
    set_matcher_backend("compiled")
    clear_compile_cache()
    metrics = Metrics()
    trail = DecisionTrail()
    conflict_cascade(8).run(
        evaluation="incremental", metrics=metrics, audit=trail
    )
    prom_path = base + ".prom"
    write_prometheus(metrics, prom_path)
    audit_path = base + ".audit"
    if os.path.exists(audit_path):
        os.remove(audit_path)
    AuditLog(audit_path).append(1, trail)
    if verbose:
        print("wrote %s and %s" % (prom_path, audit_path))
    return {"prometheus": prom_path, "audit": audit_path}


def run(repeats=3, out="BENCH_park.json", verbose=True, quick=False,
        metrics=False, overhead_tolerance=None):
    if overhead_tolerance is None:
        overhead_tolerance = float(
            os.environ.get("REPRO_OVERHEAD_TOLERANCE") or 0.03
        )
    report = {
        "repeats": repeats,
        "quick": quick,
        "metrics": metrics,
        "strategies": list(STRATEGIES),
        "backends": list(BACKENDS),
        "workloads": {},
    }
    workloads = _workloads(quick=quick)
    try:
        for name, workload in workloads:
            entry = {}
            fingerprints = {}
            for strategy in STRATEGIES:
                cell = {}
                for backend in BACKENDS:
                    seconds, result = _time_workload(
                        workload, strategy, backend, repeats
                    )
                    fingerprints[(strategy, backend)] = _fingerprint(result)
                    cell[backend] = {
                        "wall_time_s": round(seconds, 6),
                        "rounds": result.stats.rounds,
                        "restarts": result.stats.restarts,
                        "firings_total": result.stats.firings_total,
                        "firings_per_s": round(
                            result.stats.firings_total / seconds, 1
                        )
                        if seconds > 0
                        else None,
                    }
                cell["backend_speedup"] = round(
                    cell["interpreted"]["wall_time_s"]
                    / cell["compiled"]["wall_time_s"],
                    2,
                )
                entry[strategy] = cell
            baseline = fingerprints[("naive", "compiled")]
            for key, fingerprint in fingerprints.items():
                if fingerprint != baseline:
                    raise AssertionError(
                        "%s/%s diverged from naive/compiled on workload %s"
                        % (key[0], key[1], name)
                    )
            for strategy in STRATEGIES[1:]:
                entry[strategy]["speedup_vs_naive"] = round(
                    entry["naive"]["compiled"]["wall_time_s"]
                    / entry[strategy]["compiled"]["wall_time_s"],
                    2,
                )
            entry["backend_speedup_geomean"] = round(
                _geomean(
                    [entry[s]["backend_speedup"] for s in STRATEGIES]
                ),
                2,
            )
            facts_seconds, facts_result = _time_facts_run(workload, repeats)
            if _fingerprint(facts_result) != baseline:
                raise AssertionError(
                    "facts-enabled run diverged from naive/compiled on "
                    "workload %s" % name
                )
            entry["facts"] = {
                "wall_time_s": round(facts_seconds, 6),
                "speedup_vs_naive": round(
                    entry["naive"]["compiled"]["wall_time_s"] / facts_seconds,
                    2,
                ),
            }
            if metrics:
                entry["telemetry"] = _workload_telemetry(name, workload)
            report["workloads"][name] = entry
            if verbose:
                print(
                    "%-12s naive %8.4fs   seminaive %8.4fs (%.2fx)   "
                    "incremental %8.4fs (%.2fx)   facts %8.4fs (%.2fx)   "
                    "compiled/interpreted %.2fx"
                    % (
                        name,
                        entry["naive"]["compiled"]["wall_time_s"],
                        entry["seminaive"]["compiled"]["wall_time_s"],
                        entry["seminaive"]["speedup_vs_naive"],
                        entry["incremental"]["compiled"]["wall_time_s"],
                        entry["incremental"]["speedup_vs_naive"],
                        entry["facts"]["wall_time_s"],
                        entry["facts"]["speedup_vs_naive"],
                        entry["backend_speedup_geomean"],
                    )
                )
        if metrics:
            report["telemetry_overhead"] = _overhead_check(
                workloads, repeats, overhead_tolerance, verbose=verbose
            )
            report["artifacts"] = _telemetry_artifacts(out, verbose=verbose)
    finally:
        set_matcher_backend("compiled")
        clear_compile_cache()
    doubled = [
        name
        for name, entry in report["workloads"].items()
        if entry["incremental"]["speedup_vs_naive"] >= 2.0
    ]
    report["incremental_2x_workloads"] = doubled
    accelerated = [
        name
        for name, entry in report["workloads"].items()
        if entry["backend_speedup_geomean"] >= 1.5
    ]
    report["compiled_1_5x_workloads"] = accelerated
    facts_wins = [
        name
        for name, entry in report["workloads"].items()
        if entry["facts"]["speedup_vs_naive"] >= 1.2
    ]
    report["facts_accelerated_workloads"] = facts_wins
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if verbose:
        print(
            "incremental >= 2x on %d/%d workloads: %s"
            % (len(doubled), len(report["workloads"]), ", ".join(doubled))
        )
        print(
            "compiled >= 1.5x interpreted on %d/%d workloads: %s"
            % (
                len(accelerated),
                len(report["workloads"]),
                ", ".join(accelerated),
            )
        )
        print(
            "static facts >= 1.2x naive on %d/%d workloads: %s"
            % (
                len(facts_wins),
                len(report["workloads"]),
                ", ".join(facts_wins),
            )
        )
        print("wrote %s" % out)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_park.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced workload list, one repeat (CI smoke)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="embed phase breakdowns + counter fingerprints, assert the "
        "fingerprint identical across combinations, run the "
        "disabled-telemetry overhead check, and write the Prometheus + "
        "decision-trail artifacts next to --out",
    )
    args = parser.parse_args(argv)
    if args.quick and args.repeats == parser.get_default("repeats"):
        args.repeats = 1
    run(repeats=args.repeats, out=args.out, quick=args.quick,
        metrics=args.metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
