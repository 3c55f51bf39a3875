"""Commit-path benchmark for ``repro.active.ActiveDatabase``.

One client drives the public ``ActiveDatabase`` API in a closed loop, one
process at a time and with no worker threads: it opens a transaction,
stages the seeded updates, commits, then sends the reads that follow the
commit, and checks the commit's delta and every read's answer against the
workload's plain-Python model (``workloads.py``).  Every run does fixed
work: the commit count is a function of ``--seconds`` and the workload
alone, never of how fast the machine is, so two runs of one seed commit
the same transactions and grow the database identically.

Usage, from the repository root::

    python3 commitbench/run.py --workload eca-ledger --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  ``--trace 0`` measures the end-to-end
metrics (listed in ``END_TO_END``); ``--trace 1`` makes a separate
traced run that wraps each layer's public entry points (``spans.py``)
and reports the per-layer ledger (``PER_LAYER``), writing its spans,
counters and final-state digest to ``--trace-out``.

The untraced run makes ``PASSES`` identical passes, one after another,
each in a fresh child process: cold set-up (timed after the imports),
the stream with its reads, then recovery of a fixed journal (the first
``RECOVERY_COMMITS`` commits) from the set-up checkpoint.  Shared 2-core
virtual machines switch between speeds that differ by up to 1.8x, in
states lasting from under a second to minutes, so each pass also times
a fixed reference kernel before every commit and around the set-up and
every recovery (``speed.py``), and every timing is scaled to the speed at
which the kernel takes ``speed.NOMINAL_NS``.  Reads leave the database
unchanged and are sent ``READ_REPEATS`` times in a row, keeping the
fastest.  Then, operation by operation, the median of the passes counts:

* ``setup_s`` is the median of the passes' set-ups;
* ``commit_p50_ms``/``commit_p90_ms``, ``lookup_p50_us``, ``query_p50_us``
  are percentiles over the stream's commits and reads;
* ``commits_per_s`` is the commit count over the client's wall time for
  the stream — commits, reads and their checks, without the speed probes
  and recoveries — as the median of the passes;
* ``recovery_s`` is the median of the recoveries, which each pass makes
  after each quarter of the stream;
* ``journal_bytes_per_commit`` is the growth of the journal over the
  stream per commit (every pass must agree on it and on the final state);
* ``peak_rss_mb`` is the median of the passes' peak resident memory.

Journals are fsynced once per commit (the library default) and live in
``.commitbench_work/`` under the repository root, which is removed at
exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from commitbench import spans as _spans  # noqa: E402
from commitbench.speed import NEAR_PROBES, SpeedProbe  # noqa: E402
from commitbench.stats import median, percentile, samples_beyond  # noqa: E402
from commitbench.workloads import WORKLOADS, query_text  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".commitbench_work")
OUT_DIR = os.path.join(ROOT, ".commitbench_out")
PASSES = 5
RECOVERY_COMMITS = 20
READ_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("commits_per_s", "1/s"),
    ("lookup_p50_us", "us"),
    ("query_p50_us", "us"),
    ("recovery_s", "s"),
    ("journal_bytes_per_commit", "B"),
    ("peak_rss_mb", "MB"),
)

#: Commit-ledger rows: layer -> per-layer metric (self ms per commit).
LEDGER_METRICS = {
    "active": "active.commit_self_ms",
    "engine.run": "engine.run_self_ms",
    "core.eca.extend": "core.eca.extend_ms",
    "engine.plancache.facts": "engine.plancache.facts_ms",
    "lint.analyze": "lint.analyze_ms",
    "core.interpretation.from_database": "core.interpretation.from_database_ms",
    "core.incorporate.incorp": "core.incorporate.incorp_ms",
    "storage.delta.diff": "storage.delta.diff_ms",
    "storage.delta.apply": "storage.delta.apply_ms",
    "engine.match.collect": "engine.match.collect_ms",
    "core.consequence.gamma": "core.consequence.gamma_ms",
    "core.conflicts.build": "core.conflicts.build_ms",
    "core.blocking.resolve": "core.blocking.resolve_ms",
    "core.provenance.record": "core.provenance.record_ms",
    "obs.audit.trail": "obs.audit.trail_ms",
    "obs.audit.append": "obs.audit.append_ms",
    "active.journal.append": "active.journal.append_ms",
    "storage.fsio.fsync": "storage.fsio.fsync_ms",
    "storage.lookup": "storage.lookup_ms",
}

#: Per-commit counts from the program's own metrics registry.
COUNT_METRICS = {
    "lint.pairs_per_commit": "lint.effects.pairs_checked",
    "storage.db_copies_per_commit": "storage.db_copies",
    "storage.index_lookups_per_commit": "storage.index_lookups",
    "storage.full_scans_per_commit": "storage.full_scans",
    "engine.rounds_per_commit": "engine.rounds",
    "engine.firings_per_commit": "engine.firings",
    "engine.restarts_per_commit": "engine.restarts",
    "engine.conflicts_per_commit": "engine.conflicts_resolved",
    "obs.audit.bytes_per_commit": "audit.bytes_written",
    "active.journal.fsyncs_per_commit": "journal.fsyncs",
}

PER_LAYER = (
    (("active.commit_span_ms", "ms"), ("active.unattributed_ms", "ms"),
     ("active.unattributed_share", "ratio"))
    + tuple((name, "ms") for name in LEDGER_METRICS.values())
    + tuple((name, "B" if "bytes" in name else "count") for name in COUNT_METRICS)
    + (
        ("engine.plancache.hit_ratio", "ratio"),
        ("engine.match.calls_per_commit", "count"),
        ("engine.match.firings_per_lookup", "ratio"),
        ("engine.query.query_us", "us"),
        ("storage.lookup_us", "us"),
        ("storage.textio.load_s", "s"),
        ("active.journal.records_s", "s"),
        ("storage.delta.replay_s", "s"),
        ("storage.from_text_s", "s"),
        ("active.add_rules_s", "s"),
        ("active.checkpoint_s", "s"),
        ("storage.intern_table_size", "count"),
        ("trace.overhead_ratio", "ratio"),
    )
)

#: Imported before any timing starts, so set-up time excludes imports.
PROGRAM_MODULES = sorted({path.partition(":")[0] for _, path in _spans.TARGETS})


class Checks:
    """Attempted and failed output checks; the first failures are reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print("check failed: %s" % what, file=sys.stderr)
        return ok


def _facts_of(database):
    return {(atom.predicate, atom.value_tuple()) for atom in database.atoms()}


def _digest(facts):
    lines = sorted("%s%r" % (predicate, values) for predicate, values in facts)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _canonical(kind, answer):
    if kind == "query":
        return sorted((tuple(sorted(row.items())) for row in answer), key=repr)
    if kind == "select":
        return sorted(answer, key=repr)
    return answer


def _read(db, read):
    kind, target, args = read
    if kind == "contains":
        return db.contains(target, *args)
    if kind == "select":
        return db.select(target, *args)
    if kind == "query":
        return db.query(query_text(read))
    return db.ask(query_text(read))


class Client:
    """One database under test, its model, and the stream driven through it."""

    def __init__(self, workload, inputs, directory, checks):
        self.workload = workload
        self.inputs = inputs
        self.directory = directory
        self.checks = checks
        self.model = workload.model(inputs)
        self.journal = os.path.join(directory, "journal")
        self.snapshot = os.path.join(directory, "snapshot")
        os.makedirs(directory, exist_ok=True)

    def set_up(self):
        """Load facts, register rules, checkpoint, run the warm-up commits.

        Returns the nanoseconds spent in the program, which leaves out
        rendering the inputs and checking the warm-up results.
        """
        from repro.active import ActiveDatabase

        inputs, workload = self.inputs, self.workload
        facts_text = inputs.facts_text()
        start = perf_counter_ns()
        self.db = ActiveDatabase.from_text(
            facts_text, inputs.rules_text, journal=self.journal, audit=workload.audit
        )
        self.db.checkpoint(self.snapshot)
        elapsed = perf_counter_ns() - start
        for tx, reads in inputs.warmup:
            elapsed += self.commit(tx)[1]
            elapsed += sum(self.read(read)[1] for read in reads)
        return elapsed

    def commit(self, tx, recorder=None):
        """Commit *tx*, check its delta; returns ``(start, latency)`` in ns.

        With a *recorder*, the commit is one request whose root span covers
        exactly the timed interval, so checking stays outside the ledger.
        """
        db = self.db
        with _request(recorder, "commit"):
            start = perf_counter_ns()
            with db.transaction() as transaction:
                for op, predicate, values in tx:
                    if op == "+":
                        transaction.insert(predicate, *values)
                    else:
                        transaction.delete(predicate, *values)
            elapsed = perf_counter_ns() - start
        result = transaction.result
        expected = self.model.commit(tx)
        got = (
            {(a.predicate, a.value_tuple()) for a in result.delta.inserts},
            {(a.predicate, a.value_tuple()) for a in result.delta.deletes},
        )
        ok = got == expected
        if hasattr(self.model, "last_restarts"):
            ok = ok and (result.stats.restarts, result.stats.conflicts_resolved) == (
                self.model.last_restarts,
                self.model.last_conflicts,
            )
        self.checks.check(ok, "commit %r" % (tx,))
        return start, elapsed

    def read(self, read, recorder=None):
        """Send one read and check it; returns ``(start, latency)`` in ns."""
        kind = read[0]
        with _request(recorder, "lookup" if kind in ("contains", "select") else "query"):
            start = perf_counter_ns()
            answer = _read(self.db, read)
            elapsed = perf_counter_ns() - start
        expected = self.model.answer(read)
        self.checks.check(
            _canonical(kind, answer) == _canonical(kind, expected), "read %r" % (read,)
        )
        return start, elapsed

    def save_recovery_fixture(self):
        fixture = os.path.join(self.directory, "fixture.journal")
        shutil.copyfile(self.journal, fixture)
        self.fixture = (fixture, self.model.facts())

    def recover(self, index, recorder=None):
        """Recover snapshot + fixture journal, check it; returns ``(start, ns)``."""
        from repro.active import ActiveDatabase

        fixture, expected = self.fixture
        journal = os.path.join(self.directory, "recover-%d.journal" % index)
        shutil.copyfile(fixture, journal)
        with _request(recorder, "recover"):
            start = perf_counter_ns()
            recovered = ActiveDatabase.recover(self.snapshot, journal)
            elapsed = perf_counter_ns() - start
        self.checks.check(
            _facts_of(recovered.database) == expected, "recovery %d" % index
        )
        os.remove(journal)
        return start, elapsed

    def check_final_state(self):
        facts = _facts_of(self.db.database)
        self.checks.check(facts == self.model.facts(), "final state")
        return _digest(facts)


def _request(recorder, name):
    return recorder.request(name) if recorder is not None else nullcontext()


def drive(client, recorder=None, probe=None, recover_at=(), repeats=1, read_repeats=1):
    """Drive the stream through *client*: each commit, then its reads.

    Each read is sent *read_repeats* times in a row.  Saves the recovery
    fixture after the first ``RECOVERY_COMMITS`` commits and recovers it
    *repeats* times after each commit count in *recover_at*.  With a
    *probe*, times the speed kernel before every commit and around every
    recovery.  Returns the samples by kind — ``commit``, ``lookup``,
    ``query``, ``recovery``, and ``stream``: the client's wall time for one
    commit, its reads and their checks — each sample a list of
    ``(start, latency)`` repeats in ns, and the counter deltas of the
    installed metrics registry summed over the commits alone.
    """
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.get_active()
    timings = {"commit": [], "lookup": [], "query": [], "recovery": [], "stream": []}
    counts = {}
    stream = client.inputs.stream
    fixture_at = max(1, min(RECOVERY_COMMITS, len(stream) // 4))
    for position, (tx, reads) in enumerate(stream, 1):
        if probe is not None:
            probe.probe()
        step_start = perf_counter_ns()
        before = dict(registry.counters) if registry is not None else None
        timings["commit"].append([client.commit(tx, recorder)])
        if registry is not None:
            for name, value in registry.counters.items():
                delta = value - before.get(name, 0)
                if delta:
                    counts[name] = counts.get(name, 0) + delta
        for read in reads:
            kind = "lookup" if read[0] in ("contains", "select") else "query"
            timings[kind].append([client.read(read, recorder) for _ in range(read_repeats)])
        timings["stream"].append([(step_start, perf_counter_ns() - step_start)])
        if position == fixture_at:
            client.save_recovery_fixture()
        if position in recover_at:
            for _ in range(repeats):
                if probe is not None:
                    probe.probe(NEAR_PROBES)
                timings["recovery"].append(
                    [client.recover(len(timings["recovery"]), recorder)]
                )
            if probe is not None:
                probe.probe(NEAR_PROBES)
    return timings, counts


def run_pass(args):
    """One measuring pass, in its own process: cold set-up, stream, recovery.

    Prints the measured timings with their start times, and the speed
    probes taken through the pass, for the parent to scale.
    """
    _import_program()
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.seconds, args.scale)
    checks = Checks()
    client = Client(workload, inputs, args.pass_dir, checks)
    probe = SpeedProbe()
    probe.probe(NEAR_PROBES)
    setup_start = perf_counter_ns()
    setup_ns = client.set_up()
    setup_end = perf_counter_ns()
    probe.probe(NEAR_PROBES)
    journal_start = os.path.getsize(client.journal)
    commits = len(inputs.stream)
    timings, _ = drive(client, probe=probe,
                       recover_at={commits * k // 4 for k in (1, 2, 3, 4)},
                       read_repeats=READ_REPEATS)
    print(json.dumps({
        "setup": [setup_start, setup_end, setup_ns],
        "timings": timings,
        "probes": [probe.stamps, probe.kernel_ns],
        "journal_bytes": os.path.getsize(client.journal) - journal_start,
        "digest": client.check_final_state(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": checks.attempted,
        "failed": checks.failed,
    }))
    return 0


def _pass_child(args, directory):
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--pass-dir", directory,
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if completed.returncode != 0 or not completed.stdout.strip():
        sys.stderr.write(completed.stderr[-4000:])
        raise RuntimeError("measuring pass failed (exit %d)" % completed.returncode)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _import_program():
    import importlib

    for module in PROGRAM_MODULES:
        importlib.import_module(module)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_pass(report):
    """A pass's samples, each its fastest repeat scaled to ``NOMINAL_NS``."""
    probe = SpeedProbe()
    probe.stamps, probe.kernel_ns = report["probes"]
    timings = {
        kind: [min(probe.scaled(start, elapsed) for start, elapsed in sample)
               for sample in samples]
        for kind, samples in report["timings"].items()
    }
    start, end, setup_ns = report["setup"]
    timings["setup"] = [probe.scale(setup_ns, start, end)]
    return timings


def measured_run(args, workload, inputs, directory):
    """The untraced run: every end-to-end metric, from ``PASSES`` passes.

    Every timing is scaled to the reference machine speed (``speed.py``)
    and, operation by operation, the median of its passes.
    """
    checks = Checks()
    passes = []
    for index in range(PASSES):
        report = _pass_child(args, os.path.join(directory, "pass-%d" % index))
        checks.attempted += report["attempted"]
        checks.failed += report["failed"]
        passes.append(report)
    checks.check(
        len({(p["digest"], p["journal_bytes"]) for p in passes}) == 1,
        "passes disagree on the final state or the journal",
    )
    scaled = [scaled_pass(p) for p in passes]
    per_op = {
        kind: [median(repeats) for repeats in zip(*(t[kind] for t in scaled))]
        for kind in ("commit", "lookup", "query")
    }
    commits = len(per_op["commit"])
    recoveries = [ns for t in scaled for ns in t["recovery"]]
    metrics = {
        "setup_s": median([t["setup"][0] for t in scaled]) / 1e9,
        "commit_p50_ms": percentile(per_op["commit"], 50) / 1e6,
        "commit_p90_ms": percentile(per_op["commit"], 90) / 1e6,
        "commits_per_s": median([commits / (sum(t["stream"]) / 1e9) for t in scaled]),
        "lookup_p50_us": percentile(per_op["lookup"], 50) / 1e3,
        "query_p50_us": percentile(per_op["query"], 50) / 1e3,
        "recovery_s": median(recoveries) / 1e9,
        "journal_bytes_per_commit": passes[0]["journal_bytes"] / commits,
        "peak_rss_mb": median([p["rss_kb"] for p in passes]) / 1024.0,
    }
    samples = {
        "passes": len(passes),
        "commits": commits,
        "commit_p90_beyond": samples_beyond(commits, 90),
        "lookups": len(per_op["lookup"]),
        "queries": len(per_op["query"]),
        "recoveries": len(recoveries),
        "speed_probes": sum(len(p["probes"][0]) for p in passes),
    }
    details = {"samples": samples, "digest": passes[0]["digest"], "passes": passes}
    return checks, {n: _metric(metrics[n], u) for n, u in END_TO_END}, details


def traced_run(args, workload, inputs, directory):
    """The traced run: the per-layer ledger, counts and tracing overhead."""
    from repro.obs import metrics as obs_metrics

    checks = Checks()
    # The overhead ratio compares two streams run one after the other, so
    # both are scaled to the reference speed.
    probe = SpeedProbe()
    recorder = _spans.SpanRecorder()
    restore = _spans.instrument(recorder)
    registry = obs_metrics.Metrics()
    previous = obs_metrics.set_active(registry)
    try:
        client = Client(workload, inputs, os.path.join(directory, "traced"), checks)
        with recorder.request("setup"):
            client.set_up()
        timings, counts = drive(client, recorder, probe, recover_at={len(inputs.stream)},
                                repeats=2)
        traced_scaled = [probe.scaled(*sample[0]) for sample in timings["commit"]]
        digest = client.check_final_state()
        fingerprint = [list(pair) for pair in registry.fingerprint()]
        totals = dict(registry.counters)
        intern_size = registry.gauges.get("storage.intern_table_size", 0)
    finally:
        obs_metrics.set_active(previous)
        restore()

    # The same stream untraced, in the same process, for the overhead ratio.
    untraced = Client(workload, inputs, os.path.join(directory, "untraced"), checks)
    untraced.set_up()
    untraced_scaled = [probe.scaled(*sample[0])
                       for sample in drive(untraced, probe=probe)[0]["commit"]]
    untraced.check_final_state()

    by_root, nesting_errors = _spans.ledgers(recorder.spans)
    commit = by_root["commit"]
    checks.check(nesting_errors == 0, "%d badly nested spans" % nesting_errors)
    checks.check(commit.balanced(), "commit ledger does not add up")
    checks.check(commit.requests == len(traced_scaled), "one commit span per commit")
    unknown = sorted(set(commit.layers) - set(LEDGER_METRICS))
    checks.check(not unknown, "commit layers without a metric: %s" % unknown)

    n = commit.requests
    per_commit = lambda ns: ns / n / 1e6  # noqa: E731
    metrics = {
        "active.commit_span_ms": per_commit(commit.total_ns),
        "active.unattributed_ms": per_commit(commit.unattributed_ns),
        "active.unattributed_share": commit.unattributed_ns / commit.total_ns,
    }
    for layer, name in LEDGER_METRICS.items():
        metrics[name] = per_commit(commit.layers.get(layer, 0))
    for name, counter in COUNT_METRICS.items():
        metrics[name] = counts.get(counter, 0) / n
    lookups = [counts.get("plan_cache.%s" % k, 0)
               for k in ("hits", "misses", "invalidations")]
    metrics["engine.plancache.hit_ratio"] = lookups[0] / sum(lookups) if sum(lookups) else 0.0
    metrics["engine.match.calls_per_commit"] = commit.calls.get("engine.match.collect", 0) / n
    index_lookups = counts.get("storage.index_lookups", 0)
    metrics["engine.match.firings_per_lookup"] = (
        counts.get("engine.firings", 0) / index_lookups if index_lookups else 0.0
    )

    def per_request(root, layer, scale):
        ledger = by_root.get(root)
        if ledger is None:
            return 0.0
        return median([row.get(layer, 0) for row in ledger.per_request]) / scale

    metrics["engine.query.query_us"] = per_request("query", "engine.query", 1e3)
    metrics["storage.lookup_us"] = per_request("lookup", "storage.lookup", 1e3)
    metrics["storage.textio.load_s"] = per_request("recover", "storage.textio.load", 1e9)
    metrics["active.journal.records_s"] = per_request("recover", "active.journal.records", 1e9)
    metrics["storage.delta.replay_s"] = per_request("recover", "storage.delta.apply", 1e9)
    metrics["storage.from_text_s"] = per_request("setup", "storage.from_text", 1e9)
    metrics["active.add_rules_s"] = per_request("setup", "active.add_rules", 1e9)
    metrics["active.checkpoint_s"] = per_request("setup", "active.checkpoint", 1e9)
    metrics["storage.intern_table_size"] = intern_size
    metrics["trace.overhead_ratio"] = sum(untraced_scaled) / sum(traced_scaled)

    artifact = {
        "workload": workload.name,
        "seed": args.seed,
        "digest": digest,
        "fingerprint": fingerprint,
        "commit_counters": dict(sorted(counts.items())),
        "counters": dict(sorted(totals.items())),
        "ledger_ns": dict(sorted(commit.layers.items()), unattributed=commit.unattributed_ns),
        "commit_span_ns": commit.total_ns,
        "span_fields": ["name", "start_ns", "end_ns", "parent", "request"],
        "spans": recorder.spans,
    }
    details = {"artifact": artifact, "samples": {"commits": n}}
    return checks, {n_: _metric(metrics[n_], u) for n_, u in PER_LAYER}, details


def _report(workload, inputs, checks, metrics, details, out):
    print("workload %s: %s" % (workload.name, json.dumps(inputs.sizes, sort_keys=True)),
          file=out)
    for name, entry in metrics.items():
        print("  %-40s %14.6g %s" % (name, entry["value"], entry["unit"]), file=out)
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print("  %-40s %14.6g %s  (%d failed of %d checks)" % (
        "error_rate", error_rate, "ratio", checks.failed, checks.attempted), file=out)
    if "samples" in details:
        print("  samples: %s" % json.dumps(details["samples"], sort_keys=True), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sizes and commit count (self-tests only)")
    parser.add_argument("--trace-out", help="where the traced run writes its spans")
    parser.add_argument("--report", help="also write the run's details as JSON here")
    parser.add_argument("--pass-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        parser.exit(2, "no program source at %s\n" % os.path.join(ROOT, "src", "repro"))
    if args.pass_dir:
        return run_pass(args)

    _import_program()
    workload = WORKLOADS[args.workload]
    inputs = workload.generate(args.seed, args.seconds, args.scale)
    directory = os.path.join(WORK_DIR, "%s-%d-%d" % (workload.name, args.seed, os.getpid()))
    try:
        if args.trace:
            checks, metrics, details = traced_run(args, workload, inputs, directory)
        else:
            checks, metrics, details = measured_run(args, workload, inputs, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    if args.trace:
        path = args.trace_out or os.path.join(
            OUT_DIR, "%s-seed%d.trace.json" % (workload.name, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(details.pop("artifact"), handle)
    _report(workload, inputs, checks, metrics, details, sys.stdout)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "sizes": inputs.sizes, "details": details,
                       "attempted": checks.attempted, "failed": checks.failed,
                       "metrics": metrics}, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
