"""End-to-end runs of run.py as a subprocess, at a tiny scale."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from commitbench import run

ROOT = run.ROOT

def _run(*arguments, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "commitbench", "run.py"),
               "--seconds", "1", "--scale", "0.05"] + list(arguments)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", ["eca-ledger", "hr-payroll"])
def test_two_traced_runs_agree_exactly(name, tmp_path):
    artifacts = []
    for index in range(2):
        path = str(tmp_path / ("trace%d.json" % index))
        completed = _run("--workload", name, "--seed", "5", "--trace", "1",
                         "--trace-out", path)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {n for n, _ in run.PER_LAYER}
        with open(path) as handle:
            artifacts.append(json.load(handle))
    first, second = artifacts
    for key in ("digest", "fingerprint", "commit_counters", "counters"):
        assert first[key] == second[key], key
    assert sum(first["ledger_ns"].values()) == first["commit_span_ns"]


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    completed = _run("--workload", "eca-ledger", "--seed", "2",
                     "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in completed.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "commitbench"), str(tmp_path / "commitbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    completed = _run("--workload", "eca-ledger", "--seed", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
