"""Commit work tracks the transaction's updates, not the database size.

An event literal ``±a`` ranges over the run's marks, which start as the
transaction's ``U``, so a planner that seeds event-triggered rules with
their event keeps a one-update commit's storage traffic the same at 10^2
and 10^4 accounts.
"""

import pytest

from repro.active import ActiveDatabase
from repro.obs.metrics import Metrics
from repro.workloads import ledger_database, ledger_program

COUNTERS = ("storage.index_lookups", "storage.full_scans", "engine.firings")


def _ledger(accounts):
    db = ActiveDatabase(ledger_database(accounts))
    db.add_rules(list(ledger_program()))
    return db


def _commit_counters(db, updates):
    registry = Metrics()
    with registry.activate():
        with db.transaction() as tx:
            for op, predicate, values in updates:
                (tx.insert if op == "+" else tx.delete)(predicate, *values)
    return {name: registry.counter(name) for name in COUNTERS}, tx.result


TRANSACTIONS = [
    pytest.param([("+", "deposit", ("a1", "new"))], id="deposit"),
    pytest.param([("+", "deposit", ("a7", "new"))], id="frozen-deposit"),
    pytest.param([("-", "deposit", ("a3", "t3"))], id="undo"),
    pytest.param([("-", "frozen", ("a7",))], id="thaw"),
]


@pytest.mark.parametrize("updates", TRANSACTIONS)
def test_one_update_commit_work_is_independent_of_database_size(updates):
    small, large = _ledger(100), _ledger(10_000)
    # Warm both plan caches with an identical unrelated commit first.
    for db in (small, large):
        _commit_counters(db, [("+", "deposit", ("a2", "warm"))])
    small_counts, small_result = _commit_counters(small, updates)
    large_counts, large_result = _commit_counters(large, updates)
    assert small_result.delta == large_result.delta
    assert len(small_result.delta) >= 2
    assert large_counts == small_counts
