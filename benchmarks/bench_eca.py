"""Experiment A5: ECA transaction sweeps.

Section 4.3 turns a transaction's updates into rules of ``P_U``; the cost
of a commit should grow roughly linearly in ``|U|`` for the HR trigger set
(each deactivation touches a constant number of rows).  The series also
exercises the event literals end to end at scale.

The |D| sweep commits one event-triggering deposit through
``ActiveDatabase`` on the ledger workload at |D| ≈ 10^3, 10^4 and 10^5
facts: an event literal reads only the run's marks, so this commit's
latency should stay roughly flat as the database grows.
"""

import itertools

import pytest

from benchmarks.conftest import run_and_record

from repro.active import ActiveDatabase
from repro.workloads import (
    deactivation_batch,
    hr_database,
    hr_program,
    ledger_database,
    ledger_program,
)

POPULATION = 400
BATCHES = [5, 20, 80, 320]
#: Ledger sizes in accounts; ~2.55 facts each, so |D| ≈ 10^3, 10^4, 10^5.
LEDGER_ACCOUNTS = [400, 4_000, 40_000]


@pytest.mark.parametrize("batch", BATCHES)
def test_a5_deactivation_batch(benchmark, scaling, batch):
    workload = deactivation_batch(POPULATION, batch, seed=2)

    def run():
        result = workload.run()
        assert result.database.count("severance") == batch
        assert result.database.count("payroll") == POPULATION - batch
        return result

    run_and_record(benchmark, scaling, "A5 commit(|U| updates)", batch, run)


@pytest.mark.parametrize("batch", [5, 40])
def test_a5_facade_commit(benchmark, scaling, batch):
    """The same sweep through the ActiveDatabase facade (includes apply)."""

    def run():
        db = ActiveDatabase(hr_database(POPULATION, seed=5))
        db.add_rules(list(hr_program()))
        with db.transaction() as tx:
            for index in range(batch):
                tx.delete("active", "e%d" % index)
        assert db.database.count("severance") == batch
        return tx.result

    run_and_record(benchmark, scaling, "A5 facade-commit(|U|)", batch, run)


@pytest.mark.parametrize("accounts", LEDGER_ACCOUNTS)
def test_a5_event_commit_db_sweep(benchmark, scaling, accounts):
    """One ``+deposit`` commit against a growing ledger (|U| = 1)."""
    db = ActiveDatabase(ledger_database(accounts))
    db.add_rules(list(ledger_program()))
    size = len(db.database)
    serial = itertools.count()

    def run():
        deposit = "b%d" % next(serial)
        with db.transaction() as tx:
            tx.insert("deposit", "a1", deposit)
        assert len(tx.result.delta) == 2
        assert db.contains("ledger", "a1", deposit)
        return tx.result

    run()  # plan and compile outside the measurement
    run_and_record(benchmark, scaling, "A5 event-commit(|D|), |U|=1", size, run)
