"""The workload models agree with the engine, and the checks catch errors."""

import pytest

from commitbench import run
from commitbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_model_agrees_with_engine_on_a_tiny_seed(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.generate(seed=7, seconds=1, scale=0.05)
    checks = run.Checks()
    client = run.Client(workload, inputs, str(tmp_path), checks)
    client.set_up()
    for position, (tx, reads) in enumerate(inputs.stream, 1):
        client.commit(tx)
        for read in reads:
            client.read(read)
        if position == 3:
            client.save_recovery_fixture()
    client.recover(0)
    client.check_final_state()
    assert checks.attempted > 10 * len(inputs.stream)
    assert checks.failed == 0


def test_checks_catch_wrong_deltas_and_answers(tmp_path):
    workload = WORKLOADS["eca-ledger"]
    inputs = workload.generate(seed=7, seconds=1, scale=0.05)
    checks = run.Checks()
    client = run.Client(workload, inputs, str(tmp_path), checks)
    client.set_up()
    tx, _ = inputs.stream[0]
    client.model.commit = lambda tx: (set(), set())
    client.commit(tx)
    assert checks.failed == 1
    account = tx[0][2][0]
    for predicate, row in [("ledger", r) for r in client.model.state.rows["ledger"]]:
        if row[0] == account:
            client.model.state.discard(predicate, row)
    client.model.state.add("ledger", (account, "t-missing"))
    client.read(("select", "ledger", (account, None)))
    assert checks.failed == 2


def test_same_seed_same_inputs_different_seed_different_keys():
    workload = WORKLOADS["hr-payroll"]
    first = workload.generate(seed=3, seconds=1, scale=0.05)
    again = workload.generate(seed=3, seconds=1, scale=0.05)
    other = workload.generate(seed=4, seconds=1, scale=0.05)
    assert first.stream == again.stream and first.facts == again.facts
    assert first.stream != other.stream
    assert len(first.stream) == len(other.stream)
