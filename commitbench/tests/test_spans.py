import inspect

import pytest

from commitbench import spans
from commitbench.spans import MissingTarget, SpanRecorder, instrument, ledgers, self_times


def _span(name, start, end, parent, request=1):
    return [name, start, end, parent, request]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("commit", 0, 100, -1),
        _span("engine", 10, 80, 0),
        _span("match", 20, 50, 1),
        _span("journal", 85, 95, 0),
    ]
    assert self_times(recorded) == [20, 40, 30, 10]


def test_recursive_spans_are_not_double_counted():
    # "engine" re-enters itself; each level keeps only its own time.
    recorded = [
        _span("commit", 0, 100, -1),
        _span("engine", 0, 90, 0),
        _span("engine", 10, 70, 1),
        _span("engine", 20, 30, 2),
    ]
    by_root, errors = ledgers(recorded)
    ledger = by_root["commit"]
    assert errors == 0
    assert ledger.layers["engine"] == 90
    assert ledger.calls["engine"] == 3
    assert ledger.unattributed_ns == 10
    assert ledger.balanced()


def test_ledger_groups_by_root_and_request():
    recorded = [
        _span("commit", 0, 50, -1, 1),
        _span("journal", 10, 20, 0, 1),
        _span("lookup", 60, 70, -1, 2),
        _span("storage", 61, 65, 2, 2),
        _span("commit", 80, 100, -1, 3),
        _span("journal", 85, 99, 4, 3),
    ]
    by_root, _ = ledgers(recorded)
    commit = by_root["commit"]
    assert commit.requests == 2
    assert commit.total_ns == 70
    assert commit.layers == {"journal": 24}
    assert commit.per_request == [{"journal": 10}, {"journal": 14}]
    assert by_root["lookup"].layers == {"storage": 4}


def test_ledger_flags_a_child_outside_its_parent():
    recorded = [_span("commit", 0, 50, -1), _span("journal", 40, 60, 0)]
    _, errors = ledgers(recorded)
    assert errors == 1


def test_recorded_recursion_adds_up_exactly():
    recorder = SpanRecorder()

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = recorder.wrap("recurse", depth)
    with recorder.request("commit"):
        assert traced(5) == 5
    by_root, errors = ledgers(recorder.spans)
    ledger = by_root["commit"]
    assert errors == 0
    assert ledger.calls["recurse"] == 6
    assert ledger.balanced()
    assert sum(self_times(recorder.spans)) == ledger.total_ns


def test_span_closes_when_the_call_raises():
    recorder = SpanRecorder()

    def fail():
        raise KeyError("boom")

    traced = recorder.wrap("layer", fail)
    with pytest.raises(KeyError):
        with recorder.request("commit"):
            traced()
    assert all(span[2] >= span[1] > 0 for span in recorder.spans)
    assert ledgers(recorder.spans)[0]["commit"].balanced()


def test_missing_function_fails_before_patching():
    from repro.core import engine

    original = engine.build_conflicts
    with pytest.raises(MissingTarget, match="no_such_function"):
        instrument(SpanRecorder(), (
            ("core.conflicts.build", "repro.core.engine:build_conflicts"),
            ("gone", "repro.core.engine:no_such_function"),
        ))
    assert engine.build_conflicts is original


@pytest.mark.parametrize("path", [
    "repro.no_such_module:run",
    "repro.active.activedb:NoSuchClass.method",
    "repro.active.activedb:ActiveDatabase.no_such_method",
    "repro.storage.catalog:INTERNER",
])
def test_missing_or_unwrappable_targets_raise(path):
    with pytest.raises(MissingTarget):
        instrument(SpanRecorder(), (("layer", path),))


def test_every_target_resolves_and_restores():
    from repro.active.activedb import ActiveDatabase
    from repro.core import engine
    from repro.storage.delta import Delta

    before = (
        inspect.getattr_static(ActiveDatabase, "program"),
        inspect.getattr_static(Delta, "diff"),
        engine.GammaResult,
    )
    restore = instrument(SpanRecorder(), spans.TARGETS)
    try:
        assert isinstance(inspect.getattr_static(ActiveDatabase, "program"), property)
        assert isinstance(inspect.getattr_static(Delta, "diff"), classmethod)
        assert engine.GammaResult is not before[2]
    finally:
        restore()
    after = (
        inspect.getattr_static(ActiveDatabase, "program"),
        inspect.getattr_static(Delta, "diff"),
        engine.GammaResult,
    )
    assert after == before


def test_traced_commit_records_every_commit_layer():
    from repro.active import ActiveDatabase

    recorder = SpanRecorder()
    restore = instrument(recorder)
    try:
        db = ActiveDatabase.from_text("emp(joe). active(joe). payroll(joe, 10).")
        db.add_rule("emp(X), not active(X), payroll(X, S) -> -payroll(X, S).")
        with recorder.request("commit"):
            with db.transaction() as tx:
                tx.delete("active", "joe")
    finally:
        restore()
    by_root, errors = ledgers(recorder.spans)
    commit = by_root["commit"]
    assert errors == 0 and commit.balanced()
    for layer in ("active", "engine.run", "engine.match.collect", "lint.analyze",
                  "storage.delta.diff", "storage.delta.apply", "core.incorporate.incorp"):
        assert commit.calls[layer] >= 1, layer
