"""Tests for the join planner."""

from repro.engine.planner import explain_plan, plan_body
from repro.lang import parse_rule


def kinds(rule_text):
    return [(str(s.literal), s.kind) for s in plan_body(parse_rule(rule_text))]


class TestOrdering:
    def test_empty_body(self):
        assert plan_body(parse_rule("-> +q(b).")) == ()

    def test_single_literal(self):
        assert kinds("p(X) -> +q(X).") == [("p(X)", "bind")]

    def test_negation_scheduled_after_binding(self):
        plan = kinds("p(X), not r(X) -> +q(X).")
        assert plan == [("p(X)", "bind"), ("not r(X)", "check")]

    def test_negation_first_in_source_still_delayed(self):
        plan = kinds("not r(X), p(X) -> +q(X).")
        assert plan == [("p(X)", "bind"), ("not r(X)", "check")]

    def test_ground_negation_scheduled_first(self):
        plan = kinds("p(X), not r(a) -> +q(X).")
        assert plan[0] == ("not r(a)", "check")

    def test_most_bound_literal_preferred(self):
        # After binding X via p(X), s(X, Y) has one bound position while
        # t(Z, W) has none, so s comes first.
        plan = kinds("p(X), t(Z, W), s(X, Y) -> +q(X).")
        assert plan[0] == ("p(X)", "bind")
        assert plan[1] == ("s(X, Y)", "bind")

    def test_constants_count_as_bound(self):
        # t(a, Z) has a bound constant position; u(Z, W) has none.
        plan = kinds("u(Z, W), t(a, Z) -> +q(Z).")
        assert plan[0] == ("t(a, Z)", "bind")

    def test_fully_bound_positive_literal_becomes_check(self):
        plan = kinds("p(X), p2(X) -> +q(X).")
        assert plan == [("p(X)", "bind"), ("p2(X)", "check")]

    def test_events_are_binding(self):
        plan = kinds("+r(X), not s(X) -> +q(X).")
        assert plan == [("+r(X)", "bind"), ("not s(X)", "check")]

    def test_deterministic_tie_break_by_position(self):
        plan = kinds("m(X), n(Y) -> +q(X).")
        assert plan[0][0] == "m(X)"


class TestExplain:
    def test_explain_plan_lines(self):
        text = explain_plan(parse_rule("p(X), not r(X) -> +q(X)."))
        lines = text.splitlines()
        assert len(lines) == 2
        assert "[bind]" in lines[0]
        assert "[check]" in lines[1]


class _StatsView:
    """Minimal stand-in exposing only the planner's statistics hook."""

    def __init__(self, counts):
        self.counts = counts

    def estimate(self, predicate):
        return self.counts.get(predicate, 0)


def kinds_with_stats(rule_text, counts):
    view = _StatsView(counts)
    return [
        (str(s.literal), s.kind)
        for s in plan_body(parse_rule(rule_text), view)
    ]


class TestStatsTieBreak:
    def test_smaller_relation_scanned_first(self):
        # Equal bound/free counts: the view's cardinality estimate breaks
        # the tie, so the smaller relation drives the join.
        plan = kinds_with_stats(
            "m(X), n(Y) -> +q(X, Y).", {"m": 1000, "n": 3}
        )
        assert plan[0][0] == "n(Y)"

    def test_equal_estimates_fall_back_to_position(self):
        plan = kinds_with_stats(
            "m(X), n(Y) -> +q(X, Y).", {"m": 5, "n": 5}
        )
        assert plan[0][0] == "m(X)"

    def test_bound_count_still_dominates_estimate(self):
        # s(X, Y) has a bound column once X is known; a huge estimate must
        # not demote it below the unbound t(Z, W).
        plan = kinds_with_stats(
            "p(X), t(Z, W), s(X, Y) -> +q(X).",
            {"p": 1, "s": 10_000, "t": 1},
        )
        assert plan[1][0] == "s(X, Y)"

    def test_no_view_means_position_tie_break(self):
        plan = kinds("m(X), n(Y) -> +q(X, Y).")
        assert plan[0][0] == "m(X)"


class TestEventSeeding:
    """Among equally bound literals an event binds before any condition:
    an event ranges over the run's marks, a condition over ``D``."""

    def test_event_seeds_the_ledger_rule(self):
        plan = kinds("+deposit(A, T), account(A), not frozen(A) -> +ledger(A, T).")
        assert plan == [
            ("+deposit(A, T)", "bind"),
            ("not frozen(A)", "check"),
            ("account(A)", "check"),
        ]

    def test_event_binds_first_whatever_its_position(self):
        plan = kinds("frozen(A), +deposit(A, T) -> +held(A, T).")
        assert plan == [("+deposit(A, T)", "bind"), ("frozen(A)", "check")]

    def test_deletion_event_seeds_too(self):
        plan = kinds("held(A, T), -frozen(A) -> +ledger(A, T).")
        assert plan == [("-frozen(A)", "bind"), ("held(A, T)", "bind")]

    def test_constant_bound_condition_still_wins_on_bound_count(self):
        plan = kinds("+e(X), p(c, Y), q(X, Y) -> +r(X).")
        assert plan == [
            ("p(c, Y)", "bind"),
            ("q(X, Y)", "bind"),
            ("+e(X)", "check"),
        ]

    def test_event_precedes_smaller_condition_estimate(self):
        plan = kinds_with_stats(
            "account(A), +deposit(A, T) -> +ledger(A, T).",
            {"account": 1, "deposit": 10_000},
        )
        assert plan[0] == ("+deposit(A, T)", "bind")
