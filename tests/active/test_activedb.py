"""Tests for the active-database facade."""

import pytest

from repro.active import ActiveDatabase
from repro.errors import LanguageError, SchemaError, TransactionError
from repro.lang import parse_atom
from repro.lang.atoms import atom
from repro.policies.priority import PriorityPolicy


def payroll_db():
    db = ActiveDatabase.from_text(
        "emp(joe). emp(ann). active(joe). active(ann). "
        "payroll(joe, 10). payroll(ann, 20)."
    )
    db.add_rule(
        "@name(cleanup) emp(X), not active(X), payroll(X, S) -> -payroll(X, S)."
    )
    return db


class TestDataAccess:
    def test_rows(self):
        db = payroll_db()
        assert db.rows("payroll") == [("ann", 20), ("joe", 10)]
        assert db.rows("missing") == []

    def test_contains(self):
        db = payroll_db()
        assert db.contains("emp", "joe")
        assert db.contains(atom("emp", "joe"))
        assert not db.contains("emp", "zoe")

    def test_select_with_wildcards(self):
        db = payroll_db()
        assert db.select("payroll", "joe", None) == [("joe", 10)]
        assert db.select("payroll", None, 20) == [("ann", 20)]
        assert db.select("payroll") == db.rows("payroll")

    def test_select_rejects_column_past_arity(self):
        db = payroll_db()
        with pytest.raises(SchemaError):
            db.select("payroll", None, None, "joe")
        with pytest.raises(SchemaError):
            db.select("emp", "joe", 10)
        # Trailing wildcards bind nothing and stay accepted.
        assert db.select("emp", "joe", None) == [("joe",)]

    def test_len(self):
        assert len(payroll_db()) == 6

    def test_define_table(self):
        db = ActiveDatabase()
        db.define_table("payroll", ("name", "salary"))
        schema = db.database.catalog.get("payroll")
        assert schema.columns == ("name", "salary")


class TestRules:
    def test_add_rule_text_and_objects(self):
        db = ActiveDatabase()
        rule = db.add_rule("p -> +q.")
        assert len(db.program) == 1
        db.add_rule(rule.substitute({}))  # Rule object accepted (anonymous)
        assert len(db.program) == 2

    def test_add_rule_rejects_multi(self):
        with pytest.raises(LanguageError, match="exactly one"):
            ActiveDatabase().add_rule("p -> +q. q -> +r.")

    def test_add_rules_text(self):
        db = ActiveDatabase()
        db.add_rules("p -> +q. q -> +r.")
        assert len(db.program) == 2

    def test_duplicate_names_rejected_at_registration(self):
        db = ActiveDatabase()
        db.add_rule("@name(r1) p -> +q.")
        with pytest.raises(LanguageError):
            db.add_rule("@name(r1) p -> +z.")

    def test_drop_rule(self):
        db = ActiveDatabase()
        db.add_rule("@name(r1) p -> +q.")
        db.drop_rule("r1")
        assert len(db.program) == 0
        with pytest.raises(KeyError):
            db.drop_rule("r1")


class TestCommits:
    def test_trigger_fires_on_commit(self):
        db = payroll_db()
        db.delete("active", "joe")
        assert db.rows("payroll") == [("ann", 20)]

    def test_nothing_visible_before_commit(self):
        db = payroll_db()
        tx = db.transaction()
        tx.delete("active", "joe")
        assert db.contains("active", "joe")
        assert db.rows("payroll") == [("ann", 20), ("joe", 10)]
        tx.commit()
        assert not db.contains("active", "joe")

    def test_rollback_leaves_database_untouched(self):
        db = payroll_db()
        tx = db.transaction()
        tx.delete("active", "joe")
        tx.rollback()
        assert db.contains("active", "joe")

    def test_context_manager_commits_on_success(self):
        db = payroll_db()
        with db.transaction() as tx:
            tx.delete("active", "ann")
        assert db.rows("payroll") == [("joe", 10)]

    def test_context_manager_rolls_back_on_error(self):
        db = payroll_db()
        with pytest.raises(RuntimeError):
            with db.transaction() as tx:
                tx.delete("active", "ann")
                raise RuntimeError("boom")
        assert db.contains("active", "ann")

    def test_one_open_transaction(self):
        db = payroll_db()
        db.transaction()
        with pytest.raises(TransactionError, match="still active"):
            db.transaction()

    def test_refresh_runs_condition_action_sweep(self):
        db = payroll_db()
        # Sneak a violation in behind the rules' back, then refresh.
        db.database.remove(atom("active", "joe"))
        db.refresh()
        assert db.rows("payroll") == [("ann", 20)]

    def test_auto_commit_helpers_return_result(self):
        db = payroll_db()
        result = db.insert("emp", "zoe")
        assert result is not None
        assert db.contains("emp", "zoe")

    def test_policy_respected(self):
        db = ActiveDatabase.from_text(
            "p.", "@name(lo) @priority(1) p -> +a. @name(hi) @priority(2) p -> -a.",
            policy=PriorityPolicy(),
        )
        db.refresh()
        assert not db.contains("a")
