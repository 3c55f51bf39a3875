"""Tests for transactions: staging, savepoints, state machine."""

import pytest

from repro.active import ActiveDatabase, TxState
from repro.errors import TransactionError
from repro.lang.atoms import atom


def fresh():
    return ActiveDatabase.from_text("p.")


class TestStaging:
    def test_insert_delete_staging(self):
        tx = fresh().transaction()
        tx.insert("q", "a").delete("p")
        updates = tx.updates()
        assert [str(u) for u in updates] == ["+q(a)", "-p"]

    def test_atom_objects_accepted(self):
        tx = fresh().transaction()
        tx.insert(atom("q", "a"))
        assert [str(u) for u in tx.updates()] == ["+q(a)"]

    def test_atom_plus_values_rejected(self):
        tx = fresh().transaction()
        with pytest.raises(TransactionError):
            tx.insert(atom("q", "a"), "b")

    def test_nonground_rejected(self):
        tx = fresh().transaction()
        with pytest.raises(TransactionError, match="ground"):
            tx.insert(atom("q", "X"))

    @pytest.mark.parametrize(
        "predicate", ["bad name", "event(k0)", "Emp", "_x", "not", "9p", "p.q", ""]
    )
    def test_predicate_must_lex_as_one_identifier(self, predicate):
        # The journal stores staged updates as text; a predicate that does
        # not read back as a single identifier would make recovery fail.
        tx = fresh().transaction()
        with pytest.raises(TransactionError, match="identifier"):
            tx.insert(predicate, 1)
        if predicate:  # Atom itself refuses an empty predicate
            with pytest.raises(TransactionError, match="identifier"):
                tx.delete(atom(predicate, "a"))
        assert tx.updates() == ()

    def test_arity_must_match_catalog(self):
        db = ActiveDatabase.from_text("p(a).")
        tx = db.transaction()
        with pytest.raises(TransactionError, match="arity"):
            tx.insert("p", "a", "b")
        with pytest.raises(TransactionError, match="arity"):
            tx.delete(atom("p"))
        tx.insert("p", "b").insert("q", "a", "b")  # matching / new predicates
        assert len(tx.updates()) == 2

    def test_duplicates_deduplicated(self):
        tx = fresh().transaction()
        tx.insert("q", "a").insert("q", "a")
        assert len(tx.updates()) == 1

    def test_conflicting_stages_allowed(self):
        # +a and -a may both be staged; the policy resolves at commit.
        db = fresh()
        with db.transaction() as tx:
            tx.insert("a").delete("a")
        assert tx.state is TxState.COMMITTED
        assert not db.contains("a")  # inertia: a was absent


class TestSavepoints:
    def test_rollback_to_discards_tail(self):
        tx = fresh().transaction()
        tx.insert("q", "a")
        tx.savepoint("s1")
        tx.insert("q", "b")
        tx.rollback_to("s1")
        assert [str(u) for u in tx.updates()] == ["+q(a)"]

    def test_nested_savepoints(self):
        tx = fresh().transaction()
        tx.savepoint("outer")
        tx.insert("q", "a")
        tx.savepoint("inner")
        tx.insert("q", "b")
        tx.rollback_to("outer")
        assert tx.updates() == ()
        with pytest.raises(TransactionError):
            tx.rollback_to("inner")

    def test_auto_names(self):
        tx = fresh().transaction()
        assert tx.savepoint() == "sp_1"
        assert tx.savepoint() == "sp_2"

    def test_duplicate_names_rejected(self):
        tx = fresh().transaction()
        tx.savepoint("s")
        with pytest.raises(TransactionError):
            tx.savepoint("s")

    def test_unknown_savepoint(self):
        tx = fresh().transaction()
        with pytest.raises(TransactionError):
            tx.rollback_to("nope")


class TestStateMachine:
    def test_commit_then_use_rejected(self):
        db = fresh()
        tx = db.transaction()
        tx.insert("q", "a")
        tx.commit()
        assert tx.state is TxState.COMMITTED
        with pytest.raises(TransactionError, match="committed"):
            tx.insert("q", "b")
        with pytest.raises(TransactionError):
            tx.commit()

    def test_rollback_then_use_rejected(self):
        tx = fresh().transaction()
        tx.rollback()
        assert tx.state is TxState.ABORTED
        with pytest.raises(TransactionError, match="aborted"):
            tx.insert("q", "a")

    def test_new_transaction_after_completion(self):
        db = fresh()
        db.transaction().commit()
        tx2 = db.transaction()
        assert tx2.transaction_id == 2

    def test_result_stored_on_commit(self):
        db = fresh()
        tx = db.transaction()
        tx.insert("q", "a")
        result = tx.commit()
        assert tx.result is result
        assert db.contains("q", "a")
