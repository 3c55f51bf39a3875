"""Tests for ColumnarRelation: interned tuple storage and hash indexes."""

import pytest

from repro.errors import SchemaError
from repro.storage.catalog import INTERNER, InternTable
from repro.storage.relation import ColumnarRelation


def native(*values):
    """A raw row (or probe key) in the native id dialect."""
    return tuple(INTERNER.intern(value) for value in values)


def decoded(rows):
    """Native rows back to a set of raw rows."""
    return {INTERNER.decode_row(row) for row in rows}


class TestMutation:
    def test_add_and_contains(self):
        r = ColumnarRelation("edge", 2)
        assert r.add(("a", "b"))
        assert ("a", "b") in r
        assert len(r) == 1

    def test_add_duplicate_returns_false(self):
        r = ColumnarRelation("edge", 2, [("a", "b")])
        assert not r.add(("a", "b"))
        assert len(r) == 1

    def test_discard(self):
        r = ColumnarRelation("edge", 2, [("a", "b")])
        assert r.discard(("a", "b"))
        assert not r.discard(("a", "b"))
        assert len(r) == 0

    def test_arity_enforced(self):
        r = ColumnarRelation("edge", 2)
        with pytest.raises(SchemaError):
            r.add(("a",))
        with pytest.raises(SchemaError):
            r.discard(("a", "b", "c"))

    def test_rows_must_be_tuples(self):
        with pytest.raises(SchemaError):
            ColumnarRelation("edge", 2).add(["a", "b"])

    def test_zero_arity(self):
        r = ColumnarRelation("flag", 0)
        assert r.add(())
        assert () in r

    def test_negative_arity_rejected(self):
        with pytest.raises(SchemaError):
            ColumnarRelation("bad", -1)

    def test_clear(self):
        r = ColumnarRelation("edge", 2, [("a", "b"), ("b", "c")])
        r.clear()
        assert len(r) == 0


class TestCandidates:
    def setup_method(self):
        self.r = ColumnarRelation(
            "edge", 2, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        )

    def test_unbound_scans_all(self):
        assert set(self.r.candidates({})) == set(self.r)

    def test_single_column(self):
        assert set(self.r.candidates({0: "a"})) == {("a", "b"), ("a", "c")}
        assert set(self.r.candidates({1: "c"})) == {("a", "c"), ("b", "c")}

    def test_both_columns(self):
        assert set(self.r.candidates({0: "a", 1: "c"})) == {("a", "c")}

    def test_missing_value_empty(self):
        assert set(self.r.candidates({0: "zzz"})) == set()

    def test_index_maintained_after_mutation(self):
        list(self.r.candidates({0: "a"}))  # build the index
        self.r.add(("a", "z"))
        assert set(self.r.candidates({0: "a"})) == {("a", "b"), ("a", "c"), ("a", "z")}
        self.r.discard(("a", "b"))
        assert set(self.r.candidates({0: "a"})) == {("a", "c"), ("a", "z")}

    def test_index_bucket_removed_when_empty(self):
        list(self.r.candidates({0: "c"}))
        self.r.discard(("c", "a"))
        assert set(self.r.candidates({0: "c"})) == set()

    def test_fully_bound_hit(self):
        assert tuple(self.r.candidates({0: "a", 1: "b"})) == (("a", "b"),)

    def test_fully_bound_miss(self):
        assert tuple(self.r.candidates({1: "z", 0: "a"})) == ()

    def test_fully_bound_builds_no_index(self):
        # Direct membership, not an index lookup: no index materialised.
        list(self.r.candidates({0: "a", 1: "b"}))
        assert not self.r._indexes

    def test_fully_bound_zero_arity(self):
        flag = ColumnarRelation("flag", 0, [()])
        assert tuple(flag.candidates({})) == ((),)


class TestValueSemantics:
    def test_copy_independent(self):
        r = ColumnarRelation("edge", 2, [("a", "b")])
        clone = r.copy()
        clone.add(("x", "y"))
        assert len(r) == 1
        assert len(clone) == 2

    def test_copy_drops_indexes_by_default(self):
        r = ColumnarRelation("edge", 2, [("a", "b")])
        list(r.candidates({0: "a"}))
        assert not r.copy()._indexes

    def test_copy_with_indexes_carries_them_over(self):
        r = ColumnarRelation("edge", 2, [("a", "b"), ("a", "c")])
        list(r.candidates({0: "a"}))  # build the column-0 index
        clone = r.copy(with_indexes=True)
        assert set(clone._indexes) == {0}
        assert set(clone.candidates({0: "a"})) == {("a", "b"), ("a", "c")}

    def test_copied_indexes_are_independent(self):
        r = ColumnarRelation("edge", 2, [("a", "b")])
        list(r.candidates({0: "a"}))
        clone = r.copy(with_indexes=True)
        clone.add(("a", "z"))
        clone.discard(("a", "b"))
        assert set(clone.candidates({0: "a"})) == {("a", "z")}
        assert set(r.candidates({0: "a"})) == {("a", "b")}

    def test_row_set_is_live(self):
        r = ColumnarRelation("edge", 2, [("a", "b")])
        rows = r.row_set()
        r.add(("b", "c"))
        assert decoded(rows) == {("a", "b"), ("b", "c")}

    def test_equality_by_contents(self):
        r1 = ColumnarRelation("edge", 2, [("a", "b")])
        r2 = ColumnarRelation("edge", 2, [("a", "b")])
        assert r1 == r2
        r2.add(("b", "c"))
        assert r1 != r2

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ColumnarRelation("edge", 2))

    def test_rows_snapshot_safe(self):
        r = ColumnarRelation("edge", 2, [("a", "b"), ("b", "c")])
        for row in r.rows():
            r.discard(row)  # no RuntimeError from mutation during iteration
        assert len(r) == 0


class TestCompositeIndexes:
    """Multi-column hash indexes: registration, probing, maintenance."""

    def setup_method(self):
        self.r = ColumnarRelation(
            "t",
            3,
            [("a", "b", "c"), ("a", "b", "d"), ("a", "x", "c"), ("b", "b", "c")],
        )

    def test_candidates_key_unbound_scans_all(self):
        assert decoded(self.r.candidates_key((), native())) == set(self.r)

    def test_candidates_key_single_column(self):
        assert decoded(self.r.candidates_key((1,), native("b"))) == {
            ("a", "b", "c"),
            ("a", "b", "d"),
            ("b", "b", "c"),
        }

    def test_candidates_key_composite(self):
        assert decoded(self.r.candidates_key((0, 1), native("a", "b"))) == {
            ("a", "b", "c"),
            ("a", "b", "d"),
        }
        assert decoded(self.r.candidates_key((0, 2), native("a", "c"))) == {
            ("a", "b", "c"),
            ("a", "x", "c"),
        }

    def test_candidates_key_composite_miss(self):
        assert tuple(self.r.candidates_key((0, 1), native("z", "z"))) == ()

    def test_candidates_key_fully_bound_is_membership(self):
        assert tuple(self.r.candidates_key((0, 1, 2), native("a", "b", "c"))) == (
            native("a", "b", "c"),
        )
        assert tuple(self.r.candidates_key((0, 1, 2), native("a", "b", "z"))) == ()
        assert not self.r._composite  # no composite index materialised

    def test_composite_probe_registers_signature(self):
        self.r.candidates_key((0, 1), native("a", "b"))
        assert (0, 1) in self.r._registered

    def test_register_index_rejects_trivial_signatures(self):
        self.r.register_index((0,))      # single column: existing index
        self.r.register_index((0, 1, 2))  # full arity: membership test
        assert not self.r._registered

    def test_composite_maintained_across_interleaved_mutation(self):
        probe = lambda: decoded(self.r.candidates_key((0, 1), native("a", "b")))
        assert probe() == {("a", "b", "c"), ("a", "b", "d")}
        self.r.add(("a", "b", "e"))
        assert probe() == {("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")}
        self.r.discard(("a", "b", "c"))
        self.r.discard(("a", "b", "d"))
        assert probe() == {("a", "b", "e")}
        self.r.add(("a", "b", "c"))
        assert probe() == {("a", "b", "c"), ("a", "b", "e")}

    def test_no_stale_rows_after_discard(self):
        # Regression: a discarded row must not linger in composite buckets.
        self.r.candidates_key((0, 1), native("a", "b"))  # build the index
        self.r.discard(("a", "b", "c"))
        assert ("a", "b", "c") not in decoded(self.r.candidates_key((0, 1), native("a", "b")))
        # ... and re-adding it must reappear exactly once.
        self.r.add(("a", "b", "c"))
        rows = list(self.r.candidates_key((0, 1), native("a", "b")))
        assert rows.count(native("a", "b", "c")) == 1

    def test_clear_drops_buckets_keeps_registration(self):
        self.r.candidates_key((0, 1), native("a", "b"))
        self.r.clear()
        assert not self.r._composite
        assert (0, 1) in self.r._registered
        self.r.add(("a", "b", "z"))
        assert decoded(self.r.candidates_key((0, 1), native("a", "b"))) == {("a", "b", "z")}

    def test_copy_carries_registration_not_buckets(self):
        self.r.candidates_key((0, 1), native("a", "b"))
        clone = self.r.copy()
        assert (0, 1) in clone._registered
        assert not clone._composite
        assert decoded(clone.candidates_key((0, 1), native("a", "b"))) == {
            ("a", "b", "c"),
            ("a", "b", "d"),
        }

    def test_copy_with_indexes_carries_composite_buckets(self):
        self.r.candidates_key((0, 1), native("a", "b"))
        clone = self.r.copy(with_indexes=True)
        assert (0, 1) in clone._composite
        clone.add(("a", "b", "z"))
        clone.discard(("a", "b", "c"))
        assert decoded(clone.candidates_key((0, 1), native("a", "b"))) == {
            ("a", "b", "d"),
            ("a", "b", "z"),
        }
        # The original is untouched.
        assert decoded(self.r.candidates_key((0, 1), native("a", "b"))) == {
            ("a", "b", "c"),
            ("a", "b", "d"),
        }

    def test_registered_signature_used_by_bound_dict_candidates(self):
        # candidates() consults registered composite indexes for multi-column
        # bound patterns instead of filtering a single-column bucket.
        self.r.register_index((0, 1))
        assert set(self.r.candidates({0: "a", 1: "b"})) == {
            ("a", "b", "c"),
            ("a", "b", "d"),
        }
        assert (0, 1) in self.r._composite


class TestColumnarRelation:
    """The columnar layout's two dialects and its swap-with-last delete."""

    def setup_method(self):
        self.r = ColumnarRelation(
            "edge", 2, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]
        )

    def test_raw_roundtrip(self):
        assert ("a", "b") in self.r
        assert len(self.r) == 4
        assert set(self.r.rows()) == {("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")}
        assert set(iter(self.r)) == set(self.r.rows())

    def test_add_duplicate_returns_false(self):
        assert not self.r.add(("a", "b"))
        assert len(self.r) == 4

    def test_mixed_value_types(self):
        r = ColumnarRelation("payroll", 2, [("joe", 10), ("ann", 20)])
        assert ("joe", 10) in r
        assert ("joe", 20) not in r
        assert set(r.rows()) == {("joe", 10), ("ann", 20)}

    def test_discard_middle_keeps_columns_dense(self):
        # Swap-with-last: deleting a non-final row moves the last row into
        # its slot; rows(), membership, and the column arrays must agree.
        rows = self.r.rows()
        victim = rows[1]
        assert self.r.discard(victim)
        assert victim not in self.r
        assert len(self.r) == 3
        assert set(self.r.rows()) == set(rows) - {victim}
        for column in range(2):
            assert len(self.r.column(column)) == 3
        # Column arrays still describe exactly the surviving rows.
        decoded = {
            (self.r._interner.value_of(self.r.column(0)[i]),
             self.r._interner.value_of(self.r.column(1)[i]))
            for i in range(3)
        }
        assert decoded == set(self.r.rows())

    def test_repeated_swap_deletes(self):
        # Each delete moves the last row into the hole; the moved row's
        # recorded position must follow it, or deleting it later corrupts
        # the arrays.
        r = ColumnarRelation("v", 1, [(v,) for v in "abcde"])
        remaining = set(r.rows())
        while remaining:
            victim = r.rows()[0]
            assert r.discard(victim)
            remaining.discard(victim)
            assert set(r.rows()) == remaining
            assert {r._interner.value_of(i) for i in r.column(0)} == {
                row[0] for row in remaining
            }

    def test_discard_last_row(self):
        last = self.r.rows()[-1]
        assert self.r.discard(last)
        assert set(self.r.rows()) == set(self.r.rows())
        assert len(self.r.column(0)) == 3

    def test_unseen_value_probe_does_not_grow_interner(self):
        before = len(self.r._interner)
        assert ("never-interned-value", "b") not in self.r
        assert not self.r.discard(("never-interned-value", "b"))
        assert len(self.r._interner) == before

    def test_native_dialect(self):
        native = next(iter(self.r.row_set()))
        assert all(isinstance(ident, int) for ident in native)
        assert self.r.has_native(native)
        raw = self.r.decode_row(native)
        assert raw in self.r
        constants = self.r.row_constants(native)
        assert tuple(c.value for c in constants) == raw

    def test_candidates_raw_dialect(self):
        assert set(self.r.candidates({})) == set(self.r.rows())
        assert set(self.r.candidates({0: "a"})) == {("a", "b"), ("a", "c")}
        assert set(self.r.candidates({0: "a", 1: "c"})) == {("a", "c")}
        assert set(self.r.candidates({0: "zzz"})) == set()

    def test_candidates_key_native_dialect(self):
        interner = self.r._interner
        key = (interner.intern("a"),)
        hits = set(self.r.candidates_key((0,), key))
        assert hits == {interner.encode_row(("a", "b")), interner.encode_row(("a", "c"))}

    def test_index_maintained_after_swap_delete(self):
        list(self.r.candidates({0: "a"}))  # build the column-0 index
        self.r.discard(("a", "b"))
        self.r.add(("a", "z"))
        assert set(self.r.candidates({0: "a"})) == {("a", "c"), ("a", "z")}

    def test_copy_independent_shares_interner(self):
        clone = self.r.copy()
        assert clone._interner is self.r._interner
        clone.add(("x", "y"))
        assert len(self.r) == 4
        assert len(clone) == 5

    def test_clear(self):
        self.r.clear()
        assert len(self.r) == 0
        assert all(len(self.r.column(c)) == 0 for c in range(2))
        assert self.r.add(("a", "b"))

    def test_cross_interner_equality(self):
        # Relations over different intern tables compare by raw contents.
        other = ColumnarRelation("edge", 2, self.r.rows(), interner=InternTable())
        assert self.r == other
        other.add(("z", "z"))
        assert self.r != other

    def test_zero_arity(self):
        flag = ColumnarRelation("flag", 0, [()])
        assert () in flag
        assert tuple(flag.candidates({})) == ((),)
        assert flag.discard(())
        assert len(flag) == 0

    def test_arity_enforced(self):
        with pytest.raises(SchemaError):
            self.r.add(("a",))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.r)
