"""Model-based test of the columnar relation against a Python set.

:class:`~repro.storage.relation.ColumnarRelation` stores rows as tuples
of intern-table ids in per-column ``array('q')`` arrays, deletes by
swap-with-last, and keeps its single-column and composite indexes up to
date incrementally.  A plain ``set`` of raw rows is the model: the
relation is driven through a random mutation sequence and after every
step its raw dialect (rows, length, membership) must agree with the set,
and every bound-column probe must return exactly the model's
matching rows.
"""

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.relation import ColumnarRelation

RELAXED = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_VALUES = ("a", "b", "c", 1, 2)


@st.composite
def mutation_sequences(draw):
    arity = draw(st.integers(min_value=0, max_value=3))
    # Ops draw from a small row pool so adds, re-adds and discards of
    # present rows (the swap-delete and index-upkeep paths) are common.
    row = st.tuples(*[st.sampled_from(_VALUES)] * arity)
    pool = draw(st.lists(row, min_size=1, max_size=5, unique=True))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "discard"]), st.sampled_from(pool)),
            max_size=25,
        )
    )
    probes = draw(
        st.lists(
            st.tuples(*[st.sampled_from(_VALUES + ("zzz",))] * arity),
            max_size=5,
        )
    )
    return arity, ops, probes


def _check_probes(relation, model, seen, arity):
    """Every bound-column probe returns exactly the model's matching rows.

    Keys come from every row ever added (*seen*), so a deleted row that
    lingers in an index bucket is probed for and caught.
    """
    assert set(relation.candidates({})) == model
    for width in range(1, arity + 1):
        for columns in combinations(range(arity), width):
            keys = {tuple(row[c] for c in columns) for row in seen}
            for key in keys | {("zzz",) * width}:
                bound = dict(zip(columns, key))
                expected = {
                    row for row in model
                    if all(row[c] == v for c, v in bound.items())
                }
                assert set(relation.candidates(bound)) == expected


@given(mutation_sequences())
@RELAXED
def test_columnar_matches_set_model(sequence):
    arity, ops, probes = sequence
    model = set()
    seen = set()
    relation = ColumnarRelation("r", arity)
    # Registered composite signatures route multi-column probes through
    # composite indexes; probing after every step builds the indexes early
    # so the rest of the sequence exercises their incremental upkeep.
    for width in range(2, arity):
        for columns in combinations(range(arity), width):
            relation.register_index(columns)
    for op, row in ops:
        if op == "add":
            assert relation.add(row) == (row not in model)
            model.add(row)
            seen.add(row)
        else:
            assert relation.discard(row) == (row in model)
            model.discard(row)
        assert len(relation) == len(model)
        assert set(relation.rows()) == model
        if arity:
            # The dense column arrays describe exactly the live rows.
            value_of = relation._interner.value_of
            columns = [relation.column(c) for c in range(arity)]
            assert {
                tuple(value_of(ids[i]) for ids in columns)
                for i in range(len(columns[0]))
            } == model
        _check_probes(relation, model, seen, arity)
    for row in probes:
        assert (row in relation) == (row in model)
