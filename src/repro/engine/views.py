"""Fact views: the interface between the matcher and a fact source.

The body-matching engine is shared between the PARK semantics (matching
against an i-interpretation with the paper's validity rules) and the
baseline deductive engines (matching against a plain database under the
closed-world assumption).  A :class:`FactsView` abstracts the difference:

* ``condition_candidates`` / ``condition_holds`` realize validity of
  *positive* condition literals;
* ``negation_holds`` realizes validity of *negated* condition literals;
* ``event_candidates`` / ``event_holds`` realize validity of *event*
  literals (``+a`` / ``-a`` in rule bodies; Section 4.3).

Candidate methods return raw value tuples consistent with the bound columns
(a superset is permitted — the matcher re-checks bindings), which lets
implementations serve them straight from hash indexes.

The compiled matcher (:mod:`repro.engine.compiler`) additionally speaks a
*row-level* dialect of the same protocol — ``*_candidates_key`` lookups
taking a prebuilt ``(columns, key)`` pair instead of a dict, ``*_holds_row``
ground checks taking an intern-id row instead of an :class:`Atom`, and
``register_lookup`` for the composite-index handshake.  Every row-level
method has a default implementation in terms of the atom-level one, so
existing :class:`FactsView` subclasses keep working unmodified; the
built-in views override them to stay allocation-free on the hot path.
"""

from __future__ import annotations

from ..lang.atoms import Atom
from ..storage.catalog import INTERNER


def _atom_from_row(predicate, row):
    """Reconstruct a ground :class:`Atom` from a native (intern-id) row."""
    constant_of = INTERNER.constant_of
    return Atom(predicate, tuple(constant_of(ident) for ident in row))


class FactsView:
    """Abstract fact source for the matcher.

    Subclasses must override the five atom-level methods; the row-level
    methods and ``register_lookup`` have working defaults.
    """

    def condition_candidates(self, predicate, arity, bound):
        """Rows that could make a positive condition on *predicate* valid.

        *bound* maps column index to a constant value; returned rows must
        include every row matching those bindings (supersets allowed).
        """
        raise NotImplementedError

    def condition_holds(self, atom):
        """Whether the positive condition literal on ground *atom* is valid."""
        raise NotImplementedError

    def negation_holds(self, atom):
        """Whether the negated condition literal ``not atom`` is valid."""
        raise NotImplementedError

    def event_candidates(self, op, predicate, arity, bound):
        """Rows that could make the event literal ``±predicate(...)`` valid."""
        raise NotImplementedError

    def event_holds(self, op, atom):
        """Whether the event literal ``±atom`` is valid for ground *atom*."""
        raise NotImplementedError

    def estimate(self, predicate):
        """A size estimate for *predicate*.

        Consulted by the join planner as a tie-break between equally-bound
        body literals when a view is passed to
        :func:`repro.engine.planner.plan_body` (the compiled matcher does
        this on first compile); smaller estimates are scheduled earlier.
        Only relative magnitudes matter, and ``0`` (the default) simply
        leaves the ordering to body position.
        """
        return 0

    # -- row-level dialect (compiled matcher) ----------------------------------

    def condition_candidates_key(self, predicate, arity, columns, key):
        """Rows whose *columns* equal *key* — positional twin of
        :meth:`condition_candidates` (same superset allowance).

        The row-level dialect is storage-native: the default bridge decodes
        the id key into raw values for the atom-level method and re-encodes
        the returned rows, so subclasses that only implement the atom-level
        protocol stay correct (if slow — the built-in views override these
        with zero-copy paths).
        """
        value_of = INTERNER.value_of
        bound = {c: value_of(k) for c, k in zip(columns, key)}
        encode = INTERNER.encode_row
        return (
            encode(row)
            for row in self.condition_candidates(predicate, arity, bound)
        )

    def event_candidates_key(self, op, predicate, arity, columns, key):
        """Positional twin of :meth:`event_candidates` (same native bridge)."""
        value_of = INTERNER.value_of
        bound = {c: value_of(k) for c, k in zip(columns, key)}
        encode = INTERNER.encode_row
        return (
            encode(row)
            for row in self.event_candidates(op, predicate, arity, bound)
        )

    def condition_holds_row(self, predicate, arity, row):
        """Row-tuple twin of :meth:`condition_holds` for ground literals."""
        return self.condition_holds(_atom_from_row(predicate, row))

    def negation_holds_row(self, predicate, arity, row):
        """Row-tuple twin of :meth:`negation_holds`."""
        return self.negation_holds(_atom_from_row(predicate, row))

    def event_holds_row(self, op, predicate, arity, row):
        """Row-tuple twin of :meth:`event_holds`."""
        return self.event_holds(op, _atom_from_row(predicate, row))

    def register_lookup(self, predicate, arity, columns):
        """Declare that compiled plans will probe *predicate* binding exactly
        *columns* (sorted tuple).  Views over indexed storage forward this
        to :meth:`repro.storage.database.Database.register_lookup` so the
        matching composite indexes are built once and maintained
        incrementally; the default is a no-op."""


class DatabaseView(FactsView):
    """Closed-world view over a plain :class:`~repro.storage.database.Database`.

    Positive conditions are membership, negation is absence, and event
    literals are never valid (a plain database has no pending updates).
    Used by the deductive baselines.
    """

    __slots__ = ("database",)

    def __init__(self, database):
        self.database = database

    def condition_candidates(self, predicate, arity, bound):
        relation = self.database.relation(predicate)
        if relation is None or relation.arity != arity:
            return ()
        return relation.candidates(bound)

    def condition_holds(self, atom):
        return atom in self.database

    def negation_holds(self, atom):
        return atom not in self.database

    def event_candidates(self, op, predicate, arity, bound):
        return ()

    def event_holds(self, op, atom):
        return False

    def estimate(self, predicate):
        return self.database.count(predicate)

    # -- row-level fast paths ----------------------------------------------------

    def condition_candidates_key(self, predicate, arity, columns, key):
        relation = self.database.relation(predicate)
        if relation is None or relation.arity != arity:
            return ()
        return relation.candidates_key(columns, key)

    def event_candidates_key(self, op, predicate, arity, columns, key):
        return ()

    def condition_holds_row(self, predicate, arity, row):
        return self.database.has_row(predicate, arity, row)

    def negation_holds_row(self, predicate, arity, row):
        return not self.database.has_row(predicate, arity, row)

    def event_holds_row(self, op, predicate, arity, row):
        return False

    def register_lookup(self, predicate, arity, columns):
        self.database.register_lookup(predicate, arity, columns)


class AtomSetView(FactsView):
    """Closed-world view over a plain set/frozenset of ground atoms.

    Convenient for tests and for one-shot queries where building a full
    :class:`Database` (with indexes) would cost more than the scan.
    """

    __slots__ = (
        "_atoms",
        "_by_predicate",
        "_row_sets",
        "_native_rows",
        "_native_sets",
        "_counts",
    )

    def __init__(self, atoms):
        self._atoms = frozenset(atoms)
        self._by_predicate = {}
        for atom in self._atoms:
            self._by_predicate.setdefault(atom.signature(), []).append(
                atom.value_tuple()
            )
        self._row_sets = {
            signature: frozenset(rows)
            for signature, rows in self._by_predicate.items()
        }
        # The row-level dialect serves id-encoded copies of the rows.
        encode = INTERNER.encode_row
        self._native_rows = {
            signature: [encode(row) for row in rows]
            for signature, rows in self._by_predicate.items()
        }
        self._native_sets = {
            signature: frozenset(rows)
            for signature, rows in self._native_rows.items()
        }
        # Per-predicate-name totals, so estimate() is a dict hit instead of
        # an O(#signatures) scan per call (the planner may consult it once
        # per body literal per compile).
        self._counts = {}
        for (name, _arity), rows in self._by_predicate.items():
            self._counts[name] = self._counts.get(name, 0) + len(rows)

    def condition_candidates(self, predicate, arity, bound):
        rows = self._by_predicate.get((predicate, arity), ())
        if not bound:
            return rows
        if len(bound) == arity:
            # Fully bound: answer with one membership test instead of a scan.
            row = tuple(bound[column] for column in range(arity))
            row_set = self._row_sets.get((predicate, arity), frozenset())
            return (row,) if row in row_set else ()
        return (
            row for row in rows if all(row[c] == v for c, v in bound.items())
        )

    def condition_holds(self, atom):
        return atom in self._atoms

    def negation_holds(self, atom):
        return atom not in self._atoms

    def event_candidates(self, op, predicate, arity, bound):
        return ()

    def event_holds(self, op, atom):
        return False

    def estimate(self, predicate):
        return self._counts.get(predicate, 0)

    # -- row-level fast paths ----------------------------------------------------

    def condition_candidates_key(self, predicate, arity, columns, key):
        rows = self._native_rows.get((predicate, arity), ())
        if not columns:
            return rows
        if len(columns) == arity:
            # columns is sorted and distinct, so key is the row itself.
            row_set = self._native_sets.get((predicate, arity), frozenset())
            return (key,) if key in row_set else ()
        pairs = tuple(zip(columns, key))
        return (
            row for row in rows if all(row[c] == v for c, v in pairs)
        )

    def condition_holds_row(self, predicate, arity, row):
        return row in self._native_sets.get((predicate, arity), frozenset())

    def negation_holds_row(self, predicate, arity, row):
        return row not in self._native_sets.get((predicate, arity), frozenset())

    def event_candidates_key(self, op, predicate, arity, columns, key):
        return ()

    def event_holds_row(self, op, predicate, arity, row):
        return False
