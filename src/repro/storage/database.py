"""Database instances: indexed sets of ground atoms.

A database instance ``D`` in the paper is simply a set of positive ground
atoms.  :class:`Database` realizes that set with per-predicate relations,
hash indexes, schema checking through a :class:`~repro.storage.catalog.Catalog`,
and cheap copying (the PARK engine snapshots ``D`` once per run; the
baselines snapshot more aggressively).

The class is deliberately *value-like*: equality compares contents, and
:meth:`freeze` produces a canonical frozenset of atoms for hashing and
golden-test comparison.
"""

from __future__ import annotations

from ..errors import SchemaError
from ..lang.atoms import Atom
from ..lang.terms import Constant
from ..obs import metrics as _obs
from .catalog import Catalog
from .relation import ColumnarRelation


class Database:
    """A mutable set of ground atoms, organized into indexed relations."""

    __slots__ = ("catalog", "_relations", "_lookup_registry")

    def __init__(self, atoms=(), catalog=None):
        self.catalog = catalog if catalog is not None else Catalog()
        self._relations = {}
        self._lookup_registry = {}  # predicate -> set of (arity, column tuple)
        for atom in atoms:
            self.add(atom)

    # -- classmethods -----------------------------------------------------------

    @classmethod
    def from_text(cls, text):
        """Build a database from fact syntax: ``Database.from_text("p(a). q.")``."""
        from ..lang.parser import parse_database

        return cls(parse_database(text))

    @classmethod
    def from_tuples(cls, predicate_rows):
        """Build from ``{"edge": [("a", "b"), ...], ...}`` style mappings."""
        db = cls()
        for predicate, rows in predicate_rows.items():
            for row in rows:
                if not isinstance(row, tuple):
                    row = tuple(row)
                db.add(Atom(predicate, tuple(Constant(v) for v in row)))
        return db

    # -- core mutation ------------------------------------------------------------

    def _relation_for(self, atom, create):
        if not isinstance(atom, Atom):
            raise TypeError("expected an Atom, got %r" % (atom,))
        if not atom.is_ground():
            raise SchemaError("database atoms must be ground, got %s" % atom)
        relation = self._relations.get(atom.predicate)
        if relation is None:
            if not create:
                return None
            self.catalog.ensure(atom.predicate, atom.arity)
            relation = ColumnarRelation(atom.predicate, atom.arity)
            for arity, columns in self._lookup_registry.get(atom.predicate, ()):
                if arity == atom.arity:
                    relation.register_index(columns)
            self._relations[atom.predicate] = relation
        elif relation.arity != atom.arity:
            raise SchemaError(
                "predicate %r has arity %d, atom %s has arity %d"
                % (atom.predicate, relation.arity, atom, atom.arity)
            )
        return relation

    def add(self, atom):
        """Insert a ground atom; returns True if it was new."""
        return self._relation_for(atom, create=True).add(atom.value_tuple())

    def remove(self, atom):
        """Delete a ground atom; returns True if it was present."""
        relation = self._relation_for(atom, create=False)
        if relation is None:
            return False
        return relation.discard(atom.value_tuple())

    def update(self, atoms):
        """Insert many atoms."""
        for atom in atoms:
            self.add(atom)

    # -- access ---------------------------------------------------------------------

    def __contains__(self, atom):
        relation = self._relations.get(atom.predicate)
        if relation is None:
            return False
        row = atom.value_tuple()
        return len(row) == relation.arity and row in relation

    def __len__(self):
        return sum(len(r) for r in self._relations.values())

    def __bool__(self):
        return any(len(r) for r in self._relations.values())

    def __iter__(self):
        return self.atoms()

    def atoms(self, predicate=None):
        """Iterate ground atoms, over one predicate or the whole database."""
        if predicate is not None:
            relation = self._relations.get(predicate)
            if relation is None:
                return
            row_constants = relation.row_constants
            for row in list(relation.row_set()):
                yield Atom(predicate, row_constants(row))
            return
        for name in sorted(self._relations):
            yield from self.atoms(name)

    def relation(self, predicate):
        """The :class:`ColumnarRelation` for *predicate*, or ``None``."""
        return self._relations.get(predicate)

    def has_row(self, predicate, arity, row):
        """Membership test on a *storage-native* row.

        The tuple-level twin of ``atom in db``, used by the compiled matcher
        to test ground literals without constructing an :class:`Atom`.  The
        row is a tuple of intern ids.
        """
        relation = self._relations.get(predicate)
        return (
            relation is not None
            and relation.arity == arity
            and relation.has_native(row)
        )

    def register_lookup(self, predicate, arity, columns):
        """Declare a multi-column lookup signature for *predicate*.

        Forwarded to the relation's composite-index machinery
        (:meth:`ColumnarRelation.register_index`); remembered so relations created
        later — e.g. the ``+``/``-`` mark stores, whose relations appear
        when the first mark arrives — pick the signature up on creation.
        Idempotent and cheap; the index itself is built lazily on first
        probe.
        """
        columns = tuple(columns)
        signatures = self._lookup_registry.setdefault(predicate, set())
        signatures.add((arity, columns))
        relation = self._relations.get(predicate)
        if relation is not None and relation.arity == arity:
            relation.register_index(columns)

    def predicates(self):
        """Sorted list of predicate names with at least one declared relation."""
        return sorted(self._relations)

    def constants(self):
        """All constant values appearing in any row, as :class:`Constant` terms."""
        values = set()
        for relation in self._relations.values():
            for row in relation:
                values.update(row)
        return {Constant(v) for v in values}

    def count(self, predicate):
        """Number of rows in *predicate* (0 if unknown)."""
        relation = self._relations.get(predicate)
        return len(relation) if relation is not None else 0

    # -- value semantics ---------------------------------------------------------------

    def copy(self, with_indexes=False):
        """An independent copy (catalog copied, rows copied).

        Indexes are dropped by default; ``with_indexes=True`` carries them
        over (see :meth:`ColumnarRelation.copy`), which the engine uses when copying
        an interpretation every round and when restarting an epoch.
        """
        m = _obs.ACTIVE
        if m is not None:
            m.inc("storage.db_copies")
        clone = Database(catalog=self.catalog.copy())
        clone._relations = {
            name: relation.copy(with_indexes=with_indexes)
            for name, relation in self._relations.items()
        }
        clone._lookup_registry = {
            predicate: set(signatures)
            for predicate, signatures in self._lookup_registry.items()
        }
        return clone

    def freeze(self):
        """The database contents as a canonical ``frozenset`` of atoms."""
        return frozenset(self.atoms())

    def __eq__(self, other):
        if isinstance(other, Database):
            return self.freeze() == other.freeze()
        if isinstance(other, (set, frozenset)):
            return self.freeze() == frozenset(other)
        return NotImplemented

    def __hash__(self):
        raise TypeError("Database is mutable and unhashable; use freeze()")

    def __str__(self):
        from ..lang.pretty import render_atom

        return "{%s}" % ", ".join(sorted(render_atom(a) for a in self.atoms()))

    def __repr__(self):
        return "Database(%d atoms over %d predicates)" % (
            len(self),
            len(self._relations),
        )

