"""Deltas: consistent sets of updates, and their application to databases.

The result of a PARK run, the effect of a transaction, and the difference
between two database instances are all *deltas*: sets of ground
:class:`~repro.lang.updates.Update` objects containing no conflicting pair
``+a`` / ``-a``.  This module gives them a first-class type with the obvious
algebra (apply, invert, compose, diff).
"""

from __future__ import annotations

from ..errors import StorageError
from ..lang.updates import Update, UpdateOp


class Delta:
    """An immutable, consistent set of ground updates."""

    __slots__ = ("_inserts", "_deletes")

    def __init__(self, updates=()):
        inserts = set()
        deletes = set()
        for update in updates:
            if not isinstance(update, Update):
                raise TypeError("delta element %r is not an Update" % (update,))
            if not update.is_ground():
                raise StorageError("delta update %s is not ground" % update)
            (inserts if update.is_insert else deletes).add(update.atom)
        overlap = inserts & deletes
        if overlap:
            sample = sorted(str(a) for a in overlap)[0]
            raise StorageError(
                "delta is inconsistent: both +%s and -%s present (%d conflicts)"
                % (sample, sample, len(overlap))
            )
        self._inserts = frozenset(inserts)
        self._deletes = frozenset(deletes)

    # -- construction ------------------------------------------------------------

    @classmethod
    def diff(cls, before, after):
        """The delta turning database *before* into database *after*.

        When both sides are :class:`~repro.storage.database.Database`
        instances the comparison runs per-relation on native row sets (id
        tuples from the one shared intern table, so the set algebra is
        exact), and atom objects are only built for rows that actually
        differ — the common case (a run touching a small fraction of a
        large database) costs O(|difference|) atom constructions instead
        of O(|D|).
        """
        from ..lang.atoms import Atom
        from .database import Database

        if isinstance(before, Database) and isinstance(after, Database):
            updates = []
            predicates = set(before.predicates()) | set(after.predicates())
            for predicate in sorted(predicates):
                before_rel = before.relation(predicate)
                after_rel = after.relation(predicate)
                before_rows = (
                    before_rel.row_set() if before_rel is not None else frozenset()
                )
                after_rows = (
                    after_rel.row_set() if after_rel is not None else frozenset()
                )
                if before_rows == after_rows:
                    continue
                for row in after_rows - before_rows:
                    atom = Atom(predicate, after_rel.row_constants(row))
                    updates.append(Update(UpdateOp.INSERT, atom))
                for row in before_rows - after_rows:
                    atom = Atom(predicate, before_rel.row_constants(row))
                    updates.append(Update(UpdateOp.DELETE, atom))
            return cls(updates)

        before_atoms = before.freeze() if hasattr(before, "freeze") else frozenset(before)
        after_atoms = after.freeze() if hasattr(after, "freeze") else frozenset(after)
        updates = [Update(UpdateOp.INSERT, a) for a in after_atoms - before_atoms]
        updates += [Update(UpdateOp.DELETE, a) for a in before_atoms - after_atoms]
        return cls(updates)

    # -- views --------------------------------------------------------------------

    @property
    def inserts(self):
        """Frozenset of atoms to insert."""
        return self._inserts

    @property
    def deletes(self):
        """Frozenset of atoms to delete."""
        return self._deletes

    def updates(self):
        """All updates as a sorted list (deterministic order)."""
        result = [Update(UpdateOp.INSERT, a) for a in self._inserts]
        result += [Update(UpdateOp.DELETE, a) for a in self._deletes]
        result.sort(key=str)
        return result

    def __len__(self):
        return len(self._inserts) + len(self._deletes)

    def __bool__(self):
        return bool(self._inserts or self._deletes)

    def __iter__(self):
        return iter(self.updates())

    def __contains__(self, update):
        if not isinstance(update, Update):
            return False
        if update.is_insert:
            return update.atom in self._inserts
        return update.atom in self._deletes

    # -- algebra ---------------------------------------------------------------------

    def apply(self, database, in_place=False):
        """Apply this delta to *database*; returns the resulting database.

        Deletions of absent atoms and insertions of present atoms are no-ops,
        matching the paper's ``incorp`` operator.
        """
        target = database if in_place else database.copy()
        for atom in self._deletes:
            target.remove(atom)
        for atom in self._inserts:
            target.add(atom)
        return target

    def invert(self):
        """The delta that undoes this one (w.r.t. a state it was applied to).

        Note this is only a true inverse when every insert was actually new
        and every delete actually present; the transaction layer guarantees
        that by diffing real states instead of inverting blindly.
        """
        updates = [Update(UpdateOp.DELETE, a) for a in self._inserts]
        updates += [Update(UpdateOp.INSERT, a) for a in self._deletes]
        return Delta(updates)

    def then(self, later):
        """Sequential composition: apply ``self``, then *later*.

        Later operations win on the same atom.
        """
        inserts = (self._inserts - later._deletes) | later._inserts
        deletes = (self._deletes - later._inserts) | later._deletes
        updates = [Update(UpdateOp.INSERT, a) for a in inserts]
        updates += [Update(UpdateOp.DELETE, a) for a in deletes]
        return Delta(updates)

    def restricted_to(self, predicates):
        """The sub-delta touching only the given predicate names."""
        wanted = set(predicates)
        return Delta(u for u in self.updates() if u.atom.predicate in wanted)

    def __eq__(self, other):
        if not isinstance(other, Delta):
            return NotImplemented
        return self._inserts == other._inserts and self._deletes == other._deletes

    def __hash__(self):
        return hash((self._inserts, self._deletes))

    def __str__(self):
        if not self:
            return "{}"
        return "{%s}" % ", ".join(str(u) for u in self.updates())

    def __repr__(self):
        return "Delta(+%d, -%d)" % (len(self._inserts), len(self._deletes))


EMPTY_DELTA = Delta()
