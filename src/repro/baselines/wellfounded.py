"""The well-founded semantics of Van Gelder, Ross & Schlipf [4].

The paper lists the well-founded semantics among the deductive semantics
that "do not have any conflict resolution strategy"; we implement it as a
comparator for the deductive fragment (insert-only datalog¬ programs) via
the classical **alternating fixpoint** construction:

Let ``A(J)`` be the least model of the positive program obtained by
evaluating every negated literal ``not b`` against the fixed set ``J``
(``not b`` holds iff ``b ∉ J``).  ``A`` is antimonotone, so ``A∘A`` is
monotone; iterating from the empty set::

    K0 = ∅,  U0 = A(K0),  K1 = A(U0),  U1 = A(K1), ...

converges to the least fixpoint ``K∞`` of ``A∘A`` (the *true* atoms) and
the greatest fixpoint ``U∞`` (true-or-unknown).  The well-founded model
is: true = ``K∞``; false = everything not in ``U∞``; unknown = the rest.

For stratified or negation-free programs the unknown set is empty and the
model coincides with the perfect / least model — property-tested against
the datalog engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ..engine.match import fireable_heads
from ..engine.views import FactsView, _atom_from_row
from ..errors import EngineError, NonTerminationError
from ..lang.program import Program
from ..storage.database import Database


@dataclass(frozen=True)
class WellFoundedModel:
    """The three-valued well-founded model of a datalog¬ program."""

    true: FrozenSet
    unknown: FrozenSet

    def is_true(self, atom):
        return atom in self.true

    def is_unknown(self, atom):
        return atom in self.unknown

    def is_false(self, atom):
        return atom not in self.true and atom not in self.unknown

    @property
    def total(self):
        """Whether the model is two-valued (no unknown atoms)."""
        return not self.unknown


class _ReductView(FactsView):
    """Positive literals from the growing database; negation fixed by ``J``."""

    __slots__ = ("current", "assumed")

    def __init__(self, current, assumed):
        self.current = current
        self.assumed = assumed

    def condition_candidates(self, predicate, arity, bound):
        relation = self.current.relation(predicate)
        if relation is None or relation.arity != arity:
            return ()
        return relation.candidates(bound)

    def condition_holds(self, atom):
        return atom in self.current

    def negation_holds(self, atom):
        return atom not in self.assumed

    def event_candidates(self, op, predicate, arity, bound):
        return ()

    def event_holds(self, op, atom):
        return False

    def estimate(self, predicate):
        return self.current.count(predicate)

    # -- row-level fast paths (compiled matcher) ---------------------------------

    def condition_candidates_key(self, predicate, arity, columns, key):
        relation = self.current.relation(predicate)
        if relation is None or relation.arity != arity:
            return ()
        return relation.candidates_key(columns, key)

    def event_candidates_key(self, op, predicate, arity, columns, key):
        return ()

    def condition_holds_row(self, predicate, arity, row):
        return self.current.has_row(predicate, arity, row)

    def negation_holds_row(self, predicate, arity, row):
        # ``assumed`` is a frozenset of atoms (a frozen fixpoint), not a
        # Database, so this check reconstructs the atom.
        return _atom_from_row(predicate, row) not in self.assumed

    def event_holds_row(self, op, predicate, arity, row):
        return False

    def register_lookup(self, predicate, arity, columns):
        self.current.register_lookup(predicate, arity, columns)


def _validate(program):
    for rule in program:
        if not rule.head.is_insert:
            raise EngineError(
                "well-founded semantics requires insert-only heads; rule %s "
                "deletes" % rule.describe()
            )
        if rule.event_literals():
            raise EngineError(
                "well-founded semantics has no events; rule %s uses one"
                % rule.describe()
            )


def _least_model_against(program, database, assumed, max_rounds=None):
    """``A(J)``: least model with negation evaluated against *assumed*."""
    current = database.copy()
    rounds = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise NonTerminationError("reduct evaluation exceeded %d rounds" % max_rounds)
        view = _ReductView(current, assumed)
        new_atoms = []
        for rule in program:
            for update in fireable_heads(rule, view):
                if update.atom not in current:
                    new_atoms.append(update.atom)
        if not new_atoms:
            return current.freeze()
        for atom in new_atoms:
            current.add(atom)


def well_founded(program, database, max_alternations=None):
    """Compute the well-founded model of an insert-only datalog¬ program."""
    if isinstance(program, str):
        from ..lang.parser import parse_program

        program = parse_program(program)
    elif not isinstance(program, Program):
        program = Program(tuple(program))
    if isinstance(database, str):
        database = Database.from_text(database)
    elif not isinstance(database, Database):
        database = Database(database)
    _validate(program)

    true_set = frozenset()
    alternations = 0
    while True:
        alternations += 1
        if max_alternations is not None and alternations > max_alternations:
            raise NonTerminationError(
                "alternating fixpoint exceeded %d alternations" % max_alternations
            )
        upper = _least_model_against(program, database, true_set)
        new_true = _least_model_against(program, database, upper)
        if new_true == true_set:
            return WellFoundedModel(true=true_set, unknown=frozenset(upper - true_set))
        true_set = new_true
