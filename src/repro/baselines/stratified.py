"""Stratified (perfect-model) evaluation for stratifiable datalog¬.

The classical semantics between positive datalog and the well-founded
model: when negation never occurs inside a recursive component, evaluate
the strata bottom-up, each stratum's negation reading the *completed*
lower strata.  On stratifiable programs it coincides with the total
well-founded model (property-tested), while being cheaper to compute —
and it is another member of the deductive-semantics family the paper
builds PARK on top of.
"""

from __future__ import annotations

from ..engine.dependency import DependencyGraph
from ..engine.match import fireable_heads
from ..engine.views import FactsView
from ..errors import EngineError, NonTerminationError
from ..lang.program import Program
from ..storage.database import Database


class _StratumView(FactsView):
    """Positives from the growing store; negation against the frozen base.

    ``settled`` holds everything decided by lower strata (plus EDB);
    within the stratum, negation may only mention settled predicates (the
    stratification guarantees it), so reading negation against
    ``settled`` is sound even while the stratum itself still grows.
    """

    __slots__ = ("current", "settled")

    def __init__(self, current, settled):
        self.current = current
        self.settled = settled

    def condition_candidates(self, predicate, arity, bound):
        relation = self.current.relation(predicate)
        if relation is None or relation.arity != arity:
            return ()
        return relation.candidates(bound)

    def condition_holds(self, atom):
        return atom in self.current

    def negation_holds(self, atom):
        return atom not in self.settled

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
        return not self.settled.has_row(predicate, arity, row)

    def event_holds_row(self, op, predicate, arity, row):
        return False

    def register_lookup(self, predicate, arity, columns):
        self.current.register_lookup(predicate, arity, columns)


def _validate(program):
    for rule in program:
        if not rule.head.is_insert:
            raise EngineError(
                "stratified evaluation requires insert-only heads; rule %s "
                "deletes" % rule.describe()
            )
        if rule.event_literals():
            raise EngineError(
                "stratified evaluation has no events; rule %s uses one"
                % rule.describe()
            )


def stratified_fixpoint(program, database, max_rounds=None):
    """The perfect model of a stratifiable program as a :class:`Database`.

    Raises :class:`EngineError` when the program is not stratifiable (use
    :func:`repro.baselines.wellfounded.well_founded` there instead).
    """
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

    graph = DependencyGraph(program)
    strata = graph.stratification()  # raises if not stratifiable

    stratum_of = {}
    for level, predicates in enumerate(strata):
        for predicate in predicates:
            stratum_of[predicate] = level

    current = database.copy()
    for level in range(len(strata)):
        stratum_rules = [
            rule
            for rule in program
            if stratum_of.get(rule.head.atom.predicate, 0) == level
        ]
        if not stratum_rules:
            continue
        settled = current.copy()
        rounds = 0
        while True:
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                raise NonTerminationError(
                    "stratum %d exceeded %d rounds" % (level, max_rounds)
                )
            view = _StratumView(current, settled)
            new_atoms = []
            for rule in stratum_rules:
                for update in fireable_heads(rule, view):
                    if update.atom not in current:
                        new_atoms.append(update.atom)
            if not new_atoms:
                break
            for atom in new_atoms:
                current.add(atom)
    return current
