"""Engine-consumable static facts about a PARK program.

:class:`ProgramFacts` is the analyzer's product that is *not* a
diagnostic: a sound, database-agnostic (or database-sharpened)
over-approximation of what the program can do at runtime —

* **liveness** — a least fixpoint over rules: a rule is *live* iff every
  body literal is statically satisfiable (positive conditions by EDB
  facts or by a live ``+p`` head, event literals by a live ``±p`` head,
  negated conditions always).  Rules outside the fixpoint are *dead*:
  they can never fire in any epoch, under any policy, so the engine may
  prune them from matcher compilation without changing a single firing.
* **emittable marks** — which predicates a live rule can mark ``+`` /
  ``-``; the transaction rules of ``P_U`` count once the engine rebuilds
  facts for the run program.
* **conflict pairs** — the static over-approximation of the paper's
  ``conflicts(P, I)``: predicates emittable with *both* polarities, with
  the witnessing rule pairs filtered to heads that actually unify.  When
  there are none the program is *statically conflict-free*: no round can
  ever produce an inconsistent ``Γ(I)``, so the engine may skip conflict
  detection entirely.
* **stratifiability** — no negation inside a recursive component, i.e.
  PARK coincides with the stratified baseline on the deductive fragment
  and the semi-naive evaluation strategy's monotone split is maximally
  effective.
* **effects and parallel groups** — per-rule read/write effect sets
  (:mod:`repro.lint.effects`), the same-stratum interference matrix, and
  the certified independent rule groups the commutativity pass colors
  out of the non-interference graph (:mod:`repro.lint.commutativity`);
  the runtime independence sanitizer (:mod:`repro.testing.sanitize`)
  cross-checks the certificate against the atoms rules actually touch.

Soundness of the database-agnostic form: with no database in hand every
positive condition is assumed satisfiable (any predicate may have EDB
rows), which only *enlarges* the live set and the emittable marks — so
``conflict_free`` and ``dead`` remain safe answers for every database.
Passing ``database=`` sharpens liveness using which predicates actually
have rows; the engine does this per run (see ``core/engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..engine.dependency import DependencyGraph
from ..lang.terms import Constant
from ..lang.updates import UpdateOp


def atoms_may_unify(left, right):
    """Whether two (possibly non-ground) atoms from *different* rules unify.

    Variables are renamed apart (the atoms come from different rules, so
    ``X`` on one side is unrelated to ``X`` on the other).  This is exact
    unification, not just a predicate/arity check: ``p(a, X)`` unifies
    with ``p(Y, b)`` but not with ``p(b, Y)``, and ``p(X, X)`` does not
    unify with ``p(a, b)``.
    """
    if left.predicate != right.predicate or len(left.terms) != len(right.terms):
        return False
    bindings = {}

    def resolve(term):
        while not isinstance(term, Constant) and term in bindings:
            term = bindings[term]
        return term

    for position, left_term in enumerate(left.terms):
        a = resolve(
            left_term if isinstance(left_term, Constant) else ("l", left_term.name)
        )
        b_term = right.terms[position]
        b = resolve(
            b_term if isinstance(b_term, Constant) else ("r", b_term.name)
        )
        if a == b:
            continue
        if isinstance(a, Constant) and isinstance(b, Constant):
            return False
        if isinstance(a, Constant):
            bindings[b] = a
        else:
            bindings[a] = b
    return True


@dataclass(frozen=True)
class ConflictPair:
    """A predicate statically derivable with both polarities.

    ``insert_rules`` / ``delete_rules`` are the witnessing live rule
    indices whose heads participate in at least one unifiable ``+``/``-``
    pair on the predicate.
    """

    predicate: str
    insert_rules: Tuple[int, ...]
    delete_rules: Tuple[int, ...]

    def to_json(self):
        return {
            "predicate": self.predicate,
            "insert_rules": list(self.insert_rules),
            "delete_rules": list(self.delete_rules),
        }


@dataclass(frozen=True)
class UnmatchedEvent:
    """An event literal no rule head ever emits."""

    rule_index: int
    literal_index: int
    op: UpdateOp
    predicate: str

    def to_json(self):
        return {
            "rule_index": self.rule_index,
            "literal_index": self.literal_index,
            "op": "+" if self.op is UpdateOp.INSERT else "-",
            "predicate": self.predicate,
        }


@dataclass(frozen=True)
class ProgramFacts:
    """Static facts the engine can act on (see module docstring)."""

    rules: Tuple
    stratifiable: bool
    semipositive: bool
    live: FrozenSet[int]
    dead: Tuple[int, ...]
    insertable: FrozenSet[str]
    deletable: FrozenSet[str]
    conflict_pairs: Tuple[ConflictPair, ...]
    unmatched_events: Tuple[UnmatchedEvent, ...]
    database_aware: bool = False
    #: Per-rule effect signatures (lint.effects.RuleEffects), rule order.
    effects: Tuple = ()
    #: Per-rule stratum numbers (by head predicate; all zero when the
    #: program is unstratifiable), rule order.
    rule_strata: Tuple[int, ...] = ()
    #: Same-stratum live rule pairs whose effects may overlap
    #: (lint.commutativity.InterferencePair).
    interference: Tuple = ()
    #: Certified independent rule groups covering exactly the live rules
    #: (lint.commutativity.ParallelGroup): within a group, effects are
    #: pairwise disjoint under unification, so collect/apply order is
    #: unobservable — the engine's group-batched scheduling and the
    #: runtime independence sanitizer both consume this certificate.
    parallel_groups: Tuple = ()

    # -- derived ------------------------------------------------------------

    @property
    def conflict_free(self):
        """No predicate is emittable with both polarities on unifiable heads."""
        return not self.conflict_pairs

    def matches(self, program):
        """Whether these facts were computed for exactly *program*'s rules."""
        return self.rules == tuple(program)

    def live_program(self, program):
        """*program* with the statically dead rules removed.

        Raises :class:`ValueError` when *program* is not the program these
        facts describe — pruning with stale facts would be unsound.
        """
        from ..lang.program import Program

        if not self.matches(program):
            raise ValueError(
                "ProgramFacts were computed for a different program; "
                "re-run ProgramFacts.analyze on the program being pruned"
            )
        if not self.dead:
            return program
        return Program(
            tuple(
                rule
                for index, rule in enumerate(program)
                if index in self.live
            )
        )

    def to_json(self):
        return {
            "rules": len(self.rules),
            "stratifiable": self.stratifiable,
            "semipositive": self.semipositive,
            "conflict_free": self.conflict_free,
            "conflict_pairs": [pair.to_json() for pair in self.conflict_pairs],
            "dead_rules": list(self.dead),
            "unmatched_events": [e.to_json() for e in self.unmatched_events],
            "database_aware": self.database_aware,
            "effects": [effect.to_json() for effect in self.effects],
            "rule_strata": list(self.rule_strata),
            "interference": [pair.to_json() for pair in self.interference],
            "parallel_groups": [g.to_json() for g in self.parallel_groups],
        }

    # -- construction --------------------------------------------------------

    @classmethod
    def analyze(cls, program, database=None):
        """Compute the facts for *program* (any iterable of rules).

        With ``database=`` (a :class:`~repro.storage.database.Database` or
        any iterable of ground atoms), liveness is sharpened: a positive
        condition on a non-derivable predicate is satisfiable only when
        the database actually has rows for it.  Without one, any
        predicate may have EDB rows (the sound, program-only answer).
        """
        from ..lang.literals import Condition, Event

        rules = tuple(program)
        has_rows = None
        if database is not None:
            if hasattr(database, "predicates"):
                has_rows = frozenset(
                    predicate
                    for predicate in database.predicates()
                    if database.count(predicate)
                )
            else:
                has_rows = frozenset(atom.predicate for atom in database)

        # Liveness least fixpoint (see module docstring for the cases).
        live = set()
        insertable = set()
        deletable = set()

        def satisfiable(literal):
            predicate = literal.atom.predicate
            if isinstance(literal, Event):
                store = insertable if literal.op is UpdateOp.INSERT else deletable
                return predicate in store
            if not literal.positive:
                return True  # negation by failure holds over absent atoms
            if has_rows is None or predicate in has_rows:
                return True
            return predicate in insertable

        changed = True
        while changed:
            changed = False
            for index, rule in enumerate(rules):
                if index in live:
                    continue
                if all(satisfiable(literal) for literal in rule.body):
                    live.add(index)
                    head = rule.head
                    store = insertable if head.is_insert else deletable
                    if head.atom.predicate not in store:
                        store.add(head.atom.predicate)
                    changed = True
        dead = tuple(index for index in range(len(rules)) if index not in live)

        # Event hygiene: event literals nothing (live) ever emits.
        unmatched = []
        for index, rule in enumerate(rules):
            for literal_index, literal in enumerate(rule.body):
                if not isinstance(literal, Event):
                    continue
                store = (
                    insertable if literal.op is UpdateOp.INSERT else deletable
                )
                if literal.atom.predicate not in store:
                    unmatched.append(
                        UnmatchedEvent(
                            rule_index=index,
                            literal_index=literal_index,
                            op=literal.op,
                            predicate=literal.atom.predicate,
                        )
                    )

        # Conflict pairs over live rules, refined by head unifiability.
        inserts_by_predicate = {}
        deletes_by_predicate = {}
        for index in sorted(live):
            head = rules[index].head
            bucket = (
                inserts_by_predicate if head.is_insert else deletes_by_predicate
            )
            bucket.setdefault(head.atom.predicate, []).append(index)
        conflict_pairs = []
        for predicate in sorted(
            set(inserts_by_predicate) & set(deletes_by_predicate)
        ):
            insert_witnesses = set()
            delete_witnesses = set()
            for insert_index in inserts_by_predicate[predicate]:
                for delete_index in deletes_by_predicate[predicate]:
                    if atoms_may_unify(
                        rules[insert_index].head.atom,
                        rules[delete_index].head.atom,
                    ):
                        insert_witnesses.add(insert_index)
                        delete_witnesses.add(delete_index)
            if insert_witnesses:
                conflict_pairs.append(
                    ConflictPair(
                        predicate=predicate,
                        insert_rules=tuple(sorted(insert_witnesses)),
                        delete_rules=tuple(sorted(delete_witnesses)),
                    )
                )

        graph = DependencyGraph(rules)
        head_predicates = {rule.head.atom.predicate for rule in rules}
        semipositive = all(
            literal.atom.predicate not in head_predicates
            for rule in rules
            for literal in rule.body
            if isinstance(literal, Condition) and not literal.positive
        )

        # Effect and commutativity analysis: per-rule read/write sets,
        # the same-stratum interference matrix over live rules, and the
        # certified independent groups (lazy imports keep the module
        # dependency order acyclic: commutativity imports from here).
        from .commutativity import certify_groups, rule_strata
        from .effects import compute_effects

        effects = compute_effects(rules)
        strata = rule_strata(rules, graph)
        interference, parallel_groups = certify_groups(
            rules, effects, strata, live
        )
        return cls(
            rules=rules,
            stratifiable=graph.is_stratifiable(),
            semipositive=semipositive,
            live=frozenset(live),
            dead=dead,
            insertable=frozenset(insertable),
            deletable=frozenset(deletable),
            conflict_pairs=tuple(conflict_pairs),
            unmatched_events=tuple(unmatched),
            database_aware=has_rows is not None,
            effects=effects,
            rule_strata=strata,
            interference=interference,
            parallel_groups=parallel_groups,
        )
