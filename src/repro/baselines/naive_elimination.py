"""The flawed "fixpoint, then eliminate conflicts" semantics (Section 4.1).

The paper's introductory strawman: stubbornly compute the fixpoint of the
immediate consequence operator, *then* drop the conflicting marked pairs
according to the conflict-resolution policy, then incorporate.  The paper
demonstrates with programs P2 and P3 why this is wrong:

* **obsolete consequences** (P2): a fact derived *from* a conflicting
  literal survives even though its justification was eliminated — the
  strawman keeps ``s`` although ``+a`` (its only support) was cancelled;
* **false conflicts** (P3): literals derived from an ambiguous literal can
  manufacture conflicts that would never arise once the ambiguous literal
  is resolved — the strawman cancels ``a`` although PARK correctly keeps
  ``+a``.

We implement it faithfully so tests and benchmarks can reproduce both
counterexamples side by side with PARK (experiment E2/E3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from ..core.incorporate import incorp
from ..policies.base import Decision
from ..policies.inertia import InertiaPolicy
from .inflationary import stubborn_fixpoint


@dataclass
class NaiveResult:
    """Outcome of the fixpoint-then-eliminate computation.

    Attributes:
        database: the result after elimination and incorporation.
        fixpoint: the (possibly inconsistent) raw fixpoint i-interpretation.
        ambiguous_atoms: atoms whose ``+``/``-`` pair was eliminated.
    """

    database: object
    fixpoint: object
    ambiguous_atoms: FrozenSet

    @property
    def atoms(self):
        return self.database.freeze()


def naive_elimination(program, database, updates=None, policy=None):
    """Fixpoint-then-eliminate semantics with an inertia-style elimination.

    For each conflicting atom the *policy* (default: principle of inertia)
    decides which action survives; under inertia both marks are simply
    removed, leaving the atom's original status — exactly the procedure the
    paper walks through before showing it is broken.

    Note the policy here only sees the conflicting atom: this semantics
    resolves conflicts after the fact, when the rule-instance context is
    gone — a symptom of its shallowness.  Atom-level policies (inertia,
    constants) work; policies that inspect ``ins``/``dels`` raise.
    """
    if policy is None:
        policy = InertiaPolicy()

    fixpoint = stubborn_fixpoint(program, database, updates=updates)
    ambiguous = frozenset(fixpoint.conflicting_atoms())

    cleaned = fixpoint.copy()
    for atom in ambiguous:
        decision = _atom_decision(policy, atom, database, program, fixpoint)
        # Drop the losing mark; under inertia both actions cancel because
        # the winner is a no-op relative to D by construction.
        cleaned.plus.remove(atom)
        cleaned.minus.remove(atom)
        if decision is Decision.INSERT and atom in _as_db(database):
            pass  # atom already present; nothing to re-add
        elif decision is Decision.INSERT:
            cleaned.plus.add(atom)
        # DELETE on an atom absent from D is likewise a no-op.
        elif atom in _as_db(database):
            cleaned.minus.add(atom)

    result = incorp(cleaned)
    return NaiveResult(database=result, fixpoint=fixpoint, ambiguous_atoms=ambiguous)


def _as_db(database):
    from ..storage.database import Database

    if isinstance(database, Database):
        return database
    if isinstance(database, str):
        return Database.from_text(database)
    return Database(database)


def _atom_decision(policy, atom, database, program, fixpoint):
    """Ask the policy about an atom-level conflict (no instance context)."""
    from ..policies.base import ConflictContext, check_decision

    context = ConflictContext(
        database=_as_db(database),
        program=program,
        interpretation=fixpoint,
        conflict=_AtomOnlyConflict(atom),
    )
    return check_decision(policy.select(context), policy, context.conflict)


class _AtomOnlyConflict:
    """A conflict stub carrying only the atom (ins/del sets unavailable)."""

    __slots__ = ("atom",)

    def __init__(self, atom):
        self.atom = atom

    @property
    def ins(self):
        raise AttributeError(
            "the fixpoint-then-eliminate semantics has no rule-instance "
            "context; use an atom-level policy (e.g. inertia)"
        )

    dels = ins
