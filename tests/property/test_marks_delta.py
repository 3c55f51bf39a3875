"""A delta read off the marks is ``incorp``'s net effect on ``D``.

On a consistent fixpoint ``incorp(I) = (D ∪ I+) − I-`` with
``I+ ∩ I- = ∅``, so the delta ``{+a ∈ I+ | a ∉ D} ∪ {-a ∈ I- | a ∈ D}``
costs one membership test per mark and must equal both
``Delta.diff(D, incorp(I))`` and the engine's ``ParkResult.delta``;
applying it to ``D`` must give the result database.  The generator draws
from a small vocabulary so rules, events and the transaction's own
updates collide often enough to force conflicts and restarts under every
policy and both blocking modes.
"""

from hypothesis import HealthCheck, event, find, given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockingMode
from repro.core.engine import ParkEngine
from repro.core.incorporate import incorp
from repro.errors import NonTerminationError
from repro.lang.atoms import Atom
from repro.lang.literals import Event, neg, pos
from repro.lang.program import Program
from repro.lang.rules import Rule
from repro.lang.terms import Constant, Variable
from repro.lang.updates import Update, UpdateOp
from repro.policies import (
    ConstantPolicy,
    InertiaPolicy,
    PriorityPolicy,
    RandomPolicy,
    SpecificityPolicy,
    TransactionWinsPolicy,
    VotingPolicy,
)
from repro.storage.database import Database
from repro.storage.delta import Delta

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

PREDICATES = ("p", "q", "r", "s")
VALUES = (Constant("a"), Constant("b"))
X = Variable("X")
OPS = st.sampled_from([UpdateOp.INSERT, UpdateOp.DELETE])


def _policies():
    return {
        "inertia": InertiaPolicy(),
        "priority": PriorityPolicy(),
        "specificity": SpecificityPolicy(),
        "random": RandomPolicy(seed=3),
        "insert": ConstantPolicy("insert"),
        "delete": ConstantPolicy("delete"),
        "transaction-wins": TransactionWinsPolicy(),
        "voting": VotingPolicy(
            [InertiaPolicy(), ConstantPolicy("insert"), ConstantPolicy("delete")]
        ),
    }


ground_atoms = st.builds(
    Atom, st.sampled_from(PREDICATES), st.sampled_from(VALUES).map(lambda v: (v,))
)


@st.composite
def rules(draw):
    """A safe unary rule over the vocabulary: its first literal binds X."""
    first = Atom(draw(st.sampled_from(PREDICATES)), (X,))
    if draw(st.booleans()):
        body = [Event(Update(draw(OPS), first))]
    else:
        body = [pos(first)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        atom = Atom(
            draw(st.sampled_from(PREDICATES)),
            (draw(st.sampled_from((X,) + VALUES)),),
        )
        kind = draw(st.sampled_from(("pos", "neg", "event")))
        if kind == "pos":
            body.append(pos(atom))
        elif kind == "neg":
            body.append(neg(atom))
        else:
            body.append(Event(Update(draw(OPS), atom)))
    head = Atom(
        draw(st.sampled_from(PREDICATES)),
        (draw(st.sampled_from((X,) + VALUES)),),
    )
    return Rule(head=Update(draw(OPS), head), body=tuple(body))


@st.composite
def scenarios(draw):
    program = Program(tuple(draw(st.lists(rules(), min_size=1, max_size=5))))
    database = Database(draw(st.lists(ground_atoms, max_size=6)))
    updates = draw(st.lists(st.builds(Update, OPS, ground_atoms), max_size=4))
    return program, database, tuple(updates)


def _marks_delta(interpretation, database):
    """``{+a ∈ I+ | a ∉ D} ∪ {-a ∈ I- | a ∈ D}``."""
    return Delta(
        [Update(UpdateOp.INSERT, a) for a in interpretation.plus.atoms() if a not in database]
        + [Update(UpdateOp.DELETE, a) for a in interpretation.minus.atoms() if a in database]
    )


def _run(scenario, policy, blocking=BlockingMode.ALL, evaluation="seminaive"):
    program, database, updates = scenario
    engine = ParkEngine(
        policy=_policies()[policy],
        blocking_mode=blocking,
        evaluation=evaluation,
        facts=True,
    )
    try:
        return engine.run(program, database, updates=updates)
    except NonTerminationError:
        # Some constant policies cannot make progress on some conflicts;
        # there is no fixpoint and hence no delta to compare.
        return None


@given(
    scenario=scenarios(),
    policy=st.sampled_from(sorted(_policies())),
    blocking=st.sampled_from([BlockingMode.ALL, BlockingMode.MINIMAL]),
    evaluation=st.sampled_from(["naive", "seminaive", "incremental"]),
)
@RELAXED
def test_marks_delta_equals_incorp_diff(scenario, policy, blocking, evaluation):
    database = scenario[1]
    before = database.freeze()
    result = _run(scenario, policy, blocking, evaluation)
    if result is None:
        return
    event("restarted" if result.stats.restarts else "no restart")
    marks = _marks_delta(result.interpretation, database)
    assert marks == Delta.diff(database, incorp(result.interpretation))
    assert marks == result.delta
    assert marks.apply(database) == result.database
    assert database.freeze() == before


def test_generator_reaches_restarts():
    """The generator itself produces scenarios that restart, so the property
    above covers conflict resolution and not only conflict-free runs."""

    def restarts(scenario):
        result = _run(scenario, "inertia")
        return result is not None and result.stats.restarts >= 1

    scenario = find(
        scenarios(),
        restarts,
        settings=settings(max_examples=500, derandomize=True, database=None),
    )
    result = _run(scenario, "inertia")
    assert _marks_delta(result.interpretation, scenario[1]) == result.delta


def test_fixed_restart_case_agrees_under_every_policy():
    """A hand-written restart: ``+q(a)`` fires both ``+p(a)`` and ``-p(a)``."""
    program = Program(
        (
            Rule(head=Update(UpdateOp.INSERT, Atom("p", (X,))),
                 body=(Event(Update(UpdateOp.INSERT, Atom("q", (X,)))),)),
            Rule(head=Update(UpdateOp.DELETE, Atom("p", (X,))),
                 body=(pos(Atom("q", (X,))),)),
        )
    )
    update = Update(UpdateOp.INSERT, Atom("q", (VALUES[0],)))
    for policy in _policies().values():
        result = ParkEngine(policy=policy).run(program, Database(), updates=[update])
        assert result.stats.restarts >= 1
        assert _marks_delta(result.interpretation, Database()) == result.delta
