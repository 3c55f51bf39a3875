"""Runtime independence sanitizer: TSan wiring over the static race report.

The commutativity analysis (:mod:`repro.lint.commutativity`) certifies
rule groups whose effect sets are statically disjoint (``PARK043``): a
claim that their firings commute.  This module keeps the analyzer honest: with the
sanitizer active, every consistent ``Γ`` round is replayed against the
certificate — the atoms each rule *actually* wrote (from the round's
firings) and *actually* read (from each grounding's ground body) — and
any overlap between two rules of the same certified group fails loudly
with a :class:`SanitizerError` (an :class:`~repro.errors.EngineError`,
so the CLI exits 2) naming both rules and the witnessing atom.

A violation is never a false positive: the certificate claims the two
rules' head/body atoms cannot unify on the overlapping predicate, and a
shared ground atom *is* a unifier.  A clean run proves nothing beyond
the rounds it saw — this is a sanitizer, not a verifier — but it turns
"the analysis is sound" from an argument into a tripwire.

Activation mirrors the other null-telemetry module globals
(``obs.metrics.ACTIVE``, ``obs.audit.ACTIVE``): one pointer test per
engine round when disabled.  Set ``REPRO_SANITIZE=independence`` in the
environment (read at import), pass ``--sanitize independence`` to
``repro run`` / ``repro profile``, or call :func:`set_active` directly.
"""

from __future__ import annotations

import os

from ..errors import EngineError
from ..lang.literals import Event
from ..obs import metrics as _obs


class SanitizerError(EngineError):
    """Observed rule effects falsified a certified independence group."""


class IndependenceSanitizer:
    """Cross-checks PARK043 certificates against observed effects.

    Stateless across runs apart from a per-:class:`ProgramFacts` cache of
    the rule-index and group maps (facts are frozen and hashable, and the
    engine reuses one facts object across the rounds of a run).
    """

    name = "independence"

    def __init__(self):
        self._maps = {}  # ProgramFacts -> (index_of, group_of, checked_groups)

    # -- certificate plumbing ------------------------------------------------

    def _maps_for(self, facts):
        cached = self._maps.get(facts)
        if cached is None:
            index_of = {rule: i for i, rule in enumerate(facts.rules)}
            group_of = {}
            checked_groups = set()
            for group_id, group in enumerate(facts.parallel_groups):
                for rule_index in group.rules:
                    group_of[rule_index] = group_id
                if len(group.rules) > 1:
                    # Singleton groups cannot violate independence.
                    checked_groups.add(group_id)
            cached = (index_of, group_of, checked_groups)
            self._maps[facts] = cached
        return cached

    # -- the per-round check -------------------------------------------------

    def check_round(self, facts, firings, round_number):
        """Raise :class:`SanitizerError` if *firings* falsify the certificate.

        *firings* is the round's ``{head Update: frozenset[RuleGrounding]}``
        map.  Two violations exist: two rules of one certified group wrote
        the same ground atom (write-write; opposite polarities make it the
        non-commutative delete/insert case), or one rule of a group wrote a
        ground atom that another rule of the same group read through a body
        literal (read-write; event literals only observe writes of their
        own polarity, mirroring the static analysis).
        """
        index_of, group_of, checked_groups = self._maps_for(facts)
        if not checked_groups:
            return
        m = _obs.ACTIVE
        if m is not None:
            m.inc("sanitize.rounds_checked")

        # Pass 1: per-group write map (ground atom -> writing rules) and
        # the instances to read-check, from the round's firings.
        writes = {}   # group_id -> {atom: [(rule_index, op)]}
        readers = {}  # group_id -> [(rule_index, RuleGrounding)]
        for update, instances in firings.items():
            for instance in instances:
                rule_index = index_of.get(instance.rule)
                if rule_index is None:
                    continue
                group_id = group_of.get(rule_index)
                if group_id not in checked_groups:
                    continue
                writes.setdefault(group_id, {}).setdefault(
                    update.atom, []
                ).append((rule_index, update.op))
                readers.setdefault(group_id, []).append(
                    (rule_index, instance)
                )

        for group_id, atom_writers in writes.items():
            # Write-write: one ground atom, two certified-independent rules.
            for atom, writers in atom_writers.items():
                rule_indices = {rule_index for rule_index, _ in writers}
                if len(rule_indices) > 1:
                    left, right = sorted(rule_indices)[:2]
                    self._fail(
                        facts, round_number, left, right, atom, "both wrote"
                    )
            # Read-write: a grounding's body atom another group member wrote.
            for rule_index, instance in readers[group_id]:
                for literal in instance.ground_body():
                    writers = atom_writers.get(literal.atom)
                    if not writers:
                        continue
                    is_event = isinstance(literal, Event)
                    for writer_index, op in writers:
                        if writer_index == rule_index:
                            continue
                        if is_event and literal.op is not op:
                            continue
                        self._fail(
                            facts,
                            round_number,
                            writer_index,
                            rule_index,
                            literal.atom,
                            "one wrote and the other read",
                        )

    def _fail(self, facts, round_number, left, right, atom, how):
        m = _obs.ACTIVE
        if m is not None:
            m.inc("sanitize.violations")
        raise SanitizerError(
            "independence sanitizer: certificate violated in round %d: "
            "rules %s and %s are certified independent (same parallel "
            "group) but %s the atom %s — the PARK043 certificate is "
            "unsound for this run; re-run ProgramFacts.analyze or report "
            "an analyzer bug"
            % (
                round_number,
                facts.rules[left].describe(),
                facts.rules[right].describe(),
                how,
                atom,
            )
        )


#: The active sanitizer, or ``None``: the engine loads this once per run
#: and pays one ``is None`` test per consistent round when disabled.
ACTIVE = None


def set_active(sanitizer):
    """Install *sanitizer* (or ``None``) process-wide; returns the previous."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = sanitizer
    return previous


def from_spec(spec):
    """Build a sanitizer from a CLI/env spec (``"independence"`` or empty)."""
    name = (spec or "").strip().lower()
    if not name:
        return None
    if name == "independence":
        return IndependenceSanitizer()
    raise ValueError(
        "unknown sanitizer %r (known: independence)" % spec
    )


# Environment activation: REPRO_SANITIZE=independence turns the sanitizer
# on for every engine run in the process (the CI leg runs the whole test
# suite this way).  Unknown values are ignored rather than raised — an
# import-time failure would take down unrelated tooling.
_env_spec = os.environ.get("REPRO_SANITIZE", "").strip().lower()
if _env_spec == "independence":
    ACTIVE = IndependenceSanitizer()
