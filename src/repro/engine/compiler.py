"""Slot compiler: rule bodies lowered to flat register-machine programs.

The interpretive matcher in :mod:`repro.engine.match` walks the planner's
literal order with recursive generators, carrying ``{Variable: Constant}``
dicts that are copied at every extension.  That is the right reference
semantics, but every Γ round re-runs it for every rule, so the per-step
allocations dominate the fixpoint on deductive workloads.

This module compiles a rule once into a *slot program*:

* every rule variable gets a fixed integer **slot** in one flat register
  list — bindings become ``slots[i] = row[j]`` instead of dict copies;
* every planner ``bind`` step becomes a step descriptor holding its lookup
  signature (the sorted tuple of columns bound by constants or earlier
  slots), the constant-recheck columns, the slot-write columns, and the
  slot-equality columns (repeated variables, and columns the view may have
  served unbound — views are allowed to return supersets);
* every planner ``check`` step (negation, or a fully-bound binding
  literal) becomes a ground-row template instantiated from slots and
  tested through the view's ``*_holds_row`` methods — no
  :class:`~repro.lang.atoms.Atom` is constructed on the hot path;
* execution is an **iterative cursor stack** over the bind steps — no
  recursion, no generator nesting, intern-id tuples end to end.

Substitutions are reconstructed from slots only when a consumer asks
(``match_rule(freeze=True)``); :func:`repro.engine.match.fireable_heads`
grounds heads straight from slots via a precompiled head template.

The compiler also collects the non-trivial lookup signatures its plan will
probe and registers them with the view (``register_lookup``), which lets
:class:`~repro.storage.relation.ColumnarRelation` build one composite hash index
per signature and maintain it incrementally — the "lookup-signature
handshake" — instead of filtering single-column buckets per probe.

Compiled execution cannot change PARK semantics: it runs the *same* plan
(see :mod:`repro.engine.planner`) with the same validity checks against
the same views; only the mechanics of enumeration differ.  The
interpretive matcher remains the reference oracle, selected with
``REPRO_MATCHER=interpreted`` (see :mod:`repro.engine.match`), and the
two are property-tested bit-identical.
"""

from __future__ import annotations

from ..lang.atoms import Atom
from ..lang.literals import Condition, Event
from ..lang.substitution import Substitution
from ..lang.terms import Constant
from ..lang.updates import Update
from ..obs import metrics as _obs
from ..storage.catalog import INTERNER
from .planner import plan_body


class _BindStep:
    """A ``bind`` plan step lowered to slot operations."""

    __slots__ = (
        "is_event",
        "op",
        "predicate",
        "arity",
        "key_cols",     # sorted tuple of bound column indexes (lookup signature)
        "key_fixed",    # tuple: constant values, None at slot-filled positions
        "key_slots",    # tuple of (index into key, source slot)
        "const_checks", # tuple of (row position, constant value) rechecks
        "writes",       # tuple of (row position, destination slot)
        "eq_checks",    # tuple of (row position, slot to compare against)
        "post_checks",  # _CheckSteps scheduled between this bind and the next
    )

    def __init__(self, literal, key_cols, key_fixed, key_slots, const_checks,
                 writes, eq_checks):
        self.is_event = isinstance(literal, Event)
        self.op = literal.op if self.is_event else None
        self.predicate = literal.atom.predicate
        self.arity = literal.atom.arity
        self.key_cols = key_cols
        self.key_fixed = key_fixed
        self.key_slots = key_slots
        self.const_checks = const_checks
        self.writes = writes
        self.eq_checks = eq_checks
        self.post_checks = []


class _CheckStep:
    """A ``check`` plan step: a ground-row template plus a holds-mode."""

    __slots__ = ("mode", "op", "predicate", "arity", "fixed", "slots")

    def __init__(self, literal, fixed, slots):
        if isinstance(literal, Event):
            self.mode = "event"
            self.op = literal.op
        else:
            self.mode = "pos" if literal.positive else "neg"
            self.op = None
        self.predicate = literal.atom.predicate
        self.arity = literal.atom.arity
        self.fixed = fixed  # complete row tuple when ``slots`` is empty
        self.slots = slots  # tuple of (row index, source slot)

    def holds(self, view, slots):
        if self.slots:
            row = list(self.fixed)
            for index, slot in self.slots:
                row[index] = slots[slot]
            row = tuple(row)
        else:
            row = self.fixed
        if self.mode == "pos":
            return view.condition_holds_row(self.predicate, self.arity, row)
        if self.mode == "neg":
            return view.negation_holds_row(self.predicate, self.arity, row)
        return view.event_holds_row(self.op, self.predicate, self.arity, row)


class CompiledProgram:
    """A rule's body compiled to a slot program, plus head/sub templates."""

    __slots__ = (
        "rule",
        "nslots",
        "prefix_checks",  # checks scheduled before the first bind step
        "bind_steps",
        "registrations",  # (predicate, arity, key_cols) lookup signatures
        "sub_items",      # (Variable, slot) sorted by name — Substitution order
        "head_ground",    # the ready Update when the head has no variables
        "head_op",
        "head_predicate",
        "head_value_fixed",  # native values, None at slot positions
        "head_term_fixed",   # Constant terms, None at slot positions
        "head_slots",        # tuple of (index, slot)
        "sub_cache",         # {slot value tuple: Substitution} memo
        "head_cache",        # {head value tuple: Update} memo
        "instance_cache",    # {owner rule: {slot value tuple: (instance, head)}}
        "_boxed",            # native slot value -> shared Constant
    )

    def __init__(self, rule, view=None):
        self.rule = rule
        # The program speaks the storage-native dialect throughout: every
        # plan constant is encoded to its intern id at compile time, slots
        # hold ids, and Constants are reconstructed through the intern
        # table's shared boxes.
        encode = INTERNER.intern
        self._boxed = INTERNER.constant_of
        slot_of = {}
        prefix_checks = []
        bind_steps = []
        registrations = []

        for step in plan_body(rule, view):
            literal = step.literal
            terms = literal.atom.terms
            if step.kind == "check":
                fixed = [None] * len(terms)
                check_slots = []
                for index, term in enumerate(terms):
                    if isinstance(term, Constant):
                        value = term.value
                        fixed[index] = encode(value)
                    else:
                        check_slots.append((index, slot_of[term]))
                check = _CheckStep(literal, tuple(fixed), tuple(check_slots))
                if bind_steps:
                    bind_steps[-1].post_checks.append(check)
                else:
                    prefix_checks.append(check)
                continue

            key_pairs = []  # (position, const value or None, slot or None)
            const_checks = []
            writes = []
            eq_checks = []
            new_this_step = set()
            for index, term in enumerate(terms):
                if isinstance(term, Constant):
                    value = encode(term.value)
                    key_pairs.append((index, value, None))
                    const_checks.append((index, value))
                    continue
                slot = slot_of.get(term)
                if slot is None:
                    slot = len(slot_of)
                    slot_of[term] = slot
                    new_this_step.add(term)
                    writes.append((index, slot))
                elif term in new_this_step:
                    # Repeated fresh variable (q(X, X)): first occurrence
                    # writes the slot, later ones compare against it.
                    eq_checks.append((index, slot))
                else:
                    # Bound by an earlier step: part of the lookup key, and
                    # re-checked because views may serve supersets.
                    key_pairs.append((index, None, slot))
                    eq_checks.append((index, slot))
            key_cols = tuple(pair[0] for pair in key_pairs)
            key_fixed = tuple(pair[1] for pair in key_pairs)
            key_slots = tuple(
                (key_index, pair[2])
                for key_index, pair in enumerate(key_pairs)
                if pair[2] is not None
            )
            if 2 <= len(key_cols) < len(terms):
                registrations.append(
                    (literal.atom.predicate, len(terms), key_cols)
                )
            bind_steps.append(
                _BindStep(
                    literal,
                    key_cols,
                    key_fixed,
                    key_slots,
                    tuple(const_checks),
                    tuple(writes),
                    tuple(eq_checks),
                )
            )

        for bind in bind_steps:
            bind.post_checks = tuple(bind.post_checks)
        self.nslots = len(slot_of)
        self.prefix_checks = tuple(prefix_checks)
        self.bind_steps = tuple(bind_steps)
        self.registrations = tuple(dict.fromkeys(registrations))
        self.sub_items = tuple(
            sorted(slot_of.items(), key=lambda item: item[0].name)
        )

        head = rule.head
        head_terms = head.atom.terms
        self.head_op = head.op
        self.head_predicate = head.atom.predicate
        value_fixed = [None] * len(head_terms)
        term_fixed = [None] * len(head_terms)
        head_slots = []
        for index, term in enumerate(head_terms):
            if isinstance(term, Constant):
                # Native dialect: the value feeds the head dedup key, which
                # mixes with slot values, so it must match the slot encoding.
                value_fixed[index] = encode(term.value)
                term_fixed[index] = term
            else:
                head_slots.append((index, slot_of[term]))
        self.head_value_fixed = tuple(value_fixed)
        self.head_term_fixed = tuple(term_fixed)
        self.head_slots = tuple(head_slots)
        self.head_ground = head if not head_slots else None
        # Per-program memos: the fixpoint re-enumerates the same groundings
        # every round, so identical slot values should yield the *same*
        # Substitution / Update objects (their hashes are computed once and
        # downstream set operations get identity fast paths).  Bounded by
        # the number of distinct groundings; dropped with the program cache.
        # instance_cache additionally memoizes (RuleGrounding, ground head)
        # pairs, keyed per *owner* rule: delta variants strip rule names, so
        # structurally equal variants of different originals can share one
        # program while their groundings must keep distinct rule identity.
        self.sub_cache = {}
        self.head_cache = {}
        self.instance_cache = {}

    # -- the register machine -----------------------------------------------------

    def register_with(self, view):
        """Hand the plan's lookup signatures to the view (idempotent)."""
        for predicate, arity, columns in self.registrations:
            view.register_lookup(predicate, arity, columns)

    def solutions(self, view):
        """Yield the slot register list once per valid grounding.

        The **same list object** is yielded every time and overwritten in
        place by further search; callers must extract what they need before
        advancing (the public wrappers below do).
        """
        slots = [None] * self.nslots
        for check in self.prefix_checks:
            if not check.holds(view, slots):
                return
        binds = self.bind_steps
        depth_limit = len(binds) - 1
        if depth_limit < 0:
            yield slots
            return

        cursors = [None] * len(binds)
        depth = 0
        cursors[0] = self._probe(binds[0], view, slots)
        while depth >= 0:
            step = binds[depth]
            const_checks = step.const_checks
            writes = step.writes
            eq_checks = step.eq_checks
            post_checks = step.post_checks
            matched = False
            for row in cursors[depth]:
                if const_checks:
                    ok = True
                    for position, value in const_checks:
                        if row[position] != value:
                            ok = False
                            break
                    if not ok:
                        continue
                for position, slot in writes:
                    slots[slot] = row[position]
                if eq_checks:
                    ok = True
                    for position, slot in eq_checks:
                        if row[position] != slots[slot]:
                            ok = False
                            break
                    if not ok:
                        continue
                if post_checks:
                    ok = True
                    for check in post_checks:
                        if not check.holds(view, slots):
                            ok = False
                            break
                    if not ok:
                        continue
                matched = True
                break
            if not matched:
                depth -= 1
            elif depth == depth_limit:
                yield slots
            else:
                depth += 1
                cursors[depth] = self._probe(binds[depth], view, slots)

    @staticmethod
    def _probe(step, view, slots):
        key_fixed = step.key_fixed
        if step.key_slots:
            key = list(key_fixed)
            for key_index, slot in step.key_slots:
                key[key_index] = slots[slot]
            key = tuple(key)
        else:
            key = key_fixed
        if step.is_event:
            rows = view.event_candidates_key(
                step.op, step.predicate, step.arity, step.key_cols, key
            )
        else:
            rows = view.condition_candidates_key(
                step.predicate, step.arity, step.key_cols, key
            )
        return iter(rows)

    # -- consumer-facing wrappers ----------------------------------------------------

    def substitutions(self, view, freeze=True):
        """Yield groundings as :class:`Substitution` (or raw dicts)."""
        self.register_with(view)
        sub_items = self.sub_items
        boxed = self._boxed
        if freeze:
            cache = self.sub_cache
            m = _obs.ACTIVE
            for slots in self.solutions(view):
                key = tuple(slots)
                sub = cache.get(key)
                if sub is None:
                    sub = Substitution._from_sorted(
                        tuple(
                            (variable, boxed(slots[slot]))
                            for variable, slot in sub_items
                        )
                    )
                    cache[key] = sub
                    if m is not None:
                        m.inc("intern.sub_misses")
                elif m is not None:
                    m.inc("intern.sub_hits")
                yield sub
        else:
            for slots in self.solutions(view):
                yield {
                    variable: boxed(slots[slot])
                    for variable, slot in sub_items
                }

    def fireable_updates(self, view):
        """Yield deduplicated ground head updates of every valid grounding."""
        self.register_with(view)
        head_ground = self.head_ground
        if head_ground is not None:
            for _slots in self.solutions(view):
                yield head_ground
                return  # one body match suffices: every grounding yields it
            return
        seen = set()
        head_slots = self.head_slots
        value_fixed = self.head_value_fixed
        term_fixed = self.head_term_fixed
        cache = self.head_cache
        boxed = self._boxed
        m = _obs.ACTIVE
        for slots in self.solutions(view):
            values = list(value_fixed)
            for index, slot in head_slots:
                values[index] = slots[slot]
            values = tuple(values)
            if values in seen:
                continue
            seen.add(values)
            update = cache.get(values)
            if update is None:
                terms = list(term_fixed)
                for index, slot in head_slots:
                    terms[index] = boxed(slots[slot])
                update = Update(
                    self.head_op, Atom(self.head_predicate, tuple(terms))
                )
                cache[values] = update
                if m is not None:
                    m.inc("intern.head_misses")
            elif m is not None:
                m.inc("intern.head_hits")
            yield update

    def matches_once(self, view):
        """True iff the body has at least one valid grounding in *view*."""
        self.register_with(view)
        for _slots in self.solutions(view):
            return True
        return False

    def collect_firings(self, view, owner, blocked, into, factory, touched=None):
        """Enumerate groundings straight into a firings map, slots-first.

        The fixpoint's inner loop: for every valid grounding, memoize
        ``factory(owner, substitution) -> (instance, ground head)`` keyed
        by the raw slot tuple, skip blocked instances, and add new ones to
        ``into`` (``{head Update: set of instances}``).  Returns the number
        of instances actually new in *into*; *touched* (when given)
        collects the heads that gained one.  Because the memo key is the
        slot tuple, a re-enumerated grounding costs one dict hit — no
        Substitution, RuleGrounding, or head Update is rebuilt.

        *owner* is the rule the instances belong to — the original rule
        when executing a delta variant's program.
        """
        self.register_with(view)
        caches = self.instance_cache
        cache = caches.get(owner)
        if cache is None:
            cache = caches[owner] = {}
        cache_get = cache.get
        sub_cache = self.sub_cache
        sub_items = self.sub_items
        boxed = self._boxed
        check_blocked = bool(blocked)
        into_get = into.get
        added = 0
        for slots in self.solutions(view):
            key = tuple(slots)
            entry = cache_get(key)
            if entry is None:
                sub = sub_cache.get(key)
                if sub is None:
                    sub = Substitution._from_sorted(
                        tuple(
                            (variable, boxed(slots[slot]))
                            for variable, slot in sub_items
                        )
                    )
                    sub_cache[key] = sub
                entry = factory(owner, sub)
                cache[key] = entry
            instance, head = entry
            if check_blocked and instance in blocked:
                continue
            bucket = into_get(head)
            if bucket is None:
                into[head] = {instance}
            else:
                # Single-hash insert: compare sizes instead of a separate
                # membership probe (duplicates only arise across programs
                # that share an owner).
                before = len(bucket)
                bucket.add(instance)
                if len(bucket) == before:
                    continue
            added += 1
            if touched is not None:
                touched.add(head)
        return added


_program_cache = {}


def compile_program(rule, view=None):
    """Compile *rule* to a :class:`CompiledProgram` (cached per rule).

    The first compile may consult *view* statistics for the plan's
    tie-breaks; the cached program is reused for every later view, so the
    plan is a deterministic function of the rule and the statistics it was
    first compiled against (performance-only: any plan enumerates the same
    grounding set).
    """
    program = _program_cache.get(rule)
    m = _obs.ACTIVE
    if program is None:
        program = CompiledProgram(rule, view)
        _program_cache[rule] = program
        if m is not None:
            m.inc("compiler.programs_compiled")
    elif m is not None:
        m.inc("compiler.cache_hits")
    return program


def clear_program_cache():
    """Drop all cached compiled programs."""
    _program_cache.clear()
