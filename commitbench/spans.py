"""Span recording around the program's public layer entry points.

The traced run rebinds each layer's entry point — a module attribute
where callers import the function by name, a class attribute for
methods — to a wrapper that records a span ``[name, start, end, parent,
request id]`` (times in integer nanoseconds, ``parent`` an index into the
span list or ``-1`` for a root).  Spans stay in memory and are written
out when the run ends.

A target that no longer exists raises :class:`MissingTarget` before
anything is patched, so deleting or renaming an entry point fails the run
instead of silently zeroing its layer.

Self time is a span's duration minus the durations of its direct
children; summed over a request's spans it telescopes to exactly the
root's duration, which is what makes the per-layer ledger add up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

_AUDIT_HOOKS = (
    "start", "round", "conflict", "verdict", "blocked", "archive_epoch",
    "restart", "finish",
)

#: ``(layer, "module:qualified.name")`` — every entry point the traced run
#: wraps.  A layer may own several entry points.
TARGETS = (
    ("active", "repro.active.activedb:ActiveDatabase.transaction"),
    ("active", "repro.active.activedb:ActiveDatabase._commit"),
    ("active", "repro.active.activedb:ActiveDatabase.program"),
    ("active", "repro.active.transaction:Transaction.insert"),
    ("active", "repro.active.transaction:Transaction.delete"),
    ("active", "repro.active.transaction:Transaction.commit"),
    ("engine.run", "repro.core.engine:ParkEngine.run"),
    ("core.eca.extend", "repro.core.engine:extend_with_updates"),
    ("engine.plancache.facts", "repro.engine.plancache:PlanCache.facts_for"),
    ("lint.analyze", "repro.lint.facts:ProgramFacts.analyze"),
    ("core.interpretation.from_database",
     "repro.core.interpretation:IInterpretation.from_database"),
    ("core.incorporate.incorp", "repro.core.engine:incorp"),
    ("storage.delta.diff", "repro.storage.delta:Delta.diff"),
    ("storage.delta.apply", "repro.storage.delta:Delta.apply"),
    ("engine.match.collect", "repro.core.evaluation:collect_rule_firings"),
    ("core.consequence.gamma", "repro.core.engine:GammaResult"),
    ("core.conflicts.build", "repro.core.engine:build_conflicts"),
    ("core.blocking.resolve", "repro.core.engine:resolve_conflicts"),
    ("core.provenance.record", "repro.core.provenance:Provenance.record"),
) + tuple(
    ("obs.audit.trail", "repro.obs.audit:DecisionTrail.%s" % hook)
    for hook in _AUDIT_HOOKS
) + (
    ("obs.audit.append", "repro.obs.audit:AuditLog.append"),
    ("active.journal.append", "repro.active.journal:Journal.append"),
    ("storage.fsio.fsync", "repro.storage.fsio:RealFS.append"),
    ("engine.query", "repro.engine.query:query_rows"),
    ("engine.query", "repro.engine.query:holds"),
    ("storage.lookup", "repro.storage.database:Database.__contains__"),
    ("storage.lookup", "repro.storage.relation:ColumnarRelation.candidates"),
    ("storage.textio.load", "repro.storage.textio:load_database"),
    ("active.journal.records", "repro.active.journal:Journal.records"),
    ("storage.from_text", "repro.storage.database:Database.from_text"),
    ("active.add_rules", "repro.active.activedb:ActiveDatabase.add_rules"),
    ("active.checkpoint", "repro.active.activedb:ActiveDatabase.checkpoint"),
)


class MissingTarget(RuntimeError):
    """A trace target no longer exists in the program."""


class SpanRecorder:
    """Records nested spans in one thread, in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = 0

    def begin(self, name):
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self._request]
        )
        stack.append(index)
        return index

    def end(self, index):
        if self._stack.pop() != index:
            raise RuntimeError("span %d closed out of order" % index)
        self.spans[index][2] = perf_counter_ns()

    @contextmanager
    def request(self, name):
        """A root span: one commit, read, recovery or set-up."""
        if self._stack:
            raise RuntimeError("request %r opened inside another span" % name)
        self._request += 1
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name, function):
        spans, stack = self.spans, self._stack

        @functools.wraps(function, updated=())
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(
                [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self._request]
            )
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter_ns()

        return traced


def _resolve(path):
    module_name, _, qualified = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as error:
        raise MissingTarget("%s: %s" % (path, error)) from None
    parts = qualified.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget("%s: no %r" % (path, part))
    attribute = parts[-1]
    try:
        raw = inspect.getattr_static(owner, attribute)
    except AttributeError:
        raise MissingTarget("%s: no %r" % (path, attribute)) from None
    return owner, attribute, raw


def _wrapped(raw, make, path):
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(make(raw.__func__))
    if isinstance(raw, property):
        return property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if callable(raw):
        return make(raw)
    raise MissingTarget("%s is not callable" % path)


def instrument(recorder, targets=TARGETS):
    """Wrap every target; returns a function that restores the originals.

    All targets are resolved before any is patched, so a
    :class:`MissingTarget` leaves the program untouched.
    """
    resolved = [(layer, path) + _resolve(path) for layer, path in targets]
    patches = []
    for layer, path, owner, attribute, raw in resolved:
        own = isinstance(owner, type) and attribute in owner.__dict__
        replacement = _wrapped(
            raw, lambda function, layer=layer: recorder.wrap(layer, function), path
        )
        setattr(owner, attribute, replacement)
        patches.append((owner, attribute, raw, own or not isinstance(owner, type)))

    def restore():
        for owner, attribute, raw, own in reversed(patches):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    return restore


def self_times(spans):
    """Each span's duration minus its direct children's durations (ns)."""
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            result[span[3]] -= span[2] - span[1]
    return result


class Ledger:
    """Per-layer self time summed over the requests of one root name.

    ``layers`` maps layer name to total self nanoseconds, ``calls`` to
    span counts; the roots' own self time is the ``unattributed`` row.
    """

    def __init__(self, root):
        self.root = root
        self.requests = 0
        self.total_ns = 0
        self.unattributed_ns = 0
        self.layers = defaultdict(int)
        self.calls = defaultdict(int)
        self.per_request = []  # [{layer: self ns}] in request order

    def balanced(self):
        return sum(self.layers.values()) + self.unattributed_ns == self.total_ns


def ledgers(spans):
    """Group *spans* by root and return ``({root name: Ledger}, nesting errors)``.

    A nesting error is a child whose interval leaves its parent's, or a
    span that never closed; either means the span tree is not a tree of
    calls and the ledger cannot be trusted.
    """
    selfs = self_times(spans)
    roots = [0] * len(spans)
    by_root = {}
    per_root_index = {}
    errors = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors += 1
        if parent < 0:
            roots[index] = index
            ledger = by_root.get(name)
            if ledger is None:
                ledger = by_root[name] = Ledger(name)
            ledger.requests += 1
            ledger.total_ns += end - start
            ledger.unattributed_ns += selfs[index]
            row = {}
            ledger.per_request.append(row)
            per_root_index[index] = (ledger, row)
            continue
        parent_span = spans[parent]
        if start < parent_span[1] or end > parent_span[2]:
            errors += 1
        roots[index] = roots[parent]
        ledger, row = per_root_index[roots[index]]
        ledger.layers[name] += selfs[index]
        ledger.calls[name] += 1
        row[name] = row.get(name, 0) + selfs[index]
    return by_root, errors
