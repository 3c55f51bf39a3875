"""Pretty-printer: render language objects back to parseable source text.

The round-trip property ``parse(render(x)) == x`` holds for terms, atoms,
literals, rules and programs, and is enforced by property-based tests
(``tests/property/test_roundtrip.py``).  Constants that would not survive
re-lexing as bare identifiers (spaces, upper-case first letter, keywords,
empty string, ...) are rendered as quoted strings.
"""

from __future__ import annotations

from .atoms import Atom
from .literals import Condition, Event
from .program import Program
from .rules import Rule
from .terms import Constant, Variable
from .updates import Update

_KEYWORDS = frozenset({"not"})


def is_bare_identifier(text):
    """Whether *text* can be re-lexed as a lower-case identifier."""
    if not text or text in _KEYWORDS:
        return False
    first = text[0]
    if not (first.isalpha() and first.islower()):
        return False
    return all(c.isalnum() or c == "_" for c in text)


def render_term(term):
    """Render a term as parseable source text."""
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Constant):
        if isinstance(term.value, int):
            return str(term.value)
        if is_bare_identifier(term.value):
            return term.value
        # Control characters are escaped so every rendered fact stays on
        # one physical line — snapshots and journal records depend on it.
        escaped = (
            term.value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        return '"%s"' % escaped
    raise TypeError("not a term: %r" % (term,))


def render_atom(atom):
    """Render an atom as parseable source text."""
    if not isinstance(atom, Atom):
        raise TypeError("not an atom: %r" % (atom,))
    if not atom.terms:
        return atom.predicate
    return "%s(%s)" % (atom.predicate, ", ".join(render_term(t) for t in atom.terms))


def render_update(update):
    """Render an update / head action, e.g. ``+q(X)``."""
    if not isinstance(update, Update):
        raise TypeError("not an update: %r" % (update,))
    return "%s%s" % (update.op.sign, render_atom(update.atom))


def render_literal(literal):
    """Render a body literal."""
    if isinstance(literal, Condition):
        text = render_atom(literal.atom)
        return text if literal.positive else "not %s" % text
    if isinstance(literal, Event):
        return render_update(literal.update)
    raise TypeError("not a literal: %r" % (literal,))


def render_rule(rule, include_annotations=True):
    """Render a rule, optionally with its ``@name`` / ``@priority`` annotations."""
    if not isinstance(rule, Rule):
        raise TypeError("not a rule: %r" % (rule,))
    parts = []
    if include_annotations:
        if rule.name is not None:
            parts.append("@name(%s) " % rule.name)
        if rule.priority is not None:
            parts.append("@priority(%d) " % rule.priority)
    if rule.body:
        parts.append(", ".join(render_literal(l) for l in rule.body))
        parts.append(" -> ")
    else:
        parts.append("-> ")
    parts.append(render_update(rule.head))
    parts.append(".")
    return "".join(parts)


def render_program(program):
    """Render a program, one rule per line."""
    if not isinstance(program, Program):
        raise TypeError("not a program: %r" % (program,))
    return "\n".join(render_rule(r) for r in program)


def render_database(atoms):
    """Render a set of ground atoms as a fact list, sorted for determinism."""
    return "\n".join(
        "%s." % render_atom(a) for a in sorted(atoms, key=render_atom)
    )
