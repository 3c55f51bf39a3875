"""The benchmark's two workloads and the plain-Python models that check them.

Each workload turns a seed into *inputs* — fact text, rule text, a stream
of transactions and the reads that follow each commit — and provides a
*model*: an independent re-statement of what the rules must do, kept in
plain sets.  The runner hands the engine only the generated inputs and
checks every commit's delta, every read's answer and every recovered
database against the model.

A fact is ``(predicate, values)``; a transaction is a tuple of updates
``(op, predicate, values)`` with ``op`` ``"+"`` or ``"-"``; a read is
``(kind, target, args)``:

* ``("contains", predicate, values)`` — ``db.contains``;
* ``("select", predicate, pattern)`` — ``db.select`` (``None`` = wildcard);
* ``("query", template, args)`` / ``("ask", template, args)`` —
  ``db.query`` / ``db.ask`` with the workload's template text formatted
  by *args*; the model answers the same template in plain Python.
"""

from __future__ import annotations

import random
from collections import defaultdict

WARMUP_COMMITS = 3


class Inputs:
    """Everything generated from one seed."""

    def __init__(self, facts, rules_text, warmup, stream, sizes):
        self.facts = tuple(facts)
        self.rules_text = rules_text
        self.warmup = warmup  # [(tx, reads)]
        self.stream = stream  # [(tx, reads)]
        self.sizes = sizes

    def facts_text(self):
        return "\n".join(render_fact(fact) for fact in self.facts)


def render_fact(fact):
    predicate, values = fact
    if not values:
        return "%s." % predicate
    return "%s(%s)." % (predicate, ", ".join(str(v) for v in values))


class FactSet:
    """Facts grouped by predicate, with the first column indexed."""

    def __init__(self, facts=()):
        self.rows = defaultdict(set)
        self.by_key = defaultdict(lambda: defaultdict(set))
        for predicate, values in facts:
            self.add(predicate, values)

    def add(self, predicate, values):
        if values in self.rows[predicate]:
            return False
        self.rows[predicate].add(values)
        if values:
            self.by_key[predicate][values[0]].add(values)
        return True

    def discard(self, predicate, values):
        if values not in self.rows[predicate]:
            return False
        self.rows[predicate].discard(values)
        if values:
            bucket = self.by_key[predicate][values[0]]
            bucket.discard(values)
            if not bucket:
                del self.by_key[predicate][values[0]]
        return True

    def contains(self, predicate, values):
        return values in self.rows.get(predicate, ())

    def key_rows(self, predicate, key):
        return self.by_key[predicate].get(key, ()) if predicate in self.by_key else ()

    def select(self, predicate, pattern):
        if pattern and pattern[0] is not None:
            candidates = self.key_rows(predicate, pattern[0])
        else:
            candidates = self.rows.get(predicate, ())
        return [
            row
            for row in candidates
            if len(row) == len(pattern)
            and all(p is None or p == v for p, v in zip(pattern, row))
        ]

    def facts(self):
        return {(p, row) for p, rows in self.rows.items() for row in rows}


class Model:
    """Base of the workload models: a fact set plus the read answers."""

    def __init__(self, facts):
        self.state = FactSet(facts)

    def apply(self, inserted, deleted):
        for predicate, values in deleted:
            self.state.discard(predicate, values)
        for predicate, values in inserted:
            self.state.add(predicate, values)

    def answer(self, read):
        kind, target, args = read
        if kind == "contains":
            return self.state.contains(target, args)
        if kind == "select":
            return sorted(self.state.select(target, args), key=str)
        answers = getattr(self, "answer_" + target)(*args)
        if kind == "ask":
            return bool(answers)
        return answers

    def facts(self):
        return self.state.facts()


def query_text(read):
    """The query text the engine receives for a ``query``/``ask`` read."""
    _, target, args = read
    return TEMPLATES[target].format(*args)


def _shuffled(rng, pattern, count):
    """*count* items cycling through *pattern*, in a seeded random order."""
    items = [pattern[i % len(pattern)] for i in range(count)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# eca-ledger: event-triggered rules over accounts, small transactions.

LEDGER_RULES = """\
@name(post) +deposit(A, T), account(A), not frozen(A) -> +ledger(A, T).
@name(hold) +deposit(A, T), frozen(A) -> +held(A, T).
@name(unpost) -deposit(A, T), ledger(A, T) -> -ledger(A, T).
@name(unhold) -deposit(A, T), held(A, T) -> -held(A, T).
@name(thaw) -frozen(A), held(A, T) -> +ledger(A, T).
@name(release) -frozen(A), held(A, T) -> -held(A, T).
"""


class LedgerModel(Model):
    """Deposits post to the ledger unless the account is frozen, in which
    case they are held; thawing posts every held deposit; undoing a
    deposit removes its ledger or held entry.

    A transaction that stages both ``+deposit(a, t)`` and ``-deposit(a, t)``
    (a cancelled deposit) makes its two transaction rules conflict in the
    first round; the inertia policy keeps the absent deposit absent, so it
    blocks the insertion, restarts once, and the deposit leaves no trace.
    """

    def __init__(self, facts):
        super().__init__(facts)
        self.last_restarts = self.last_conflicts = 0

    def commit(self, tx):
        state = self.state
        inserted, deleted = set(), set()
        cancelled = {values for op, predicate, values in tx
                     if predicate == "deposit" and op == "-"} & {
                         values for op, predicate, values in tx
                         if predicate == "deposit" and op == "+"}
        self.last_conflicts = len(cancelled)
        self.last_restarts = 1 if cancelled else 0
        for op, predicate, values in tx:
            account = values[0]
            if predicate == "deposit" and values in cancelled:
                continue
            if predicate == "deposit" and op == "+":
                inserted.add(("deposit", values))
                if state.contains("frozen", (account,)):
                    inserted.add(("held", values))
                else:
                    inserted.add(("ledger", values))
            elif predicate == "deposit":
                deleted.add(("deposit", values))
                for target in ("ledger", "held"):
                    if state.contains(target, values):
                        deleted.add((target, values))
            elif op == "+":
                inserted.add(("frozen", values))
            else:
                deleted.add(("frozen", values))
                for row in state.key_rows("held", account):
                    deleted.add(("held", row))
                    inserted.add(("ledger", row))
        inserted = {f for f in inserted if not state.contains(*f)}
        deleted = {f for f in deleted if state.contains(*f)}
        self.apply(inserted, deleted)
        return inserted, deleted

    def answer_unposted(self, account):
        return [
            {"T": row[1]}
            for row in self.state.key_rows("deposit", account)
            if not self.state.contains("ledger", row)
        ]

    def answer_held_unfrozen(self):
        return [
            {"A": row[0], "T": row[1]}
            for row in self.state.rows.get("held", ())
            if not self.state.contains("frozen", (row[0],))
        ]


def _ledger(seed, scale, commits):
    rng = random.Random(seed)
    accounts = ["a%d" % i for i in range(max(20, round(3000 * scale)))]
    owners = max(5, len(accounts) // 4)
    facts = []
    for account in accounts:
        facts.append(("account", (account,)))
        facts.append(("balance", (account, rng.randrange(100, 100000))))
        facts.append(("owner", (account, "o%d" % rng.randrange(owners))))
    frozen = set(rng.sample(accounts, len(accounts) // 20))
    facts += [("frozen", (a,)) for a in sorted(frozen)]
    next_id = 0
    for _ in range(max(10, round(800 * scale))):
        account = rng.choice(accounts)
        row = (account, "t%d" % next_id)
        next_id += 1
        facts.append(("deposit", row))
        facts.append(("held" if account in frozen else "ledger", row))

    model = LedgerModel(facts)
    seen = set()
    # Sizes and update kinds are shuffled from fixed multisets, so every
    # seed commits the same mix and only the keys differ.
    total = WARMUP_COMMITS + commits
    tx_sizes = _shuffled(rng, [1, 2, 3], total)
    kinds = _shuffled(
        rng, ["deposit"] * 12 + ["undo"] * 3 + ["toggle"] * 5 + ["cancel"] * 2,
        sum(tx_sizes),
    )

    def transaction(size):
        nonlocal next_id
        while True:
            used, tx = set(), []
            for kind in kinds[:size]:
                deposits = kind == "undo" and sorted(model.state.rows["deposit"])
                if deposits:
                    row = rng.choice(deposits)
                    while row[0] in used:
                        row = rng.choice(deposits)
                    used.add(row[0])
                    tx.append(("-", "deposit", row))
                    continue
                account = rng.choice(accounts)
                while account in used:
                    account = rng.choice(accounts)
                used.add(account)
                if kind == "cancel":
                    row = (account, "t%d" % next_id)
                    next_id += 1
                    tx += [("+", "deposit", row), ("-", "deposit", row)]
                elif kind != "toggle":
                    tx.append(("+", "deposit", (account, "t%d" % next_id)))
                    next_id += 1
                elif model.state.contains("frozen", (account,)):
                    tx.append(("-", "frozen", (account,)))
                else:
                    tx.append(("+", "frozen", (account,)))
            key = frozenset(tx)
            if key not in seen:
                seen.add(key)
                del kinds[:size]
                return tuple(tx)

    def reads(tx):
        _, predicate, values = tx[0]
        account = values[0]
        if predicate == "deposit":
            lookup = ("contains", "ledger", values)
        else:
            lookup = ("contains", "frozen", values)
        other = rng.choice(accounts)
        return (
            lookup,
            ("select", "ledger", (account, None)),
            ("select", "held", (account, None)),
            ("select", "owner", (other, None)),
            ("query", "unposted", (account,)),
            ("query", "unposted", (other,)),
            ("ask", "held_unfrozen", ()),
        )

    stream = []
    for size in tx_sizes:
        tx = transaction(size)
        model.commit(tx)
        stream.append((tx, reads(tx)))
    sizes = {
        "facts": len(facts),
        "accounts": len(accounts),
        "commits": commits,
        "updates_per_commit": "1-3 (a cancelled deposit stages 2)",
    }
    return Inputs(facts, LEDGER_RULES, stream[:WARMUP_COMMITS],
                  stream[WARMUP_COMMITS:], sizes)


# ---------------------------------------------------------------------------
# hr-payroll: the paper's Section 2 cleanup rule plus ECA bookkeeping,
# batch transactions.

HR_RULES = """\
@name(cleanup) emp(X), not active(X), payroll(X, S) -> -payroll(X, S).
@name(audit_trail) -payroll(X, S) -> +audit(X, S).
@name(severance) -active(X), payroll(X, S) -> +severance(X).
"""


class PayrollModel(Model):
    """Deactivating an employee drops their payroll rows, audits each
    dropped row and schedules severance; hiring inserts as staged."""

    def commit(self, tx):
        state = self.state
        inserted, deleted = set(), set()
        for op, predicate, values in tx:
            if op == "+":
                inserted.add((predicate, values))
                continue
            deleted.add((predicate, values))
            employee = values[0]
            rows = list(state.key_rows("payroll", employee))
            if predicate == "active" and state.contains("emp", (employee,)):
                for row in rows:
                    deleted.add(("payroll", row))
                    inserted.add(("audit", row))
            if predicate == "active" and rows:
                inserted.add(("severance", (employee,)))
        inserted = {f for f in inserted if not state.contains(*f)}
        deleted = {f for f in deleted if state.contains(*f)}
        self.apply(inserted, deleted)
        return inserted, deleted

    def answer_unpaid(self, employee):
        if self.state.contains("active", (employee,)):
            return []
        return [{"S": row[1]} for row in self.state.key_rows("payroll", employee)]

    def answer_severed(self, employee):
        if self.state.contains("severance", (employee,)) and not self.state.contains(
            "active", (employee,)
        ):
            return [{}]
        return []

    def answer_stale_payroll(self, employee):
        if not self.state.contains("emp", (employee,)) or self.state.contains(
            "active", (employee,)
        ):
            return []
        return [{"S": row[1]} for row in self.state.key_rows("payroll", employee)]


def _salary(index):
    return 1000 + (index % 50) * 10


def _payroll(seed, scale, commits):
    rng = random.Random(seed)
    facts = []
    active = []
    for index in range(max(60, round(3000 * scale))):
        name = "e%d" % index
        facts.append(("emp", (name,)))
        if rng.random() < 0.95:
            active.append(name)
            facts.append(("active", (name,)))
            facts.append(("payroll", (name, _salary(index))))
        else:
            facts.append(("severance", (name,)))
            facts.append(("audit", (name, _salary(index))))
    employees = len(active) + sum(1 for p, _ in facts if p == "severance")
    model = PayrollModel(facts)
    hired = 0
    batch_cap = max(5, min(60, len(active) // 10))
    total = WARMUP_COMMITS + commits
    # Every batch size comes once as hires and once as deactivations, in a
    # fixed order cut to length and then shuffled, so every seed commits
    # the same multiset of batches and only the order and keys differ.
    batches = [(size, hire) for size in range(5, batch_cap + 1) for hire in (True, False)]
    batches = [batches[i % len(batches)] for i in range(total)]
    rng.shuffle(batches)

    def transaction(size, hire):
        nonlocal hired
        if not hire:
            chosen = rng.sample(active, size)
            for name in chosen:
                active.remove(name)
            return tuple(("-", "active", (name,)) for name in chosen)
        tx = []
        for _ in range(size):
            name = "h%d" % hired
            tx += [
                ("+", "emp", (name,)),
                ("+", "active", (name,)),
                ("+", "payroll", (name, _salary(hired))),
            ]
            active.append(name)
            hired += 1
        return tuple(tx)

    def reads(tx):
        employee = tx[0][2][0]
        other = rng.choice(active)
        return (
            ("contains", "active", (employee,)),
            ("select", "payroll", (employee, None)),
            ("select", "payroll", (other, None)),
            ("select", "audit", (employee, None)),
            ("query", "unpaid", (employee,)),
            ("query", "severed", (employee,)),
            ("ask", "stale_payroll", (employee,)),
        )

    stream = []
    for size, hire in batches:
        tx = transaction(size, hire)
        model.commit(tx)
        stream.append((tx, reads(tx)))
    sizes = {
        "facts": len(facts),
        "employees": employees,
        "commits": commits,
        "updates_per_commit": "5-%d employees (1 or 3 updates each)" % batch_cap,
    }
    return Inputs(facts, HR_RULES, stream[:WARMUP_COMMITS],
                  stream[WARMUP_COMMITS:], sizes)


TEMPLATES = {
    "unposted": "deposit({0}, T), not ledger({0}, T)",
    "held_unfrozen": "held(A, T), not frozen(A)",
    "unpaid": "payroll({0}, S), not active({0})",
    "severed": "severance({0}), not active({0})",
    "stale_payroll": "emp({0}), not active({0}), payroll({0}, S)",
}


class Workload:
    """A named workload: its generator, model and engine options."""

    def __init__(self, name, why, generate, model_class, commits_per_second,
                 audit=False):
        self.name = name
        self.why = why
        self._generate = generate
        self.model_class = model_class
        # Turns --seconds into the fixed commit count of a pass; the count
        # never depends on how fast the machine is.
        self.commits_per_second = commits_per_second
        self.audit = audit

    def commits_for(self, seconds, scale=1.0):
        # A run makes five passes over the stream; 101 commits keep ten
        # samples beyond p90.
        count = max(101, round(self.commits_per_second * seconds / 5))
        return max(8, round(count * scale)) if scale < 1.0 else count

    def generate(self, seed, seconds, scale=1.0):
        return self._generate(seed, scale, self.commits_for(seconds, scale))

    def model(self, inputs):
        return self.model_class(inputs.facts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eca-ledger",
            "1-3 event-triggered updates per commit over ~1.1e4 facts, audit "
            "trail on, cancelled deposits conflict: commit cost should track "
            "|U| but copies and re-plans track |D|",
            _ledger,
            LedgerModel,
            commits_per_second=20,
            audit=True,
        ),
        Workload(
            "hr-payroll",
            "batches of 5-60 hires or deactivations over 3e3 employees: the "
            "matcher and negation validity dominate",
            _payroll,
            PayrollModel,
            commits_per_second=17,
        ),
    )
}
