"""An event-triggered ledger: deposits post unless the account is frozen.

Every rule is triggered by an event literal, so a commit's work should
track its transaction's updates, not the number of accounts — the shape
used to check that event-seeded join plans keep a one-update commit flat
as the database grows.
"""

from __future__ import annotations

from ..lang.atoms import Atom
from ..lang.parser import parse_program
from ..lang.terms import Constant
from ..storage.database import Database

LEDGER_RULES = """\
@name(post) +deposit(A, T), account(A), not frozen(A) -> +ledger(A, T).
@name(hold) +deposit(A, T), frozen(A) -> +held(A, T).
@name(unpost) -deposit(A, T), ledger(A, T) -> -ledger(A, T).
@name(unhold) -deposit(A, T), held(A, T) -> -held(A, T).
@name(thaw) -frozen(A), held(A, T) -> +ledger(A, T).
@name(release) -frozen(A), held(A, T) -> -held(A, T).
"""


def ledger_program():
    """The six ledger rules, each triggered by a deposit or freeze event."""
    return parse_program(LEDGER_RULES)


def ledger_database(num_accounts):
    """``a0``..``a<n-1>`` with balances; every 20th account (from ``a7``)
    frozen; every 4th (from ``a3``, so every frozen one) holding deposit
    ``t<i>``, posted to ``held`` when frozen and to ``ledger`` otherwise.
    About 2.55 facts per account."""
    database = Database()

    def fact(predicate, *values):
        database.add(Atom(predicate, tuple(Constant(v) for v in values)))

    for index in range(num_accounts):
        account = "a%d" % index
        frozen = index % 20 == 7
        fact("account", account)
        fact("balance", account, 100 + index)
        if frozen:
            fact("frozen", account)
        if index % 4 == 3:
            deposit = "t%d" % index
            fact("deposit", account, deposit)
            fact("held" if frozen else "ledger", account, deposit)
    return database
