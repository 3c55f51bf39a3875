"""Workload generators for benchmarks, fuzzing and examples."""

from .base import Workload
from .chains import propositional_chain, relational_reachability
from .conflicts import conflict_cascade, conflict_ladder
from .games import chain_game, random_game, win_move_program
from .graphs import (
    IrreflexiveGraphPolicy,
    irreflexive_graph,
    random_edges,
    transitive_closure,
)
from .hr import deactivation_batch, hr_database, hr_program, payroll_cleanup
from .ledger import ledger_database, ledger_program
from .paper import PAPER_EXAMPLES, Section42Policy, paper_example, run_all
from .random_programs import ProgramGenerator, random_workload

__all__ = [
    "IrreflexiveGraphPolicy",
    "PAPER_EXAMPLES",
    "Section42Policy",
    "ProgramGenerator",
    "Workload",
    "conflict_cascade",
    "conflict_ladder",
    "chain_game",
    "random_game",
    "win_move_program",
    "deactivation_batch",
    "hr_database",
    "hr_program",
    "irreflexive_graph",
    "ledger_database",
    "ledger_program",
    "paper_example",
    "run_all",
    "payroll_cleanup",
    "propositional_chain",
    "random_edges",
    "random_workload",
    "relational_reachability",
    "transitive_closure",
]
