"""The storage engine: relations, databases, catalogs, snapshots, deltas.

This is the paper's "database instance D" made concrete: ground atoms in
per-predicate relations with lazily built hash indexes, a schema catalog,
value-semantics copying, and a small update algebra (:class:`Delta`).
"""

from .catalog import Catalog, Schema
from .database import Database
from .delta import Delta, EMPTY_DELTA
from .relation import ColumnarRelation
from .snapshot import SavepointStack, Snapshot
from .textio import dump_database, dump_program, load_database, load_program

__all__ = [
    "Catalog",
    "ColumnarRelation",
    "Database",
    "Delta",
    "EMPTY_DELTA",
    "SavepointStack",
    "Schema",
    "Snapshot",
    "dump_database",
    "dump_program",
    "load_database",
    "load_program",
]
