"""A small relational engine standing in for the paper's MySQL database.

"GB database module is a relational database that stores account and
transaction information" (paper sec 3.2). The GridBank accounts layer needs
typed columns matching the sec 5.1 schemas (VARCHAR, FLOAT, BIGINT
UNSIGNED, TIMESTAMP(14), BLOB), primary keys, secondary indexes for
statement scans, and — critically for an accounting system — atomic
multi-row transactions with rollback and crash-recoverable persistence
(write-ahead journal + snapshots).

Single-node, single-writer, thread-safe; designed for correctness and
testability, not for beating a real RDBMS.
"""

from repro.db.types import (
    ColumnType,
    VarChar,
    Float,
    BigIntUnsigned,
    Integer,
    Timestamp14,
    Text,
    Blob,
    Boolean,
)
from repro.db.schema import Column, TableSchema
from repro.db.query import Condition, eq, ne, lt, le, gt, ge, between, predicate
from repro.db.table import Table
from repro.db.integrity import IntegrityReport, Scrubber, verify_dir
from repro.db.faultfs import (
    DiskFaultPlan,
    FaultyFile,
    FaultyStorage,
    SimulatedCrashError,
    arm_crashpoint,
    clear_crashpoints,
    crashpoint,
)
from repro.db.database import Database
from repro.db.replication import ReplicationLog

__all__ = [
    "ColumnType",
    "VarChar",
    "Float",
    "BigIntUnsigned",
    "Integer",
    "Timestamp14",
    "Text",
    "Blob",
    "Boolean",
    "Column",
    "TableSchema",
    "Condition",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "between",
    "predicate",
    "Table",
    "Database",
    "ReplicationLog",
    "IntegrityReport",
    "Scrubber",
    "verify_dir",
    "DiskFaultPlan",
    "FaultyFile",
    "FaultyStorage",
    "SimulatedCrashError",
    "arm_crashpoint",
    "clear_crashpoints",
    "crashpoint",
]
