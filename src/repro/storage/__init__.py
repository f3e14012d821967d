"""In-memory MVCC storage engine providing snapshot isolation.

This package is the "standalone DBMS" substrate of the prototype (the paper
used Microsoft SQL Server 2008 at snapshot isolation level; see DESIGN.md for
the substitution rationale).
"""

from .database import Database
from .engine import StorageEngine
from .errors import (
    DuplicateKeyError,
    SchemaError,
    StorageError,
    TransactionAborted,
    TransactionStateError,
    UnknownRowError,
    UnknownTableError,
    WriteConflictError,
)
from .rows import RowVersion
from .schema import Column, TableSchema
from .table import VersionedTable
from .transaction import Transaction, TxnState
from .writeset import OpKind, WriteOp, WriteSet

__all__ = [
    "Column",
    "Database",
    "DuplicateKeyError",
    "OpKind",
    "RowVersion",
    "SchemaError",
    "StorageEngine",
    "StorageError",
    "TableSchema",
    "Transaction",
    "TransactionAborted",
    "TransactionStateError",
    "TxnState",
    "UnknownRowError",
    "UnknownTableError",
    "VersionedTable",
    "WriteConflictError",
    "WriteOp",
    "WriteSet",
]
