"""In-memory relational engine: the DBMS substrate under test.

This package replaces the real DBMS servers (MySQL, PostgreSQL, Oracle,
Derby) that OLTP-Bench drives over JDBC.  It provides:

* a SQL subset (DDL + DML with joins, aggregates, ORDER BY/LIMIT);
* strict two-phase locking with deadlock detection, and snapshot isolation
  with first-committer-wins validation;
* a PEP 249 DB-API 2.0 driver (``connect``/``Connection``/``Cursor``);
* :class:`DbmsPersonality` performance models that make different simulated
  servers saturate and jitter differently (the game's "stages").
"""

from .catalog import Catalog, ColumnDef, IndexDef, TableSchema
from .database import Database, EngineCounters, PreparedStatement
from .dbapi import Connection, Cursor, connect
from .locks import EXCLUSIVE, SHARED, LockManager
from .plan import LruCache, PlanCache, compile_statement
from .service import PERSONALITIES, DbmsPersonality, get_personality
from .storage import TableData
from .txn import SERIALIZABLE, SNAPSHOT, Transaction, TransactionManager
from .types import SqlType, compare_values

__all__ = [
    "Catalog", "ColumnDef", "IndexDef", "TableSchema",
    "Database", "EngineCounters", "PreparedStatement",
    "Connection", "Cursor", "connect",
    "EXCLUSIVE", "SHARED", "LockManager",
    "LruCache", "PlanCache", "compile_statement",
    "PERSONALITIES", "DbmsPersonality", "get_personality",
    "TableData",
    "SERIALIZABLE", "SNAPSHOT", "Transaction", "TransactionManager",
    "SqlType", "compare_values",
]
