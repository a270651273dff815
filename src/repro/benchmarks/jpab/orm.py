"""A miniature JPA-style object-relational mapper.

JPAB (the JPA Performance Benchmark) measures persistence providers, not
hand-written SQL.  To keep the benchmark faithful in spirit, transactions
go through this small entity manager — persist/find/merge/remove with an
identity map and optimistic version columns — which generates the SQL
underneath, exactly the indirection an ORM adds over JDBC.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Type, TypeVar

from ...errors import OperationalError, TransactionAborted


@dataclass
class Entity:
    """Base class for mapped entities.

    Subclasses define ``__table__`` plus dataclass fields; the first field
    must be ``id`` (the primary key) and the last ``version`` (optimistic
    concurrency control counter).
    """

    __table__ = ""

    id: int = 0
    version: int = 0


@dataclass
class Employee(Entity):
    """The JPAB "basic test" entity."""

    __table__ = "jpab_employee"

    first_name: str = ""
    last_name: str = ""
    street: str = ""
    city: str = ""
    salary: float = 0.0


def entity_columns(entity_cls: Type[Entity]) -> list[str]:
    return [f.name for f in fields(entity_cls)]


E = TypeVar("E", bound=Entity)


class EntityManager:
    """Per-transaction persistence context with an identity map."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._identity: dict[tuple[str, int], Entity] = {}

    # -- JPA-style operations ------------------------------------------------

    def persist(self, entity: Entity) -> None:
        columns = entity_columns(type(entity))
        placeholders = ", ".join("?" for _ in columns)
        cur = self._conn.cursor()
        cur.execute(
            f"INSERT INTO {entity.__table__} ({', '.join(columns)}) "
            f"VALUES ({placeholders})",
            tuple(getattr(entity, c) for c in columns))
        self._identity[(entity.__table__, entity.id)] = entity

    def find(self, entity_cls: Type[E], entity_id: int) -> Optional[E]:
        key = (entity_cls.__table__, entity_id)
        cached = self._identity.get(key)
        if cached is not None:
            return cached  # identity map hit: no SQL issued
        columns = entity_columns(entity_cls)
        cur = self._conn.cursor()
        cur.execute(
            f"SELECT {', '.join(columns)} FROM {entity_cls.__table__} "
            "WHERE id = ?", (entity_id,))
        row = cur.fetchone()
        if row is None:
            return None
        entity = entity_cls(**dict(zip(columns, row)))
        self._identity[key] = entity
        return entity

    def merge(self, entity: Entity) -> None:
        """Flush changes with an optimistic version check."""
        columns = [c for c in entity_columns(type(entity))
                   if c not in ("id", "version")]
        assignments = ", ".join(f"{c} = ?" for c in columns)
        cur = self._conn.cursor()
        cur.execute(
            f"UPDATE {entity.__table__} SET {assignments}, "
            "version = version + 1 WHERE id = ? AND version = ?",
            (*(getattr(entity, c) for c in columns),
             entity.id, entity.version))
        if cur.rowcount == 0:
            raise TransactionAborted(
                f"optimistic lock failure on {entity.__table__} "
                f"id={entity.id}")
        entity.version += 1

    def remove(self, entity: Entity) -> None:
        cur = self._conn.cursor()
        cur.execute(f"DELETE FROM {entity.__table__} WHERE id = ?",
                    (entity.id,))
        self._identity.pop((entity.__table__, entity.id), None)

    # -- transaction demarcation ----------------------------------------------

    def commit(self) -> None:
        self._conn.commit()
        self._identity.clear()

    def rollback(self) -> None:
        self._conn.rollback()
        self._identity.clear()
