"""Differential harness: run the same SQL on the engine and on sqlite3.

stdlib ``sqlite3`` is the engine's independent oracle.  A :class:`Twin`
holds an engine database and an in-memory sqlite database created from
the same DDL and rows; :meth:`Twin.check` runs one statement on both and
asserts the same rows, rowcount and column names.

Two sqlite settings close the dialect gaps that are conventions rather
than semantics: ``PRAGMA case_sensitive_like=ON`` (the engine's LIKE is
case-sensitive) and an explicit ``NULLS LAST`` on every ORDER BY item
(the engine sorts NULLs last in both directions; sqlite sorts them
first by default).  Values are normalised before comparison: booleans
become 0/1 (sqlite has no boolean type) and numbers compare by value,
so ``2`` and ``2.0`` match.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engine import Database, connect
from repro.errors import DatabaseError


@dataclass
class Outcome:
    """What one side returned: rows/rowcount/columns, or an error."""

    rows: Optional[list[tuple]] = None
    rowcount: Optional[int] = None
    columns: Optional[list[str]] = None
    error: Optional[BaseException] = None

    def describe(self) -> str:
        if self.error is not None:
            return f"{type(self.error).__name__}: {self.error}"
        return f"rows={self.rows} rowcount={self.rowcount} " \
               f"columns={self.columns}"


def normalise(value: object) -> object:
    """Map a result value to a dialect-neutral comparable form."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return round(value, 9)
    return value


def normalise_row(row: Sequence[object]) -> tuple:
    return tuple(normalise(v) for v in row)


def _sort_key(row: tuple) -> tuple:
    # Total order over mixed NULL/number/text rows for multiset compare.
    return tuple((v is None, isinstance(v, str), v if v is not None else 0)
                 for v in row)


def expected_name(sqlite_name: str, index: int) -> str:
    """The engine's column name for the item sqlite named ``sqlite_name``.

    sqlite names an unaliased item by its source text; the engine names
    an alias or column by itself, a function call by the function name,
    and anything else ``col<i>``.
    """
    if re.fullmatch(r"[A-Za-z_]\w*", sqlite_name):
        return sqlite_name
    call = re.fullmatch(r"([A-Za-z_]\w*)\((.*)\)", sqlite_name, re.S)
    if call and _balanced(call.group(2)):
        return call.group(1).lower()
    return f"col{index}"


def _balanced(text: str) -> bool:
    depth = 0
    for char in text:
        depth += {"(": 1, ")": -1}.get(char, 0)
        if depth < 0:
            return False
    return depth == 0


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, char in enumerate(text):
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def nulls_last(sql: str) -> str:
    """Append ``NULLS LAST`` to every ORDER BY item of ``sql``."""
    match = re.search(r"\bORDER BY\b", sql, re.I)
    if match is None:
        return sql
    body_start = match.end()
    tail = re.search(r"\b(LIMIT|OFFSET|FOR UPDATE)\b", sql[body_start:], re.I)
    body_end = body_start + tail.start() if tail else len(sql)
    items = [item.strip() + " NULLS LAST"
             for item in _split_top_level(sql[body_start:body_end])]
    rest = sql[body_end:]
    return sql[:body_start] + " " + ", ".join(items) + \
        (" " + rest.lstrip() if rest.strip() else "")


class Twin:
    """An engine database and a sqlite3 database with the same contents."""

    def __init__(self, ddl: Sequence[str],
                 rows: dict[str, Sequence[tuple]]) -> None:
        self.db = Database()
        self.conn = connect(self.db)
        self.lite = sqlite3.connect(":memory:")
        self.lite.execute("PRAGMA case_sensitive_like=ON")
        cur = self.conn.cursor()
        for statement in ddl:
            cur.execute(statement)
            self.lite.execute(statement)
        for table, table_rows in rows.items():
            if not table_rows:
                continue
            marks = ", ".join("?" for _ in table_rows[0])
            sql = f"INSERT INTO {table} VALUES ({marks})"
            cur.executemany(sql, table_rows)
            self.lite.executemany(sql, table_rows)
        self.conn.commit()
        self.lite.commit()

    def close(self) -> None:
        self.conn.close()
        self.lite.close()

    def engine(self, sql: str, params: Sequence[object] = ()) -> Outcome:
        cur = self.conn.cursor()
        try:
            cur.execute(sql, params)
        except DatabaseError as exc:
            self.conn.rollback()
            return Outcome(error=exc)
        columns = ([d[0] for d in cur.description]
                   if cur.description else None)
        rows = cur.fetchall() if cur.description else None
        self.conn.commit()
        return Outcome(rows, cur.rowcount, columns)

    def sqlite(self, sql: str, params: Sequence[object] = ()) -> Outcome:
        try:
            cur = self.lite.execute(nulls_last(sql), params)
            columns = ([d[0] for d in cur.description]
                       if cur.description else None)
            rows = cur.fetchall() if cur.description else None
        except sqlite3.Error as exc:
            self.lite.rollback()
            return Outcome(error=exc)
        self.lite.commit()
        return Outcome(rows, cur.rowcount, columns)

    def check(self, sql: str, params: Sequence[object] = ()) -> Outcome:
        """Run ``sql`` on both sides and assert the same outcome.

        Rows compare as a list when the statement has an ORDER BY (its
        keys must then order the rows totally) and as a multiset
        otherwise.  Returns the engine's outcome.
        """
        mine = self.engine(sql, params)
        theirs = self.sqlite(sql, params)
        context = (f"{sql!r} {tuple(params)!r}\n  engine: {mine.describe()}"
                   f"\n  sqlite: {theirs.describe()}")
        assert mine.error is None and theirs.error is None, context
        if mine.rows is None:
            assert theirs.rows is None, context
            assert mine.rowcount == theirs.rowcount, context
            return mine
        assert theirs.rows is not None, context
        got = [normalise_row(r) for r in mine.rows]
        want = [normalise_row(r) for r in theirs.rows]
        if not re.search(r"\bORDER BY\b", sql, re.I):
            got.sort(key=_sort_key)
            want.sort(key=_sort_key)
        assert got == want, context
        assert mine.rowcount == len(mine.rows), context
        assert mine.columns == [expected_name(name, i) for i, name
                                in enumerate(theirs.columns)], context
        return mine

    def check_table(self, table: str) -> None:
        """Both sides hold the same rows in ``table``."""
        self.check(f"SELECT * FROM {table}")
