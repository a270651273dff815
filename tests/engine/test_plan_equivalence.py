"""Fixed-case engine answers checked against sqlite3.

Every statement here runs on the engine and on an in-memory sqlite3
database holding the same rows (see ``sqlite_oracle.py``), and must
produce the same rows, rowcounts and column names.  Cases concentrate
on the seams where an engine drifts from SQL: NULL/Kleene logic, type
coercion in comparisons, join/aggregation structure, empty groups, and
runtime access-path fallback.  Behaviours sqlite cannot express — the
engine's error types and messages, ``DataError`` on division by zero —
are golden fixtures with literal expected values.
"""

import sqlite3

import pytest

from repro.engine import Database, connect
from repro.errors import DataError, IntegrityError, ProgrammingError

from .sqlite_oracle import Twin

SCHEMA = [
    "CREATE TABLE items (id INT PRIMARY KEY, grp INT, price FLOAT, "
    "name VARCHAR(16), note VARCHAR(16))",
    "CREATE INDEX idx_items_grp ON items (grp)",
    "CREATE TABLE tags (item_id INT, tag VARCHAR(8), "
    "PRIMARY KEY (item_id, tag))",
    "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
    "CREATE TABLE e (a INT PRIMARY KEY, b INT)",
]

ROWS = [
    (1, 1, 2.5, "ant", None),
    (2, 1, 7.0, "bee", "buzz"),
    (3, 2, 1.0, "cat", None),
    (4, 2, None, "dog", "woof"),
    (5, None, 9.0, "eel", None),
]

TAGS = [(1, "red"), (1, "big"), (2, "red"), (4, "old")]

T_ROWS = [(1, 10), (2, None), (3, 30)]


@pytest.fixture
def twin():
    made = Twin(SCHEMA, {"items": ROWS, "tags": TAGS, "t": T_ROWS, "e": []})
    yield made
    made.close()


SELECT_CASES = [
    ("SELECT id, name FROM items ORDER BY id", ()),
    # NULL in comparisons: grp IS NULL rows never match = / <> / <.
    ("SELECT id FROM items WHERE grp = 1 ORDER BY id", ()),
    ("SELECT id FROM items WHERE grp <> 1 ORDER BY id", ()),
    ("SELECT id FROM items WHERE grp < 9 ORDER BY id", ()),
    ("SELECT id FROM items WHERE grp IS NULL", ()),
    ("SELECT id FROM items WHERE grp IS NOT NULL ORDER BY id", ()),
    # Kleene AND/OR over NULL operands.
    ("SELECT id FROM items WHERE grp = 1 OR price > 8 ORDER BY id", ()),
    ("SELECT id FROM items WHERE grp = 2 AND price > 0.5 ORDER BY id", ()),
    ("SELECT id FROM items WHERE NOT (grp = 1) ORDER BY id", ()),
    # NULL propagation through arithmetic and functions.
    ("SELECT id, price * 2 FROM items ORDER BY id", ()),
    ("SELECT id, coalesce(note, 'none') FROM items ORDER BY id", ()),
    ("SELECT id, nullif(grp, 1) FROM items ORDER BY id", ()),
    ("SELECT upper(name), length(name) FROM items ORDER BY id", ()),
    # BETWEEN / IN / LIKE, plus their negations with NULLs in range.
    ("SELECT id FROM items WHERE price BETWEEN 1.0 AND 7.0 ORDER BY id",
     ()),
    ("SELECT id FROM items WHERE price NOT BETWEEN 1.0 AND 7.0 "
     "ORDER BY id", ()),
    ("SELECT id FROM items WHERE grp IN (1, 2) ORDER BY id", ()),
    ("SELECT id FROM items WHERE grp NOT IN (1) ORDER BY id", ()),
    ("SELECT id FROM items WHERE name LIKE '%e%' ORDER BY id", ()),
    # CASE branches, including no-match-no-default -> NULL.
    ("SELECT id, CASE WHEN price > 5 THEN 'hi' WHEN price > 1 THEN 'mid' "
     "END FROM items ORDER BY id", ()),
    # Parameterised access paths: PK point, PK range, index equality.
    ("SELECT name FROM items WHERE id = ?", (3,)),
    ("SELECT id FROM items WHERE id BETWEEN ? AND ? ORDER BY id", (2, 4)),
    ("SELECT id FROM items WHERE grp = ? ORDER BY id", (2,)),
    # Float bound on the INT PK: an ordered walk from 2 upwards.
    ("SELECT id FROM items WHERE id > ? ORDER BY id", (1.5,)),
    # Numeric-string bound: SQL compares it as a number, Python order
    # would not, so the walk declines and the full scan answers.
    ("SELECT id FROM items WHERE ? < id ORDER BY id", ("2",)),
    # ORDER BY ... LIMIT pushed into PK walks, both directions.
    ("SELECT id FROM items WHERE id >= 2 ORDER BY id DESC LIMIT 2 "
     "OFFSET 1", ()),
    ("SELECT item_id, tag FROM tags WHERE item_id = 1 ORDER BY tag "
     "LIMIT 1", ()),
    # An index walk over a NULL key: NULLs sort last either way.
    ("SELECT grp FROM items ORDER BY grp DESC LIMIT 5", ()),
    ("SELECT grp FROM items ORDER BY grp LIMIT 5", ()),
    # Joins, including LEFT JOIN missed side producing NULLs.
    ("SELECT i.id, t.tag FROM items i JOIN tags t ON t.item_id = i.id "
     "ORDER BY i.id, t.tag", ()),
    ("SELECT i.id, t.tag FROM items i LEFT JOIN tags t "
     "ON t.item_id = i.id ORDER BY i.id, t.tag", ()),
    # Aggregation: empty groups, HAVING, NULL-skipping aggregates.
    ("SELECT count(*), count(price), sum(price), min(price), max(price) "
     "FROM items", ()),
    ("SELECT grp, count(*) FROM items GROUP BY grp ORDER BY grp", ()),
    ("SELECT grp, avg(price) FROM items GROUP BY grp "
     "HAVING count(*) > 1 ORDER BY grp", ()),
    ("SELECT count(*) FROM items WHERE id > 100", ()),
    ("SELECT sum(price) FROM items WHERE id > 100", ()),
    ("SELECT count(DISTINCT grp) FROM items", ()),
    # DISTINCT / ORDER BY position / DESC / LIMIT-OFFSET.
    ("SELECT DISTINCT grp FROM items ORDER BY 1", ()),
    ("SELECT id, name FROM items ORDER BY 2 DESC", ()),
    ("SELECT id FROM items ORDER BY id DESC LIMIT 2", ()),
    ("SELECT id FROM items ORDER BY id LIMIT 2 OFFSET 2", ()),
    # Scalar (table-less) selects; WHERE and LIMIT decide the one row.
    ("SELECT 1 + 1, 'x' || 'y'", ()),
    ("SELECT 1 WHERE 1 = 0", ()),
    ("SELECT 1 WHERE 1 = 1 LIMIT 0", ()),
    # round() rounds half away from zero and returns a float.
    ("SELECT round(2.5), round(-2.5), round(0.49), round(7)", ()),
    # || binds tighter than * and +: 2 * ('3' || '4') = 68.
    ("SELECT 2 * 3 || 4", ()),
    ("SELECT 1 + 2 || 3, 1 || 2 * 3", ()),
    # Arithmetic reads a string's numeric prefix, or 0 when it has none.
    ("SELECT -name FROM items", ()),
    ("SELECT '1_000' + 0, '12abc' + 1, 'abc' * 2, -'ant'", ()),
    ("SELECT ' 12 ' + 0, '1.5x' + 1, '.5' + 0, '1e2x' + 0, '1e' + 0, "
     "'0x10' + 0", ()),
    ("SELECT '9223372036854775807' + 0, '9223372036854775808' + 0, "
     "'7abc' % 4, '3' / '2', -'12x', -'1.5'", ()),
    ("SELECT id, name + grp FROM items ORDER BY id", ()),
    # HAVING without GROUP BY: the whole input is one group.
    ("SELECT count(*) FROM items HAVING count(*) > 1", ()),
    ("SELECT count(*) FROM items HAVING count(*) > 10", ()),
    # Mixed-type comparison: string column against numeric string.
    ("SELECT id FROM items WHERE name > '1' ORDER BY id", ()),
    # Empty groups: bare columns read as NULL next to the aggregates.
    ("SELECT b, count(*) FROM e", ()),
    ("SELECT b + 1, sum(a) FROM t WHERE a > 3", ()),
    # Aggregates nested in any expression, not just arithmetic.
    ("SELECT coalesce(sum(price), 0) FROM items WHERE id > 100", ()),
    ("SELECT grp FROM items GROUP BY grp HAVING max(price) IS NOT NULL "
     "ORDER BY grp", ()),
    ("SELECT CASE WHEN count(*) > 1 THEN 'many' ELSE 'few' END "
     "FROM items GROUP BY grp ORDER BY 1", ()),
    # LEFT JOIN with a WHERE conjunct on the NULL-extended side.
    ("SELECT t.tag, i.id FROM items i LEFT JOIN tags t "
     "ON t.item_id = i.id WHERE t.tag = 'red' ORDER BY i.id", ()),
    ("SELECT i.id FROM items i LEFT JOIN tags t "
     "ON t.item_id = i.id WHERE t.tag IS NULL ORDER BY i.id", ()),
]


@pytest.mark.parametrize("sql,params", SELECT_CASES,
                         ids=[c[0][:60] for c in SELECT_CASES])
def test_select_equivalence(twin, sql, params):
    twin.check(sql, params)


#: (sql, params, engine error type, engine error message).  sqlite also
#: rejects each statement, with its own wording.
ERROR_CASES = [
    ("SELECT nope FROM items", (), ProgrammingError,
     "unknown column 'nope'"),
    ("SELECT i.nope FROM items i", (), ProgrammingError,
     "no column 'nope' in table 'items'"),
    ("SELECT x.id FROM items i", (), ProgrammingError,
     "unknown table binding 'x'"),
    ("SELECT id FROM items WHERE id = ?", (), ProgrammingError,
     "statement expects at least 1 parameters, got 0"),
    ("SELECT unknown_fn(id) FROM items", (), ProgrammingError,
     "unknown function 'unknown_fn'"),
    ("SELECT max(*) FROM items", (), ProgrammingError,
     "max(*) is not valid"),
]


@pytest.mark.parametrize("sql,params,kind,message", ERROR_CASES,
                         ids=[c[0][:60] for c in ERROR_CASES])
def test_error_equivalence(twin, sql, params, kind, message):
    outcome = twin.engine(sql, params)
    assert type(outcome.error) is kind
    assert str(outcome.error) == message
    assert isinstance(twin.sqlite(sql, params).error, sqlite3.Error)


#: (sql, params, engine message): parameters bind as sqlite3 binds qmark
#: markers, by count and never from a mapping's keys or a set's
#: arbitrary order.  Too few keeps the message of ERROR_CASES above.
BINDING_CASES = [
    ("SELECT id FROM items WHERE id = ?", (1, 2),
     "statement expects 1 parameters, got 2"),
    ("SELECT id FROM items", (1,),
     "statement expects 0 parameters, got 1"),
    ("INSERT INTO t VALUES (?, ?)", (7,),
     "statement expects at least 2 parameters, got 1"),
    ("INSERT INTO t VALUES (?, ?)", (7, 8, 9),
     "statement expects 2 parameters, got 3"),
    ("INSERT INTO t VALUES (?, ?)", {"a": 7, "b": 8},
     "params must be a sequence, not a dict"),
    ("INSERT INTO t VALUES (?, ?)", {7, 8},
     "params must be a sequence, not a set"),
]


@pytest.mark.parametrize("sql,params,message", BINDING_CASES,
                         ids=[f"{c[0]} {c[1]!r}" for c in BINDING_CASES])
def test_binding_error_equivalence(twin, sql, params, message):
    outcome = twin.engine(sql, params)
    assert type(outcome.error) is ProgrammingError
    assert str(outcome.error) == message
    assert isinstance(twin.sqlite(sql, params).error, sqlite3.Error)
    twin.check_table("t")  # a refused INSERT wrote nothing on either side


#: Statements sqlite answers differently by design (it returns NULL on
#: division by zero and has no typed arithmetic errors), with the
#: engine's literal expected error.
ENGINE_ONLY_CASES = [
    ("SELECT 1 / 0", DataError, "division by zero"),
    ("SELECT 1 % 0", DataError, "modulo by zero"),
    ("SELECT id / 0 FROM items", DataError, "division by zero"),
    ("SELECT id FROM items ORDER BY 3", ProgrammingError,
     "ORDER BY position 3 out of range"),
    ("SELECT id FROM items LIMIT -1", ProgrammingError,
     "LIMIT must be non-negative"),
]


@pytest.mark.parametrize("sql,kind,message", ENGINE_ONLY_CASES,
                         ids=[c[0] for c in ENGINE_ONLY_CASES])
def test_engine_only_errors(twin, sql, kind, message):
    outcome = twin.engine(sql)
    assert type(outcome.error) is kind
    assert str(outcome.error) == message


def test_dml_equivalence(twin):
    for sql, params in [
        ("INSERT INTO items VALUES (?, ?, ?, ?, ?)",
         (6, 3, 4.5, "fox", None)),
        ("UPDATE items SET price = price + 1 WHERE grp = 1", ()),
        ("UPDATE items SET note = NULL WHERE id = 2", ()),
        ("DELETE FROM items WHERE grp IS NULL", ()),
        ("UPDATE items SET grp = grp WHERE price > ?", (3.0,)),
    ]:
        twin.check(sql, params)
        twin.check("SELECT * FROM items ORDER BY id")


def test_constraint_error_equivalence(twin):
    # A duplicate primary key is rejected on both sides; the engine's
    # message is fixed.
    sql = "INSERT INTO items VALUES (1, 9, 0.0, 'dup', NULL)"
    outcome = twin.engine(sql)
    assert type(outcome.error) is IntegrityError
    assert str(outcome.error) == "duplicate primary key (1,) in 'items'"
    assert isinstance(twin.sqlite(sql).error, sqlite3.IntegrityError)
    # A NULL in a nullable column is accepted on both sides.
    twin.check("INSERT INTO items VALUES (7, 1, 1.0, NULL, NULL)")
    twin.check("SELECT count(*) FROM items")


def test_procedure_statement_equivalence_on_mini_benchmark():
    """Drive the shared-fixture mini benchmark's statements both ways."""
    twin = Twin(["CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)"],
                {"kv": [(i, 0) for i in range(16)]})
    for k in range(16):
        outcome = twin.check("UPDATE kv SET v = v + 1 WHERE k = ?", (k % 7,))
        assert outcome.rowcount == 1
    twin.check("SELECT k, v FROM kv ORDER BY k")
    twin.close()


def test_compiled_path_actually_ran():
    """Guard that statements really ran through compiled plans."""
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (a INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1)")
    cur.execute("SELECT a FROM t")
    conn.commit()
    counters = db.counters.snapshot()
    assert counters["plan_executions"] == 2
    conn.close()
