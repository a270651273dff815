"""Randomised differential test: the engine against stdlib sqlite3.

Hypothesis draws a two-table schema (INT/FLOAT/VARCHAR columns, single
or composite primary keys, secondary indexes), rows, parameters and
statements in the supported SQL subset, runs each statement on the
engine and on sqlite3 (``sqlite_oracle.Twin``), and asserts the same
rows, rowcounts and column names.

The subset covers PK point and range lookups, index equality, ordered
index walks (an equality prefix of a composite PK or secondary index
plus a range on the next column, with float bounds on INT columns and
NULLs in secondary-index columns), ``ORDER BY <index columns> ASC/DESC
LIMIT k OFFSET m`` pushed into such walks, two-table inner and LEFT
joins, GROUP BY/HAVING and aggregates, DISTINCT, ORDER BY and
LIMIT/OFFSET, IN/BETWEEN/LIKE, CASE/COALESCE, unparenthesised
arithmetic chains (operator precedence), INSERT, UPDATE with arithmetic
SET, and DELETE with a predicate; walks also run interleaved with
writes, so they cross deleted, re-keyed and pruned index keys.
Generated statements stay inside what both dialects define identically:
operands of one type class per operator, no division or modulo by zero,
no modulo over floats, and an ORDER BY that orders the output totally
whenever row order is compared.

Tier-1 runs the default example count.  For a longer search, select the
profile registered in ``tests/conftest.py``::

    PYTHONPATH=src python -m pytest tests/engine/test_sqlite_oracle.py \\
        --hypothesis-profile=sqlite-oracle-extended
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from hypothesis import HealthCheck, given, settings, strategies as st

from .sqlite_oracle import Twin

ORACLE_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])

INT, FLOAT, STR = "int", "float", "str"
SQL_TYPES = {INT: "INT", FLOAT: "FLOAT", STR: "VARCHAR(32)"}
NUMERIC = (INT, FLOAT)


# ---------------------------------------------------------------------------
# Schemas and rows
# ---------------------------------------------------------------------------


@dataclass
class Table:
    name: str
    columns: list[tuple[str, str]]   # (name, kind), key columns first
    pk: list[str]
    indexes: list[list[str]]
    rows: list[tuple] = field(default_factory=list)

    def kind(self, column: str) -> str:
        return dict(self.columns)[column]

    def value_columns(self) -> list[tuple[str, str]]:
        return [(c, k) for c, k in self.columns if c not in self.pk]

    def orders(self) -> list[list[str]]:
        """Indexes whose column order is a total order: PK and suffixed."""
        return [self.pk] + [i for i in self.indexes if i[-len(self.pk):]
                            == self.pk]

    def ddl(self) -> list[str]:
        cols = ", ".join(f"{c} {SQL_TYPES[k]}" for c, k in self.columns)
        out = [f"CREATE TABLE {self.name} ({cols}, "
               f"PRIMARY KEY ({', '.join(self.pk)}))"]
        for i, columns in enumerate(self.indexes):
            out.append(f"CREATE INDEX idx_{self.name}_{i} ON {self.name} "
                       f"({', '.join(columns)})")
        return out


def int_values():
    return st.integers(-3, 12)


def float_values():
    # Quarter steps are exact in binary, so sums do not depend on order.
    return st.integers(-12, 40).map(lambda i: i / 4)


def str_values():
    return st.text(alphabet="aAb_", max_size=3)


VALUES = {INT: int_values, FLOAT: float_values, STR: str_values}


def value_of(kind: str, nullable: bool = True):
    values = VALUES[kind]()
    return st.one_of(st.none(), values) if nullable else values


@st.composite
def tables(draw, name: str) -> Table:
    composite = draw(st.booleans())
    columns = [("k0", INT)]
    if composite:
        columns.append(("k1", draw(st.sampled_from([INT, STR]))))
    n_values = draw(st.integers(1, 3))
    columns += [(f"c{i}", draw(st.sampled_from([INT, FLOAT, STR])))
                for i in range(n_values)]
    pk = [c for c, _ in columns if c.startswith("k")]
    value_names = [c for c, _ in columns if c.startswith("c")]
    indexes = draw(st.lists(
        st.lists(st.sampled_from(value_names), min_size=1, max_size=2,
                 unique=True),
        max_size=2, unique_by=tuple))
    # A PK suffix makes an index unique, so ORDER BY its columns orders
    # rows totally and can be pushed into the walk.
    indexes = [columns + pk if draw(st.booleans()) else columns
               for columns in indexes]
    table = Table(name, columns, pk, indexes)
    key = st.tuples(*(value_of(table.kind(c), nullable=False) for c in pk))
    keys = draw(st.lists(key, max_size=10, unique=True))
    for k in keys:
        rest = tuple(draw(value_of(kind)) for _, kind in table.value_columns())
        table.rows.append(k + rest)
    return table


@st.composite
def databases(draw) -> tuple[Table, Table]:
    return draw(tables("t0")), draw(tables("t1"))


def make_twin(t0: Table, t1: Table) -> Twin:
    return Twin(t0.ddl() + t1.ddl(), {"t0": t0.rows, "t1": t1.rows})


# ---------------------------------------------------------------------------
# Expressions: (sql, params, kind); every compound is parenthesised
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sql:
    text: str
    params: tuple = ()
    kind: str = INT


def join_sql(template: str, *parts: Sql, kind: str) -> Sql:
    """Fill ``{}`` slots in ``template``; params follow textual order."""
    params: tuple = ()
    for part in parts:
        params += part.params
    return Sql(template.format(*(p.text for p in parts)), params, kind)


class Scope:
    """The columns a generated expression may reference."""

    def __init__(self, tables: list[tuple[str, Table]],
                 qualify: bool) -> None:
        self.columns = [
            (f"{binding}.{c}" if qualify else c, kind)
            for binding, table in tables for c, kind in table.columns]

    def of(self, kinds) -> list[str]:
        return [c for c, k in self.columns if k in kinds]


def literal(draw, kind: str) -> Sql:
    value = draw(VALUES[kind]())
    if draw(st.booleans()):
        return Sql("?", (value,), kind)
    if kind == STR:
        return Sql("'" + value.replace("'", "''") + "'", (), kind)
    if value < 0:
        return Sql(f"({value})", (), kind)
    return Sql(repr(value), (), kind)


def column(draw, scope: Scope, kinds) -> Sql | None:
    names = scope.of(kinds)
    if not names:
        return None
    name = draw(st.sampled_from(names))
    return Sql(name, (), dict(scope.columns)[name])


def leaf(draw, scope: Scope, kind: str) -> Sql:
    kinds = NUMERIC if kind in NUMERIC else (STR,)
    if draw(st.integers(0, 3)):
        ref = column(draw, scope, kinds)
        if ref is not None:
            return ref
    if draw(st.integers(0, 9)) == 0:
        return Sql("NULL", (), kind)
    return literal(draw, kind if kind != FLOAT else
                   draw(st.sampled_from(NUMERIC)))


def numeric(draw, scope: Scope, depth: int, int_only: bool = False) -> Sql:
    """An INT (or, unless ``int_only``, INT/FLOAT) valued expression."""
    if depth <= 0 or draw(st.integers(0, 2)) == 0:
        if int_only:
            ref = column(draw, scope, (INT,))
            return ref if ref is not None and draw(st.booleans()) \
                else literal(draw, INT)
        return leaf(draw, scope, FLOAT)
    shape = draw(st.sampled_from(
        ["arith", "arith", "chain", "neg", "abs", "div", "mod", "case",
         "coalesce", "length"]))
    sub = partial(numeric, draw, scope, depth - 1, int_only)
    if shape == "chain":
        # No inner parentheses: the answer depends on * binding tighter
        # than + and -, and on left associativity.
        parts = [sub() for _ in range(draw(st.integers(3, 4)))]
        template = "({}"
        for _ in parts[1:]:
            template += " " + draw(st.sampled_from("+-*")) + " {}"
        return join_sql(template + ")", *parts, kind=_widen(*parts))
    if shape == "arith":
        left, right = sub(), sub()
        op = draw(st.sampled_from("+-*"))
        return join_sql("({} " + op + " {})", left, right,
                        kind=_widen(left, right))
    if shape == "neg":
        operand = sub()
        return join_sql("(-{})", operand, kind=operand.kind)
    if shape == "abs":
        operand = sub()
        return join_sql("abs({})", operand, kind=operand.kind)
    if shape == "div":
        operand = sub()
        divisor = draw(st.sampled_from([1, 2, 3, -2, 4]))
        return join_sql("({} / " + f"({divisor})" + ")", operand,
                        kind=operand.kind)
    if shape == "mod":
        operand = numeric(draw, scope, depth - 1, int_only=True)
        divisor = draw(st.sampled_from([2, 3, -3, 5]))
        return join_sql("({} % " + f"({divisor})" + ")", operand, kind=INT)
    if shape == "case":
        cond = predicate(draw, scope, depth - 1)
        then, other = sub(), sub()
        if draw(st.booleans()):
            return join_sql("CASE WHEN {} THEN {} ELSE {} END", cond, then,
                            other, kind=_widen(then, other))
        return join_sql("CASE WHEN {} THEN {} END", cond, then,
                        kind=then.kind)
    if shape == "coalesce":
        first, second = sub(), sub()
        return join_sql("coalesce({}, {})", first, second,
                        kind=_widen(first, second))
    return join_sql("length({})", text(draw, scope, depth - 1), kind=INT)


def _widen(*parts: Sql) -> str:
    return FLOAT if any(p.kind == FLOAT for p in parts) else INT


def text(draw, scope: Scope, depth: int) -> Sql:
    if depth <= 0 or draw(st.integers(0, 2)) == 0:
        return leaf(draw, scope, STR)
    shape = draw(st.sampled_from(
        ["concat", "lower", "upper", "substr", "coalesce", "case"]))
    sub = partial(text, draw, scope, depth - 1)
    if shape == "concat":
        parts = [sub() for _ in range(draw(st.integers(2, 3)))]
        return join_sql("(" + " || ".join("{}" for _ in parts) + ")",
                        *parts, kind=STR)
    if shape in ("lower", "upper"):
        return join_sql(shape + "({})", sub(), kind=STR)
    if shape == "substr":
        start = draw(st.integers(1, 3))
        if draw(st.booleans()):
            return join_sql("substr({}, " + f"{start})", sub(), kind=STR)
        length = draw(st.integers(0, 3))
        return join_sql("substr({}, " + f"{start}, {length})", sub(),
                        kind=STR)
    if shape == "coalesce":
        return join_sql("coalesce({}, {})", sub(), sub(), kind=STR)
    cond = predicate(draw, scope, depth - 1)
    return join_sql("CASE WHEN {} THEN {} ELSE {} END", cond, sub(), sub(),
                    kind=STR)


def value(draw, scope: Scope, depth: int, kind: str) -> Sql:
    return text(draw, scope, depth) if kind == STR \
        else numeric(draw, scope, depth)


def predicate(draw, scope: Scope, depth: int) -> Sql:
    shape = draw(st.sampled_from(
        ["cmp", "cmp", "between", "in", "like", "null"]
        + (["not", "and", "or"] if depth > 0 else [])))
    if shape in ("not", "and", "or"):
        left = predicate(draw, scope, depth - 1)
        if shape == "not":
            return join_sql("(NOT {})", left, kind=INT)
        right = predicate(draw, scope, depth - 1)
        return join_sql("({} " + shape.upper() + " {})", left, right,
                        kind=INT)
    kind = draw(st.sampled_from([INT, STR]))
    sub_depth = max(depth - 1, 0)
    operand = value(draw, scope, sub_depth, kind)
    negated = "NOT " if draw(st.booleans()) else ""
    if shape == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return join_sql("({} " + op + " {})", operand,
                        value(draw, scope, sub_depth, kind), kind=INT)
    if shape == "between":
        return join_sql("({} " + negated + "BETWEEN {} AND {})", operand,
                        leaf(draw, scope, kind), leaf(draw, scope, kind),
                        kind=INT)
    if shape == "in":
        options = [leaf(draw, scope, kind)
                   for _ in range(draw(st.integers(1, 3)))]
        return join_sql("({} " + negated + "IN (" +
                        ", ".join("{}" for _ in options) + "))",
                        operand, *options, kind=INT)
    if shape == "like":
        pattern = draw(st.text(alphabet="aAb%_", max_size=3))
        return join_sql("({} " + negated + "LIKE {})",
                        text(draw, scope, sub_depth),
                        literal_text(draw, pattern), kind=INT)
    return join_sql("({} IS " + negated + "NULL)", operand, kind=INT)


def literal_text(draw, pattern: str) -> Sql:
    if draw(st.booleans()):
        return Sql("?", (pattern,), STR)
    return Sql(f"'{pattern}'", (), STR)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def where_clause(draw, scope: Scope, access: list[Sql]) -> Sql | None:
    conjuncts = list(access)
    if draw(st.booleans()):
        conjuncts.append(predicate(draw, scope, 2))
    if not conjuncts:
        return None
    conjuncts = draw(st.permutations(conjuncts))
    return join_sql(" AND ".join("{}" for _ in conjuncts), *conjuncts,
                    kind=INT)


def bound(draw, kind: str) -> Sql:
    """A range bound for a ``kind`` column; INT columns get float ones too."""
    if kind == STR:
        return literal(draw, STR)
    return literal(draw, draw(st.sampled_from(NUMERIC)))


def walk_conjuncts(draw, table: Table, columns: list[str],
                   prefix: str = "") -> list[Sql]:
    """Equalities on a leading run of ``columns``, then maybe a range."""
    width = draw(st.integers(0, len(columns) - 1))
    conjuncts = [join_sql(prefix + c + " = {}",
                          literal(draw, STR if table.kind(c) == STR
                                  else INT), kind=INT)
                 for c in columns[:width]]
    column = columns[width]
    kind = table.kind(column)
    shape = draw(st.sampled_from(["none", "between", "low", "high",
                                  "both"]))
    if shape == "between":
        conjuncts.append(join_sql(prefix + column + " BETWEEN {} AND {}",
                                  bound(draw, kind), bound(draw, kind),
                                  kind=INT))
    if shape in ("low", "both"):
        op = draw(st.sampled_from([">", ">="]))
        if draw(st.booleans()):
            conjuncts.append(join_sql(prefix + column + " " + op + " {}",
                                      bound(draw, kind), kind=INT))
        else:  # flipped operands
            flipped = {">": "<", ">=": "<="}[op]
            conjuncts.append(join_sql("{} " + flipped + " " + prefix
                                      + column, bound(draw, kind),
                                      kind=INT))
    if shape in ("high", "both"):
        op = draw(st.sampled_from(["<", "<="]))
        conjuncts.append(join_sql(prefix + column + " " + op + " {}",
                                  bound(draw, kind), kind=INT))
    return conjuncts


def access_path(draw, table: Table, binding: str | None) -> list[Sql]:
    """Conjuncts that steer the planner to a specific access path."""
    prefix = f"{binding}." if binding else ""
    shape = draw(st.sampled_from(["none", "pk_point", "pk_range", "index",
                                  "walk"]))
    if shape == "walk":
        columns = draw(st.sampled_from([table.pk] + table.indexes))
        return walk_conjuncts(draw, table, columns, prefix)
    if shape == "pk_point":
        return [join_sql(prefix + c + " = {}",
                         literal(draw, table.kind(c)), kind=INT)
                for c in table.pk]
    if shape == "pk_range" and len(table.pk) == 1:
        lo, hi = literal(draw, INT), literal(draw, INT)
        if draw(st.booleans()):
            return [join_sql(prefix + "k0 BETWEEN {} AND {}", lo, hi,
                             kind=INT)]
        lo_op = draw(st.sampled_from([">", ">="]))
        hi_op = draw(st.sampled_from(["<", "<="]))
        return [join_sql(prefix + "k0 " + lo_op + " {}", lo, kind=INT),
                join_sql(prefix + "k0 " + hi_op + " {}", hi, kind=INT)]
    if shape == "index" and table.indexes:
        columns = draw(st.sampled_from(table.indexes))
        return [join_sql(prefix + c + " = {}",
                         literal(draw, INT if table.kind(c) in NUMERIC
                                 else STR), kind=INT)
                for c in columns]
    return []


def order_limit(draw, order_keys: list[str], n_items: int) -> Sql:
    """ORDER BY the drawn keys, then every output position (total order)."""
    keys = [k + (" DESC" if draw(st.booleans()) else "") for k in order_keys]
    keys += [f"{i + 1}" + (" DESC" if draw(st.booleans()) else "")
             for i in range(n_items)]
    clause = Sql(" ORDER BY " + ", ".join(keys))
    if draw(st.booleans()):
        clause = join_sql("{} LIMIT {}", clause,
                          limit_value(draw, 6), kind=INT)
        if draw(st.booleans()):
            clause = join_sql("{} OFFSET {}", clause,
                              limit_value(draw, 4), kind=INT)
    return clause


def limit_value(draw, most: int) -> Sql:
    value = draw(st.integers(0, most))
    return Sql("?", (value,)) if draw(st.booleans()) else Sql(str(value))


def select_items(draw, scope: Scope, allow_star: bool) -> list[Sql]:
    if allow_star and draw(st.integers(0, 5)) == 0:
        return [Sql("*")]
    items = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            ref = column(draw, scope, (INT, FLOAT, STR))
            if ref is not None:
                items.append(ref)
                continue
        kind = draw(st.sampled_from([INT, FLOAT, STR, "bool"]))
        expr = (predicate(draw, scope, 1) if kind == "bool"
                else value(draw, scope, 2, kind))
        items.append(join_sql("{} AS e" + str(i), expr, kind=expr.kind))
    return items


def render_select(draw, items: list[Sql], from_clause: str,
                  where: Sql | None, scope: Scope,
                  distinct: bool = False) -> tuple[str, tuple]:
    parts = list(items)
    sql = ("SELECT " + ("DISTINCT " if distinct else "")
           + ", ".join(p.text for p in items) + " FROM " + from_clause)
    if where is not None:
        sql += " WHERE " + where.text
        parts.append(where)
    if items[0].text != "*" and draw(st.booleans()):
        extra = [] if distinct else [
            column(draw, scope, (INT, FLOAT, STR)).text
            for _ in range(draw(st.integers(0, 1)))]
        order = order_limit(draw, extra, len(items))
        sql += order.text
        parts.append(order)
    return sql, tuple(p for part in parts for p in part.params)


@st.composite
def single_table_selects(draw, table: Table) -> tuple[str, tuple]:
    scope = Scope([("t0", table)], qualify=False)
    items = select_items(draw, scope, allow_star=True)
    where = where_clause(draw, scope, access_path(draw, table, None))
    return render_select(draw, items, "t0", where, scope,
                         distinct=items[0].text != "*"
                         and draw(st.booleans()))


@st.composite
def join_selects(draw, t0: Table, t1: Table) -> tuple[str, tuple]:
    scope = Scope([("x", t0), ("y", t1)], qualify=True)
    kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    # Join on an INT column of x against a key or indexed column of y.
    left = draw(st.sampled_from([f"x.{c}" for c, k in t0.columns
                                 if k == INT]))
    right = draw(st.sampled_from(
        [f"y.{c}" for c, k in t1.columns if k == INT]
        or ["y.k0"]))
    on = f"{right} = {left}"
    on_params: tuple = ()
    if draw(st.booleans()):
        extra = predicate(draw, Scope([("y", t1)], qualify=True), 1)
        on += " AND " + extra.text
        on_params = extra.params
    items = select_items(draw, scope, allow_star=True)
    access = access_path(draw, t0, "x")
    where = where_clause(draw, scope, access)
    from_clause = f"t0 x {kind} t1 y ON {on}"
    sql, params = render_select(draw, items, from_clause, where, scope)
    item_params = tuple(p for item in items for p in item.params)
    # Params follow textual order: items, then ON, then WHERE.
    rest = params[len(item_params):]
    return sql, item_params + on_params + rest


@st.composite
def walk_selects(draw, table: Table) -> tuple[str, tuple]:
    """``ORDER BY <index columns> LIMIT k [OFFSET m]`` over a walk."""
    columns = draw(st.sampled_from(table.orders()))
    where = walk_conjuncts(draw, table, columns)
    if draw(st.booleans()):
        scope = Scope([("t0", table)], qualify=False)
        where.append(predicate(draw, scope, 1))
    direction = draw(st.sampled_from(["", " DESC"]))
    sql = "SELECT * FROM t0"
    params: tuple = ()
    if where:
        sql += " WHERE " + " AND ".join(w.text for w in where)
        params = tuple(p for w in where for p in w.params)
    sql += " ORDER BY " + ", ".join(c + direction for c in columns)
    limit = limit_value(draw, 4)
    sql += " LIMIT " + limit.text
    params += limit.params
    if draw(st.booleans()):
        offset = limit_value(draw, 3)
        sql += " OFFSET " + offset.text
        params += offset.params
    return sql, params


@st.composite
def inserts(draw, table: Table, serial: int) -> tuple[str, tuple]:
    """A row whose k0 lies outside the generated key range."""
    row = (100 + serial,) + tuple(
        draw(value_of(table.kind(c), nullable=False))
        for c in table.pk[1:]) + tuple(
        draw(value_of(kind)) for _, kind in table.value_columns())
    marks = ", ".join("?" for _ in row)
    return f"INSERT INTO t0 VALUES ({marks})", row


AGGREGATES = ["count(*)", "count({})", "count(DISTINCT {})", "sum({})",
              "avg({})", "min({})", "max({})"]


@st.composite
def aggregate_selects(draw, t0: Table, t1: Table) -> tuple[str, tuple]:
    joined = draw(st.booleans())
    if joined:
        scope = Scope([("x", t0), ("y", t1)], qualify=True)
        from_clause = ("t0 x " + draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
                       + " t1 y ON y.k0 = x.k0")
    else:
        scope = Scope([("t0", t0)], qualify=False)
        from_clause = "t0"
    names = [c for c, _ in scope.columns]
    group = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    items = [Sql(g) for g in group]
    for i in range(draw(st.integers(1, 3))):
        template = draw(st.sampled_from(AGGREGATES))
        numeric_only = template.startswith(("sum", "avg"))
        arg = column(draw, scope, NUMERIC if numeric_only
                     else (INT, FLOAT, STR))
        if arg is None:
            template, arg = "count(*)", Sql("")
        call = template.format(arg.text)
        if numeric_only and draw(st.booleans()):
            call = f"({call} + {draw(st.integers(0, 3))})"
        items.append(Sql(f"{call} AS a{i}"))
    where = where_clause(draw, scope, [])
    sql = "SELECT " + ", ".join(i.text for i in items) + " FROM " + from_clause
    params: tuple = ()
    if where is not None:
        sql += " WHERE " + where.text
        params += where.params
    if group:
        sql += " GROUP BY " + ", ".join(group)
        if draw(st.booleans()):
            sql += " HAVING " + having(draw, scope)
    if draw(st.booleans()):
        # Optionally lead with an aggregate key that is not an output.
        lead = draw(st.sampled_from([[], ["count(*)"]]))
        order = order_limit(draw, lead, len(items))
        sql += order.text
        params += order.params
    return sql, params


def having(draw, scope: Scope) -> str:
    numbers = scope.of(NUMERIC)
    shapes = [f"count(*) > {draw(st.integers(0, 2))}"]
    if numbers:
        col = draw(st.sampled_from(numbers))
        shapes += [f"sum({col}) >= {draw(st.integers(-2, 10))}",
                   f"min({col}) < {draw(st.integers(0, 6))}",
                   f"max({col}) IS NOT NULL",
                   f"(count({col}) + 1) > 1"]
    return draw(st.sampled_from(shapes))


@st.composite
def writes(draw, table: Table) -> tuple[str, tuple]:
    scope = Scope([("t0", table)], qualify=False)
    where = where_clause(draw, scope, access_path(draw, table, None))
    if draw(st.booleans()):
        sql, params = "DELETE FROM t0", ()
    else:
        targets = draw(st.lists(st.sampled_from(table.value_columns()),
                                min_size=1, max_size=2,
                                unique_by=lambda c: c[0]))
        sets = [join_sql(name + " = {}",
                         numeric(draw, scope, 2, int_only=kind == INT)
                         if kind in NUMERIC else text(draw, scope, 1),
                         kind=kind)
                for name, kind in targets]
        sql = "UPDATE t0 SET " + ", ".join(s.text for s in sets)
        params = tuple(p for s in sets for p in s.params)
    if where is not None:
        sql += " WHERE " + where.text
        params += where.params
    return sql, params


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def run_all(twin: Twin, statements) -> None:
    for sql, params in statements:
        twin.check(sql, params)


@ORACLE_SETTINGS
@given(st.data())
def test_single_table_selects_match_sqlite(data):
    t0, t1 = data.draw(databases())
    twin = make_twin(t0, t1)
    try:
        run_all(twin, data.draw(st.lists(single_table_selects(t0),
                                         min_size=1, max_size=4)))
    finally:
        twin.close()


@ORACLE_SETTINGS
@given(st.data())
def test_join_selects_match_sqlite(data):
    t0, t1 = data.draw(databases())
    twin = make_twin(t0, t1)
    try:
        run_all(twin, data.draw(st.lists(join_selects(t0, t1),
                                         min_size=1, max_size=4)))
    finally:
        twin.close()


@ORACLE_SETTINGS
@given(st.data())
def test_aggregate_selects_match_sqlite(data):
    t0, t1 = data.draw(databases())
    twin = make_twin(t0, t1)
    try:
        run_all(twin, data.draw(st.lists(aggregate_selects(t0, t1),
                                         min_size=1, max_size=4)))
    finally:
        twin.close()


@ORACLE_SETTINGS
@given(st.data())
def test_walks_across_writes_match_sqlite(data):
    t0, t1 = data.draw(databases())
    twin = make_twin(t0, t1)
    # Prune after every commit, so walks also cross keys whose last
    # version was dropped, not only tombstoned ones.
    twin.db.txn_manager.PRUNE_INTERVAL = data.draw(st.sampled_from([1, 256]))
    try:
        for serial in range(data.draw(st.integers(1, 5))):
            kind = data.draw(st.sampled_from(["walk", "walk", "write",
                                              "insert"]))
            if kind == "walk":
                twin.check(*data.draw(walk_selects(t0)))
            elif kind == "write":
                twin.check(*data.draw(writes(t0)))
            else:
                twin.check(*data.draw(inserts(t0, serial)))
        twin.check(*data.draw(walk_selects(t0)))
    finally:
        twin.close()


@ORACLE_SETTINGS
@given(st.data())
def test_writes_match_sqlite(data):
    t0, t1 = data.draw(databases())
    twin = make_twin(t0, t1)
    try:
        for sql, params in data.draw(st.lists(writes(t0), min_size=1,
                                              max_size=3)):
            twin.check(sql, params)
            twin.check_table("t0")
    finally:
        twin.close()
