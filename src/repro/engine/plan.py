"""Compile-once query plans: the engine's only SQL execution path.

Every SELECT/INSERT/UPDATE/DELETE is compiled once per
``(sql, catalog_version)`` into a plan that
:class:`~repro.engine.executor.Executor` runs:

* every ``ColumnRef`` is resolved at compile time to a fixed
  ``(source slot, tuple index)`` pair;
* predicates, projections, order keys, and aggregate arguments are
  compiled into nested Python closures with SQL three-valued semantics
  (the operators live in ``expr.apply_binary`` / ``apply_unary`` /
  ``apply_scalar_func``);
* each source's access path — equality-index probe, ordered index walk
  (equality prefix plus a range or an ORDER BY … LIMIT on the next
  column), or full scan — is chosen once, with a runtime fallback to
  the full scan for when a probe key or walk bound cannot be evaluated
  or compared.

A compiled closure takes ``(rows, params)`` where ``rows`` is an
indexable sequence of per-slot row tuples (``None`` for a missed LEFT
JOIN side, or for every slot of an empty aggregate group) and returns
a plain value; NULL is ``None`` throughout.

Semantic errors (unknown/ambiguous columns, unknown tables, bad
aggregate usage) surface here at *prepare* time as
:class:`ProgrammingError`.  The answers are checked against stdlib
``sqlite3`` by the differential tests in ``tests/engine``.

The module also hosts :class:`PlanCache` (prepared statements keyed by
``(sql, catalog_version)``, invalidated wholesale on DDL) with
hit/miss/evict/invalidation counters surfaced through the monitoring
stack.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

from ..errors import DataError, IntegrityError, ProgrammingError
from .catalog import Catalog, ColumnDef, IndexDef, TableSchema, key_getter
from .expr import (AGGREGATES, _SCALAR_FUNCS, _compare_bool, _kleene_and,
                   _stringify, apply_binary, apply_scalar_func, apply_unary,
                   like_match)
from .sqlparser import ast
from .storage import TOP
from .types import TEXT

#: A compiled expression: ``fn(rows, params) -> value``.
ExprFn = Callable[[Sequence[Optional[tuple]], Sequence[object]], object]


class Scope:
    """Compile-time column resolution over the plan's source slots.

    A qualified reference resolves by binding; an unqualified one must
    name a column of exactly one source.  Either way it resolves once,
    to a fixed ``(slot, position)`` pair, instead of per row.

    In an aggregate scope, ``register`` maps each aggregate call to an
    index into the group's :class:`LazyAggs`, which the executor passes
    in the slot after the sources.
    """

    __slots__ = ("slots", "register")

    def __init__(self, slots: Sequence[tuple[str, TableSchema]],
                 register: Optional[Callable[[ast.FuncCall], int]] = None
                 ) -> None:
        self.slots = list(slots)
        self.register = register

    def resolve(self, table: Optional[str], column: str) -> tuple[int, int]:
        if table is not None:
            for slot, (binding, schema) in enumerate(self.slots):
                if binding == table:
                    return slot, schema.position(column)
            raise ProgrammingError(f"unknown table binding {table!r}")
        owners = [
            (slot, schema.position(column))
            for slot, (_binding, schema) in enumerate(self.slots)
            if schema.has_column(column)
        ]
        if not owners:
            raise ProgrammingError(f"unknown column {column!r}")
        if len(owners) > 1:
            raise ProgrammingError(f"ambiguous column {column!r}")
        return owners[0]


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


_DIRECT_CMP = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def tuple_fn(fns: Sequence[ExprFn]) -> ExprFn:
    """Fuse closures into one ``(rows, params) -> tuple`` builder.

    Small arities are unrolled so the per-row cost is plain calls with
    no generator object; this sits on every projection, index-probe
    key, and GROUP BY key evaluation.
    """
    if len(fns) == 1:
        f0, = fns
        return lambda rows, params: (f0(rows, params),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda rows, params: (f0(rows, params), f1(rows, params))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda rows, params: (
            f0(rows, params), f1(rows, params), f2(rows, params))
    if len(fns) == 4:
        f0, f1, f2, f3 = fns
        return lambda rows, params: (
            f0(rows, params), f1(rows, params), f2(rows, params),
            f3(rows, params))
    frozen = tuple(fns)
    return lambda rows, params: tuple(f(rows, params) for f in frozen)


def compile_expr(expr: ast.Expr, scope: Scope) -> ExprFn:
    """Compile ``expr`` into a ``(rows, params) -> value`` closure."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda rows, params: value
    if isinstance(expr, ast.Param):
        index = expr.index
        def param_fn(rows, params):
            try:
                return params[index]
            except IndexError:
                raise ProgrammingError(
                    f"statement expects at least {index + 1} parameters, "
                    f"got {len(params)}") from None
        return param_fn
    if isinstance(expr, ast.ColumnRef):
        slot, position = scope.resolve(expr.table, expr.column)
        def column_fn(rows, params):
            values = rows[slot]
            return values[position] if values is not None else None
        return column_fn
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        if op in _DIRECT_CMP:
            # Same-type int/str operands compare identically under
            # ``compare_values`` (``_comparable`` is the identity and
            # both sides take the same branch), so the native operator
            # is safe; everything else keeps the full coercion chain.
            # bool is excluded because ``type(x) is int`` rejects it.
            direct = _DIRECT_CMP[op]
            def cmp_fn(rows, params):
                lv = left(rows, params)
                rv = right(rows, params)
                if lv is None or rv is None:
                    return None
                kind = type(lv)
                if kind is type(rv) and (kind is int or kind is str):
                    return direct(lv, rv)
                return _compare_bool(lv, rv, op)
            return cmp_fn
        # AND/OR stay eager over both operands (errors and NULLs from
        # either side are observed).
        return lambda rows, params: apply_binary(
            op, left(rows, params), right(rows, params))
    if isinstance(expr, ast.UnaryOp):
        op = expr.op
        operand = compile_expr(expr.operand, scope)
        return lambda rows, params: apply_unary(op, operand(rows, params))
    if isinstance(expr, ast.Between):
        value_fn = compile_expr(expr.value, scope)
        low_fn = compile_expr(expr.low, scope)
        high_fn = compile_expr(expr.high, scope)
        negated = expr.negated
        def between_fn(rows, params):
            value = value_fn(rows, params)
            result = _kleene_and(
                _compare_bool(value, low_fn(rows, params), ">="),
                _compare_bool(value, high_fn(rows, params), "<="))
            if result is None or not negated:
                return result
            return not result
        return between_fn
    if isinstance(expr, ast.InList):
        value_fn = compile_expr(expr.value, scope)
        option_fns = tuple(compile_expr(o, scope) for o in expr.options)
        negated = expr.negated
        def in_fn(rows, params):
            value = value_fn(rows, params)
            if value is None:
                return None
            saw_null = False
            for option_fn in option_fns:
                result = _compare_bool(value, option_fn(rows, params), "=")
                if result is True:
                    return not negated
                if result is None:
                    saw_null = True
            if saw_null:
                return None
            return negated
        return in_fn
    if isinstance(expr, ast.Like):
        value_fn = compile_expr(expr.value, scope)
        pattern_fn = compile_expr(expr.pattern, scope)
        negated = expr.negated
        def like_fn(rows, params):
            value = value_fn(rows, params)
            pattern = pattern_fn(rows, params)
            if value is None or pattern is None:
                return None
            return like_match(_stringify(value),
                              _stringify(pattern)) != negated
        return like_fn
    if isinstance(expr, ast.IsNull):
        value_fn = compile_expr(expr.value, scope)
        negated = expr.negated
        return lambda rows, params: (value_fn(rows, params) is None) != negated
    if isinstance(expr, ast.FuncCall):
        name = expr.name
        if name in AGGREGATES:
            if scope.register is None:
                raise ProgrammingError(
                    f"aggregate {name!r} used outside aggregation context")
            index = scope.register(expr)
            aggs_slot = len(scope.slots)
            return lambda rows, params: rows[aggs_slot][index]
        if name not in _SCALAR_FUNCS:
            raise ProgrammingError(f"unknown function {name!r}")
        arg_fns = tuple(compile_expr(arg, scope) for arg in expr.args)
        return lambda rows, params: apply_scalar_func(
            name, [fn(rows, params) for fn in arg_fns])
    if isinstance(expr, ast.CaseExpr):
        branch_fns = tuple(
            (compile_expr(cond, scope), compile_expr(val, scope))
            for cond, val in expr.branches)
        default_fn = (compile_expr(expr.default, scope)
                      if expr.default is not None else None)
        def case_fn(rows, params):
            for cond_fn, val_fn in branch_fns:
                if cond_fn(rows, params) is True:
                    return val_fn(rows, params)
            if default_fn is not None:
                return default_fn(rows, params)
            return None
        return case_fn
    raise ProgrammingError(f"cannot evaluate expression node {expr!r}")


def _compile_conjunction(predicates: Sequence[ast.Expr],
                         scope: Scope) -> Optional[ExprFn]:
    """Compile residual predicates into one ``is_true``-folded test."""
    if not predicates:
        return None
    fns = tuple(compile_expr(p, scope) for p in predicates)
    if len(fns) == 1:
        single = fns[0]
        return lambda rows, params: single(rows, params) is True
    def conjunction_fn(rows, params):
        # Matches all(is_true(evaluate(p)) ...): stop at the first
        # non-TRUE conjunct.
        for fn in fns:
            if fn(rows, params) is not True:
                return False
        return True
    return conjunction_fn


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexProbe:
    """Equality probe: evaluate the fused key closure, look up the index.

    ``covers`` are the ``column = value`` conjuncts the key was built
    from.  A candidate whose visible version has exactly the probe key
    satisfies all of them, so the source's ``residual`` filter leaves
    them out; any other candidate (a stale index entry, a row of the
    transaction's own) still goes through the full filter.
    """

    index_name: str
    key_fn: ExprFn  # (rows, params) -> key tuple
    #: Row values -> this index's key tuple.
    key_of: Callable[[tuple], tuple]
    covers: tuple[ast.Expr, ...]


#: A range bound on a walked column: ``(value closure, strict)``.
Bound = tuple[ExprFn, bool]


def _is_number(value: object) -> bool:
    return type(value) in (int, float, bool) and value == value


def _is_text(value: object) -> bool:
    return type(value) is str


def _bound_check(column: ColumnDef) -> Callable[[object], bool]:
    """Which bound values Python orders as SQL compares them to ``column``.

    Coercion stores one Python type family per column (int/float/bool
    for the numeric affinities, str for text), and ``compare_values``
    agrees with Python's own order exactly when the bound is of the same
    family and not NaN.
    """
    try:
        affinity = column.sql_type.affinity
    except DataError:  # an unknown type stores no rows to walk
        return _is_number
    return _is_text if affinity == TEXT else _is_number


@dataclass(frozen=True)
class IndexWalk:
    """Ordered walk: equality prefix, then a range on the next column.

    ``prefix_fns`` give the values of the index's leading columns;
    ``lower`` and ``upper`` bound the column after them.  With
    ``pushdown`` the walk's direction is the ORDER BY of a single-source
    SELECT with a LIMIT, so the executor may stop after LIMIT + OFFSET
    qualifying rows.
    """

    index_name: str
    prefix_fns: tuple[ExprFn, ...]
    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]
    #: One value check per prefix column plus the walked column.
    checks: tuple[Callable[[object], bool], ...]
    #: Row values -> this index's key tuple.
    key_of: Callable[[tuple], tuple]
    descending: bool = False
    pushdown: bool = False

    def bounds(self, rows: Sequence[Optional[tuple]],
               params: Sequence[object]
               ) -> Optional[tuple[tuple, tuple, tuple]]:
        """``(prefix, low, high)``: the walk is ``low <= key < high``.

        None when a value cannot be evaluated yet or is not comparable
        with its column in Python order (NULL, NaN, a string against a
        number column, ...); the caller then scans instead.
        """
        try:
            prefix = tuple(fn(rows, params) for fn in self.prefix_fns)
            lower = [(fn(rows, params), strict) for fn, strict in self.lower]
            upper = [(fn(rows, params), strict) for fn, strict in self.upper]
        except ProgrammingError:
            return None
        checks = self.checks
        if not all(check(value) for check, value in zip(checks, prefix)):
            return None
        check = checks[len(prefix)]
        if not all(check(value) for value, _strict in lower + upper):
            return None
        low = prefix
        if lower:
            # The largest bound; of two equal ones, the strict one.
            value, strict = max(lower)
            low = prefix + ((value, TOP) if strict else (value,))
        high = prefix + (TOP,)
        if upper:
            value, strict = min(upper, key=lambda bound: (bound[0],
                                                          not bound[1]))
            high = prefix + ((value,) if strict else (value, TOP))
        return prefix, low, high


def _compile_const(expr: ast.Expr, prefix_scope: Scope) -> Optional[ExprFn]:
    """Compile an expression evaluable before this source's row binds.

    Returns None when the expression references bindings not yet in
    scope, so the source cannot probe with it.
    """
    try:
        return compile_expr(expr, prefix_scope)
    except ProgrammingError:
        return None


def _references_binding(expr: ast.Expr, binding: str,
                        schema: TableSchema) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef):
            if node.table == binding:
                return True
            if node.table is None and schema.has_column(node.column):
                return True
    return False


def _own_column(expr: ast.Expr, binding: str,
                schema: TableSchema) -> Optional[str]:
    if (isinstance(expr, ast.ColumnRef)
            and (expr.table is None or expr.table == binding)
            and schema.has_column(expr.column)):
        return expr.column
    return None


def _operand(expr: ast.Expr, binding: str, schema: TableSchema,
             prefix_scope: Scope) -> Optional[ExprFn]:
    """A probe value: compiled ``expr`` if it does not read this source."""
    if _references_binding(expr, binding, schema):
        return None
    return _compile_const(expr, prefix_scope)


def _equalities(predicates: Sequence[ast.Expr], binding: str,
                schema: TableSchema, prefix_scope: Scope
                ) -> dict[str, tuple[ExprFn, ast.Expr]]:
    """``column -> (value closure, conjunct)`` for each ``column = value``
    conjunct; the first one wins when a column has several."""
    found: dict[str, tuple[ExprFn, ast.Expr]] = {}
    for predicate in predicates:
        if not (isinstance(predicate, ast.BinaryOp) and predicate.op == "="):
            continue
        for own, other in ((predicate.left, predicate.right),
                           (predicate.right, predicate.left)):
            column = _own_column(own, binding, schema)
            if column is None or column in found:
                continue
            fn = _operand(other, binding, schema, prefix_scope)
            if fn is not None:
                found[column] = (fn, predicate)
                break
    return found


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _ranges(predicates: Sequence[ast.Expr], binding: str,
            schema: TableSchema, prefix_scope: Scope
            ) -> dict[str, tuple[list[Bound], list[Bound]]]:
    """``column -> (lower bounds, upper bounds)`` from the conjuncts."""
    found: dict[str, tuple[list[Bound], list[Bound]]] = {}

    def add(column: str, op: str, fn: ExprFn) -> None:
        lower, upper = found.setdefault(column, ([], []))
        (lower if op[0] == ">" else upper).append((fn, len(op) == 1))

    for predicate in predicates:
        if isinstance(predicate, ast.Between) and not predicate.negated:
            column = _own_column(predicate.value, binding, schema)
            low = _operand(predicate.low, binding, schema, prefix_scope)
            high = _operand(predicate.high, binding, schema, prefix_scope)
            if column is not None and low is not None and high is not None:
                add(column, ">=", low)
                add(column, "<=", high)
        elif (isinstance(predicate, ast.BinaryOp)
              and predicate.op in _FLIPPED):
            for own, other, op in (
                    (predicate.left, predicate.right, predicate.op),
                    (predicate.right, predicate.left,
                     _FLIPPED[predicate.op])):
                column = _own_column(own, binding, schema)
                fn = (_operand(other, binding, schema, prefix_scope)
                      if column is not None else None)
                if fn is not None:
                    add(column, op, fn)
                    break
    return found


def _walk_direction(order: Sequence[tuple[str, bool]],
                    columns: Sequence[str], prefix: int) -> Optional[bool]:
    """``descending`` for a walk whose key order is ``order``, else None.

    The ORDER BY columns must follow the index columns after the
    equality prefix, in one direction; prefix columns are constant over
    the walk, so they may appear anywhere.
    """
    fixed = set(columns[:prefix])
    rest = columns[prefix:]
    direction: Optional[bool] = None
    matched = 0
    for column, descending in order:
        if column in fixed:
            continue
        if (matched == len(rest) or rest[matched] != column
                or direction not in (None, descending)):
            return None
        direction = descending
        matched += 1
    return direction


def _access_path(predicates: Sequence[ast.Expr], binding: str,
                 schema: TableSchema, prefix_scope: Scope,
                 order: Optional[Sequence[tuple[str, bool]]]
                 ) -> tuple[Optional[IndexProbe], Optional[IndexWalk]]:
    """Choose this source's index path: a probe, a walk, or neither.

    An equality probe needs every column of its index bound.  A walk
    needs an equality prefix, a range on the next column, or an ORDER BY
    it can deliver (``order``, given only when a LIMIT makes stopping
    early worthwhile).  Each walk ranks by its prefix length, plus a
    half for a range or a pushed-down ORDER BY; a probe ranks by its
    column count and always wins on a unique index.
    """
    equalities = _equalities(predicates, binding, schema, prefix_scope)
    ranges = _ranges(predicates, binding, schema, prefix_scope)
    probe: Optional[IndexDef] = None
    walk: Optional[tuple[tuple, IndexDef, int, Optional[bool]]] = None
    for index in schema.index_defs():
        columns = index.columns
        prefix = 0
        while prefix < len(columns) and columns[prefix] in equalities:
            prefix += 1
        if prefix == len(columns):
            if probe is None or (index.unique, len(columns)) > (
                    probe.unique, len(probe.columns)):
                probe = index
            continue
        has_range = columns[prefix] in ranges
        direction = (_walk_direction(order, columns, prefix)
                     if order else None)
        ordered = direction is not None
        if not (prefix or has_range or ordered):
            continue
        rank = (prefix + (0.5 if has_range or ordered else 0),
                has_range, ordered, -len(columns))
        if walk is None or rank > walk[0]:
            walk = (rank, index, prefix, direction)
    if probe is not None and (probe.unique or walk is None
                              or len(probe.columns) >= walk[0][0]):
        return IndexProbe(
            probe.name,
            key_fn=tuple_fn([equalities[c][0] for c in probe.columns]),
            key_of=key_getter(schema.positions(probe.columns)),
            covers=tuple(equalities[c][1] for c in probe.columns)), None
    if walk is None:
        return None, None
    _rank, index, prefix, direction = walk
    positions = schema.positions(index.columns)
    lower, upper = ranges.get(index.columns[prefix], ([], []))
    return None, IndexWalk(
        index_name=index.name,
        prefix_fns=tuple(equalities[c][0] for c in index.columns[:prefix]),
        lower=tuple(lower), upper=tuple(upper),
        checks=tuple(_bound_check(schema.columns[p])
                     for p in positions[:prefix + 1]),
        key_of=key_getter(positions),
        descending=bool(direction), pushdown=direction is not None)


# ---------------------------------------------------------------------------
# Compiled plan nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSource:
    """One FROM-clause table: slot, access-path cascade, residual filter."""

    slot: int
    binding: str
    table: str
    schema: TableSchema
    join_kind: str
    index_probe: Optional[IndexProbe]
    walk: Optional[IndexWalk]
    #: Full filter over (rows, params) -> bool; None accepts all.  It
    #: re-checks every predicate — index candidates are conservative
    #: supersets.
    filter: Optional[ExprFn]
    #: The filter without the conjuncts ``index_probe`` covers, for a
    #: candidate whose visible version has the probe key; None accepts
    #: all.  Unused without a probe.
    residual: Optional[ExprFn] = None
    #: LEFT JOIN only: WHERE conjuncts on this source, checked after a
    #: row is matched or NULL-extended; None accepts all.
    post_filter: Optional[ExprFn] = None


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key: an output position or a compiled closure."""

    descending: bool
    position: Optional[int] = None
    fn: Optional[ExprFn] = None

    def value(self, rows: Sequence[Optional[tuple]], row: tuple,
              params: Sequence[object]) -> object:
        if self.position is not None:
            return row[self.position]
        return self.fn(rows, params)


@dataclass(frozen=True)
class CompiledAggregate:
    """One unique aggregate call within a grouped SELECT."""

    name: str
    star: bool
    distinct: bool
    arg_fn: Optional[ExprFn]

    def compute(self, contexts: Sequence[Sequence[Optional[tuple]]],
                params: Sequence[object]) -> object:
        if self.star:
            return len(contexts)
        values = [self.arg_fn(rows, params) for rows in contexts]
        values = [v for v in values if v is not None]
        if self.distinct:
            values = list(dict.fromkeys(values))
        if self.name == "count":
            return len(values)
        if not values:
            return None
        if self.name == "sum":
            return sum(values)
        if self.name == "avg":
            return sum(values) / len(values)
        if self.name == "min":
            return min(values)
        return max(values)  # compile_statement validated the name


class LazyAggs:
    """Per-group aggregate values, computed on demand and memoised.

    HAVING runs before the select items, so aggregates of groups it
    rejects are never computed, and an aggregate referenced twice is
    computed once.
    """

    __slots__ = ("_aggs", "_contexts", "_params", "_cache")

    def __init__(self, aggs: Sequence[CompiledAggregate],
                 contexts: Sequence[Sequence[Optional[tuple]]],
                 params: Sequence[object]) -> None:
        self._aggs = aggs
        self._contexts = contexts
        self._params = params
        self._cache: dict[int, object] = {}

    def __getitem__(self, index: int) -> object:
        try:
            return self._cache[index]
        except KeyError:
            value = self._aggs[index].compute(self._contexts, self._params)
            self._cache[index] = value
            return value


@dataclass(frozen=True)
class CompiledAggregation:
    """Grouping/aggregation section of a compiled SELECT.

    The select's projection, HAVING and ORDER BY closures of a grouped
    query run once per group over ``(*first_row, aggs)``: the group's
    first joined row (all NULL for an empty group), then its
    :class:`LazyAggs`.
    """

    group_fn: Optional[ExprFn]  # fused (rows, params) -> group-key tuple
    having_fn: Optional[ExprFn]
    aggs: tuple[CompiledAggregate, ...]


@dataclass(frozen=True)
class CompiledSelect:
    scalar: bool
    sources: tuple[CompiledSource, ...]
    for_update: bool
    columns: list[str]
    project_fn: ExprFn  # fused (rows, params) -> output tuple
    aggregation: Optional[CompiledAggregation]
    order_keys: tuple[OrderKey, ...]
    distinct: bool
    limit_fn: Optional[ExprFn]
    offset_fn: Optional[ExprFn]
    #: Table-less SELECT only: its WHERE; None accepts the one row.
    where_fn: Optional[ExprFn] = None
    #: One table and no aggregate, ORDER BY, DISTINCT, LIMIT or OFFSET:
    #: the executor projects each scanned row straight into the output.
    direct: bool = False


@dataclass(frozen=True)
class ColumnFinalizer:
    """Post-evaluation column handling shared by INSERT and UPDATE."""

    position: int
    name: str
    coerce: Callable[[object], object]
    not_null: bool


@dataclass(frozen=True)
class RowFinalizer:
    """Turns a full list of column values into a storable row.

    Coerces every column, enforces NOT NULL, and rejects a NULL in the
    primary key.  INSERT plans and :meth:`Database.bulk_insert` share it,
    so a row enters storage through one finalization path.
    """

    table: str
    columns: tuple[ColumnFinalizer, ...]
    pk_key: Optional[Callable[[tuple], tuple]]

    def __call__(self, values: list) -> tuple:
        for final in self.columns:
            value = final.coerce(values[final.position])
            if value is None and final.not_null:
                raise IntegrityError(
                    f"column {final.name!r} of {self.table!r} is NOT NULL")
            values[final.position] = value
        row = tuple(values)
        if self.pk_key is not None and None in self.pk_key(row):
            raise IntegrityError(f"NULL in primary key of {self.table!r}")
        return row


def row_finalizer(schema: TableSchema) -> RowFinalizer:
    return RowFinalizer(
        table=schema.name,
        columns=tuple(_column_finalizer(i, column)
                      for i, column in enumerate(schema.columns)),
        pk_key=schema.pk_key if schema.primary_key else None)


@dataclass(frozen=True)
class CompiledInsert:
    table: str
    schema: TableSchema
    positions: tuple[int, ...]
    row_fns: tuple[tuple[ExprFn, ...], ...]
    defaults: tuple[tuple[int, object], ...]
    finalize: RowFinalizer


@dataclass(frozen=True)
class CompiledAssignment:
    finalizer: ColumnFinalizer
    value_fn: ExprFn


@dataclass(frozen=True)
class CompiledUpdate:
    table: str
    schema: TableSchema
    source: CompiledSource
    assignments: tuple[CompiledAssignment, ...]
    #: Whether an assignment targets an indexed column, so an updated
    #: row may leave the index keys its committed versions are under.
    rekeys: bool = False


@dataclass(frozen=True)
class CompiledDelete:
    table: str
    schema: TableSchema
    source: CompiledSource


CompiledPlan = (CompiledSelect, CompiledInsert, CompiledUpdate, CompiledDelete)


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------


def compile_statement(stmt: ast.Statement, catalog: Catalog):
    """Compile a DML/query statement into its plan.

    Semantic errors (unknown tables/columns, bad aggregates, arity
    mismatches) raise :class:`ProgrammingError` at prepare time.
    """
    if isinstance(stmt, ast.Select):
        return _compile_select(stmt, catalog)
    if isinstance(stmt, ast.Insert):
        return _compile_insert(stmt, catalog)
    if isinstance(stmt, ast.Update):
        return _compile_update(stmt, catalog)
    if isinstance(stmt, ast.Delete):
        return _compile_delete(stmt, catalog)
    raise ProgrammingError(f"cannot compile {type(stmt).__name__}")


def _item_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.column
    if isinstance(item.expr, ast.FuncCall):
        return item.expr.name
    return f"col{index}"


def _expand_items(stmt: ast.Select,
                  pairs: Sequence[tuple[str, TableSchema]]
                  ) -> list[tuple[ast.Expr, str]]:
    expanded: list[tuple[ast.Expr, str]] = []
    for i, item in enumerate(stmt.items):
        if item.star:
            targets = ([(b, s) for b, s in pairs if b == item.star_table]
                       if item.star_table else list(pairs))
            if item.star_table and not targets:
                raise ProgrammingError(
                    f"unknown binding {item.star_table!r} in select list")
            for binding, schema in targets:
                for column in schema.column_names:
                    expanded.append((ast.ColumnRef(binding, column), column))
        else:
            expanded.append((item.expr, _item_name(item, i)))
    return expanded


def _contains_aggregate(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.FuncCall) and node.name in AGGREGATES
               for node in ast.walk(expr))


def _split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _build_sources(stmt: ast.Select, catalog: Catalog
                   ) -> tuple[list[tuple[str, TableSchema, str, str]],
                              list[list[ast.Expr]], list[list[ast.Expr]]]:
    """Source list plus per-source predicate placement.

    Returns ``(pairs, placed, post)``.  A conjunct goes to the first
    slot at which all its bindings are bound.  ``placed[i]`` are the
    scan predicates of source ``i``; ``post[i]`` are conjuncts checked
    after source ``i``, a LEFT JOIN, has matched or NULL-extended the
    row, so a WHERE on the nullable side filters the joined result
    instead of the join's matches.  A LEFT JOIN's own ON conjuncts are
    always its scan predicates: they decide matches, never drop rows.
    """
    refs = [(stmt.table, "inner")]
    refs.extend((join.table, join.kind) for join in stmt.joins)
    pairs: list[tuple[str, TableSchema, str, str]] = []
    seen: set[str] = set()
    for table_ref, kind in refs:
        schema = catalog.get(table_ref.name)
        binding = table_ref.binding
        if binding in seen:
            raise ProgrammingError(f"duplicate table binding {binding!r}")
        seen.add(binding)
        pairs.append((binding, schema, table_ref.name, kind))

    # (conjunct, slot of the LEFT JOIN whose ON clause it belongs to)
    conjuncts: list[tuple[ast.Expr, int]] = []
    if stmt.where is not None:
        conjuncts.extend((c, 0) for c in _split_conjuncts(stmt.where))
    for slot, join in enumerate(stmt.joins, start=1):
        if join.condition is not None:
            on_slot = slot if join.kind == "left" else 0
            conjuncts.extend((c, on_slot)
                             for c in _split_conjuncts(join.condition))

    slot_of = {binding: i for i, (binding, _s, _t, _k) in enumerate(pairs)}
    placed: list[list[ast.Expr]] = [[] for _ in pairs]
    post: list[list[ast.Expr]] = [[] for _ in pairs]
    for conjunct, on_slot in conjuncts:
        needed = _bindings_of(conjunct, pairs)
        slots = [slot_of[name] for name in needed if name in slot_of]
        if len(slots) != len(needed):
            raise ProgrammingError(
                f"predicate references unknown bindings: {needed}")
        slot = max([on_slot, *slots])
        if pairs[slot][3] == "left" and slot != on_slot:
            post[slot].append(conjunct)
        else:
            placed[slot].append(conjunct)
    return pairs, placed, post


def _bindings_of(expr: ast.Expr,
                 pairs: Sequence[tuple[str, TableSchema, str, str]]
                 ) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.ColumnRef):
            if node.table is not None:
                names.add(node.table)
            else:
                owners = [binding for binding, schema, _t, _k in pairs
                          if schema.has_column(node.column)]
                if not owners:
                    raise ProgrammingError(f"unknown column {node.column!r}")
                if len(owners) > 1:
                    raise ProgrammingError(f"ambiguous column {node.column!r}")
                names.add(owners[0])
    return names


def _compile_source(slot: int, binding: str, schema: TableSchema,
                    table_name: str, join_kind: str,
                    predicates: Sequence[ast.Expr], prefix_scope: Scope,
                    full_scope: Scope, post: Sequence[ast.Expr] = (),
                    order: Optional[Sequence[tuple[str, bool]]] = None
                    ) -> CompiledSource:
    index_probe, walk = _access_path(predicates, binding, schema,
                                     prefix_scope, order)
    residual = None
    if index_probe is not None:
        covers = index_probe.covers
        residual = _compile_conjunction(
            [p for p in predicates if not any(p is c for c in covers)],
            full_scope)
    return CompiledSource(
        slot=slot, binding=binding, table=table_name, schema=schema,
        join_kind=join_kind, index_probe=index_probe, walk=walk,
        filter=_compile_conjunction(predicates, full_scope),
        residual=residual,
        post_filter=_compile_conjunction(post, full_scope))


def _compile_order_key(order: ast.OrderItem, scope: Scope,
                       columns: Sequence[str]) -> OrderKey:
    expr = order.expr
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value - 1
        if 0 <= position < len(columns):
            return OrderKey(order.descending, position=position)
        raise ProgrammingError(f"ORDER BY position {expr.value} out of range")
    if (isinstance(expr, ast.ColumnRef) and expr.table is None
            and expr.column in columns):
        return OrderKey(order.descending, position=columns.index(expr.column))
    return OrderKey(order.descending, fn=compile_expr(expr, scope))


def _pushdown_order(stmt: ast.Select, items: Sequence[tuple[ast.Expr, str]],
                    columns: Sequence[str], binding: str,
                    schema: TableSchema
                    ) -> Optional[tuple[tuple[str, bool], ...]]:
    """The ORDER BY as ``(column, descending)`` pairs of the one source.

    None unless every key is a plain column of that source, resolved as
    :func:`_compile_order_key` resolves it (position, output name, then
    source column).
    """
    order: list[tuple[str, bool]] = []
    for item in stmt.order_by:
        expr = item.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            if not 0 < expr.value <= len(items):
                return None
            expr = items[expr.value - 1][0]
        elif (isinstance(expr, ast.ColumnRef) and expr.table is None
              and expr.column in columns):
            expr = items[columns.index(expr.column)][0]
        column = _own_column(expr, binding, schema)
        if column is None:
            return None
        order.append((column, item.descending))
    return tuple(order)


def _compile_select(stmt: ast.Select, catalog: Catalog) -> CompiledSelect:
    empty_scope = Scope([])
    limit_fn = (compile_expr(stmt.limit, empty_scope)
                if stmt.limit is not None else None)
    offset_fn = (compile_expr(stmt.offset, empty_scope)
                 if stmt.offset is not None else None)
    if stmt.table is None:
        # A table-less SELECT projects at most one row; its WHERE and
        # LIMIT/OFFSET decide whether it does.  ORDER BY over one row
        # is ignored (never compiled, hence never erroring).
        project_fn = tuple_fn([compile_expr(item.expr, empty_scope)
                               for item in stmt.items])
        columns = [_item_name(item, i) for i, item in enumerate(stmt.items)]
        where_fn = (_compile_conjunction([stmt.where], empty_scope)
                    if stmt.where is not None else None)
        return CompiledSelect(
            scalar=True, sources=(), for_update=False, columns=columns,
            project_fn=project_fn, aggregation=None, order_keys=(),
            distinct=False, limit_fn=limit_fn, offset_fn=offset_fn,
            where_fn=where_fn)

    pairs, placed, post = _build_sources(stmt, catalog)
    scope_slots = [(binding, schema) for binding, schema, _t, _k in pairs]
    full_scope = Scope(scope_slots)
    items = _expand_items(stmt, [(b, s) for b, s, _t, _k in pairs])
    columns = [name for _, name in items]
    # HAVING without GROUP BY makes the whole input one group.
    is_grouped = bool(stmt.group_by) or stmt.having is not None or any(
        _contains_aggregate(item.expr) for item in stmt.items if not item.star)
    order = None
    if (len(pairs) == 1 and stmt.limit is not None and stmt.order_by
            and not is_grouped and not stmt.distinct):
        order = _pushdown_order(stmt, items, columns, pairs[0][0],
                                pairs[0][1])
    sources = tuple(
        _compile_source(slot, binding, schema, table_name, kind,
                        placed[slot], Scope(scope_slots[:slot]), full_scope,
                        post[slot], order)
        for slot, (binding, schema, table_name, kind) in enumerate(pairs))

    aggs: list[CompiledAggregate] = []
    item_scope = _aggregate_scope(full_scope, aggs) if is_grouped \
        else full_scope
    project_fn = tuple_fn([compile_expr(expr, item_scope)
                           for expr, _ in items])
    order_keys = tuple(_compile_order_key(item, item_scope, columns)
                       for item in stmt.order_by)
    aggregation = None
    if is_grouped:
        aggregation = CompiledAggregation(
            group_fn=(tuple_fn([compile_expr(expr, full_scope)
                                for expr in stmt.group_by])
                      if stmt.group_by else None),
            having_fn=(compile_expr(stmt.having, item_scope)
                       if stmt.having is not None else None),
            aggs=tuple(aggs))
    return CompiledSelect(
        scalar=False, sources=sources, for_update=stmt.for_update,
        columns=columns, project_fn=project_fn, aggregation=aggregation,
        order_keys=order_keys, distinct=stmt.distinct, limit_fn=limit_fn,
        offset_fn=offset_fn,
        direct=(len(sources) == 1 and aggregation is None
                and not order_keys and not stmt.distinct
                and limit_fn is None and offset_fn is None))


def _aggregate_scope(scope: Scope, aggs: list[CompiledAggregate]) -> Scope:
    """``scope`` plus aggregate calls, appended to ``aggs`` as compiled.

    Each distinct call is registered once, so it is computed at most
    once per group however often the query references it.
    """
    registry: dict[ast.Expr, int] = {}

    def register(call: ast.FuncCall) -> int:
        index = registry.get(call)
        if index is not None:
            return index
        if call.star:
            if call.name != "count":
                raise ProgrammingError(f"{call.name}(*) is not valid")
            arg_fn = None
        else:
            if len(call.args) != 1:
                raise ProgrammingError(
                    f"aggregate {call.name} expects exactly one argument")
            arg_fn = compile_expr(call.args[0], scope)
        index = len(aggs)
        registry[call] = index
        aggs.append(CompiledAggregate(call.name, call.star, call.distinct,
                                      arg_fn))
        return index

    return Scope(scope.slots, register)


def _column_finalizer(position: int, column: ColumnDef) -> ColumnFinalizer:
    return ColumnFinalizer(position=position, name=column.name,
                           coerce=column.sql_type.coerce,
                           not_null=column.not_null)


def _compile_insert(stmt: ast.Insert, catalog: Catalog) -> CompiledInsert:
    schema = catalog.get(stmt.table)
    columns = stmt.columns or schema.column_names
    positions = schema.positions(columns)
    scope = Scope([])
    row_fns = []
    for row_exprs in stmt.rows:
        if len(row_exprs) != len(columns):
            raise ProgrammingError(
                f"INSERT into {stmt.table!r} expects {len(columns)} "
                f"values, got {len(row_exprs)}")
        row_fns.append(tuple(compile_expr(expr, scope)
                             for expr in row_exprs))
    provided = set(positions)
    defaults = tuple(
        (i, column.default) for i, column in enumerate(schema.columns)
        if i not in provided and column.has_default)
    return CompiledInsert(
        table=stmt.table, schema=schema, positions=positions,
        row_fns=tuple(row_fns), defaults=defaults,
        finalize=row_finalizer(schema))


def _compile_write_source(table: str, schema: TableSchema,
                          where: Optional[ast.Expr]) -> CompiledSource:
    predicates = _split_conjuncts(where) if where is not None else []
    scope = Scope([(table, schema)])
    return _compile_source(0, table, schema, table, "inner", predicates,
                           Scope([]), scope)


def _compile_update(stmt: ast.Update, catalog: Catalog) -> CompiledUpdate:
    schema = catalog.get(stmt.table)
    source = _compile_write_source(stmt.table, schema, stmt.where)
    scope = Scope([(stmt.table, schema)])
    assignments = tuple(
        CompiledAssignment(
            finalizer=_column_finalizer(schema.position(a.column),
                                        schema.columns[
                                            schema.position(a.column)]),
            value_fn=compile_expr(a.value, scope))
        for a in stmt.assignments)
    indexed = {c for index in schema.index_defs() for c in index.columns}
    return CompiledUpdate(
        table=stmt.table, schema=schema, source=source,
        assignments=assignments,
        rekeys=any(a.column in indexed for a in stmt.assignments))


def _compile_delete(stmt: ast.Delete, catalog: Catalog) -> CompiledDelete:
    schema = catalog.get(stmt.table)
    source = _compile_write_source(stmt.table, schema, stmt.where)
    return CompiledDelete(table=stmt.table, schema=schema, source=source)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Prepared statements (SQL, AST and compiled plan) keyed by
    ``(sql, catalog_version)``, least recently used evicted first.

    The version key already makes stale plans unreachable after DDL;
    ``invalidate_all`` additionally drops them eagerly so the cache
    does not carry dead weight, counting the dropped entries.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, int(capacity))
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable) -> object:
        """The entry under ``key``, counted as a hit; None when absent.

        An absent key is not counted: the caller counts the miss with
        :meth:`count_miss` once it knows the statement has a plan (DDL
        and transaction control have none and are never cached).
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                return
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def count_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def invalidate_all(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
        return dropped

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
