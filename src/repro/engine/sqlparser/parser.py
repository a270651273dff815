"""Recursive-descent parser for the engine's SQL subset.

Grammar (informal):

    stmt        := select | insert | update | delete | create_table
                 | create_index | drop_table | txn_control
    select      := SELECT [DISTINCT] items FROM table_ref join* [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                   [LIMIT expr [OFFSET expr]] [FOR UPDATE]
    expr        := or_expr with sqlite's precedence
                   (OR < AND < NOT < comparison < additive < multiplicative
                    < concatenation ``||`` < unary)

Parsed statements are cached by the database facade, so the parser favours
clarity over raw speed.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ...errors import ProgrammingError
from . import ast
from .lexer import Token, tokenize

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self._param_counter = itertools.count()

    # -- token helpers -------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _accept(self, kind: str, value: object = None) -> Optional[Token]:
        if self._peek().matches(kind, value):
            return self._next()
        return None

    def _expect(self, kind: str, value: object = None) -> Token:
        token = self._peek()
        if not token.matches(kind, value):
            want = value if value is not None else kind
            raise ProgrammingError(
                f"expected {want!r} but found {token.value!r} "
                f"at position {token.pos} in: {self.sql!r}"
            )
        return self._next()

    def _accept_keyword(self, *words: str) -> bool:
        """Consume a keyword sequence if it matches entirely."""
        save = self.pos
        for word in words:
            if not self._accept("keyword", word):
                self.pos = save
                return False
        return True

    # -- entry point -----------------------------------------------------

    def parse(self) -> ast.Statement:
        token = self._peek()
        if token.kind != "keyword":
            raise ProgrammingError(f"cannot parse statement: {self.sql!r}")
        handlers = {
            "select": self._parse_select,
            "insert": self._parse_insert,
            "update": self._parse_update,
            "delete": self._parse_delete,
            "create": self._parse_create,
            "drop": self._parse_drop,
            "begin": lambda: self._parse_txn("begin"),
            "commit": lambda: self._parse_txn("commit"),
            "rollback": lambda: self._parse_txn("rollback"),
        }
        handler = handlers.get(token.value)
        if handler is None:
            raise ProgrammingError(f"unsupported statement: {token.value!r}")
        stmt = handler()
        self._accept("op", ";")
        self._expect("eof")
        return stmt

    # -- statements ------------------------------------------------------

    def _parse_txn(self, action: str) -> ast.TransactionControl:
        self._next()
        return ast.TransactionControl(action)

    def _parse_select(self) -> ast.Select:
        self._expect("keyword", "select")
        distinct = bool(self._accept("keyword", "distinct"))
        items = [self._parse_select_item()]
        while self._accept("op", ","):
            items.append(self._parse_select_item())

        table: Optional[ast.TableRef] = None
        joins: list[ast.Join] = []
        if self._accept("keyword", "from"):
            table = self._parse_table_ref()
            while True:
                if self._accept("op", ","):
                    joins.append(ast.Join(self._parse_table_ref(), None, "cross"))
                    continue
                kind = self._parse_join_kind()
                if kind is None:
                    break
                joined = self._parse_table_ref()
                condition = None
                if kind != "cross":
                    self._expect("keyword", "on")
                    condition = self._parse_expr()
                joins.append(ast.Join(joined, condition, kind))

        where = self._parse_expr() if self._accept("keyword", "where") else None

        group_by: list[ast.Expr] = []
        having = None
        if self._accept_keyword("group", "by"):
            group_by.append(self._parse_expr())
            while self._accept("op", ","):
                group_by.append(self._parse_expr())
        if self._accept("keyword", "having"):
            having = self._parse_expr()

        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("order", "by"):
            order_by.append(self._parse_order_item())
            while self._accept("op", ","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self._accept("keyword", "limit"):
            limit = self._parse_expr()
            if self._accept("keyword", "offset"):
                offset = self._parse_expr()

        for_update = self._accept_keyword("for", "update")

        return ast.Select(
            items=tuple(items), table=table, joins=tuple(joins), where=where,
            group_by=tuple(group_by), having=having, order_by=tuple(order_by),
            limit=limit, offset=offset, distinct=distinct,
            for_update=bool(for_update),
        )

    def _parse_join_kind(self) -> Optional[str]:
        if self._accept_keyword("inner", "join") or self._accept("keyword", "join"):
            return "inner"
        if self._accept_keyword("left", "outer", "join") or \
                self._accept_keyword("left", "join"):
            return "left"
        if self._accept_keyword("cross", "join"):
            return "cross"
        return None

    def _parse_select_item(self) -> ast.SelectItem:
        if self._accept("op", "*"):
            return ast.SelectItem(ast.Literal(None), star=True)
        # t.* form
        save = self.pos
        ident = self._accept("ident")
        if ident and self._accept("op", ".") and self._accept("op", "*"):
            return ast.SelectItem(ast.Literal(None), star=True,
                                  star_table=str(ident.value))
        self.pos = save
        expr = self._parse_expr()
        alias = None
        if self._accept("keyword", "as"):
            alias = str(self._expect("ident").value)
        elif self._peek().kind == "ident":
            alias = str(self._next().value)
        return ast.SelectItem(expr, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._accept("keyword", "desc"):
            descending = True
        else:
            self._accept("keyword", "asc")
        return ast.OrderItem(expr, descending)

    def _parse_table_ref(self) -> ast.TableRef:
        name = str(self._expect("ident").value)
        alias = None
        if self._accept("keyword", "as"):
            alias = str(self._expect("ident").value)
        elif self._peek().kind == "ident":
            alias = str(self._next().value)
        return ast.TableRef(name, alias)

    def _parse_insert(self) -> ast.Insert:
        self._expect("keyword", "insert")
        self._expect("keyword", "into")
        table = str(self._expect("ident").value)
        columns: list[str] = []
        if self._accept("op", "("):
            columns.append(str(self._expect("ident").value))
            while self._accept("op", ","):
                columns.append(str(self._expect("ident").value))
            self._expect("op", ")")
        self._expect("keyword", "values")
        rows = [self._parse_value_row()]
        while self._accept("op", ","):
            rows.append(self._parse_value_row())
        return ast.Insert(table, tuple(columns), tuple(rows))

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self._expect("op", "(")
        values = [self._parse_expr()]
        while self._accept("op", ","):
            values.append(self._parse_expr())
        self._expect("op", ")")
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect("keyword", "update")
        table = str(self._expect("ident").value)
        self._expect("keyword", "set")
        assignments = [self._parse_assignment()]
        while self._accept("op", ","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._accept("keyword", "where") else None
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> ast.Assignment:
        column = str(self._expect("ident").value)
        self._expect("op", "=")
        return ast.Assignment(column, self._parse_expr())

    def _parse_delete(self) -> ast.Delete:
        self._expect("keyword", "delete")
        self._expect("keyword", "from")
        table = str(self._expect("ident").value)
        where = self._parse_expr() if self._accept("keyword", "where") else None
        return ast.Delete(table, where)

    def _parse_drop(self) -> ast.DropTable:
        self._expect("keyword", "drop")
        self._expect("keyword", "table")
        if_exists = self._accept_keyword("if", "exists")
        name = str(self._expect("ident").value)
        return ast.DropTable(name, bool(if_exists))

    def _parse_create(self) -> ast.Statement:
        self._expect("keyword", "create")
        if self._accept("keyword", "table"):
            return self._parse_create_table()
        unique = bool(self._accept("keyword", "unique"))
        self._expect("keyword", "index")
        name = str(self._expect("ident").value)
        self._expect("keyword", "on")
        table = str(self._expect("ident").value)
        self._expect("op", "(")
        columns = [str(self._expect("ident").value)]
        while self._accept("op", ","):
            columns.append(str(self._expect("ident").value))
        self._expect("op", ")")
        return ast.CreateIndex(name, table, tuple(columns), unique)

    def _parse_create_table(self) -> ast.CreateTable:
        if_not_exists = False
        if self._accept("keyword", "if"):
            self._expect("keyword", "not")
            self._expect("keyword", "exists")
            if_not_exists = True
        name = str(self._expect("ident").value)
        self._expect("op", "(")
        columns: list[ast.ColumnDefAst] = []
        pk: tuple[str, ...] = ()
        fks: list[tuple[tuple[str, ...], str, tuple[str, ...]]] = []
        while True:
            if self._accept_keyword("primary", "key"):
                pk = self._parse_paren_name_list()
            elif self._accept_keyword("foreign", "key"):
                local = self._parse_paren_name_list()
                self._expect("keyword", "references")
                ref_table = str(self._expect("ident").value)
                remote: tuple[str, ...] = ()
                if self._peek().matches("op", "("):
                    remote = self._parse_paren_name_list()
                fks.append((local, ref_table, remote))
            else:
                columns.append(self._parse_column_def())
            if not self._accept("op", ","):
                break
        self._expect("op", ")")
        inline_pk = tuple(c.name for c in columns if c.primary_key)
        if inline_pk and pk:
            raise ProgrammingError("duplicate PRIMARY KEY specification")
        return ast.CreateTable(name, tuple(columns), pk or inline_pk,
                               if_not_exists, tuple(fks))

    def _parse_paren_name_list(self) -> tuple[str, ...]:
        self._expect("op", "(")
        names = [str(self._expect("ident").value)]
        while self._accept("op", ","):
            names.append(str(self._expect("ident").value))
        self._expect("op", ")")
        return tuple(names)

    def _parse_column_def(self) -> ast.ColumnDefAst:
        name = str(self._expect("ident").value)
        type_token = self._next()
        if type_token.kind not in ("ident", "keyword"):
            raise ProgrammingError(f"expected a type name after column {name!r}")
        type_name = str(type_token.value)
        type_args: list[int] = []
        if self._accept("op", "("):
            type_args.append(int(self._expect("number").value))
            while self._accept("op", ","):
                type_args.append(int(self._expect("number").value))
            self._expect("op", ")")
        not_null = False
        primary_key = False
        default: Optional[ast.Expr] = None
        while True:
            if self._accept_keyword("not", "null"):
                not_null = True
            elif self._accept_keyword("primary", "key"):
                primary_key = True
                not_null = True
            elif self._accept("keyword", "default"):
                default = self._parse_primary()
            elif self._accept("keyword", "null"):
                continue
            elif self._accept("keyword", "references"):
                self._expect("ident")
                if self._peek().matches("op", "("):
                    self._parse_paren_name_list()
            else:
                break
        return ast.ColumnDefAst(name, type_name.lower(), tuple(type_args),
                                not_null, primary_key, default)

    # -- expressions -------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept("keyword", "or"):
            left = ast.BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept("keyword", "and"):
            left = ast.BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept("keyword", "not"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.value in _COMPARISONS:
            op = str(self._next().value)
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())
        negated = bool(self._accept("keyword", "not"))
        if self._accept("keyword", "between"):
            low = self._parse_additive()
            self._expect("keyword", "and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._accept("keyword", "in"):
            self._expect("op", "(")
            options = [self._parse_expr()]
            while self._accept("op", ","):
                options.append(self._parse_expr())
            self._expect("op", ")")
            return ast.InList(left, tuple(options), negated)
        if self._accept("keyword", "like"):
            return ast.Like(left, self._parse_additive(), negated)
        if self._accept("keyword", "is"):
            is_negated = bool(self._accept("keyword", "not"))
            self._expect("keyword", "null")
            return ast.IsNull(left, is_negated)
        if negated:
            raise ProgrammingError("dangling NOT in expression")
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("+", "-"):
                op = str(self._next().value)
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_concat()
        while True:
            token = self._peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                op = str(self._next().value)
                left = ast.BinaryOp(op, left, self._parse_concat())
            else:
                return left

    def _parse_concat(self) -> ast.Expr:
        left = self._parse_unary()
        while self._accept("op", "||"):
            left = ast.BinaryOp("||", left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._accept("op", "-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._accept("op", "+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "number" or token.kind == "string":
            self._next()
            return ast.Literal(token.value)
        if token.kind == "param":
            self._next()
            return ast.Param(next(self._param_counter))
        if token.matches("keyword", "null"):
            self._next()
            return ast.Literal(None)
        if token.matches("keyword", "true"):
            self._next()
            return ast.Literal(True)
        if token.matches("keyword", "false"):
            self._next()
            return ast.Literal(False)
        if token.matches("keyword", "case"):
            return self._parse_case()
        if token.matches("op", "("):
            self._next()
            expr = self._parse_expr()
            self._expect("op", ")")
            return expr
        if token.kind == "ident":
            return self._parse_name_or_call()
        raise ProgrammingError(
            f"unexpected token {token.value!r} at position {token.pos} "
            f"in: {self.sql!r}"
        )

    def _parse_case(self) -> ast.Expr:
        self._expect("keyword", "case")
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept("keyword", "when"):
            cond = self._parse_expr()
            self._expect("keyword", "then")
            branches.append((cond, self._parse_expr()))
        default = self._parse_expr() if self._accept("keyword", "else") else None
        self._expect("keyword", "end")
        if not branches:
            raise ProgrammingError("CASE requires at least one WHEN branch")
        return ast.CaseExpr(tuple(branches), default)

    def _parse_name_or_call(self) -> ast.Expr:
        name = str(self._expect("ident").value)
        if self._accept("op", "("):
            distinct = bool(self._accept("keyword", "distinct"))
            if self._accept("op", "*"):
                self._expect("op", ")")
                return ast.FuncCall(name, (), star=True)
            args: list[ast.Expr] = []
            if not self._peek().matches("op", ")"):
                args.append(self._parse_expr())
                while self._accept("op", ","):
                    args.append(self._parse_expr())
            self._expect("op", ")")
            return ast.FuncCall(name, tuple(args), distinct=distinct)
        if self._accept("op", "."):
            column = str(self._expect("ident").value)
            return ast.ColumnRef(name, column)
        return ast.ColumnRef(None, name)


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return Parser(sql).parse()
