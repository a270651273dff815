"""SQL operator semantics with three-valued logic.

These helpers apply operators and scalar functions to already-evaluated
operands; :mod:`repro.engine.plan` compiles expressions into closures
that call them.  ``None`` represents SQL NULL / UNKNOWN and propagates
through comparisons; AND/OR follow Kleene logic.
"""

from __future__ import annotations

import math
import re
from typing import Optional

from ..errors import DataError, ProgrammingError
from .types import compare_values

_ARITHMETIC = {"+", "-", "*", "/", "%"}
_COMPARISON = {"=", "<>", "<", "<=", ">", ">="}


def is_true(value: object) -> bool:
    """SQL WHERE acceptance: only TRUE passes (NULL/UNKNOWN filters out)."""
    return value is True


def apply_binary(op: str, left: object, right: object) -> object:
    """Apply a binary operator to already-evaluated operands.

    Note AND/OR are *eager* over evaluated operands (no short-circuit).
    """
    if op == "and":
        return _kleene_and(_as_bool(left), _as_bool(right))
    if op == "or":
        return _kleene_or(_as_bool(left), _as_bool(right))
    if op in _COMPARISON:
        return _compare_bool(left, right, op)
    if op == "||":
        if left is None or right is None:
            return None
        return _stringify(left) + _stringify(right)
    if op in _ARITHMETIC:
        if left is None or right is None:
            return None
        return _arith(op, left, right)
    raise ProgrammingError(f"unknown binary operator {op!r}")


def apply_unary(op: str, value: object) -> object:
    """Apply a unary operator to an already-evaluated operand."""
    if op == "not":
        as_bool = _as_bool(value)
        return None if as_bool is None else (not as_bool)
    if op == "-":
        if value is None:
            return None
        if type(value) not in _NUMBER_TYPES:
            value = _numeric_operand(value)
            if not isinstance(value, _NUMBER_TYPES):
                raise DataError(f"cannot negate {value!r}")
        return -value
    raise ProgrammingError(f"unknown unary operator {op!r}")


def like_match(text: str, pattern: str) -> bool:
    """SQL LIKE matching with ``%`` and ``_`` wildcards (case-sensitive).

    Iterative two-pointer algorithm with backtracking on the last ``%``,
    avoiding regex compilation in the hot path.
    """
    ti = pi = 0
    star_pi = star_ti = -1
    while ti < len(text):
        if pi < len(pattern) and pattern[pi] == "%":
            # Wildcard first: a literal '%' in the text must not consume
            # the pattern's '%' as an ordinary character match.
            star_pi = pi
            star_ti = ti
            pi += 1
        elif pi < len(pattern) and (pattern[pi] == "_"
                                    or pattern[pi] == text[ti]):
            ti += 1
            pi += 1
        elif star_pi >= 0:
            star_ti += 1
            ti = star_ti
            pi = star_pi + 1
        else:
            return False
    while pi < len(pattern) and pattern[pi] == "%":
        pi += 1
    return pi == len(pattern)


_SCALAR_FUNCS = frozenset({
    "abs", "length", "lower", "upper", "substr", "substring", "mod",
    "coalesce", "nullif", "round", "floor", "ceil", "ceiling", "sign",
})

AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})


def apply_scalar_func(name: str, args: list) -> object:
    """Apply a known scalar function to already-evaluated arguments.

    Callers have already validated that ``name`` is in
    :data:`_SCALAR_FUNCS`.
    """
    if name == "coalesce":
        for arg in args:
            if arg is not None:
                return arg
        return None
    if name == "nullif":
        _require_args(name, args, 2)
        return None if _compare_bool(args[0], args[1], "=") is True else args[0]
    if any(arg is None for arg in args):
        return None
    if name == "abs":
        _require_args(name, args, 1)
        return abs(args[0])
    if name == "length":
        _require_args(name, args, 1)
        return len(_stringify(args[0]))
    if name == "lower":
        _require_args(name, args, 1)
        return _stringify(args[0]).lower()
    if name == "upper":
        _require_args(name, args, 1)
        return _stringify(args[0]).upper()
    if name in ("substr", "substring"):
        if len(args) not in (2, 3):
            raise ProgrammingError(f"{name} expects 2 or 3 arguments")
        text = _stringify(args[0])
        start = max(int(args[1]) - 1, 0)
        if len(args) == 3:
            return text[start:start + int(args[2])]
        return text[start:]
    if name == "mod":
        _require_args(name, args, 2)
        return _arith("%", args[0], args[1])
    if name == "round":
        if len(args) == 1:
            # Half away from zero, as a float (Python rounds half to even).
            value = float(args[0])
            return math.copysign(math.floor(abs(value) + 0.5), value)
        return round(float(args[0]), int(args[1]))
    if name == "floor":
        _require_args(name, args, 1)
        return int(args[0] // 1)
    if name in ("ceil", "ceiling"):
        _require_args(name, args, 1)
        return int(-((-args[0]) // 1))
    if name == "sign":
        _require_args(name, args, 1)
        return (args[0] > 0) - (args[0] < 0)
    raise ProgrammingError(f"unknown function {name!r}")


def _require_args(name: str, args: list, count: int) -> None:
    if len(args) != count:
        raise ProgrammingError(f"{name} expects {count} arguments")


def _compare_bool(left: object, right: object, op: str) -> Optional[bool]:
    cmp = compare_values(left, right)
    if cmp is None:
        return None
    if op == "=":
        return cmp == 0
    if op == "<>":
        return cmp != 0
    if op == "<":
        return cmp < 0
    if op == "<=":
        return cmp <= 0
    if op == ">":
        return cmp > 0
    if op == ">=":
        return cmp >= 0
    raise ProgrammingError(f"unknown comparison {op!r}")


def _kleene_and(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _kleene_or(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _as_bool(value: object) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise DataError(f"cannot use {value!r} as a boolean")


_NUMBER_TYPES = (int, float)


def _arith(op: str, left: object, right: object) -> object:
    if type(left) not in _NUMBER_TYPES or type(right) not in _NUMBER_TYPES:
        left = _numeric_operand(left)
        right = _numeric_operand(right)
        if not (isinstance(left, _NUMBER_TYPES)
                and isinstance(right, _NUMBER_TYPES)):
            raise DataError(
                f"cannot apply {op!r} to {left!r} and {right!r}")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise DataError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            # SQL integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    if op == "%":
        if right == 0:
            raise DataError("modulo by zero")
        return left - right * int(left / right)
    raise ProgrammingError(f"unknown arithmetic operator {op!r}")


#: The numeric prefix sqlite reads from a string used in arithmetic:
#: optional ASCII whitespace and sign, digits with an optional fraction,
#: and an exponent only when digits follow its ``e``.
_NUMERIC_PREFIX = re.compile(
    r"[ \t\n\v\f\r]*([+-]?(?:[0-9]+(\.[0-9]*)?|(\.)[0-9]+)"
    r"([eE][+-]?[0-9]+)?)")
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _numeric_operand(value: object) -> object:
    """An arithmetic operand: bools as ints, strings by numeric prefix.

    As in sqlite, a string reads as its longest numeric prefix
    (``'12abc'`` is 12, ``'1.5e3x'`` is 1500.0, ``'1_000'`` is 1) or
    as 0 when it has none (``'abc'``).  An integer prefix outside the
    64-bit range reads as a float.  Other values are returned unchanged
    for the caller to reject.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        match = _NUMERIC_PREFIX.match(value)
        if match is None:
            return 0
        text, fraction, point, exponent = match.groups()
        if (fraction is None and point is None and exponent is None
                and len(text.lstrip("+-").lstrip("0")) <= 19):
            number = int(text)
            if _INT64_MIN <= number <= _INT64_MAX:
                return number
        return float(text)
    return value


def _stringify(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
