"""Expression evaluation: three-valued logic, LIKE, scalar functions."""

import pytest

from repro.engine.expr import is_true, like_match
from repro.engine.plan import Scope, compile_expr
from repro.engine.sqlparser import parse
from repro.errors import DataError, ProgrammingError


def eval_expr(sql_expr, params=()):
    """Compile an expression over an empty scope and run it once."""
    stmt = parse(f"SELECT {sql_expr}")
    return compile_expr(stmt.items[0].expr, Scope([]))((), params)


# -- arithmetic ---------------------------------------------------------------


def test_basic_arithmetic():
    assert eval_expr("1 + 2 * 3") == 7
    assert eval_expr("(1 + 2) * 3") == 9
    assert eval_expr("-5 + 3") == -2


def test_integer_division_truncates_toward_zero():
    assert eval_expr("7 / 2") == 3
    assert eval_expr("-7 / 2") == -3


def test_float_division():
    assert eval_expr("7.0 / 2") == 3.5


def test_division_by_zero_raises():
    with pytest.raises(DataError):
        eval_expr("1 / 0")
    with pytest.raises(DataError):
        eval_expr("1 % 0")


def test_modulo():
    assert eval_expr("7 % 3") == 1


def test_null_propagates_through_arithmetic():
    assert eval_expr("1 + NULL") is None
    assert eval_expr("NULL * 2") is None


# -- logic --------------------------------------------------------------------------


def test_kleene_and():
    assert eval_expr("TRUE AND TRUE") is True
    assert eval_expr("TRUE AND FALSE") is False
    assert eval_expr("FALSE AND NULL") is False  # short-circuits to FALSE
    assert eval_expr("TRUE AND NULL") is None


def test_kleene_or():
    assert eval_expr("FALSE OR TRUE") is True
    assert eval_expr("TRUE OR NULL") is True
    assert eval_expr("FALSE OR NULL") is None


def test_not_with_null():
    assert eval_expr("NOT TRUE") is False
    assert eval_expr("NOT NULL") is None


def test_comparison_with_null_is_unknown():
    assert eval_expr("1 = NULL") is None
    assert eval_expr("NULL <> NULL") is None


def test_is_null_never_unknown():
    assert eval_expr("NULL IS NULL") is True
    assert eval_expr("1 IS NULL") is False
    assert eval_expr("1 IS NOT NULL") is True


def test_between():
    assert eval_expr("3 BETWEEN 1 AND 5") is True
    assert eval_expr("6 BETWEEN 1 AND 5") is False
    assert eval_expr("3 NOT BETWEEN 1 AND 5") is False
    assert eval_expr("NULL BETWEEN 1 AND 5") is None


def test_in_list_semantics():
    assert eval_expr("2 IN (1, 2, 3)") is True
    assert eval_expr("5 IN (1, 2, 3)") is False
    assert eval_expr("5 NOT IN (1, 2, 3)") is True
    # NULL in the list makes a non-match UNKNOWN, not FALSE.
    assert eval_expr("5 IN (1, NULL)") is None
    assert eval_expr("1 IN (1, NULL)") is True


def test_is_true_only_accepts_true():
    assert is_true(True)
    assert not is_true(None)
    assert not is_true(False)
    assert not is_true(1)


# -- LIKE -------------------------------------------------------------------------------


@pytest.mark.parametrize("text,pattern,expected", [
    ("hello", "hello", True),
    ("hello", "h%", True),
    ("hello", "%o", True),
    ("hello", "%ell%", True),
    ("hello", "h_llo", True),
    ("hello", "h_x", False),
    ("hello", "", False),
    ("", "%", True),
    ("abc", "a%c%", True),
    ("abc", "%%", True),
    ("mississippi", "%iss%ppi", True),
    ("ORIGINALdata", "%ORIGINAL%", True),
])
def test_like_match(text, pattern, expected):
    assert like_match(text, pattern) is expected


def test_like_via_sql():
    assert eval_expr("'forest' LIKE 'f%t'") is True
    assert eval_expr("'forest' NOT LIKE 'f%t'") is False
    assert eval_expr("NULL LIKE 'x'") is None


# -- scalar functions -----------------------------------------------------------------------


def test_scalar_functions():
    assert eval_expr("ABS(-4)") == 4
    assert eval_expr("LENGTH('abc')") == 3
    assert eval_expr("LOWER('ABC')") == "abc"
    assert eval_expr("UPPER('abc')") == "ABC"
    assert eval_expr("SUBSTR('hello', 2, 3)") == "ell"
    assert eval_expr("SUBSTR('hello', 2)") == "ello"
    assert eval_expr("MOD(7, 3)") == 1
    assert eval_expr("COALESCE(NULL, NULL, 5)") == 5
    assert eval_expr("COALESCE(NULL, NULL)") is None
    assert eval_expr("NULLIF(3, 3)") is None
    assert eval_expr("NULLIF(3, 4)") == 3
    assert eval_expr("ROUND(3.567, 1)") == 3.6
    assert eval_expr("FLOOR(3.9)") == 3
    assert eval_expr("CEIL(3.1)") == 4
    assert eval_expr("SIGN(-9)") == -1


def test_scalar_function_null_propagation():
    assert eval_expr("ABS(NULL)") is None
    assert eval_expr("UPPER(NULL)") is None


def test_unknown_function_raises():
    with pytest.raises(ProgrammingError):
        eval_expr("MYSTERY(1)")


def test_aggregate_outside_group_context_raises():
    with pytest.raises(ProgrammingError):
        eval_expr("SUM(1)")


def test_case_expression_evaluation():
    assert eval_expr(
        "CASE WHEN 1 = 2 THEN 'a' WHEN 2 = 2 THEN 'b' ELSE 'c' END") == "b"
    assert eval_expr("CASE WHEN 1 = 2 THEN 'a' END") is None


def test_concat_stringifies():
    assert eval_expr("'v' || 1") == "v1"
    assert eval_expr("'v' || NULL") is None


def test_param_binding():
    assert eval_expr("? + ?", (2, 3)) == 5


def test_missing_param_raises():
    with pytest.raises(ProgrammingError):
        eval_expr("? + ?", (2,))
