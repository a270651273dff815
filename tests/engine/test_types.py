"""Type coercion and SQL comparison semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.types import _TYPE_AFFINITY, SqlType, compare_values
from repro.errors import DataError

from .coerce_reference import reference_coerce


def test_integer_affinity_coercion():
    t = SqlType("int")
    assert t.coerce(5) == 5
    assert t.coerce(5.0) == 5
    assert t.coerce("7") == 7
    assert t.coerce(True) == 1


def test_integer_rejects_fractional():
    with pytest.raises(DataError):
        SqlType("bigint").coerce(1.5)


def test_integer_rejects_garbage_string():
    with pytest.raises(DataError):
        SqlType("int").coerce("abc")


def test_float_affinity():
    t = SqlType("decimal", (10, 2))
    assert t.coerce(3) == 3.0
    assert isinstance(t.coerce(3), float)
    assert t.coerce("2.5") == 2.5


def test_varchar_truncates_to_declared_length():
    t = SqlType("varchar", (4,))
    assert t.coerce("abcdef") == "abcd"
    assert t.coerce("ab") == "ab"


def test_text_without_length_unbounded():
    assert SqlType("text").coerce("x" * 1000) == "x" * 1000


def test_text_stringifies_numbers():
    assert SqlType("varchar", (10,)).coerce(42) == "42"


def test_boolean_affinity():
    t = SqlType("boolean")
    assert t.coerce("true") is True
    assert t.coerce(0) is False
    with pytest.raises(DataError):
        t.coerce("maybe")


def test_timestamp_stores_float_seconds():
    t = SqlType("timestamp")
    assert t.coerce(100) == 100.0
    assert t.coerce("3.5") == 3.5
    with pytest.raises(DataError):
        t.coerce("not-a-time")


def test_null_passes_through_all_types():
    for name in ("int", "float", "varchar", "boolean", "timestamp"):
        assert SqlType(name, (5,) if name == "varchar" else ()).coerce(
            None) is None


def test_unknown_type_raises():
    with pytest.raises(DataError):
        SqlType("fancytype").coerce(1)


# -- comparisons ---------------------------------------------------------------


def test_compare_numbers():
    assert compare_values(1, 2) == -1
    assert compare_values(2, 2) == 0
    assert compare_values(3, 2) == 1
    assert compare_values(1, 1.5) == -1


def test_compare_null_is_unknown():
    assert compare_values(None, 1) is None
    assert compare_values(1, None) is None
    assert compare_values(None, None) is None


def test_compare_strings():
    assert compare_values("apple", "banana") == -1
    assert compare_values("b", "b") == 0


def test_compare_mixed_numeric_string():
    assert compare_values("10", 9) == 1  # numeric interpretation wins
    assert compare_values(5, "5") == 0


def test_compare_mixed_non_numeric_string():
    # Falls back to string comparison when the string isn't numeric.
    assert compare_values("abc", 1) is not None


def test_bool_compares_as_int():
    assert compare_values(True, 1) == 0
    assert compare_values(False, 1) == -1


# -- compiled coercers against the per-call reference --------------------------

_TYPE_NAMES = sorted(_TYPE_AFFINITY) + ["fancytype"]

_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=False, allow_infinity=False, places=3),
    st.sampled_from(["0", "1", "-7", "2.5", "1e3", "nan", "true", "F",
                     "yes", "no", "maybe", "", " 12 ", "abc"]),
    st.integers().map(str),
    st.floats(allow_nan=False).map(repr),
    st.text(max_size=12),
)


def _outcome(coerce, value):
    try:
        result = coerce(value)
    except DataError as exc:
        return ("error", str(exc))
    if isinstance(result, float) and result != result:
        return ("value", float, "nan")  # NaN is never equal to itself
    return ("value", type(result), result)


@given(name=st.sampled_from(_TYPE_NAMES),
       length=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
       value=_VALUES)
def test_compiled_coercer_matches_the_reference(name, length, value):
    args = () if length is None else (length,)
    expected = _outcome(lambda v: reference_coerce(name, args, v), value)
    assert _outcome(SqlType(name, args).coerce, value) == expected


def test_unknown_type_fails_only_when_a_value_is_coerced():
    sql_type = SqlType("fancytype", (3,))  # constructing it is fine
    assert sql_type.coerce(None) is None
    with pytest.raises(DataError, match="unknown SQL type: 'fancytype'"):
        sql_type.coerce("x")


def test_varchar_truncates_non_strings_after_stringifying():
    assert SqlType("varchar", (3,)).coerce(123456) == "123"
    assert SqlType("varchar", (0,)).coerce("abc") == ""
    assert SqlType("char", (2,)).coerce(True) == "Tr"
