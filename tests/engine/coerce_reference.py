"""Reference copy of the per-call ``SqlType.coerce``.

Before coercers were compiled once per type, ``SqlType.coerce`` looked
up the affinity and declared length on every value, as below.  The
property test in ``test_types.py`` holds the compiled coercers to this
copy: same values, same ``DataError`` messages.
"""

from __future__ import annotations

from repro.engine.types import (_TYPE_AFFINITY, BOOLEAN, FLOAT, INTEGER,
                                TEXT, TIMESTAMP)
from repro.errors import DataError


def reference_coerce(name: str, args: tuple[int, ...], value: object) -> object:
    if value is None:
        return None
    try:
        affinity = _TYPE_AFFINITY[name]
    except KeyError:
        raise DataError(f"unknown SQL type: {name!r}") from None
    if affinity == INTEGER:
        return _coerce_int(value, name)
    if affinity == FLOAT:
        return _coerce_float(value, name)
    if affinity == BOOLEAN:
        return _coerce_bool(value, name)
    if affinity == TIMESTAMP:
        return _coerce_timestamp(value, name)
    assert affinity == TEXT
    text = value if isinstance(value, str) else str(value)
    limit = args[0] if args else None
    if limit is not None and len(text) > limit:
        return text[:limit]
    return text


def _coerce_int(value: object, type_name: str) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise DataError(f"cannot store non-integral {value!r} in {type_name}")
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise DataError(
                f"cannot store string {value!r} in {type_name}") from None
    raise DataError(f"cannot store {type(value).__name__} in {type_name}")


def _coerce_float(value: object, type_name: str) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise DataError(
                f"cannot store string {value!r} in {type_name}") from None
    raise DataError(f"cannot store {type(value).__name__} in {type_name}")


def _coerce_bool(value: object, type_name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("true", "t", "1", "yes"):
            return True
        if lowered in ("false", "f", "0", "no"):
            return False
    raise DataError(f"cannot store {value!r} in {type_name}")


def _coerce_timestamp(value: object, type_name: str) -> float:
    if isinstance(value, bool):
        raise DataError(f"cannot store bool in {type_name}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise DataError(
                f"timestamp strings must be numeric seconds, got {value!r}"
            ) from None
    raise DataError(f"cannot store {type(value).__name__} in {type_name}")
