"""SQL type system: declared types, coercion, and comparison semantics.

The engine is dynamically typed like SQLite — values are stored as Python
``int``/``float``/``str``/``bool``/``None`` — but columns carry a declared
type used for input coercion (so ``VARCHAR(16)`` truncation and integer
affinity behave like a conventional DBMS) and for metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import DataError

# Canonical affinity names.
INTEGER = "integer"
FLOAT = "float"
TEXT = "text"
BOOLEAN = "boolean"
TIMESTAMP = "timestamp"

_TYPE_AFFINITY = {
    "int": INTEGER, "integer": INTEGER, "bigint": INTEGER,
    "smallint": INTEGER, "tinyint": INTEGER, "serial": INTEGER,
    "float": FLOAT, "double": FLOAT, "real": FLOAT, "decimal": FLOAT,
    "numeric": FLOAT, "number": FLOAT,
    "varchar": TEXT, "char": TEXT, "character": TEXT, "text": TEXT,
    "clob": TEXT, "string": TEXT, "longvarchar": TEXT,
    "bool": BOOLEAN, "boolean": BOOLEAN,
    "timestamp": TIMESTAMP, "datetime": TIMESTAMP, "date": TIMESTAMP,
    "time": TIMESTAMP,
    "blob": TEXT, "binary": TEXT, "varbinary": TEXT,
}


@dataclass(frozen=True)
class SqlType:
    """A declared column type: name plus optional length/precision args.

    ``coerce(value)`` converts an input value to this type's affinity.
    It is a closure built once per type, with the affinity and length
    already resolved; ``None`` (NULL) passes through, and a value that
    cannot be represented raises :class:`DataError`.
    """

    name: str
    args: tuple[int, ...] = ()
    coerce: Callable[[object], object] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coerce", _coercer(self))

    @property
    def affinity(self) -> str:
        try:
            return _TYPE_AFFINITY[self.name]
        except KeyError:
            raise DataError(f"unknown SQL type: {self.name!r}") from None

    @property
    def max_length(self) -> Optional[int]:
        """Declared length for character types, if any."""
        if self.affinity == TEXT and self.args:
            return self.args[0]
        return None

    def render(self) -> str:
        if self.args:
            return f"{self.name}({','.join(str(a) for a in self.args)})"
        return self.name


def _coercer(sql_type: SqlType) -> Callable[[object], object]:
    """``sql_type``'s coercion: a ``type(v) is ...`` check for the value
    the affinity stores, then the general ``_coerce_*`` helper.

    An unknown type name fails when a value is coerced, not here.
    """
    name = sql_type.name
    affinity = _TYPE_AFFINITY.get(name)
    if affinity is None:
        def coerce_unknown(value: object) -> object:
            if value is None:
                return None
            raise DataError(f"unknown SQL type: {name!r}")
        return coerce_unknown
    if affinity == TEXT:
        limit = sql_type.max_length

        # Declared lengths truncate, mirroring the permissive behaviour
        # of MySQL in non-strict mode.
        def coerce_text(value: object) -> object:
            if value is None:
                return None
            text = value if isinstance(value, str) else str(value)
            if limit is not None and len(text) > limit:
                return text[:limit]
            return text
        return coerce_text
    stored, general = _STORED[affinity]

    def coerce(value: object) -> object:
        if value is None or type(value) is stored:
            return value
        return general(value, name)
    return coerce


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
    """Timestamps are stored as POSIX float seconds for simplicity."""
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


#: affinity -> (the Python type it stores, the general coercion).
_STORED: dict[str, tuple[type, Callable[[object, str], object]]] = {
    INTEGER: (int, _coerce_int),
    FLOAT: (float, _coerce_float),
    BOOLEAN: (bool, _coerce_bool),
    TIMESTAMP: (float, _coerce_timestamp),
}


def compare_values(a: object, b: object) -> Optional[int]:
    """Three-way compare with SQL semantics.

    Returns -1/0/1, or ``None`` when either side is NULL (SQL UNKNOWN).
    Numeric values compare numerically across int/float/bool; strings
    compare lexicographically; mixed string/number comparisons attempt a
    numeric interpretation of the string and fall back to string compare.
    """
    if a is None or b is None:
        return None
    a = _comparable(a)
    b = _comparable(b)
    if isinstance(a, str) != isinstance(b, str):
        # Mixed compare: try to bring the string to a number.
        if isinstance(a, str):
            try:
                a = float(a)
            except ValueError:
                b = str(b)
        else:
            try:
                b = float(b)
            except ValueError:
                a = str(a)
    if a < b:  # type: ignore[operator]
        return -1
    if a > b:  # type: ignore[operator]
        return 1
    return 0


def _comparable(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    return value
