"""Column types mirroring the MySQL types used in the paper's sec 5.1.

Each type validates and canonicalizes a Python value on write. Validation
errors are :class:`~repro.errors.SchemaError` so the accounts layer can
distinguish bad data from missing data.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SchemaError

__all__ = [
    "ColumnType",
    "VarChar",
    "Float",
    "BigIntUnsigned",
    "Integer",
    "Timestamp14",
    "Text",
    "Blob",
    "Boolean",
]


class ColumnType:
    """Interface: validate/canonicalize one column value."""

    name = "ABSTRACT"

    def validate(self, value: Any) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class VarChar(ColumnType):
    """``VARCHAR(n)`` — a string of at most *n* characters."""

    def __init__(self, max_length: int) -> None:
        if max_length < 1:
            raise SchemaError("VARCHAR length must be positive")
        self.max_length = max_length
        self.name = f"VARCHAR({max_length})"

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise SchemaError(f"{self.name} requires str, got {type(value).__name__}")
        if len(value) > self.max_length:
            raise SchemaError(f"{self.name} overflow: {len(value)} chars")
        return value


class Float(ColumnType):
    """``FLOAT`` — finite binary floating point."""

    name = "FLOAT"

    def validate(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"FLOAT requires a number, got {type(value).__name__}")
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            raise SchemaError("FLOAT must be finite")
        return value


class Integer(ColumnType):
    """Signed 64-bit integer."""

    name = "INTEGER"
    _MIN = -(1 << 63)
    _MAX = (1 << 63) - 1

    def validate(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"INTEGER requires int, got {type(value).__name__}")
        if not self._MIN <= value <= self._MAX:
            raise SchemaError("INTEGER out of 64-bit range")
        return value


class BigIntUnsigned(ColumnType):
    """``BIGINT(20) UNSIGNED`` — non-negative 64-bit integer."""

    name = "BIGINT UNSIGNED"
    _MAX = (1 << 64) - 1

    def validate(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"BIGINT UNSIGNED requires int, got {type(value).__name__}")
        if not 0 <= value <= self._MAX:
            raise SchemaError("BIGINT UNSIGNED out of range")
        return value


class Timestamp14(ColumnType):
    """``TIMESTAMP(14)`` — a 14-digit ``YYYYMMDDHHMMSS`` string.

    Stored as the string form (sortable lexicographically == chronologically).
    Accepts a :class:`repro.util.gbtime.Timestamp` or a valid stamp string.
    """

    name = "TIMESTAMP(14)"

    def validate(self, value: Any) -> str:
        from repro.util.gbtime import Timestamp

        if isinstance(value, Timestamp):
            return value.stamp14
        if isinstance(value, str) and len(value) == 14 and value.isdigit():
            return value
        raise SchemaError(f"TIMESTAMP(14) requires Timestamp or 14-digit string, got {value!r}")


class Text(ColumnType):
    """``TEXT`` — a string of any length (journalled as itself, where a
    ``BLOB`` of the same ASCII bytes would be journalled as hex)."""

    name = "TEXT"

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise SchemaError(f"TEXT requires str, got {type(value).__name__}")
        return value


class Blob(ColumnType):
    """``BLOB`` — opaque bytes (the RUR is stored this way, sec 5.1)."""

    name = "BLOB"

    def validate(self, value: Any) -> bytes:
        if not isinstance(value, bytes):
            raise SchemaError(f"BLOB requires bytes, got {type(value).__name__}")
        return value


class Boolean(ColumnType):
    """BOOLEAN — internal bookkeeping flag columns."""

    name = "BOOLEAN"

    def validate(self, value: Any) -> bool:
        if not isinstance(value, bool):
            raise SchemaError(f"BOOLEAN requires bool, got {type(value).__name__}")
        return value
