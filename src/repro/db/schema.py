"""Table schemas: named, typed columns with a primary key and indexes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.db.types import ColumnType
from repro.errors import SchemaError

__all__ = ["Column", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, nullability and an optional default."""

    name: str
    type: ColumnType
    nullable: bool = False
    default: Any = None
    has_default: bool = False

    @classmethod
    def make(cls, name: str, ctype: ColumnType, nullable: bool = False, **kwargs: Any) -> "Column":
        has_default = "default" in kwargs
        return cls(
            name=name,
            type=ctype,
            nullable=nullable,
            default=kwargs.get("default"),
            has_default=has_default,
        )

    def validate(self, value: Any) -> Any:
        if value is None:
            if self.nullable:
                return None
            raise SchemaError(f"column {self.name!r} is NOT NULL")
        return self.type.validate(value)


class TableSchema:
    """Schema for one table.

    *primary_key* columns must exist and be non-nullable; *indexes* name
    single columns to maintain secondary hash indexes over (equality
    lookups); *ordered* names NOT NULL columns to keep a sorted index
    over (lowest/highest rows and min/max without touching the rest of
    the table — see :class:`~repro.db.table.Table`).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
        indexes: Sequence[str] = (),
        ordered: Sequence[str] = (),
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError("table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: dict[str, Column] = {c.name: c for c in columns}
        if not primary_key:
            raise SchemaError(f"table {name!r} needs a primary key")
        for pk_col in primary_key:
            if pk_col not in self.columns:
                raise SchemaError(f"primary key column {pk_col!r} not in table {name!r}")
            if self.columns[pk_col].nullable:
                raise SchemaError(f"primary key column {pk_col!r} must be NOT NULL")
        self.primary_key: tuple[str, ...] = tuple(primary_key)
        for idx_col in indexes:
            if idx_col not in self.columns:
                raise SchemaError(f"index column {idx_col!r} not in table {name!r}")
        self.indexes: tuple[str, ...] = tuple(indexes)
        for ord_col in ordered:
            if ord_col not in self.columns:
                raise SchemaError(f"ordered index column {ord_col!r} not in table {name!r}")
            if self.columns[ord_col].nullable:
                raise SchemaError(f"ordered index column {ord_col!r} must be NOT NULL")
        self.ordered: tuple[str, ...] = tuple(ordered)

    def validate_row(self, row: dict, partial: bool = False) -> dict:
        """Validate and canonicalize *row*.

        With ``partial=True`` only the supplied columns are checked (for
        updates); otherwise missing columns take defaults or fail.
        """
        unknown = set(row) - set(self.columns)
        if unknown:
            raise SchemaError(f"unknown columns for {self.name!r}: {sorted(unknown)}")
        out: dict[str, Any] = {}
        for cname, column in self.columns.items():
            if cname in row:
                out[cname] = column.validate(row[cname])
            elif partial:
                continue
            elif column.has_default:
                out[cname] = column.validate(column.default)
            elif column.nullable:
                out[cname] = None
            else:
                raise SchemaError(f"missing NOT NULL column {cname!r} for {self.name!r}")
        return out

    def pk_of(self, row: dict) -> tuple:
        """Primary-key tuple of a (validated) row."""
        try:
            return tuple(row[c] for c in self.primary_key)
        except KeyError as exc:
            raise SchemaError(f"row missing primary key column {exc}") from exc
