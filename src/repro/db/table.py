"""Table storage: rows as tuples, plus secondary hash and ordered indexes.

Each row is stored as a tuple of its validated values in ``TableSchema``
column order, keyed by its primary-key tuple. ``VARCHAR`` and
``TIMESTAMP(14)`` values are interned as they are stored, so the account
ids, entry types, dates and subjects that rows repeat are held once
(DESIGN §23). Reads hand out dicts: ``get``, ``find``, ``select`` and
``all_rows`` build a fresh ``{column: value}`` copy of each row, and a
condition is tested on that copy.

Hash indexes map column value -> set of pks; ordered indexes are sorted
lists of ``(value, pk)``. Both are maintained by ``insert``/``update``/
``delete`` and nowhere else, so they stay correct through rollback (undo
replays those same three calls), WAL replay and snapshot load; they are
derived state and never journalled. Mutation methods return undo entries
so the database's transaction layer can roll back.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from sys import intern
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.db.query import Condition
from repro.db.schema import TableSchema
from repro.db.types import Timestamp14, VarChar
from repro.errors import IntegrityError, NotFoundError

__all__ = ["Table"]


class Table:
    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: tuple[str, ...] = tuple(schema.columns)
        self._at = {name: at for at, name in enumerate(self._columns)}
        self._pk_at = tuple(self._at[name] for name in schema.primary_key)
        self._interned = frozenset(
            name for name, column in schema.columns.items()
            if isinstance(column.type, (VarChar, Timestamp14))
        )
        self._rows: dict[tuple, tuple] = {}
        self._indexes: dict[str, dict[Any, set[tuple]]] = {col: {} for col in schema.indexes}
        self._ordered: dict[str, list[tuple]] = {col: [] for col in schema.ordered}

    # -- row layout ----------------------------------------------------------

    def _pack(self, values: dict) -> tuple:
        """The stored tuple for a validated full row, its strings interned."""
        for name in self._interned:
            value = values[name]
            if type(value) is str:
                values[name] = intern(value)
        return tuple(map(values.__getitem__, self._columns))

    # -- index maintenance ---------------------------------------------------

    def _index_add(self, pk: tuple, row: tuple, old: Optional[tuple] = None) -> None:
        """Index *row* under *pk*; given the *old* row it replaces, only
        the columns whose value changed."""
        for col, index in self._indexes.items():
            at = self._at[col]
            if old is None or old[at] != row[at]:
                index.setdefault(row[at], set()).add(pk)
        for col, keys in self._ordered.items():
            at = self._at[col]
            if old is None or old[at] != row[at]:
                insort(keys, (row[at], pk))

    def _index_remove(self, pk: tuple, row: tuple, new: Optional[tuple] = None) -> None:
        """Unindex *row*; given the *new* row replacing it, only the
        columns whose value changes."""
        for col, keys in self._ordered.items():
            at = self._at[col]
            if new is None or new[at] != row[at]:
                del keys[bisect_left(keys, (row[at], pk))]
        for col, index in self._indexes.items():
            at = self._at[col]
            if new is None or new[at] != row[at]:
                bucket = index.get(row[at])
                if bucket is not None:
                    bucket.discard(pk)
                    if not bucket:
                        del index[row[at]]

    # -- mutations (return undo callables) ------------------------------------

    def insert(self, row: dict, replace: bool = False) -> tuple:
        """Insert a full row; returns its pk. A duplicate pk raises — or,
        with *replace*, gives way (journal replay: redo rows are absolute,
        and are validated once)."""
        packed = self._pack(self.schema.validate_row(row))
        pk = tuple(map(packed.__getitem__, self._pk_at))
        if pk in self._rows:
            if not replace:
                raise IntegrityError(f"duplicate primary key {pk!r} in {self.schema.name!r}")
            self.delete(pk)
        self._rows[pk] = packed
        self._index_add(pk, packed)
        return pk

    def update(self, pk: tuple, changes: dict) -> dict:
        """Apply *changes* to the row at *pk*; returns the prior row copy."""
        row = self._rows.get(pk)
        if row is None:
            raise NotFoundError(f"no row {pk!r} in {self.schema.name!r}")
        values = list(row)
        for name, value in self.schema.validate_row(changes, partial=True).items():
            if name in self._interned and type(value) is str:
                value = intern(value)
            values[self._at[name]] = value
        new = tuple(values)
        for at in self._pk_at:
            if new[at] != row[at]:
                raise IntegrityError("primary key columns are immutable")
        self._index_remove(pk, row, new)
        self._rows[pk] = new
        self._index_add(pk, new, row)
        return dict(zip(self._columns, row))

    def delete(self, pk: tuple) -> dict:
        """Delete the row at *pk*; returns the removed row."""
        row = self._rows.pop(pk, None)
        if row is None:
            raise NotFoundError(f"no row {pk!r} in {self.schema.name!r}")
        self._index_remove(pk, row)
        return dict(zip(self._columns, row))

    def clear(self) -> None:
        """Drop every row (a reload starting over); no undo."""
        for store in (self._rows, *self._indexes.values(), *self._ordered.values()):
            store.clear()

    # -- reads ---------------------------------------------------------------

    def get(self, pk: tuple) -> dict:
        """Copy of the row at *pk*; raises :class:`NotFoundError`."""
        row = self._rows.get(pk)
        if row is None:
            raise NotFoundError(f"no row {pk!r} in {self.schema.name!r}")
        return dict(zip(self._columns, row))

    def find(self, pk: tuple) -> Optional[dict]:
        row = self._rows.get(pk)
        return dict(zip(self._columns, row)) if row is not None else None

    def __contains__(self, pk: tuple) -> bool:
        return pk in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def _iter_matching(self, conditions: Sequence[Condition]) -> Iterator[dict]:
        """Copies of the rows satisfying every condition.

        Uses the smallest applicable secondary index for equality conditions,
        then filters the remainder.
        """
        candidate_pks: Optional[Iterable[tuple]] = None
        for cond in conditions:
            if cond.is_equality and cond.column in self._indexes:
                bucket = self._indexes[cond.column].get(cond.eq_value, set())
                candidate_pks = bucket if candidate_pks is None else (
                    [pk for pk in candidate_pks if pk in bucket]
                )
        if candidate_pks is None:
            rows: Iterable[tuple] = self._rows.values()
        else:
            rows = (self._rows[pk] for pk in candidate_pks if pk in self._rows)
        columns = self._columns
        for row in rows:
            out = dict(zip(columns, row))
            if all(cond(out) for cond in conditions):
                yield out

    def select(
        self,
        conditions: Sequence[Condition] = (),
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """All rows satisfying every condition (row copies).

        An unconditional ascending select over an ordered-index column is
        served from the index — cost proportional to *limit*, not to the
        table — with equal values ordered by primary key.
        """
        if not conditions and not descending and order_by in self._ordered:
            return [dict(zip(self._columns, self._rows[pk])) for _, pk in self._ordered[order_by][:limit]]
        out = list(self._iter_matching(conditions))
        if order_by is not None:
            out.sort(key=lambda r: r[order_by], reverse=descending)
        if limit is not None:
            out = out[:limit]
        return out

    def count(self, conditions: Sequence[Condition] = ()) -> int:
        if not conditions:
            return len(self._rows)
        return sum(1 for _ in self._iter_matching(conditions))

    def exists(self, conditions: Sequence[Condition] = ()) -> bool:
        """True iff any row matches (short-circuits)."""
        return next(self._iter_matching(conditions), None) is not None

    def min_of(self, column: str, default: Any = None) -> Any:
        """Lowest value of an ordered-index column (*default* when empty); O(1)."""
        keys = self._ordered[column]
        return keys[0][0] if keys else default

    def max_of(self, column: str, default: Any = None) -> Any:
        """Highest value of an ordered-index column (*default* when empty); O(1)."""
        keys = self._ordered[column]
        return keys[-1][0] if keys else default

    def all_rows(self) -> list[dict]:
        columns = self._columns
        return [dict(zip(columns, row)) for row in self._rows.values()]
