"""In-memory tables with primary keys and secondary hash indexes.

Rows are plain dicts validated against the schema.  Mutations return
copies of affected rows so callers can log before/after images; the
table itself never hands out references to its internal storage.

A table also keeps exact per-group COUNT/SUM totals for each
aggregate spec :meth:`Table.group_total` was asked about, maintained
where the indexes are, so every writer keeps them exact and aggregate
constraints read a total instead of scanning.
"""

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import PReVerError
from repro.database.expr import Env, Expr
from repro.database.schema import ColumnType, TableSchema

#: Float sums of integers whose magnitudes add up to less than this
#: are exact in any order.
FLOAT_EXACT = 2 ** 53


class TableError(PReVerError):
    pass


class DuplicateKeyError(TableError):
    pass


class MissingRowError(TableError):
    pass


def reduce_aggregate(func: str, rows: List[Dict[str, Any]],
                     column: Optional[str]) -> Any:
    """COUNT of ``rows``, or SUM/AVG/MIN/MAX of their non-null
    ``column`` values (SUM of none is 0, the others None)."""
    func = func.upper()
    if func == "COUNT":
        return len(rows)
    values = [row[column] for row in rows if row.get(column) is not None]
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return sum(values) / len(values) if values else None
    if func in ("MIN", "MAX"):
        return (min if func == "MIN" else max)(values) if values else None
    raise TableError(f"unknown aggregate {func!r}")


class _GroupTotals:
    """Exact running COUNT or SUM per group for one aggregate spec.

    ``magnitude`` is the sum of ``|value|`` over the folded rows (SUM
    only): while it stays below :data:`FLOAT_EXACT`, a float scan of
    the same rows computes every group total exactly.
    """

    __slots__ = ("columns", "value_column", "filter", "groups", "magnitude")

    def __init__(self, spec):
        self.columns = tuple(spec.match_columns)
        self.value_column = spec.column if spec.func.upper() == "SUM" else None
        self.filter = spec.filter
        self.groups: Dict[tuple, int] = {}
        self.magnitude = 0

    def fold(self, row: Dict[str, Any], sign: int) -> bool:
        """Add (``sign=1``) or remove (``sign=-1``) one row; False,
        with nothing changed, when the filter raised on it."""
        try:
            if self.filter is not None and not self.filter.evaluate(
                    Env(row=row)):
                return True
        except Exception:
            # Any filter error: the spec falls back to the scan, which
            # raises the same error to whoever checks it.
            return False
        if self.value_column is None:
            amount = sign
        else:
            value = row.get(self.value_column)
            if value is None:
                return True
            amount = sign * value
            self.magnitude += sign * abs(value)
        group = tuple(row.get(column) for column in self.columns)
        total = self.groups.get(group, 0) + amount
        if total:
            self.groups[group] = total
        else:
            self.groups.pop(group, None)
        return True


class Table:
    """A single table: primary-key dict plus secondary hash indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: Dict[Tuple, Dict[str, Any]] = {}
        self._indexes: Dict[str, Dict[Any, set]] = {
            name: {} for name in schema.indexes
        }
        self._range_indexes: Dict[str, "RangeIndex"] = {}
        # aggregate spec -> its group totals, or None for a spec this
        # table does not keep (its callers scan instead)
        self._totals: Dict[Any, Optional[_GroupTotals]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._rows

    # -- mutations ----------------------------------------------------

    def insert(self, row: Dict[str, Any]) -> Dict[str, Any]:
        normalized = self.schema.validate_row(row)
        key = self.schema.key_of(normalized)
        if key in self._rows:
            raise DuplicateKeyError(
                f"duplicate key {key!r} in table {self.schema.name!r}"
            )
        self._rows[key] = normalized
        self._index_add(key, normalized)
        return dict(normalized)

    def upsert(self, row: Dict[str, Any]) -> Dict[str, Any]:
        normalized = self.schema.validate_row(row)
        key = self.schema.key_of(normalized)
        if key in self._rows:
            self._index_remove(key, self._rows[key])
        self._rows[key] = normalized
        self._index_add(key, normalized)
        return dict(normalized)

    def update_row(
        self, key: Tuple, changes: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Apply ``changes`` to the row at ``key``; returns
        (before_image, after_image)."""
        if key not in self._rows:
            raise MissingRowError(f"no row {key!r} in {self.schema.name!r}")
        before = dict(self._rows[key])
        merged = dict(before)
        merged.update(changes)
        normalized = self.schema.validate_row(merged)
        new_key = self.schema.key_of(normalized)
        if new_key != key and new_key in self._rows:
            raise DuplicateKeyError(f"update collides with key {new_key!r}")
        self._index_remove(key, before)
        del self._rows[key]
        self._rows[new_key] = normalized
        self._index_add(new_key, normalized)
        return before, dict(normalized)

    def delete(self, key: Tuple) -> Dict[str, Any]:
        if key not in self._rows:
            raise MissingRowError(f"no row {key!r} in {self.schema.name!r}")
        row = self._rows.pop(key)
        self._index_remove(key, row)
        return dict(row)

    # -- reads --------------------------------------------------------

    def get(self, key: Tuple) -> Optional[Dict[str, Any]]:
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def scan(self, predicate: Optional[Expr] = None) -> Iterator[Dict[str, Any]]:
        """Full scan, optionally filtered by an expression predicate."""
        for row in self._rows.values():
            if predicate is None or bool(predicate.evaluate(Env(row=row))):
                yield dict(row)

    def lookup(self, column: str, value: Any) -> List[Dict[str, Any]]:
        """Equality lookup, via index when available."""
        if column in self._indexes:
            keys = self._indexes[column].get(value, set())
            return [dict(self._rows[k]) for k in keys]
        return [dict(r) for r in self._rows.values() if r.get(column) == value]

    def aggregate(
        self,
        column: Optional[str],
        func: str,
        predicate: Optional[Expr] = None,
    ) -> Any:
        """COUNT/SUM/AVG/MIN/MAX over (optionally filtered) rows.

        ``column`` may be None only for COUNT.
        """
        if column is None and func.upper() != "COUNT":
            raise TableError(f"{func.upper()} requires a column")
        rows = [row for row in self._rows.values() if predicate is None
                or bool(predicate.evaluate(Env(row=row)))]
        return reduce_aggregate(func, rows, column)

    def rows(self) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._rows.values()]

    # -- per-group aggregate totals --------------------------------------

    def group_total(self, spec, group: tuple,
                    limit: int = FLOAT_EXACT) -> Optional[int]:
        """Exact COUNT/SUM of ``spec`` over the rows whose
        ``spec.match_columns`` equal ``group`` (``spec.filter``
        applied), or None when the caller must scan instead.

        The first call for a spec builds its totals with one scan;
        from then on they change only as rows do.  None covers what
        the totals cannot answer exactly like a float scan: windowed
        specs, SUM over a column that is not INT, unhashable specs
        or group values, NaN group values, a filter that raised, and
        SUM magnitudes at or above ``limit``.
        """
        try:
            totals = self._totals[spec]
        except KeyError:
            totals = self._build_totals(spec)
        except TypeError:
            return None
        if totals is None or totals.magnitude >= limit:
            return None
        try:
            if any(value != value for value in group):
                return None  # NaN: the scan matches no row, a dict may
            return totals.groups.get(group, 0)
        except (TypeError, ValueError):
            return None  # unhashable or incomparable: the scan decides

    def _build_totals(self, spec) -> Optional[_GroupTotals]:
        func = spec.func.upper()
        int_sum = func == "SUM" and any(
            column.name == spec.column and column.type is ColumnType.INT
            for column in self.schema.columns)
        totals = None
        if spec.window is None and (func == "COUNT" or int_sum):
            totals = _GroupTotals(spec)
            if not all(totals.fold(row, 1) for row in self._rows.values()):
                totals = None
        self._totals[spec] = totals
        return totals

    def _fold_totals(self, row: Dict[str, Any], sign: int) -> None:
        failed = [spec for spec, totals in self._totals.items()
                  if totals is not None and not totals.fold(row, sign)]
        for spec in failed:
            self._totals[spec] = None  # its filter raised: scan from now on

    # -- range indexes ---------------------------------------------------

    def create_range_index(self, column: str) -> None:
        """Add a sorted index over ``column`` (idempotent); existing
        rows are indexed immediately."""
        from repro.database.rindex import RangeIndex

        self.schema.column(column)  # validates existence
        if column in self._range_indexes:
            return
        index = RangeIndex(column)
        for key, row in self._rows.items():
            index.add(row.get(column), key)
        self._range_indexes[column] = index

    def has_range_index(self, column: str) -> bool:
        return column in self._range_indexes

    def range_lookup(
        self,
        column: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[Dict[str, Any]]:
        """Rows with ``low <(=) column <(=) high`` via the sorted index."""
        if column not in self._range_indexes:
            raise TableError(f"no range index on {column!r}")
        keys = self._range_indexes[column].range_keys(
            low, high, include_low, include_high
        )
        return [dict(self._rows[k]) for k in keys]

    # -- index maintenance ---------------------------------------------

    def _index_add(self, key: Tuple, row: Dict[str, Any]) -> None:
        for column, index in self._indexes.items():
            index.setdefault(row.get(column), set()).add(key)
        for column, range_index in self._range_indexes.items():
            range_index.add(row.get(column), key)
        if self._totals:
            self._fold_totals(row, 1)

    def _index_remove(self, key: Tuple, row: Dict[str, Any]) -> None:
        for column, index in self._indexes.items():
            bucket = index.get(row.get(column))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del index[row.get(column)]
        for column, range_index in self._range_indexes.items():
            range_index.remove(row.get(column), key)
        if self._totals:
            self._fold_totals(row, -1)
