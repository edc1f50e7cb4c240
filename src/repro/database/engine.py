"""The Database: a named collection of tables plus the transaction log.

This is the object PReVer's data managers hold.  All mutations flow
through the database (not the raw tables) so every change is logged —
the ledger layer anchors that log, and tests can replay it.
"""

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.clock import SimClock
from repro.common.errors import PReVerError
from repro.database.expr import Env, Expr
from repro.database.log import LogOp, TransactionLog
from repro.database.schema import TableSchema
from repro.database.table import Table, reduce_aggregate


class DatabaseError(PReVerError):
    pass


class Database:
    """A single data manager's database."""

    def __init__(self, name: str, clock: Optional[SimClock] = None):
        self.name = name
        self.clock = clock or SimClock()
        self.log = TransactionLog()
        self._tables: Dict[str, Table] = {}

    # -- schema --------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise DatabaseError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise DatabaseError(f"no table {name!r} in {self.name!r}") from None

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- logged mutations ------------------------------------------------

    def insert(
        self, table_name: str, row: Dict[str, Any], update_id: Optional[str] = None
    ) -> Dict[str, Any]:
        table = self.table(table_name)
        inserted = table.insert(row)
        self.log.append(
            timestamp=self.clock.now(),
            table=table_name,
            op=LogOp.INSERT,
            key=table.schema.key_of(inserted),
            before=None,
            after=inserted,
            update_id=update_id,
        )
        return inserted

    def update(
        self,
        table_name: str,
        key: Tuple,
        changes: Dict[str, Any],
        update_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        table = self.table(table_name)
        before, after = table.update_row(key, changes)
        self.log.append(
            timestamp=self.clock.now(),
            table=table_name,
            op=LogOp.UPDATE,
            key=key,
            before=before,
            after=after,
            update_id=update_id,
        )
        return after

    def delete(
        self, table_name: str, key: Tuple, update_id: Optional[str] = None
    ) -> Dict[str, Any]:
        table = self.table(table_name)
        before = table.delete(key)
        self.log.append(
            timestamp=self.clock.now(),
            table=table_name,
            op=LogOp.DELETE,
            key=key,
            before=before,
            after=None,
            update_id=update_id,
        )
        return before

    # -- queries ---------------------------------------------------------

    def select(
        self,
        table_name: str,
        predicate: Optional[Expr] = None,
        columns: Optional[Iterable[str]] = None,
    ) -> List[Dict[str, Any]]:
        rows = list(self.table(table_name).scan(predicate))
        if columns is None:
            return rows
        wanted = list(columns)
        return [{c: row.get(c) for c in wanted} for row in rows]

    def aggregate(
        self,
        table_name: str,
        func: str,
        column: Optional[str] = None,
        predicate: Optional[Expr] = None,
    ) -> Any:
        return self.table(table_name).aggregate(column, func, predicate)

    def group_by(
        self,
        table_name: str,
        group_columns: List[str],
        agg_func: str,
        agg_column: Optional[str] = None,
        predicate: Optional[Expr] = None,
    ) -> Dict[Tuple, Any]:
        """GROUP BY with one aggregate — enough for PReVer's regulation
        workloads (e.g. hours per worker per week)."""
        groups: Dict[Tuple, List[Dict[str, Any]]] = {}
        for row in self.table(table_name).scan(predicate):
            key = tuple(row.get(c) for c in group_columns)
            groups.setdefault(key, []).append(row)
        return {key: reduce_aggregate(agg_func, rows, agg_column)
                for key, rows in groups.items()}

    def join(
        self,
        left_table: str,
        right_table: str,
        left_column: str,
        right_column: str,
        predicate: Optional[Expr] = None,
    ) -> List[Dict[str, Any]]:
        """Hash equi-join; right columns are prefixed on collision."""
        right = self.table(right_table)
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        for row in right.scan():
            buckets.setdefault(row.get(right_column), []).append(row)
        out = []
        for left_row in self.table(left_table).scan():
            for right_row in buckets.get(left_row.get(left_column), []):
                merged = dict(left_row)
                for column, value in right_row.items():
                    if column in merged and merged[column] != value:
                        merged[f"{right_table}.{column}"] = value
                    else:
                        merged.setdefault(column, value)
                if predicate is None or bool(predicate.evaluate(Env(row=merged))):
                    out.append(merged)
        return out
