"""Constraints and regulations (Section 3.2).

A constraint is "a Boolean function computed over the database and an
incoming update".  We support three shapes, matching the paper's menu:

* **row predicates** — a Boolean :class:`~repro.database.expr.Expr`
  over the target row's columns and the update's fields (classic
  database constraints, e.g. CHECK clauses);
* **aggregate constraints** — compare ``AGG(column) over rows matching
  a filter, plus the update's contribution`` against a bound (COUNT /
  SUM / ...); this is the token-mechanism-compatible class;
* **windowed aggregates** — the same but restricted to a sliding time
  window (the paper: "workers cannot work more than 40 hours a week"),
  the temporal-logic extension Section 3.2 calls for.

*Internal constraints* are scoped to one data owner's database(s);
*regulations* come from external authorities and may span the
databases of multiple owners — the evaluator accepts a list of
databases and sums the aggregate across them.
"""

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConstraintViolation
from repro.common.ids import make_id
from repro.common.serialization import canonical_bytes
from repro.database.expr import Env, Expr, linearize
from repro.database.table import FLOAT_EXACT


class ConstraintKind(enum.Enum):
    INTERNAL = "internal"       # defined by a data owner
    REGULATION = "regulation"   # defined by an external authority


class Comparison(enum.Enum):
    LE = "<="
    GE = ">="
    LT = "<"
    GT = ">"
    EQ = "=="

    def apply(self, left: float, right: float) -> bool:
        # Branch directly: this runs once per constraint per update on
        # the hot verification path.
        if self is Comparison.LE:
            return left <= right
        if self is Comparison.GE:
            return left >= right
        if self is Comparison.LT:
            return left < right
        if self is Comparison.GT:
            return left > right
        return left == right


@dataclass(frozen=True)
class WindowSpec:
    """A sliding time window over a timestamp column."""

    time_column: str
    length: float  # seconds of (simulated) time

    def admits(self, row: Dict[str, Any], now: float) -> bool:
        timestamp = row.get(self.time_column)
        if timestamp is None:
            return False
        return now - self.length < timestamp <= now


@dataclass(frozen=True)
class AggregateSpec:
    """``AGG(column) WHERE filter [GROUP-scoped by match_columns]``.

    ``match_columns`` restricts the aggregate to rows agreeing with the
    update on those columns (e.g. the same worker_id), which is how
    per-participant budgets are expressed.
    """

    func: str                         # COUNT | SUM
    column: Optional[str]             # None for COUNT
    filter: Optional[Expr] = None
    match_columns: Sequence[str] = field(default_factory=tuple)
    window: Optional[WindowSpec] = None

    def __post_init__(self):
        # A tuple keeps the spec hashable, so tables can key its
        # running totals by it.
        object.__setattr__(self, "match_columns", tuple(self.match_columns))

    def group_of(self, update_payload: Dict[str, Any]) -> tuple:
        """The update's group: its values of ``match_columns``."""
        return tuple(update_payload.get(c) for c in self.match_columns)

    def contribution_of(self, update_payload: Dict[str, Any]) -> float:
        """The update's own contribution to the aggregate."""
        if self.func.upper() == "COUNT":
            return 1.0
        value = update_payload.get(self.column)
        return float(value) if value is not None else 0.0

    def evaluate_over(
        self,
        databases: Sequence,
        table: str,
        update_payload: Dict[str, Any],
        now: float,
    ) -> float:
        """Sum the aggregate across all databases (regulation scope).

        A non-windowed spec reads each table's exact running total for
        the update's group (:meth:`Table.group_total`), visiting no
        rows; the value equals :meth:`scan_over`'s.  Windowed specs,
        and specs a table does not keep, take :meth:`scan_over`.
        """
        if self.window is None:
            group = self.group_of(update_payload)
            limit = FLOAT_EXACT // max(1, len(databases))
            total = 0
            for database in databases:
                part = database.table(table).group_total(self, group, limit)
                if part is None:
                    return self.scan_over(databases, table, update_payload,
                                          now)
                total += part
            return float(total)
        return self.scan_over(databases, table, update_payload, now)

    def scan_over(
        self,
        databases: Sequence,
        table: str,
        update_payload: Dict[str, Any],
        now: float,
    ) -> float:
        """The reference aggregate: visit the rows of every database.

        When the aggregate is windowed and the table carries a range
        index on the window's time column, only the in-window rows are
        visited (O(log n + matches) instead of a full scan).
        """
        total = 0.0
        for database in databases:
            table_obj = database.table(table)
            rows = self._candidate_rows(table_obj, now)
            for row in rows:
                if not self._row_matches(row, update_payload, now):
                    continue
                if self.func.upper() == "COUNT":
                    total += 1.0
                else:
                    value = row.get(self.column)
                    if value is not None:
                        total += float(value)
        return total

    def _candidate_rows(self, table_obj, now: float):
        window = self.window
        if window is not None and table_obj.has_range_index(window.time_column):
            return table_obj.range_lookup(
                window.time_column,
                low=now - window.length,
                high=now,
                include_low=False,
                include_high=True,
            )
        return table_obj.scan()

    def _row_matches(
        self, row: Dict[str, Any], update_payload: Dict[str, Any], now: float
    ) -> bool:
        for column in self.match_columns:
            if row.get(column) != update_payload.get(column):
                return False
        if self.window is not None and not self.window.admits(row, now):
            return False
        if self.filter is not None:
            if not bool(self.filter.evaluate(Env(row=row))):
                return False
        return True


@dataclass
class Constraint:
    """A named policy for accepting or rejecting updates.

    Exactly one of ``predicate`` (row-level) or ``aggregate`` +
    ``bound`` (aggregate-level) is set.
    """

    name: str
    kind: ConstraintKind
    predicate: Optional[Expr] = None
    aggregate: Optional[AggregateSpec] = None
    comparison: Optional[Comparison] = None
    bound: Optional[float] = None
    authority: Optional[str] = None
    tables: Sequence[str] = field(default_factory=tuple)
    constraint_id: str = field(default_factory=lambda: make_id("cst"))
    signature: Optional[object] = None

    def __post_init__(self):
        has_predicate = self.predicate is not None
        has_aggregate = self.aggregate is not None
        if has_predicate == has_aggregate:
            raise ValueError(
                "constraint needs exactly one of predicate / aggregate"
            )
        if has_aggregate and (self.comparison is None or self.bound is None):
            raise ValueError("aggregate constraints need comparison and bound")

    @property
    def is_regulation(self) -> bool:
        return self.kind is ConstraintKind.REGULATION

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None

    def is_linear(self) -> bool:
        """Whether the privacy engines (Paillier / MPC / tokens) can
        evaluate this constraint under encryption: aggregates are
        linear by construction; predicates must linearize."""
        if self.is_aggregate:
            return self.aggregate.func.upper() in ("COUNT", "SUM")
        # A comparison of two linear sides is engine-evaluable.
        expr = self.predicate
        from repro.database.expr import BinOp

        if isinstance(expr, BinOp) and expr.op in ("<", "<=", ">", ">=", "=="):
            return (
                linearize(expr.left) is not None
                and linearize(expr.right) is not None
            )
        return False

    def body_bytes(self) -> bytes:
        # Key-based memo, not an identity cache: the dataclass is
        # mutable (callers pin constraint_id after construction), so
        # the memo is valid only while every signed field matches the
        # key it was computed under.  Authority signing + repeated
        # signature verification hit this on every submit.
        key = (
            self.name,
            self.kind.value,
            self.constraint_id,
            self.bound,
            self.comparison.value if self.comparison else None,
            tuple(self.tables),
            self.is_aggregate,
        )
        cached = self.__dict__.get("_body_memo")
        if cached is not None and cached[0] == key:
            return cached[1]
        encoded = canonical_bytes(
            {
                "name": self.name,
                "kind": self.kind.value,
                "constraint_id": self.constraint_id,
                "bound": self.bound,
                "comparison": self.comparison.value if self.comparison else None,
                "tables": list(self.tables),
                "shape": "aggregate" if self.is_aggregate else "predicate",
            }
        )
        self.__dict__["_body_memo"] = (key, encoded)
        return encoded

    # -- evaluation (plaintext reference semantics) ---------------------

    def check(
        self,
        databases: Sequence,
        update,
        now: float,
    ) -> bool:
        """Reference (plaintext) evaluation; privacy engines must agree
        with this on every input — the property tests enforce that."""
        if self.is_aggregate:
            current = self.aggregate.evaluate_over(
                databases, update.table, update.payload, now
            )
            proposed = current + self.aggregate.contribution_of(update.payload)
            return self.comparison.apply(proposed, float(self.bound))
        # Row predicate, SQL-CHECK semantics: column references resolve
        # against the row as it would look *after* the update — for
        # INSERT that is the payload itself, for MODIFY the existing row
        # overlaid with the changes.  NEW.field always references the
        # payload.
        row: Dict[str, Any] = {}
        if update.key is not None:
            for database in databases:
                existing = database.table(update.table).get(update.key)
                if existing is not None:
                    row = existing
                    break
        effective = dict(row)
        effective.update(update.payload)
        env = Env(row=effective, update=update.payload)
        result = self.predicate.evaluate(env)
        return bool(result)

    def enforce(self, databases: Sequence, update, now: float) -> None:
        if not self.check(databases, update, now):
            raise ConstraintViolation(self.constraint_id, f"{self.name} violated")


# -- convenience constructors for the regulation shapes the paper uses ----

def upper_bound_regulation(
    name: str,
    table: str,
    column: str,
    bound: float,
    match_columns: Sequence[str],
    window: Optional[WindowSpec] = None,
    authority: Optional[str] = None,
) -> Constraint:
    """SUM(column) per match-group must stay <= bound (FLSA shape)."""
    return Constraint(
        name=name,
        kind=ConstraintKind.REGULATION,
        aggregate=AggregateSpec(
            func="SUM", column=column, match_columns=tuple(match_columns), window=window
        ),
        comparison=Comparison.LE,
        bound=bound,
        authority=authority,
        tables=(table,),
    )


def lower_bound_regulation(
    name: str,
    table: str,
    column: str,
    bound: float,
    match_columns: Sequence[str],
    window: Optional[WindowSpec] = None,
    authority: Optional[str] = None,
) -> Constraint:
    """SUM(column) per match-group must reach >= bound after the update
    (Separ also supports lower-bound regulations, e.g. minimum wage)."""
    return Constraint(
        name=name,
        kind=ConstraintKind.REGULATION,
        aggregate=AggregateSpec(
            func="SUM", column=column, match_columns=tuple(match_columns), window=window
        ),
        comparison=Comparison.GE,
        bound=bound,
        authority=authority,
        tables=(table,),
    )
