"""Constraint routing: the table → applicable-constraints index.

:class:`ConstraintRouter` — the sequential pipeline would scan every
registered constraint per update; with many table-scoped constraints
that linear scan dominates.  The router materializes, per table, the
ordered sublist of constraints that can possibly apply (constraints
with no ``tables`` scope apply everywhere), so verification touches
only relevant ones.  Aggregate checks themselves need no batch state:
each table keeps exact per-group totals
(:meth:`~repro.database.table.Table.group_total`).
"""

from typing import Dict, List, Sequence

from repro.model.constraints import Constraint


class ConstraintRouter:
    """Ordered table → applicable-constraints index.

    ``route(table)`` returns constraints in registration order: the
    batch path must reject on the same (first-failing) constraint as
    the sequential scan.  Per-table sublists are built lazily and
    memoized; :meth:`rebuild` invalidates everything.
    """

    def __init__(self, constraints: Sequence[Constraint] = ()):
        self._constraints: List[Constraint] = list(constraints)
        self._by_table: Dict[str, List[Constraint]] = {}
        self._fingerprint: tuple = self.fingerprint(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    @staticmethod
    def fingerprint(constraints: Sequence[Constraint]) -> tuple:
        """Cheap content fingerprint of a constraint list, covering
        everything routing depends on: list length and order, entry
        identity (so replacing a constraint in place is detected, not
        just appends), and each entry's ``tables`` scope (so widening
        or narrowing a scope is detected).  Mutating a constraint's
        *check* — bound, predicate, window — deliberately does not
        change the fingerprint: the router holds object references and
        re-reads those fields on every check, so no rebuild is needed.
        """
        return tuple((id(c), c.tables) for c in constraints)

    def in_sync_with(self, constraints: Sequence[Constraint]) -> bool:
        """Whether the index still matches ``constraints`` (by
        :meth:`fingerprint`); when False the caller must
        :meth:`rebuild` before routing."""
        return self._fingerprint == self.fingerprint(constraints)

    def rebuild(self, constraints: Sequence[Constraint]) -> None:
        """Re-index from ``constraints``, dropping every memoized
        per-table sublist."""
        self._constraints = list(constraints)
        self._by_table.clear()
        self._fingerprint = self.fingerprint(self._constraints)

    def route(self, table: str) -> List[Constraint]:
        """Return, in registration order, the constraints that can
        apply to ``table`` (unscoped constraints apply everywhere)."""
        routed = self._by_table.get(table)
        if routed is None:
            routed = [
                c for c in self._constraints
                if not c.tables or table in c.tables
            ]
            self._by_table[table] = routed
        return routed


# -- retired names ------------------------------------------------------------
#
# ``perfbench/tracing.py`` wraps these two by name in its traced runs.
# Nothing in the program calls them: verification is
# ``Constraint.check`` over the tables' running totals.  Delete them
# once the benchmark stops naming them.


def check_constraint(constraint: Constraint, databases: Sequence, update,
                     now: float) -> bool:
    """``constraint.check(databases, update, now)``."""
    return constraint.check(databases, update, now)


class BatchAggregateCache:
    """Retired: the tables keep exact per-group totals instead."""

    def current(self, *args):
        """Retired: always raises (use ``Constraint.check``)."""
        raise NotImplementedError("use Constraint.check")

    note_applied = current
