"""The declarative constraint language (Section 3.2's query-language
surface for regulations)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import Comparison, ConstraintKind
from repro.model.dsl import (
    ConstraintSyntaxError,
    parse_constraint,
    parse_regulation,
)
from repro.model.update import Update, UpdateOperation


def tasks_db():
    db = Database("db")
    db.create_table(TableSchema.build(
        "tasks",
        [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT), ("completed_at", ColumnType.FLOAT)],
        primary_key=["task_id"],
        nullable=["completed_at"],
    ))
    return db


def task(worker, hours, at=0.0):
    return Update(
        table="tasks", operation=UpdateOperation.INSERT,
        payload={"task_id": f"t-{worker}-{hours}-{at}", "worker": worker,
                 "hours": hours, "completed_at": at},
    )


# -- predicate constraints -------------------------------------------------------

def test_check_with_new_reference():
    constraint = parse_constraint("CHECK NEW.hours > 0 ON tasks")
    db = tasks_db()
    assert constraint.check([db], task("w", 1), 0.0)
    assert not constraint.check([db], task("w", 0), 0.0)
    assert constraint.tables == ("tasks",)


def test_check_boolean_combinators():
    constraint = parse_constraint(
        "CHECK NEW.hours > 0 AND NEW.hours <= 12 OR NEW.worker = 'admin'"
    )
    db = tasks_db()
    assert constraint.check([db], task("w", 5), 0.0)
    assert not constraint.check([db], task("w", 13), 0.0)
    assert constraint.check([db], task("admin", 13), 0.0)


def test_check_not_and_parentheses():
    constraint = parse_constraint(
        "CHECK NOT (NEW.hours > 10 OR NEW.hours < 1)"
    )
    db = tasks_db()
    assert constraint.check([db], task("w", 5), 0.0)
    assert not constraint.check([db], task("w", 11), 0.0)


def test_check_in_list():
    constraint = parse_constraint(
        "CHECK NEW.worker IN ('alice', 'bob')"
    )
    db = tasks_db()
    assert constraint.check([db], task("alice", 1), 0.0)
    assert not constraint.check([db], task("carol", 1), 0.0)


def test_check_arithmetic_precedence():
    constraint = parse_constraint("CHECK NEW.hours * 2 + 1 <= 11")
    db = tasks_db()
    assert constraint.check([db], task("w", 5), 0.0)
    assert not constraint.check([db], task("w", 6), 0.0)


def test_unary_minus_and_comparison_aliases():
    constraint = parse_constraint("CHECK NEW.hours <> -1")
    db = tasks_db()
    assert constraint.check([db], task("w", 3), 0.0)
    assert not constraint.check([db], task("w", -1), 0.0)


# -- aggregate constraints ----------------------------------------------------------

def test_flsa_regulation_text():
    regulation = parse_regulation(
        "SUM(hours) PER worker WITHIN 7d OF completed_at <= 40 ON tasks",
        name="flsa-40h",
    )
    assert regulation.kind is ConstraintKind.REGULATION
    assert regulation.comparison is Comparison.LE
    assert regulation.bound == 40
    assert regulation.aggregate.window.length == 7 * 86400.0
    assert regulation.is_linear()
    db = tasks_db()
    db.insert("tasks", {"task_id": "a", "worker": "w", "hours": 35,
                        "completed_at": 0.0})
    assert regulation.check([db], task("w", 5, at=1.0), now=1.0)
    assert not regulation.check([db], task("w", 6, at=1.0), now=1.0)
    # The old task falls out of the 7-day window.
    later = 8 * 86400.0
    assert regulation.check([db], task("w", 40, at=later), now=later)


def test_count_star_per_group():
    constraint = parse_constraint("COUNT(*) PER worker <= 2 ON tasks")
    db = tasks_db()
    db.insert("tasks", {"task_id": "a", "worker": "w", "hours": 1,
                        "completed_at": None})
    assert constraint.check([db], task("w", 1), 0.0)
    db.insert("tasks", {"task_id": "b", "worker": "w", "hours": 1,
                        "completed_at": None})
    assert not constraint.check([db], task("w", 1), 0.0)


def test_aggregate_with_where_filter():
    constraint = parse_constraint(
        "SUM(hours) WHERE hours >= 8 PER worker <= 20 ON tasks"
    )
    db = tasks_db()
    db.insert("tasks", {"task_id": "a", "worker": "w", "hours": 5,
                        "completed_at": None})   # filtered out
    db.insert("tasks", {"task_id": "b", "worker": "w", "hours": 10,
                        "completed_at": None})   # counted
    assert constraint.check([db], task("w", 10), 0.0)       # 10+10 <= 20
    db.insert("tasks", {"task_id": "c", "worker": "w", "hours": 8,
                        "completed_at": None})
    assert not constraint.check([db], task("w", 10), 0.0)   # 18+10 > 20


def test_ge_aggregate():
    constraint = parse_constraint("SUM(hours) PER worker >= 10 ON tasks")
    db = tasks_db()
    assert not constraint.check([db], task("w", 5), 0.0)
    assert constraint.check([db], task("w", 10), 0.0)


def test_multiple_match_columns():
    constraint = parse_constraint(
        "SUM(hours) PER worker, task_id <= 5 ON tasks"
    )
    assert constraint.aggregate.match_columns == ("worker", "task_id")


def test_duration_units():
    for text, seconds in [("30s", 30.0), ("5m", 300.0), ("2h", 7200.0),
                          ("1d", 86400.0), ("1w", 604800.0)]:
        constraint = parse_constraint(
            f"SUM(hours) WITHIN {text} OF completed_at <= 1 ON tasks"
        )
        assert constraint.aggregate.window.length == seconds


# -- parsed constraints drive the engines ----------------------------------------------

def test_parsed_regulation_through_paillier_engine():
    from repro.core.verifiers import PaillierVerifier

    regulation = parse_regulation("SUM(hours) PER worker <= 40 ON tasks")
    engine = PaillierVerifier([regulation])
    first = task("w", 40)
    assert engine.verify(first, 0.0).accepted
    engine.note_applied(first, 0.0)
    assert not engine.verify(task("w", 1), 0.0).accepted


def test_parsed_regulation_through_framework():
    from repro.core.contexts import single_private_database

    db = tasks_db()
    regulation = parse_regulation(
        "SUM(hours) PER worker <= 10 ON tasks", name="cap"
    )
    framework = single_private_database(db, [regulation], engine="plaintext")
    assert framework.submit(task("w", 10)).accepted
    assert not framework.submit(task("w", 1)).accepted


# -- error handling --------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "",                                    # empty
    "SELECT * FROM tasks",                 # not a constraint
    "CHECK NEW.hours >",                   # dangling operator
    "SUM(hours) <=",                       # missing bound
    "SUM(hours) <= forty",                 # non-numeric bound
    "CHECK (NEW.hours > 0",                # unbalanced paren
    "SUM hours <= 40",                     # missing parens
    "CHECK NEW.hours IN (x)",              # non-literal IN item
    "COUNT(*) WITHIN 7x OF t <= 1",        # bad duration unit
    "CHECK a = 1 trailing",                # trailing tokens
])
def test_syntax_errors(bad):
    with pytest.raises(ConstraintSyntaxError):
        parse_constraint(bad)


def test_unexpected_character():
    with pytest.raises(ConstraintSyntaxError):
        parse_constraint("CHECK a # b")


@given(hours=st.integers(-5, 50), cap=st.integers(0, 45))
@settings(max_examples=40)
def test_parsed_check_matches_python_semantics(hours, cap):
    constraint = parse_constraint(
        f"CHECK NEW.hours > 0 AND NEW.hours <= {cap}"
    )
    db = tasks_db()
    assert constraint.check([db], task("w", hours), 0.0) == (0 < hours <= cap)
