"""Per-group aggregate totals kept by the table.

``AggregateSpec.evaluate_over`` reads ``Table.group_total`` for
non-windowed specs; ``AggregateSpec.scan_over`` visits the rows and is
the oracle.  After any stream of writes — through the database, direct
upserts, or snapshot restore plus WAL replay in ``recover()`` — the two
must agree for every group, and where the totals cannot answer exactly
(FLOAT sums, unhashable or NaN group values, a raising filter, huge
magnitudes) the table must decline so the scan decides.
"""

import math
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import PReVer
from repro.database.engine import Database
from repro.database.expr import Expr, col, lit
from repro.database.schema import ColumnType, TableSchema
from repro.database.table import TableError
from repro.durability import Durability
from repro.model.constraints import AggregateSpec
from repro.model.update import Update, UpdateOperation

ORGS = ["a", "b", "c"]
SUM = AggregateSpec("SUM", "amount", match_columns=("org",))
FILTERED = AggregateSpec("SUM", "amount", filter=col("amount") > lit(5),
                         match_columns=("org",))
COUNT = AggregateSpec("COUNT", None, match_columns=("org",))
COUNT_ALL = AggregateSpec("COUNT", None)
FLOAT_SUM = AggregateSpec("SUM", "weight", match_columns=("org",))
KEPT = [SUM, FILTERED, COUNT, COUNT_ALL]
SPECS = KEPT + [FLOAT_SUM]
#: Group values to probe: every org, one no row has, and values the
#: totals must decline (unhashable, NaN).
PROBES = ORGS + ["absent", ["a"], float("nan")]


def make_db(name):
    db = Database(name)
    db.create_table(TableSchema.build(
        "t",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("amount", ColumnType.INT), ("weight", ColumnType.FLOAT)],
        primary_key=["id"],
    ))
    return db


def build_totals(databases):
    """Ask every spec once so the tables keep its totals from here on."""
    for spec in SPECS:
        spec.evaluate_over(databases, "t", {"org": "a"}, 0.0)


def assert_totals_match_scan(databases):
    scopes = [[db] for db in databases] + [list(databases)]
    for scope in scopes:
        for spec in SPECS:
            for value in PROBES:
                payload = {"org": value}
                assert spec.evaluate_over(scope, "t", payload, 0.0) == \
                    spec.scan_over(scope, "t", payload, 0.0), (spec, value)
    for db in databases:
        table = db.table("t")
        for spec in KEPT:
            assert table.group_total(spec, ("a",)) is not None
            assert table.group_total(spec, (["a"],)) is None
            assert table.group_total(spec, (math.nan,)) is None
        assert table.group_total(FLOAT_SUM, ("a",)) is None


row_values = st.tuples(
    st.integers(0, 7),                            # id
    st.sampled_from(ORGS),                        # org
    st.integers(-20, 60),                         # amount
    st.floats(-5, 5, allow_nan=False).map(lambda w: round(w, 1)),
)
operations = st.lists(
    st.tuples(st.integers(0, 1),
              st.sampled_from(["insert", "modify", "delete", "upsert"]),
              row_values),
    max_size=40,
)


@given(ops=operations)
@settings(max_examples=40, deadline=None)
def test_totals_match_scan_after_any_write_stream(ops):
    databases = [make_db("d0"), make_db("d1")]
    build_totals(databases)
    for target, op, (key, org, amount, weight) in ops:
        db = databases[target]
        row = {"id": key, "org": org, "amount": amount, "weight": weight}
        try:
            if op == "insert":
                db.insert("t", row)
            elif op == "modify":
                # Moves the row to another group as often as not.
                db.update("t", (key,), {"org": org, "amount": amount})
            elif op == "delete":
                db.delete("t", (key,))
            else:
                db.table("t").upsert(row)
        except TableError:
            pass  # duplicate or missing key: nothing changed
    assert_totals_match_scan(databases)


def stream_updates(ops):
    updates = []
    for n, (target, op, (key, org, amount, weight)) in enumerate(ops):
        common = {"table": "t", "managers": [f"d{target}"],
                  "update_id": f"u-{n:03d}"}
        if op in ("insert", "upsert"):
            updates.append(Update(
                operation=UpdateOperation.INSERT,
                payload={"id": key, "org": org, "amount": amount,
                         "weight": weight}, **common))
        elif op == "modify":
            updates.append(Update(
                operation=UpdateOperation.MODIFY, key=(key,),
                payload={"org": org, "amount": amount}, **common))
        else:
            updates.append(Update(operation=UpdateOperation.DELETE,
                                  key=(key,), payload={}, **common))
    return updates


def framework_over(directory, databases):
    return PReVer(databases, durability=Durability.wal_with_snapshots(
        directory, snapshot_every=5))


@given(ops=operations, chunk=st.integers(1, 8))
@settings(max_examples=15, deadline=None)
def test_totals_match_scan_after_snapshot_restore_and_replay(ops, chunk):
    updates = stream_updates(ops)
    with tempfile.TemporaryDirectory() as directory:
        live_dbs = [make_db("d0"), make_db("d1")]
        live = framework_over(directory, live_dbs)
        build_totals(live_dbs)
        for start in range(0, len(updates), chunk):
            live.submit_many(updates[start:start + chunk])
        live.close()
        recovered_dbs = [make_db("d0"), make_db("d1")]
        build_totals(recovered_dbs)  # kept through restore and replay
        recovered = framework_over(directory, recovered_dbs)
        recovered.recover()
        recovered.close()
    assert_totals_match_scan(recovered_dbs)
    for spec in SPECS:
        for org in ORGS:
            assert spec.evaluate_over(recovered_dbs, "t", {"org": org}, 0.0) \
                == spec.evaluate_over(live_dbs, "t", {"org": org}, 0.0)


def test_magnitudes_beyond_exact_floats_fall_back_to_the_scan():
    db = make_db("d0")
    build_totals([db])
    db.insert("t", {"id": 1, "org": "a", "amount": 2 ** 53 + 1,
                    "weight": 0.0})
    db.insert("t", {"id": 2, "org": "a", "amount": -(2 ** 53), "weight": 0.0})
    assert db.table("t").group_total(SUM, ("a",)) is None
    assert SUM.evaluate_over([db], "t", {"org": "a"}, 0.0) == \
        SUM.scan_over([db], "t", {"org": "a"}, 0.0)
    db.delete("t", (1,))
    db.delete("t", (2,))
    assert db.table("t").group_total(SUM, ("a",)) == 0


class RaisesOn13(Expr):
    """A filter that raises on rows with amount 13."""

    def evaluate(self, env):
        if env.row["amount"] == 13:
            raise ZeroDivisionError("filter failed")
        return True


RAISING = AggregateSpec("SUM", "amount", filter=RaisesOn13(),
                        match_columns=("org",))


def test_raising_filter_leaves_the_table_consistent_and_decides_like_the_scan():
    db, twin = make_db("d0"), make_db("twin")
    build_totals([db])
    assert db.table("t").group_total(RAISING, ("a",)) == 0
    writes = [
        ("insert", {"id": 1, "org": "a", "amount": 10, "weight": 1.0}),
        ("insert", {"id": 2, "org": "a", "amount": 13, "weight": 1.0}),
        ("modify", {"id": 1, "org": "b", "amount": 13}),
        ("delete", {"id": 2}),
    ]
    for target in (db, twin):
        for op, row in writes:
            if op == "insert":
                target.insert("t", row)
            elif op == "modify":
                target.update("t", (row["id"],),
                              {"org": row["org"], "amount": row["amount"]})
            else:
                target.delete("t", (row["id"],))
    # Every write applied in full, exactly as on a table without totals.
    assert db.table("t").rows() == twin.table("t").rows()
    # The raising spec is no longer kept; the scan decides, and raises.
    assert db.table("t").group_total(RAISING, ("b",)) is None
    with pytest.raises(ZeroDivisionError):
        RAISING.scan_over([db], "t", {"org": "b"}, 0.0)
    with pytest.raises(ZeroDivisionError):
        RAISING.evaluate_over([db], "t", {"org": "b"}, 0.0)
    # The other specs' totals survived the failed fold.
    assert_totals_match_scan([db])


def test_raising_filter_at_build_time_declines():
    db = make_db("d0")
    db.insert("t", {"id": 1, "org": "a", "amount": 13, "weight": 0.0})
    assert db.table("t").group_total(RAISING, ("a",)) is None


def test_unhashable_spec_and_payload_decide_like_the_scan():
    db = make_db("d0")
    listed = AggregateSpec("SUM", "amount",
                           filter=col("org").eq(lit(["a"])),
                           match_columns=("org",))
    db.insert("t", {"id": 1, "org": "a", "amount": 7, "weight": 0.0})
    assert db.table("t").group_total(listed, ("a",)) is None
    for spec, payload in ((listed, {"org": "a"}), (SUM, {"org": ["a"]})):
        assert spec.evaluate_over([db], "t", payload, 0.0) == \
            spec.scan_over([db], "t", payload, 0.0)


def test_windowed_specs_are_not_kept():
    from repro.model.constraints import WindowSpec

    windowed = AggregateSpec("SUM", "amount", match_columns=("org",),
                             window=WindowSpec("amount", 10.0))
    assert make_db("d0").table("t").group_total(windowed, ("a",)) is None


def test_match_columns_list_is_kept():
    """A list of match columns is normalized, so the spec stays
    hashable and the table keeps its totals."""
    spec = AggregateSpec("SUM", "amount", match_columns=["org"])
    assert spec == SUM
    db = make_db("d0")
    db.insert("t", {"id": 1, "org": "a", "amount": 7, "weight": 0.0})
    assert db.table("t").group_total(spec, ("a",)) == 7
