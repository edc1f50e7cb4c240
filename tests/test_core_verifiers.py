"""RC1 verification engines.

The central property: every privacy engine must agree with the
plaintext reference semantics on every input (dp-index excepted — it
is explicitly approximate and gets an accuracy bound instead).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.verifiers import (
    DPIndexVerifier,
    EnclaveVerifier,
    EngineError,
    PaillierVerifier,
    PlaintextVerifier,
    ZKPVerifier,
)
from repro.database.engine import Database
from repro.database.expr import col, lit
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import (
    Comparison,
    Constraint,
    ConstraintKind,
    lower_bound_regulation,
    upper_bound_regulation,
)
from repro.model.update import Update, UpdateOperation
from repro.privacy.dp import DPIndex, PrivacyAccountant


def fresh_db():
    db = Database("mgr")
    db.create_table(
        TableSchema.build(
            "reports",
            [("id", ColumnType.INT), ("org", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        )
    )
    return db


def regulation(bound=100):
    return upper_bound_regulation("cap", "reports", "amount", bound, ["org"])


def make_update(i, org, amount):
    return Update(
        table="reports", operation=UpdateOperation.INSERT,
        payload={"id": i, "org": org, "amount": amount},
    )


def run_sequence(engine_factory, amounts, bound=100):
    """Feed a sequence of updates; returns the accept/reject pattern.

    The engines are *stateful* (they track applied contributions), so
    the pattern over a sequence is the meaningful comparison unit.
    Each accepted update is applied and reported to the engine via
    ``note_applied``, as the pipeline's apply stage does.
    """
    db = fresh_db()
    engine = engine_factory(db, regulation(bound))
    decisions = []
    for i, amount in enumerate(amounts):
        update = make_update(i, "acme", amount)
        outcome = engine.verify(update, now=0.0)
        decisions.append(outcome.accepted)
        if outcome.accepted:
            db.insert("reports", update.payload)
            engine.note_applied(update, 0.0)
    return decisions


def plaintext_factory(db, constraint):
    return PlaintextVerifier([db], [constraint])


def paillier_factory(db, constraint):
    return PaillierVerifier([constraint])


def zkp_factory(db, constraint):
    return ZKPVerifier([constraint], bits=10)


def enclave_factory(db, constraint):
    return EnclaveVerifier([db], [constraint])


EXACT_FACTORIES = [plaintext_factory, paillier_factory, zkp_factory,
                   enclave_factory]


@given(amounts=st.lists(st.integers(0, 60), min_size=1, max_size=6))
@settings(max_examples=10, deadline=None)
def test_every_exact_engine_agrees_with_reference(amounts):
    reference = run_sequence(plaintext_factory, amounts)
    for factory in EXACT_FACTORIES[1:]:
        assert run_sequence(factory, amounts) == reference, factory.__name__


# -- only applied contributions count ---------------------------------------
#
# Engines keep running state (ciphertext sums, commitments, totals).  A
# contribution that a later constraint rejects, or whose apply fails,
# must not count; these streams run through the whole pipeline, where
# the apply stage commits an engine's proposal via ``note_applied``.

EXACT_ENGINES = ["plaintext", "paillier", "zkp", "enclave"]


def pipeline_decisions(engine, constraints, rows, batched):
    """Accept pattern of ``(id, amount)`` inserts for one org."""
    from repro.core.contexts import single_private_database

    framework = single_private_database(fresh_db(), constraints,
                                        engine=engine)
    updates = [
        Update(table="reports", operation=UpdateOperation.INSERT,
               payload={"id": key, "org": "acme", "amount": amount},
               update_id=f"u-{n}")
        for n, (key, amount) in enumerate(rows)
    ]
    if batched:
        results = framework.submit_many(updates)
    else:
        results = [framework.submit(update) for update in updates]
    return "".join("1" if r.applied else "0" for r in results)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_duplicate_key_contribution_does_not_count(engine, batched):
    # (1, 30) fails apply on the duplicate key, so the org total is 60
    # when (2, 40) arrives and 100 <= 100 accepts it.
    rows = [(1, 60), (1, 30), (2, 40)]
    assert pipeline_decisions(engine, [regulation(100)], rows,
                              batched) == "101"


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_contribution_rejected_by_later_constraint_does_not_count(
        engine, batched):
    # 70 passes the per-org cap but fails the per-row cap registered
    # after it, so it never reaches the org total.
    per_id = upper_bound_regulation("per-id", "reports", "amount", 50,
                                    ["id"])
    rows = [(1, 70), (2, 40), (3, 30), (4, 30)]
    assert pipeline_decisions(engine, [regulation(100), per_id], rows,
                              batched) == "0111"


def two_table_db():
    db = Database("mgr")
    for name in ("a", "b"):
        db.create_table(TableSchema.build(
            name,
            [("id", ColumnType.INT), ("org", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        ))
    return db


@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_constraints_apply_only_to_their_tables(engine):
    """A constraint scoped to table ``a`` never judges an insert into
    ``b``, and a rejection names the constraint that failed."""
    cap_a = upper_bound_regulation("cap-a", "a", "amount", 100, ["org"])
    cap_b = upper_bound_regulation("cap-b", "b", "amount", 1000, ["org"])
    cap_a.constraint_id, cap_b.constraint_id = "cst-a", "cst-b"

    def insert_into_b(constraints, amount):
        from repro.core.contexts import single_private_database

        framework = single_private_database(two_table_db(), constraints,
                                            engine=engine)
        return framework.submit(Update(
            table="b", operation=UpdateOperation.INSERT,
            payload={"id": 1, "org": "x", "amount": amount}))

    assert insert_into_b([cap_a], 500).applied
    rejected = insert_into_b([cap_a, cap_b], 5000)
    assert not rejected.accepted
    assert rejected.outcome.failed_constraint == "cst-b"


@pytest.mark.parametrize("factory", EXACT_FACTORIES)
def test_boundary_exact(factory):
    # 60 + 40 == 100 <= 100 accepted; the next 1 is rejected.
    assert run_sequence(factory, [60, 40, 1]) == [True, True, False]


@pytest.mark.parametrize("factory", EXACT_FACTORIES)
def test_groups_are_independent(factory):
    db = fresh_db()
    engine = factory(db, regulation(50))
    assert engine.verify(make_update(1, "a", 50), 0.0).accepted
    assert engine.verify(make_update(2, "b", 50), 0.0).accepted


def test_paillier_manager_transcript_has_no_plaintext():
    db = fresh_db()
    engine = paillier_factory(db, regulation(1000))
    engine.verify(make_update(1, "acme", 777), 0.0)
    ciphertext_items = [v for k, v in engine.manager_transcript
                        if k == "ciphertext"]
    assert ciphertext_items
    assert all(item != 777 for item in ciphertext_items)
    # Ciphertexts are huge group elements, never small plaintexts.
    assert all(item > 2**100 for item in ciphertext_items)


def test_paillier_rejects_nonlinear_constraints():
    nonlinear = Constraint(
        name="nl", kind=ConstraintKind.INTERNAL,
        predicate=(col("a") * col("b")) <= lit(3),
    )
    with pytest.raises(EngineError):
        PaillierVerifier([nonlinear])


def test_paillier_supports_ge_bounds():
    constraint = lower_bound_regulation("min", "reports", "amount", 10, ["org"])
    engine = PaillierVerifier([constraint])
    assert not engine.verify(make_update(1, "a", 5), 0.0).accepted
    assert engine.verify(make_update(2, "a", 15), 0.0).accepted


def test_zkp_verifier_emits_commitments_only():
    db = fresh_db()
    engine = zkp_factory(db, regulation(1000))
    engine.verify(make_update(1, "acme", 777), 0.0)
    values = [v for k, v in engine.manager_transcript if k == "commitment"]
    assert values and all(v != 777 for v in values)


def test_zkp_verifier_supports_lower_bounds():
    constraint = lower_bound_regulation("min", "reports", "amount", 10, ["org"])
    engine = ZKPVerifier([constraint], bits=8)
    assert not engine.verify(make_update(1, "a", 5), 0.0).accepted
    assert engine.verify(make_update(2, "a", 15), 0.0).accepted


def test_zkp_verifier_rejects_predicate_constraints():
    predicate = Constraint(
        name="p", kind=ConstraintKind.INTERNAL,
        predicate=(col("a") + lit(1)) <= lit(3),
    )
    with pytest.raises(EngineError):
        ZKPVerifier([predicate])


def test_zkp_counts_proof_verifications():
    db = fresh_db()
    engine = zkp_factory(db, regulation(100))
    engine.verify(make_update(1, "a", 10), 0.0)
    assert engine.metrics.counter("zkp.proofs_verified").count == 1


def test_enclave_attestation_in_evidence():
    db = fresh_db()
    engine = enclave_factory(db, regulation(100))
    outcome = engine.verify(make_update(1, "a", 10), 0.0)
    assert outcome.evidence["attestation"] == engine.expected_measurement


def test_dp_index_verifier_is_approximately_correct():
    """With a generous epsilon the DP engine matches the reference on
    inputs far from the boundary, and may flip near it."""
    db = fresh_db()
    accountant = PrivacyAccountant(1000.0)
    index = DPIndex(0, 1e6, 16, accountant, epsilon_per_refresh=5.0)
    constraint = regulation(100)
    engine = DPIndexVerifier([db], [constraint], index, refresh_every=100)
    # Far below the cap: must accept.
    assert engine.verify(make_update(1, "a", 5), 0.0).accepted
    # Far above the cap: must reject.
    assert not engine.verify(make_update(2, "b", 500), 0.0).accepted


def test_dp_index_verifier_budget_exhaustion_halts():
    from repro.common.errors import BudgetExhausted

    db = fresh_db()
    accountant = PrivacyAccountant(0.5)
    index = DPIndex(0, 1e6, 16, accountant, epsilon_per_refresh=0.3)
    engine = DPIndexVerifier([db], [regulation(100)], index, refresh_every=1)
    engine.verify(make_update(1, "a", 5), 0.0)
    with pytest.raises(BudgetExhausted):
        engine.verify(make_update(2, "a", 5), 0.0)


def test_dp_index_verifier_single_constraint_only():
    with pytest.raises(EngineError):
        DPIndexVerifier(
            [fresh_db()],
            [regulation(1), regulation(2)],
            DPIndex(0, 10, 2, PrivacyAccountant(1.0), 0.5),
        )


def test_zkp_negative_contribution_rejects_fail_closed(tmp_path):
    """A negative contribution mid-batch is a typed rejection, not an
    exception: the batch anchors both decisions, and recovery on a
    rebuilt framework keeps the earlier applied row."""
    from repro.core.contexts import single_private_database
    from repro.durability import Durability

    def build():
        reg = regulation()
        reg.constraint_id = "cst-zkp-cap"
        return single_private_database(
            fresh_db(), [reg], engine="zkp",
            durability=Durability.wal(str(tmp_path)),
        )

    framework = build()
    good = make_update(1, "acme", 10)
    negative = make_update(2, "acme", -5)
    results = framework.submit_many([good, negative])
    assert [r.applied for r in results] == [True, False]
    assert results[1].outcome.failed_constraint == "cst-zkp-cap"
    assert len(framework.ledger) == 2
    root = framework.ledger.digest().root
    framework.close()

    rebuilt = build()
    report = rebuilt.recover()
    assert report.dropped_unanchored == 0
    assert rebuilt.ledger.digest().root == root
    assert len(rebuilt.databases[0].table("reports")) == 1
