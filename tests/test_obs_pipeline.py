"""End-to-end tracing through the Figure-2 pipeline, consensus, and net.

The acceptance shape: a traced ``submit_many`` run yields one trace per
update with validate → verify → apply → anchor spans, trace IDs that
match the anchored ledger entries, a JSONL-serializable event log, and
audit spot checks that correlate back to pipeline traces.
"""

import pytest

from repro.consensus.paxos import PaxosCluster
from repro.consensus.pbft import PBFTCluster
from repro.core.contexts import single_private_database
from repro.core.framework import PReVer
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.ledger.audit import LedgerAuditor
from repro.model.constraints import upper_bound_regulation
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation
from repro.net.simnet import SimNetwork
from repro.obs.events import EventLog
from repro.obs.tracing import Tracer

STAGES = ["validate", "verify", "apply", "anchor"]


def build_db():
    database = Database("mgr")
    database.create_table(TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    ))
    return database


def make_update(i, co2=10, org="acme"):
    return Update(table="emissions", operation=UpdateOperation.INSERT,
                  payload={"id": i, "org": org, "co2": co2})


def traced_framework(engine=None, **kwargs):
    tracer = Tracer()
    log = EventLog()
    tracer.add_sink(log)
    database = build_db()
    cap = upper_bound_regulation("cap", "emissions", "co2", 25, ["org"])
    if engine is None:
        framework = PReVer([database], tracer=tracer, **kwargs)
        framework.constraints.append(cap)
    else:
        framework = single_private_database(
            database, [cap], engine=engine, tracer=tracer
        )
    return framework, tracer, log


def stage_spans(tracer, trace_id):
    spans = {s.name: s for s in tracer.traces()[trace_id]}
    return spans


def test_submit_many_traces_every_update_through_all_stages():
    framework, tracer, log = traced_framework()
    # 25-cap: first two accepted (10 + 10), third rejected (30 total).
    results = framework.submit_many([make_update(i) for i in range(3)])
    assert [r.applied for r in results] == [True, True, False]
    for result in results:
        assert result.trace_id is not None
        spans = stage_spans(tracer, result.trace_id)
        for stage in STAGES + ["update"]:
            assert stage in spans, f"missing {stage} span"
            assert spans[stage].ended
        # Children hang off the root update span.
        root = spans["update"]
        assert all(spans[s].parent_id == root.span_id for s in STAGES)
    # Distinct updates get distinct traces.
    assert len({r.trace_id for r in results}) == 3


def test_trace_ids_match_ledger_entries():
    framework, tracer, log = traced_framework()
    results = framework.submit_many([make_update(i) for i in range(3)])
    for result in results:
        entry = framework.ledger.entry(result.ledger_sequence)
        assert entry.payload["trace_id"] == result.trace_id
    anchors = log.events("ledger_anchor")
    assert [a["trace_id"] for a in anchors] == [r.trace_id for r in results]
    assert all("digest" in a for a in anchors)


def test_rejected_update_trace_shape():
    framework, tracer, log = traced_framework()
    results = framework.submit_many([make_update(i) for i in range(3)])
    rejected = results[-1]
    spans = stage_spans(tracer, rejected.trace_id)
    assert spans["update"].status == "error"
    assert spans["verify"].status == "error"
    assert spans["verify"].attributes["failed_constraint"] is not None
    assert spans["apply"].status == "skipped"
    assert spans["anchor"].status == "ok"  # rejections are anchored too
    rejections = log.events("rejection")
    assert len(rejections) == 1
    assert rejections[0]["trace_id"] == rejected.trace_id
    verdicts = log.events("constraint_verdict")
    assert [v["accepted"] for v in verdicts] == [True, True, False]


def test_single_submit_traced_same_shape_as_batch():
    framework, tracer, log = traced_framework()
    result = framework.submit(make_update(0))
    spans = stage_spans(tracer, result.trace_id)
    assert set(STAGES) <= set(spans)
    assert framework.ledger.entry(0).payload["trace_id"] == result.trace_id


def test_unsigned_update_rejected_with_full_stage_shape():
    framework, tracer, log = traced_framework(require_signed_updates=True)
    result = framework.submit(make_update(0))
    assert not result.applied
    spans = stage_spans(tracer, result.trace_id)
    assert spans["validate"].status == "error"
    assert spans["validate"].attributes["reason"] == "unsigned update"
    assert spans["verify"].status == "skipped"
    assert spans["apply"].status == "skipped"
    assert spans["anchor"].ended


def test_signed_update_traced_validate_ok():
    framework, tracer, _ = traced_framework(require_signed_updates=True)
    producer = DataProducer("acme-reporter")
    result = framework.submit(make_update(0).sign_with(producer))
    assert result.applied
    assert stage_spans(tracer, result.trace_id)["validate"].status == "ok"


def test_duplicate_key_apply_failure_traced_as_error():
    framework, tracer, log = traced_framework()
    first = framework.submit(make_update(0, co2=1))
    assert first.applied
    second = framework.submit(make_update(0, co2=1))  # same primary key
    assert not second.applied
    spans = stage_spans(tracer, second.trace_id)
    assert spans["apply"].status == "error"
    assert "reason" in spans["apply"].attributes


def test_paillier_crypto_spans_nest_under_verify():
    framework, tracer, log = traced_framework(engine="paillier")
    result = framework.submit_many([make_update(0)])[0]
    spans = tracer.traces()[result.trace_id]
    by_name = {s.name: s for s in spans}
    assert "paillier.encrypt" in by_name
    assert "paillier.decrypt" in by_name
    verify = by_name["verify"]
    assert by_name["paillier.encrypt"].parent_id == verify.span_id
    assert by_name["paillier.decrypt"].parent_id == verify.span_id


def test_merkle_extension_span_recorded_per_batch():
    framework, tracer, log = traced_framework()
    framework.submit_many([make_update(i) for i in range(2)])
    extensions = tracer.spans_named("merkle.extend")
    assert len(extensions) == 1
    assert extensions[0].attributes["leaves"] == 2


def test_audit_spot_checks_correlate_by_trace_id():
    framework, tracer, log = traced_framework()
    results = framework.submit_many([make_update(i) for i in range(3)])
    auditor = LedgerAuditor("regulator", tracer=tracer)
    report = auditor.audit(framework.ledger, spot_check=3)
    assert report.ok
    checks = log.events("audit.entry_check")
    assert len(checks) == 3
    assert {c["trace_id"] for c in checks} == {r.trace_id for r in results}
    rounds = tracer.spans_named("audit.round")
    assert len(rounds) == 1
    assert rounds[0].attributes["outcome"] == "first_contact"


def test_event_log_serializes_to_jsonl(tmp_path):
    framework, tracer, log = traced_framework()
    framework.submit_many([make_update(i) for i in range(3)])
    path = tmp_path / "trace.jsonl"
    count = log.write(str(path))
    records = EventLog.read_jsonl(str(path))
    assert len(records) == count
    kinds = {r["kind"] for r in records}
    assert {"span_open", "span_close", "constraint_verdict",
            "ledger_anchor", "rejection"} <= kinds


def test_untraced_pipeline_unchanged():
    """The default no-op tracer leaves anchored payloads (and hence
    ledger digests) byte-identical to pre-observability runs."""
    database = build_db()
    framework = PReVer([database])
    framework.constraints.append(
        upper_bound_regulation("cap", "emissions", "co2", 25, ["org"])
    )
    results = framework.submit_many([make_update(i) for i in range(2)])
    assert all(r.trace_id is None for r in results)
    for entry in framework.ledger.entries():
        assert "trace_id" not in entry.payload


@pytest.mark.parametrize("engine", ["plaintext", "zkp", "enclave"])
def test_other_engines_trace_without_crypto_spans(engine):
    framework, tracer, _ = traced_framework(engine=engine)
    result = framework.submit_many([make_update(0)])[0]
    spans = stage_spans(tracer, result.trace_id)
    assert spans["verify"].attributes["engine"] == engine
    assert set(STAGES) <= set(spans)


# -- consensus + network tracing ------------------------------------------


def traced_network(**kwargs):
    tracer = Tracer()
    log = EventLog()
    tracer.add_sink(log)
    return SimNetwork(tracer=tracer, **kwargs), tracer, log


def test_network_hops_and_drops_become_events():
    net, tracer, log = traced_network(loss_rate=0.0)
    cluster = PaxosCluster(n=3, network=net)
    cluster.submit({"cmd": 1})
    cluster.run()
    hops = log.events("net.hop")
    assert hops, "message sends should emit net.hop events"
    assert {"src", "dst", "msg_kind", "latency"} <= set(hops[0])
    net.partition({cluster.names[0]}, set(cluster.names[1:]))
    cluster.submit({"cmd": 2})
    cluster.run()
    drops = log.events("net.drop")
    assert drops
    assert {d["reason"] for d in drops} == {"partition"}


def test_paxos_request_span_measures_decision_latency():
    net, tracer, log = traced_network()
    cluster = PaxosCluster(n=3, network=net)
    result = cluster.submit({"cmd": "x"})
    cluster.run()
    assert result.decided_at is not None
    spans = tracer.spans_named("paxos.request")
    assert len(spans) == 1
    assert spans[0].ended
    assert spans[0].duration == pytest.approx(
        result.decided_at - result.submitted_at
    )
    assert spans[0].attributes["slot"] == result.sequence


def test_pbft_request_span_and_view_change_events():
    net, tracer, log = traced_network()
    cluster = PBFTCluster(f=1, network=net, view_timeout=0.5)
    result = cluster.submit({"cmd": "y"})
    cluster.run()
    spans = tracer.spans_named("pbft.request")
    assert len(spans) == 1 and spans[0].ended
    assert spans[0].attributes["seq"] == result.sequence
    assert log.events("pbft.view_change") == []  # healthy primary

    # Crash the primary: the request times out and a view change fires.
    cluster.nodes[cluster.nodes[0].view % cluster.n].silence()
    cluster.submit({"cmd": "z"})
    cluster.run()
    assert log.events("pbft.view_change")
    assert log.events("pbft.new_view")


def test_paxos_election_span():
    net, tracer, log = traced_network()
    cluster = PaxosCluster(n=3, network=net)
    cluster.elect(1)
    elections = tracer.spans_named("paxos.election")
    assert len(elections) == 1
    assert elections[0].attributes["won"] is True
