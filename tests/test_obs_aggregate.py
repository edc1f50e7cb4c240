"""Cross-process telemetry aggregation.

The acceptance bar: a sharded *process* run must surface shard-side
counters/spans in the coordinator's merged ``/metrics`` — no telemetry
black holes in shard processes.  Plus the delta/merge unit semantics
that path relies on: incremental captures never double-count, merged
timer samples keep percentiles exact, and merges land under stable
per-shard labels.
"""

import pytest

from repro.common.metrics import MetricsRegistry
from repro.core.sharded import ShardedPReVer
from repro.obs.aggregate import DeltaTracker, TelemetryDelta, merge_delta
from repro.obs.server import start_ops_server
from repro.obs.tracing import Tracer

from tests.test_sharded import sharded_stream, two_shard_specs


# -- delta capture semantics ------------------------------------------------


def test_delta_capture_is_incremental():
    registry = MetricsRegistry()
    tracker = DeltaTracker(registry)
    registry.counter("c").add(2.5)
    registry.timer("t").record(0.5)
    registry.gauge("g").set(7)
    registry.histogram("h", buckets=[1.0]).observe(0.25)
    first = tracker.capture()
    assert first.counters["c"] == (1, 2.5)
    assert first.timers["t"] == [0.5]
    assert first.gauges["g"] == 7.0
    assert first.histograms["h"]["count"] == 1
    assert first.histograms["h"]["total"] == 0.25
    # Nothing new since -> empty delta (no double counting).
    assert tracker.capture().empty()
    registry.counter("c").add()
    registry.timer("t").record(1.5)
    second = tracker.capture()
    assert second.counters["c"] == (1, 1.0)
    assert second.timers["t"] == [1.5]  # only the new sample ships


def test_origin_tracker_ships_full_history_first():
    registry = MetricsRegistry()
    registry.counter("pre.existing").add(3.0)
    late = DeltaTracker(registry, origin=True)
    fresh = DeltaTracker(registry, origin=False)
    assert late.capture().counters["pre.existing"] == (1, 3.0)
    assert fresh.capture().empty()


def test_tracker_captures_finished_spans():
    registry = MetricsRegistry()
    tracer = Tracer()
    tracker = DeltaTracker(registry, tracer=tracer)
    with tracer.span("work", items=3):
        pass
    delta = tracker.capture()
    assert [span["name"] for span in delta.spans] == ["work"]
    assert tracker.capture().empty()


def test_delta_pickles():
    import pickle

    registry = MetricsRegistry()
    tracker = DeltaTracker(registry)
    registry.counter("c").add()
    registry.timer("t").record(0.1)
    delta = pickle.loads(pickle.dumps(tracker.capture()))
    assert delta.counters["c"] == (1, 1.0)


# -- merge semantics --------------------------------------------------------


def test_merge_delta_labels_and_accumulates():
    coordinator = MetricsRegistry()
    delta = TelemetryDelta(
        counters={"crypto.ops": (4, 4.0)},
        gauges={"depth": 2.0},
        timers={"verify": [0.1, 0.3]},
        histograms={"lat": {"bounds": [1.0], "counts": [2, 0],
                            "count": 2, "total": 0.4}},
        spans=[{"name": "pipeline.batch", "duration": 0.05}],
    )
    merge_delta(coordinator, delta, prefix="shard.s0")
    merge_delta(coordinator, delta, prefix="shard.s0")
    assert coordinator.counter_value("shard.s0.crypto.ops") == 8
    assert coordinator.gauge_value("shard.s0.depth") == 2.0
    timer = coordinator.timer("shard.s0.verify")
    assert timer.samples == [0.1, 0.3, 0.1, 0.3]  # percentiles stay exact
    hist = coordinator.histogram("shard.s0.lat")
    assert hist.count == 4 and hist.total == pytest.approx(0.8)
    span_timer = coordinator.timer("shard.s0.span.pipeline.batch")
    assert span_timer.samples == [0.05, 0.05]


# -- sharded process runs surface shard telemetry ---------------------------


def test_sharded_process_run_surfaces_shard_sections():
    sharded = ShardedPReVer(two_shard_specs(), dispatch="process")
    try:
        sharded.submit_many(sharded_stream(12))
        registry = sharded.collect_telemetry()
        snap = registry.snapshot()
        for name in ("s0", "s1"):
            updates = registry.counter_value(f"shard.{name}.pipeline.updates")
            assert updates == 6, f"empty worker section for shard {name}"
            assert f"shard.{name}.pipeline.stage.verify" in snap["timers"]
        # Incremental: a second collect with no new work adds nothing.
        before = registry.counter_value("shard.s0.pipeline.updates")
        sharded.collect_telemetry()
        assert registry.counter_value(
            "shard.s0.pipeline.updates"
        ) == before
        # More work -> only the increment merges.
        sharded.submit_many(sharded_stream(4, offset=100, who="carol"))
        sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 8
        # The ops server scrape shows the shard sections end to end.
        with start_ops_server(sharded) as server:
            status, _, body = server.handle("/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_shard_s0_pipeline_updates_total" in text
        assert "repro_shard_s1_pipeline_updates_total" in text
    finally:
        sharded.close()


def test_sharded_process_health_and_readiness():
    sharded = ShardedPReVer(two_shard_specs(), dispatch="process")
    try:
        sharded.submit_many(sharded_stream(4))
        health = sharded.health_report()
        assert health["ok"]
        assert health["checks"]["shard.s0"]["ok"]
        ready = sharded.readiness_report()
        assert ready["ok"]
        assert ready["checks"]["shard.s1.ready"]["ok"]
    finally:
        sharded.close()
    assert not sharded.health_report()["ok"]  # closed shards are dead


def test_sharded_serial_telemetry_and_trail(tmp_path):
    from repro.obs.events import EventLog

    import functools

    # Serial dispatch with a traced shard: the coordinator finds the
    # trail on whichever shard anchored the update.
    specs = two_shard_specs()
    sharded = ShardedPReVer(specs, dispatch="serial")
    try:
        results = sharded.submit_many(sharded_stream(8))
        registry = sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 4
        assert registry.counter_value("shard.s1.pipeline.updates") == 4
        assert sharded.health_report()["ok"]
        assert sharded.readiness_report()["ok"]
        # Untraced shards anchor no trace ids -> no trail anywhere.
        assert sharded.verification_trail("tr-none") is None
        # Attach tracing to one shard and find its trail via the
        # coordinator (trail carries the owning shard's name).
        shard = sharded.shards[0]
        shard.tracer = Tracer().add_sink(EventLog())
        result = sharded.submit(sharded_stream(1, offset=50)[0])
        trail = sharded.verification_trail(result.trace_id)
        assert trail is not None and trail["verified"] is True
        assert trail["shard"] == "s0"
    finally:
        sharded.close()
