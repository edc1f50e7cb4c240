"""The per-layer metrics of the traced run, by name and unit.

Every traced run prints every name below.  A metric whose layer the
workload does not run (no frames in ``ingest``, no Paillier in
``serve`` ...) reads 0 and is listed under ``not_run`` in the report.
Times are *self* times of the wrapped calls (see ``tracing.py``), per
decided update unless the name says otherwise; in ``federated`` each
update is replayed on three replicas, so its pipeline figures cover
all three.  ``consensus.order_sim_ms.*`` are simulated milliseconds
from the consensus network's clock; they are never added to any
wall-time figure.
"""

from typing import Dict, List, Tuple

from common import percentile

PER_LAYER: List[Tuple[str, str]] = [
    ("serve.decode_us_per_frame", "us"),
    ("serve.encode_us_per_frame", "us"),
    ("serve.retry_ratio", "ratio"),
    ("serve.batch_wait_ms.p50", "ms"),
    ("serve.batch_wait_ms.p99", "ms"),
    ("serve.batch_ms.p50", "ms"),
    ("serve.batch_size.mean", "updates"),
    ("serve.pipelined_batches", "count"),
    ("serve.gen_late_p99_ms", "ms"),
    ("pipeline.auth_us_per_update", "us"),
    ("pipeline.route_us_per_update", "us"),
    ("pipeline.verify_us_per_update", "us"),
    ("pipeline.wal_us_per_update", "us"),
    ("pipeline.commit_ms_per_batch", "ms"),
    ("pipeline.apply_us_per_update", "us"),
    ("pipeline.anchor_us_per_update", "us"),
    ("pipeline.updates_per_batch", "updates"),
    ("verify.scans_per_update", "count"),
    ("verify.rows_scanned_per_update", "count"),
    ("verify.scan_us_per_update", "us"),
    ("verify.paillier_encrypt_us_per_update", "us"),
    ("verify.paillier_decrypt_us_per_update", "us"),
    ("verify.accept_ratio", "ratio"),
    ("crypto.schnorr_verify_us_per_sig", "us"),
    ("encoding.encode_calls_per_update", "count"),
    ("encoding.encode_us_per_update", "us"),
    ("database.apply_us_per_op", "us"),
    ("durability.wal_bytes_per_update", "bytes"),
    ("durability.wal_bytes_per_payload_byte", "ratio"),
    ("durability.fsyncs_per_update", "count"),
    ("durability.fsync_ms.p50", "ms"),
    ("durability.snapshot_ms_per_update", "ms"),
    ("durability.snapshots", "count"),
    ("durability.recover_ms", "ms"),
    ("ledger.append_us_per_entry", "us"),
    ("consensus.propose_ms_per_batch", "ms"),
    ("consensus.codec_us_per_update", "us"),
    ("consensus.order_sim_ms.p50", "sim_ms"),
    ("consensus.order_sim_ms.p99", "sim_ms"),
    ("consensus.messages_per_batch", "count"),
    ("consensus.attempts_per_batch", "ratio"),
    ("replicated.replay_ms_per_batch", "ms"),
    ("sharded.dispatch_us_per_update", "us"),
    ("error_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
]
UNITS: Dict[str, str] = dict(PER_LAYER)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def self_s(summary: Dict[str, dict], *names: str) -> float:
    """Summed self seconds of the named spans."""
    return sum(summary.get(n, {}).get("self", 0.0) for n in names)


def calls(summary: Dict[str, dict], *names: str) -> int:
    return sum(summary.get(n, {}).get("calls", 0) for n in names)


def extra(summary: Dict[str, dict], *names: str) -> float:
    """Summed extras (exact counts recorded on the spans)."""
    return sum(summary.get(n, {}).get("extra", 0.0) for n in names)


def span_metrics(summary: Dict[str, dict], spans: List[list],
                 counts: Dict[str, list], updates: int) -> Dict[str, float]:
    """Metrics read off the span summary and the exact counters."""
    import tracing

    def us_per_update(*names):
        return _per(self_s(summary, *names), updates) * 1e6

    batch_calls, batch_updates = counts.get("pipeline.batch", (0, 0.0))
    # A one-item or fallback ``verify_batch`` checks its signatures
    # through ``SchnorrVerifier.verify``: those are already counted as
    # batch items.
    signatures = (extra(summary, "crypto.schnorr_batch")
                  + tracing.calls_outside(spans, "crypto.schnorr_one",
                                          "crypto.schnorr_batch"))
    return {
        "pipeline.auth_us_per_update": us_per_update("pipeline.auth"),
        "pipeline.route_us_per_update": us_per_update("pipeline.route"),
        "pipeline.verify_us_per_update": us_per_update("pipeline.verify"),
        "pipeline.wal_us_per_update": us_per_update("pipeline.wal"),
        "pipeline.commit_ms_per_batch":
            _per(self_s(summary, "pipeline.commit"),
                 calls(summary, "pipeline.commit")) * 1e3,
        "pipeline.apply_us_per_update": us_per_update("pipeline.apply"),
        "pipeline.anchor_us_per_update": us_per_update("pipeline.anchor"),
        "pipeline.updates_per_batch": _per(batch_updates, batch_calls),
        "verify.scans_per_update": _per(calls(summary, "verify.scan"),
                                        updates),
        "verify.rows_scanned_per_update":
            _per(extra(summary, "verify.scan"), updates),
        "verify.scan_us_per_update": us_per_update("verify.scan"),
        "verify.paillier_encrypt_us_per_update":
            us_per_update("crypto.paillier_encrypt"),
        "verify.paillier_decrypt_us_per_update":
            us_per_update("crypto.paillier_decrypt"),
        "crypto.schnorr_verify_us_per_sig": _per(
            self_s(summary, "crypto.schnorr_batch", "crypto.schnorr_one"),
            signatures) * 1e6,
        "encoding.encode_calls_per_update":
            _per(calls(summary, "encoding.encode"), updates),
        "encoding.encode_us_per_update": us_per_update("encoding.encode"),
        "database.apply_us_per_op":
            _per(self_s(summary, "database.apply"),
                 calls(summary, "database.apply")) * 1e6,
        "ledger.append_us_per_entry":
            _per(self_s(summary, "ledger.append"),
                 extra(summary, "ledger.append")) * 1e6,
        "consensus.propose_ms_per_batch":
            _per(summary.get("consensus.propose", {}).get("incl", 0.0),
                 calls(summary, "consensus.propose")) * 1e3,
        "consensus.codec_us_per_update": us_per_update("consensus.codec"),
        "sharded.dispatch_us_per_update": us_per_update("sharded.dispatch"),
    }


class RegistryMark:
    """A point-in-time reading of a metrics registry, for deltas."""

    def __init__(self, registry):
        self.registry = registry
        snapshot = registry.snapshot()
        self.counters = {name: c["total"]
                         for name, c in snapshot["counters"].items()}
        self.timer_lengths = {name: t["n"]
                              for name, t in snapshot["timers"].items()}

    def total(self, name: str, until: "RegistryMark" = None) -> float:
        """Summed counter value added since the mark (up to ``until``)."""
        end = (until.counters.get(name, 0.0) if until is not None
               else self.registry.counter_total(name))
        return end - self.counters.get(name, 0.0)

    def samples(self, name: str, until: "RegistryMark" = None) -> List[float]:
        end = until.timer_lengths.get(name, 0) if until is not None else None
        return list(self.registry.timer(name).samples[
            self.timer_lengths.get(name, 0):end])


def durability_metrics(mark: RegistryMark, updates: int,
                       payload_bytes: int) -> Dict[str, float]:
    """``durability.*`` from the registry the WAL reports into."""
    wal_bytes = mark.total("durability.wal_bytes")
    return {
        "durability.wal_bytes_per_update": _per(wal_bytes, updates),
        "durability.wal_bytes_per_payload_byte": _per(wal_bytes, payload_bytes),
        "durability.fsyncs_per_update": _per(mark.total("durability.fsyncs"),
                                             updates),
        "durability.fsync_ms.p50":
            percentile(mark.samples("durability.fsync"), 50) * 1e3,
        "durability.snapshot_ms_per_update":
            _per(sum(mark.samples("durability.snapshot")), updates) * 1e3,
        "durability.snapshots": mark.total("durability.snapshots"),
    }


def overhead(traced, untraced) -> float:
    """``trace_overhead``: traced over untraced time per update, minus 1
    (the traced pass replays the untraced pass's chunks, unless its
    wall deadline stops it first)."""
    return ((traced.timed / traced.updates)
            / (untraced.timed / untraced.updates) - 1.0)


def attribution(summary: Dict[str, dict], wall: float) -> float:
    """``unattributed_share``: what no wrapper's self time covers."""
    covered = sum(entry["self"] for entry in summary.values())
    return 1.0 - covered / wall if wall else 0.0


def complete(measured: Dict[str, float]) -> Tuple[Dict[str, Tuple[float, str]],
                                                   List[str]]:
    """Every per-layer name with its unit; absent ones read 0."""
    unknown = set(measured) - set(UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    out, not_run = {}, []
    for name, unit in PER_LAYER:
        if name not in measured:
            not_run.append(name)
        out[name] = (float(measured.get(name, 0.0)), unit)
    return out, not_run
