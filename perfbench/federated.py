"""``federated``: two Paxos-replicated Paillier shards over a WAN.

In-process, one thread.  ``ShardedPReVer`` with two shards, one table
each, and ``consensus=ReplicationPlan(kind="paxos", replicas=3,
profile="wan")``; every replica verifies with a ``PaillierVerifier``
(default key size, no ``precompute``).  The stream is unsigned and
INSERT-only over 64 orgs per shard, sent through ``submit_many`` in
chunks of 128 that span both shards.  Paillier keeps ciphertext
aggregates rather than scanning rows, so no table is preloaded; the
hot orgs reach the cap during the run.

Why: the only workload that runs consensus ordering, the simulated
network, replica replay, shard dispatch and Paillier encrypt/decrypt.
It runs no table scans, no WAL and no wire protocol, so a verify-scan
or serve-tier change should leave it unmoved.
"""

import functools

from common import (
    Deployment,
    Design,
    Generator,
    cap_constraint,
    chunk_source,
    percentile,
    run_inprocess,
    serial_executor,
    table_schema,
)

SHARDS = 2
TABLES = tuple(f"ledger{i}" for i in range(SHARDS))
DESIGN = Design(tables=TABLES, orgs=64, hot_orgs=4, oversize=0.10, hot=0.15)
CHUNK = 128
#: ``peak_rss_mb`` is read once this many updates are decided.
RSS_AFTER = 8_192
SETUPS = 25
TINY_CHUNK = 32
#: ``PaillierVerifier``'s default key size.
KEY_BITS = 256


def build_replica(shard: int, table: str):
    """One replica of shard ``shard``: a Paillier-verified framework.

    Its key comes from a prime search seeded by the shard's index, so
    every set-up tests the same candidates and ``setup_s`` measures the
    program, not the luck of an unseeded search.
    """
    from repro.common.randomness import DeterministicRandomSource
    from repro.core.framework import PReVer
    from repro.core.verifiers import PaillierVerifier
    from repro.crypto.paillier import generate_paillier_keypair
    from repro.database.engine import Database

    database = Database(f"shard{shard}")
    database.create_table(table_schema(table))
    constraint = cap_constraint(table)
    keypair = generate_paillier_keypair(
        KEY_BITS, rng=DeterministicRandomSource(shard))
    framework = PReVer([database], engine=PaillierVerifier(
        [constraint], keypair=keypair), executor=serial_executor())
    framework.constraints.append(constraint)
    return framework


def build():
    from repro.consensus.driver import ReplicationPlan
    from repro.core.sharded import ShardedPReVer, ShardSpec

    specs = [ShardSpec(f"shard{i}", (table,),
                       functools.partial(build_replica, i, table))
             for i, table in enumerate(TABLES)]
    return ShardedPReVer(specs, consensus=ReplicationPlan(
        kind="paxos", replicas=3, profile="wan"))


class Federated(Deployment):
    """The sharded, replicated deployment."""

    def __init__(self):
        super().__init__(build())

    def finish(self):
        """Every shard's replicas hold one root (``assert_converged``)."""
        from repro.common.errors import IntegrityError

        try:
            for shard in self.target.shards:
                shard.assert_converged()
            converged = True
        except IntegrityError:
            converged = False
        self.target.close()
        return {"replicas_converged": converged}, {}

    def begin_trace(self) -> None:
        super().begin_trace()
        self.before = self._cluster_totals()

    def traced_metrics(self, spans, phase):
        import tracing
        from repro.net.simnet import NETWORK_PROFILES

        after = self._cluster_totals()
        batches = after["decided"] - self.before["decided"]
        order_sim = [record[tracing.EXTRA] for record in spans
                     if record[tracing.NAME] == "consensus.propose"]
        replay = self.mark.samples("consensus.replay")
        wan = NETWORK_PROFILES["wan"]
        self.notes["simulated_network"] = {
            "profile": "wan", "base_latency_ms": wan.base_latency * 1e3,
            "jitter_ms": wan.jitter * 1e3,
            "order_sim_samples": len(order_sim)}
        return {
            "consensus.order_sim_ms.p50": percentile(order_sim, 50) * 1e3,
            "consensus.order_sim_ms.p99": percentile(order_sim, 99) * 1e3,
            "consensus.messages_per_batch":
                self.mark.total("net.messages") / batches if batches else 0.0,
            "consensus.attempts_per_batch":
                (after["submitted"] - self.before["submitted"]) / batches
                if batches else 0.0,
            "replicated.replay_ms_per_batch":
                sum(replay) * 1e3 / len(replay) if replay else 0.0,
        }

    def _cluster_totals(self) -> dict:
        """Proposals the shards' clusters were asked to decide, and
        batches decided, from the public ``consensus_report``."""
        report = self.target.consensus_report()
        shards = [report[spec.name] for spec in self.target.specs]
        return {"submitted": sum(s["cluster"]["total"] for s in shards),
                "decided": sum(s["decided"] for s in shards)}


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        flip=None):
    """One run; ``flip`` inverts the model's N-th expected decision."""

    def stream():
        gen = Generator(seed, DESIGN, prefix="fed")
        return Federated, chunk_source(gen, TINY_CHUNK if tiny else CHUNK,
                                       flip=flip)

    return run_inprocess(stream, seconds=seconds, trace=trace, tiny=tiny,
                         setups=SETUPS, rss_after=RSS_AFTER, design=DESIGN)
