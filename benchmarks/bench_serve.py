"""Serving-tier load: sustained throughput and tail latency under
hundreds of concurrent closed-loop clients.

Boots a real ``PReVerServer`` (wire protocol, Schnorr session auth,
bounded admission, batching scheduler) and drives it with ``--clients``
simulated producers, each running a closed loop: connect, authenticate,
then submit updates one at a time, waiting for each decision (and
honouring RETRY backpressure) before sending the next.  Per-request
latency is measured client-side, so RETRY backoff is *included* — the
reported tail is what a producer actually experiences under
saturation.

After the run the served decision stream is **replayed in-process**:
the same update objects, ordered by their served ledger sequence, go
through one ``submit_many`` on a freshly built identical framework,
and the bench asserts every decision and the final anchored root are
identical — the serving tier is transport, not semantics.

Reported per row: sustained throughput (updates/s), client-observed
p50/p99 latency, RETRY count, batches, mean coalesced batch size and
the accept ratio (3 in 4 at the default 4 updates per producer).
Everything lands in ``BENCH_serve.json`` (``--out``).  Standalone:

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
        [--clients N] [--updates-per-client N] [--batch-window S]
        [--max-batch N] [--queue-limit N] [--durability {off,wal}]
        [--out PATH]
"""

import argparse
import asyncio
import json
import math
import tempfile
import time

from repro.core.contexts import single_private_database
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.durability import Durability
from repro.model.constraints import upper_bound_regulation
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation
from repro.serve.client import ServeClient
from repro.serve.server import PReVerServer

from _report import print_table

#: Per-org cap: with co2=30 per update the fourth update of every
#: producer is rejected, so the replay equality check covers both
#: decision branches, not just a stream of accepts.
CAP = 100
CO2 = 30


def build_framework(durability=None):
    db = Database("mgr")
    db.create_table(TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    ))
    regulation = upper_bound_regulation(
        "cap", "emissions", "co2", CAP, ["org"])
    # Deterministic id so the served framework and the in-process
    # replay anchor byte-identical decision records.
    regulation.constraint_id = "cst-serve-cap"
    return single_private_database(db, [regulation], engine="plaintext",
                                   durability=durability)


def make_updates(producer, n, first_id):
    """``n`` signed inserts for ``producer`` with row ids
    ``first_id..first_id+n-1``; producers get disjoint id ranges, so
    no update fails apply on a duplicate key."""
    return [
        Update(table="emissions", operation=UpdateOperation.INSERT,
               payload={"id": first_id + i, "org": producer.name,
                        "co2": CO2},
               update_id=f"upd-{producer.name}-{i:05d}").sign_with(producer)
        for i in range(n)
    ]


def percentile(samples, pct):
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


async def run_load(framework, producers, updates_per_client, *,
                   batch_window, max_batch, queue_limit):
    """Drive the closed loop; returns (served_results, latencies, secs)."""
    server = PReVerServer(
        framework, batch_window=batch_window, max_batch=max_batch,
        queue_limit=queue_limit,
        producers={p.name: p.public_key for p in producers})
    await server.start()
    host, port = server.address
    latencies = []
    served = []

    async def one_client(index, producer):
        updates = make_updates(producer, updates_per_client,
                               first_id=index * updates_per_client)
        async with await ServeClient.connect(
                host, port, producer=producer) as client:
            for update in updates:
                start = time.perf_counter()
                result = await client.submit(update, retries=10_000)
                latencies.append(time.perf_counter() - start)
                served.append(result)
        return updates

    start = time.perf_counter()
    all_updates = await asyncio.gather(
        *[one_client(i, p) for i, p in enumerate(producers)])
    elapsed = time.perf_counter() - start
    await server.stop()
    updates_by_id = {u.update_id: u
                     for updates in all_updates for u in updates}
    return served, latencies, elapsed, updates_by_id


def assert_transport_transparency(framework, served, updates_by_id):
    """Replay the served stream in-process; decisions and root must match."""
    ordered = sorted(served, key=lambda r: r.ledger_sequence)
    replay = build_framework()
    replayed = replay.submit_many(
        [updates_by_id[r.update_id] for r in ordered])
    for served_result, replay_result in zip(ordered, replayed):
        assert served_result.update_id == replay_result.update.update_id
        assert served_result.accepted == replay_result.outcome.accepted, (
            f"served decision for {served_result.update_id} diverged")
        assert served_result.applied == replay_result.applied
    served_root = framework.ledger.digest().root
    replay_root = replay.ledger.digest().root
    assert served_root == replay_root, (
        "served and in-process anchored roots differ — the serving tier "
        "changed semantics")
    return served_root


def run_once(args, durability=None, label="serve"):
    framework = build_framework(durability=durability)
    producers = [DataProducer(f"org-{i:04d}") for i in range(args.clients)]
    served, latencies, elapsed, updates_by_id = asyncio.run(run_load(
        framework, producers, args.updates_per_client,
        batch_window=args.batch_window, max_batch=args.max_batch,
        queue_limit=args.queue_limit))
    total = args.clients * args.updates_per_client
    assert len(served) == total, f"{len(served)}/{total} decisions returned"
    root = assert_transport_transparency(framework, served, updates_by_id)
    framework.close()
    metrics = framework.metrics
    batches = metrics.counter_value("server.batches")
    accepted = sum(1 for r in served if r.applied)
    return {
        "label": label,
        "clients": args.clients,
        "updates": total,
        "seconds": round(elapsed, 4),
        "throughput_ups": round(total / elapsed, 1),
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "retries": metrics.counter_value("server.retries"),
        "batches": batches,
        "mean_batch": round(total / batches, 1) if batches else 0.0,
        "accepted": accepted,
        "rejected": total - accepted,
        "accept_ratio": round(accepted / total, 4),
        "root": root.hex(),
        "root_equal": True,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="serving-tier closed-loop load benchmark")
    parser.add_argument("--clients", type=int, default=200,
                        help="simulated concurrent producers (default 200)")
    parser.add_argument("--updates-per-client", type=int, default=4)
    parser.add_argument("--batch-window", type=float, default=0.005,
                        help="coalescing window seconds (default 0.005)")
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument("--queue-limit", type=int, default=1024,
                        help="pending-update cap before RETRY (default 1024)")
    parser.add_argument("--durability", choices=["off", "wal"],
                        default="off",
                        help="wal = Durability.serving(): one group-commit "
                             "fsync per coalesced batch")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: 200 clients x 2 updates")
    args = parser.parse_args(argv)
    if args.smoke:
        args.updates_per_client = 2

    rows = []
    if args.durability == "wal":
        with tempfile.TemporaryDirectory(prefix="bench-serve-") as state:
            rows.append(run_once(
                args, durability=Durability.serving(state),
                label="serve+wal"))
    else:
        rows.append(run_once(args, label="serve"))

    print_table(
        "serving tier: closed-loop load "
        f"({args.clients} clients x {args.updates_per_client} updates)",
        ["label", "updates", "ups", "p50 ms", "p99 ms", "retries",
         "batches", "mean batch", "accept", "root=="],
        [[r["label"], r["updates"], r["throughput_ups"], r["p50_ms"],
          r["p99_ms"], r["retries"], r["batches"], r["mean_batch"],
          r["accept_ratio"], r["root_equal"]] for r in rows])

    artifact = {
        "bench": "serve",
        "config": {k: v for k, v in vars(args).items() if k != "out"},
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
