"""``serve``: the socket serving tier under closed-loop load.

A ``PReVerServer`` with ``ServeConfig`` defaults runs on a
``ServerThread`` in the benchmark's own process, over a plaintext
``PReVer`` with ``require_signed_updates=True`` and
``Durability.serving()``, preloaded with 5,000 rows over 64 orgs.  The
load generator is one asyncio loop on the main thread with two
authenticated ``ServeClient`` connections, one producer each, over an
INSERT-only stream signed before the clock starts.

* Timed phase (both runs), closed loop: each connection keeps one
  SUBMIT_MANY of ``max_batch`` (256) updates in flight, 512 updates
  across both, for ``--seconds`` seconds; it gives ``throughput_ups``.
* Open loop (traced run only): single-update SUBMITs at 50 updates/s,
  1,000 requests, before the closed loop.  Latency runs from each
  request's *due* time to its decision, RETRY back-off included; the
  untraced pass prints its p50/p99 as notes, and the traced pass gives
  the ``serve.batch_*`` figures of one-update batches.

Why: the only workload that runs the wire codec, session auth,
admission and the coalescing scheduler.  In the open loop a batch
holds about one update, so per-batch fixed costs show (one fsync and
one table scan per update); the closed loop shows their amortization
at full batches.

Server and generator share one process: in two processes on a 2-CPU
host shared with other tenants, closed-loop throughput moved 20-50%
between runs of one commit.  ``peak_rss_mb`` is therefore the
benchmark process, which hosts the framework and the signed stream.
With 512 single-update SUBMITs in flight instead of two SUBMIT_MANYs,
admission on the event loop starves while the pipeline thread runs a
batch, and batch sizes alternate between full and a few updates.

The generator freezes its own heap (``gc.freeze``) once the stream is
signed, so collections never rescan it.  Hot orgs start exactly at the
cap, so every decision is independent of how the two connections'
requests interleave, and the reference model predicts each one.
"""

import asyncio
import gc
import threading
import time
from collections import deque

from common import (
    DecisionCheck,
    Design,
    Generator,
    Outcome,
    cap_constraint,
    fresh_state_dir,
    median,
    peak_rss_mb,
    percentile,
    remove_state_dir,
    serial_executor,
    table_schema,
)

TABLE = "emissions"
DESIGN = Design(tables=(TABLE,), orgs=64, hot_orgs=2, oversize=0.10,
                hot=0.15, hot_headroom=0)
PRELOAD = 5_000
OPEN_RATE = 50.0
OPEN_REQUESTS = 1_000
#: ``ServeConfig().max_batch``: one closed-loop request per connection.
REQUEST_UPDATES = 256
CONNECTIONS = 2
#: Closed-loop pool: signed ahead at this many updates per second of
#: the phase (several times the seed's capacity); a faster server ends
#: the phase early rather than waiting on signing.
POOL_RATE = 1_500
#: ``peak_rss_mb`` is read once this many closed-loop updates are done.
RSS_AFTER = 4_096
RETRIES = 200
SETUPS = 15
TINY = {"preload": 500, "open_requests": 30, "pool": 4 * REQUEST_UPDATES}


def build(state_dir: str, seed: int, tiny: bool = False):
    """The served deployment, preloaded (also the replay reference)."""
    from repro.core.framework import PReVer
    from repro.database.engine import Database
    from repro.durability import Durability

    rows = Generator(seed, DESIGN).preload(
        TINY["preload"] if tiny else PRELOAD)[TABLE]
    database = Database("mgr")
    database.create_table(table_schema(TABLE))
    framework = PReVer([database], require_signed_updates=True,
                       durability=Durability.serving(state_dir),
                       executor=serial_executor())
    framework.register_constraint(cap_constraint(TABLE))
    for row in rows:
        database.insert(TABLE, row)
    return framework


class Stream:
    """Both phases' signed updates and their expected decisions.

    Hot orgs sit at the cap and cold orgs stay far below it, so the
    model's predictions hold in any arrival order.  ``flip`` inverts
    the expectation of the N-th drawn update.
    """

    def __init__(self, seed: int, seconds: float, tiny: bool,
                 open_loop: bool, flip=None):
        from repro.model.participants import DataProducer

        gen = Generator(seed, DESIGN, prefix="srv")
        gen.preload(TINY["preload"] if tiny else PRELOAD)
        self.producers = [DataProducer(f"producer-{i}")
                          for i in range(CONNECTIONS)]
        n_open = 0
        if open_loop:
            n_open = TINY["open_requests"] if tiny else OPEN_REQUESTS
        n_pool = TINY["pool"] if tiny else round(POOL_RATE * seconds)
        self.expected = {}
        self.by_id = {}
        self.order = []
        self.open = [(i % CONNECTIONS, self._draw(gen, i % CONNECTIONS))
                     for i in range(n_open)]
        self.pools = [deque() for _ in range(CONNECTIONS)]
        for i in range(n_pool):
            self.pools[i % CONNECTIONS].append(
                self._draw(gen, i % CONNECTIONS))
        if flip is not None:
            update_id = self.order[flip]
            self.expected[update_id] = not self.expected[update_id]
        gc.collect()
        gc.freeze()

    def _draw(self, gen, connection):
        (update,), (accept,) = gen.updates(1, self.producers[connection])
        self.expected[update.update_id] = accept
        self.by_id[update.update_id] = update
        self.order.append(update.update_id)
        return update


class Load:
    """Client-side record of one load run."""

    def __init__(self):
        self.results = {}  # update_id -> ServeResult
        self.sent = 0
        self.failed = 0
        self.latencies = []
        self.lateness = []
        self.closed_wall = 0.0
        self.closed_done = 0
        self.window = (0.0, 0.0)
        self.rss_mb = 0.0


async def _submit(client, updates, load: Load):
    """One SUBMIT (one update) or SUBMIT_MANY; returns the results, or
    None when the request failed (every update in it counts)."""
    from repro.common.errors import PReVerError

    load.sent += len(updates)
    try:
        if len(updates) == 1:
            results = [await client.submit(updates[0], retries=RETRIES)]
        else:
            results = await client.submit_many(updates, retries=RETRIES)
    except PReVerError:
        load.failed += len(updates)  # ERROR, exhausted retries, dead link
        return None
    if len(results) != len(updates):
        load.failed += len(updates)
        return None
    for result in results:
        load.results[result.update_id] = result
    return results


async def _open_loop(clients, stream: Stream, load: Load) -> None:
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    tasks = []

    async def one(client, update, due):
        if await _submit(client, [update], load) is not None:
            load.latencies.append(clock() - due)

    start = clock() + 0.05
    for i, (connection, update) in enumerate(stream.open):
        due = start + i / OPEN_RATE
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        load.lateness.append(max(0.0, clock() - due))
        tasks.append(loop.create_task(one(clients[connection], update, due)))
    await asyncio.gather(*tasks)


async def _closed_loop(clients, stream: Stream, load: Load, *,
                       seconds=None, total=None) -> None:
    """One SUBMIT_MANY in flight per connection, until ``seconds`` pass,
    ``total`` updates were sent, or the signed pool runs dry."""
    clock = time.perf_counter
    start = clock()
    sent = [0]
    finish = [start]

    async def connection_loop(connection):
        pool = stream.pools[connection]
        while len(pool) >= REQUEST_UPDATES:
            if seconds is not None and clock() - start >= seconds:
                return
            if total is not None and sent[0] >= total:
                return
            updates = [pool.popleft() for _ in range(REQUEST_UPDATES)]
            sent[0] += len(updates)
            results = await _submit(clients[connection], updates, load)
            if results is not None:
                load.closed_done += len(results)
                finish[0] = max(finish[0], clock())
                if not load.rss_mb and load.closed_done >= RSS_AFTER:
                    load.rss_mb = peak_rss_mb()

    await asyncio.gather(*[connection_loop(c) for c in range(CONNECTIONS)])
    load.closed_wall = finish[0] - start
    load.window = (start, finish[0])
    if not load.rss_mb:
        load.rss_mb = peak_rss_mb()


class Served:
    """One set-up: the framework, its server thread and the clients."""

    def __init__(self, seed: int, tiny: bool):
        from repro.serve.server import ServerThread

        self.state_dir = fresh_state_dir("serve")
        self.framework = build(self.state_dir, seed, tiny)
        self.server = ServerThread(self.framework).start()
        self.clients = []

    async def connect(self, producers) -> None:
        from repro.serve.client import ServeClient

        host, port = self.server.address
        for producer in producers:
            self.clients.append(await ServeClient.connect(
                host, port, producer=producer))

    async def stop(self) -> None:
        """Close the clients, drain and stop the server, close the
        framework (its ledger and registry stay readable)."""
        for client in self.clients:
            await client.close()
        self.server.close()
        self.framework.close()


class Drive:
    """Everything one load run leaves for the checks and the metrics."""

    def __init__(self, load, framework, setup_times, ready, phase):
        self.load = load
        self.framework = framework
        self.setup_times = setup_times
        self.ready = ready  # registry mark before the first phase
        self.phase = phase  # registry mark between the two phases


async def _set_up(seed, tiny, stream, count: int):
    """Set up ``count`` times, timing each; all but the last are
    stopped."""
    times, served = [], None
    for _ in range(count):
        if served is not None:
            await served.stop()
            remove_state_dir(served.state_dir)
            served = None
            gc.collect()
        start = time.perf_counter()
        served = Served(seed, tiny)
        try:
            await served.connect(stream.producers)
        except BaseException:
            await served.stop()
            remove_state_dir(served.state_dir)
            raise
        times.append(time.perf_counter() - start)
    return served, times


async def _drive(seed, tiny, stream, *, setups, recorder=None,
                 closed_seconds=None, closed_total=None) -> Drive:
    """Set up, run the open loop when the stream has one, then the
    closed loop, and stop.  Of ``setups`` set-ups about half come
    before the load (the last of those serves it) and the rest after,
    so ``setup_s`` samples the host over the whole run."""
    import layers

    served, setup_times = await _set_up(seed, tiny, stream,
                                        setups - setups // 2)
    registry = served.framework.metrics
    load = Load()
    try:
        gc.collect()
        ready = layers.RegistryMark(registry)
        if recorder is not None:
            recorder.active = True
        await _open_loop(served.clients, stream, load)
        phase = layers.RegistryMark(registry)
        await _closed_loop(served.clients, stream, load,
                           seconds=closed_seconds, total=closed_total)
        if recorder is not None:
            recorder.active = False
    finally:
        await served.stop()
        remove_state_dir(served.state_dir)
    if setups > 1:
        last, more = await _set_up(seed, tiny, stream, setups // 2)
        await last.stop()
        remove_state_dir(last.state_dir)
        setup_times += more
    return Drive(load, served.framework, setup_times, ready, phase)


def _check(stream: Stream, drive: Drive, seed: int, tiny: bool):
    """Compare every served decision with the model, then replay the
    served stream in-process in ledger order: every decision and the
    final root must match."""
    load = drive.load
    check = DecisionCheck()
    failed = load.failed
    for update_id, result in load.results.items():
        if not check.compare(update_id, result.applied,
                             stream.expected[update_id]):
            failed += 1
    served = sorted(load.results.values(), key=lambda r: r.ledger_sequence)
    state_dir = fresh_state_dir("replay")
    try:
        replay = build(state_dir, seed, tiny)
        replayed = replay.submit_many([stream.by_id[r.update_id]
                                       for r in served])
        replay.close()
    finally:
        remove_state_dir(state_dir)
    same = all(s.update_id == r.update.update_id and s.applied == r.applied
               for s, r in zip(served, replayed))
    ledger = drive.framework.ledger
    checks = {
        "decisions": check.mismatches == 0,
        "replay_decisions": same and len(replayed) == len(served),
        "replay_root": (replay.ledger.digest().root.hex()
                        == ledger.digest().root.hex()),
        "ledger_size": len(ledger) == len(served),
    }
    return check, failed, checks


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        flip=None) -> Outcome:
    """One run; ``flip`` inverts the model's N-th expected decision."""
    if trace:
        return _run_traced(seed, seconds, tiny, flip)
    stream = Stream(seed, seconds, tiny, open_loop=False, flip=flip)
    try:
        drive = asyncio.run(_drive(seed, tiny, stream,
                                   setups=1 if tiny else SETUPS,
                                   closed_seconds=seconds))
    finally:
        gc.unfreeze()
    check, failed, checks = _check(stream, drive, seed, tiny)
    load = drive.load
    return Outcome(
        metrics={
            "throughput_ups":
                (load.closed_done / load.closed_wall, "updates/s"),
            "setup_s": (median(drive.setup_times), "s"),
            "peak_rss_mb": (load.rss_mb, "MiB"),
        },
        attempted=load.sent, failed=failed, checks=checks,
        notes={
            "closed_loop_updates": load.closed_done,
            "closed_loop_batches": drive.phase.total("server.batches"),
            "setup_samples_s": drive.setup_times,
            "accept_ratio": check.accept_ratio,
            "designed_accept_ratio": DESIGN.designed_accept_ratio(),
            "first_mismatch": check.first_mismatch,
        })


def _run_traced(seed, seconds, tiny, flip) -> Outcome:
    import layers
    import tracing
    from repro.common.encoding import encode_canonical_bytes

    # Pass 1, untraced: open-loop latency, and the closed-loop wall to
    # compare with.
    stream = Stream(seed, seconds, tiny, open_loop=True, flip=flip)
    try:
        baseline = asyncio.run(_drive(seed, tiny, stream, setups=1,
                                      closed_seconds=seconds / 2)).load
    finally:
        gc.unfreeze()
    latencies_ms = [t * 1e3 for t in baseline.latencies]

    # Pass 2, traced: the same stream, the same closed-loop count.
    stream = Stream(seed, seconds, tiny, open_loop=True, flip=flip)
    recorder = tracing.SpanRecorder()
    tracing.install_core(recorder)
    tracing.install_serve(recorder)
    try:
        drive = asyncio.run(_drive(seed, tiny, stream, setups=1,
                                   recorder=recorder,
                                   closed_total=baseline.closed_done))
    finally:
        recorder.uninstall()
        gc.unfreeze()
    check, failed, checks = _check(stream, drive, seed, tiny)
    load, ready, phase = drive.load, drive.ready, drive.phase

    # The generator's own calls (client-side codec) run on this thread.
    spans = recorder.spans(skip_thread=threading.get_ident())
    summary = tracing.summarize(spans)
    window = tracing.summarize(spans, window=load.window)
    served = len(load.results)
    measured = layers.span_metrics(summary, spans, recorder.counts, served)
    payload_bytes = sum(len(encode_canonical_bytes(stream.by_id[u].payload))
                        for u in load.results)
    measured.update(layers.durability_metrics(ready, served, payload_bytes))
    requests = ready.total("server.requests")
    frames = layers.calls(summary, "serve.decode_frame")
    replies = layers.calls(summary, "serve.encode_frame")
    closed_batches = phase.total("server.batches")
    measured.update({
        "serve.decode_us_per_frame": (layers.self_s(
            summary, "serve.decode_frame", "serve.decode_update")
            / frames * 1e6 if frames else 0.0),
        "serve.encode_us_per_frame": (layers.self_s(
            summary, "serve.encode_result", "serve.encode_frame")
            / replies * 1e6 if replies else 0.0),
        "serve.retry_ratio":
            ready.total("server.retries") / requests if requests else 0.0,
        "serve.batch_wait_ms.p50": percentile(
            ready.samples("server.batch_wait", until=phase), 50) * 1e3,
        "serve.batch_wait_ms.p99": percentile(
            ready.samples("server.batch_wait", until=phase), 99) * 1e3,
        "serve.batch_ms.p50": percentile(
            ready.samples("server.batch", until=phase), 50) * 1e3,
        "serve.batch_size.mean":
            (phase.total("server.batched_updates") / closed_batches
             if closed_batches else 0.0),
        "serve.pipelined_batches": ready.total("server.pipelined_batches"),
        "serve.gen_late_p99_ms": percentile(load.lateness, 99) * 1e3,
        "verify.accept_ratio": check.accept_ratio,
        "error_ratio": failed / load.sent,
        "unattributed_share": layers.attribution(window, load.closed_wall),
        "trace_overhead": (load.closed_wall / load.closed_done)
        / (baseline.closed_wall / baseline.closed_done) - 1.0,
    })
    metrics, not_run = layers.complete(measured)
    return Outcome(
        metrics=metrics, attempted=load.sent, failed=failed, checks=checks,
        notes={
            "not_run": not_run,
            "open_loop_latency_ms": {
                "p50": percentile(latencies_ms, 50),
                "p99": percentile(latencies_ms, 99),
                "samples": len(latencies_ms)},
            "layer_shares_closed_loop":
                tracing.layer_shares(window, load.closed_wall),
            "served_updates": served,
            "designed_accept_ratio": DESIGN.designed_accept_ratio(),
            "first_mismatch": check.first_mismatch,
        })
