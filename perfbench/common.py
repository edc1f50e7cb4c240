"""Shared pieces of the benchmark: the seeded generator, the reference
model that predicts every decision, the host block and small stats
helpers.

Every workload regulates one table shape, ``(id INT, org TEXT,
amount INT)`` keyed by ``id``, with one aggregate constraint:
``SUM(amount) per org <= CAP``.  About a quarter of the updates are
rejected by design: some carry a single contribution larger than the
cap, the rest land on a few hot orgs whose running total has reached
it.  Every update id and row id is unique.
"""

import gc
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Per-org cap of the one regulation every workload registers.
CAP = 1_000_000
#: Contributions: cold orgs stay far below the cap for any run length
#: the benchmark can reach; hot contributions fill an empty group in
#: about seven accepts; oversize contributions alone exceed the cap.
COLD_AMOUNT = (1, 100)
HOT_AMOUNT = (CAP // 10, CAP // 5)
OVERSIZE_AMOUNT = (CAP + 1, CAP + 1000)


def require_source_tree() -> None:
    """Put ``src`` on the import path, or exit non-zero without a
    result when the checkout holds no program to measure."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- the stream design and its reference model ---------------------------


@dataclass(frozen=True)
class Design:
    """How one workload's stream is drawn.

    ``oversize`` and ``hot`` are shares of INSERTs; ``modify`` and
    ``delete`` are shares of the whole stream.  ``hot_headroom`` is how
    far below the cap each hot org starts (0: already at the cap, so
    every hot insert is rejected whatever the arrival order).
    """

    tables: Tuple[str, ...]
    orgs: int
    hot_orgs: int
    oversize: float
    hot: float
    modify: float = 0.0
    delete: float = 0.0
    hot_headroom: int = CAP

    def designed_accept_ratio(self) -> float:
        """Accepted share the stream is drawn for (hot headroom aside)."""
        inserts = 1.0 - self.modify - self.delete
        return 1.0 - inserts * (self.oversize + self.hot)


def table_schema(name: str):
    """The one table shape every workload uses."""
    from repro.database.schema import ColumnType, TableSchema

    return TableSchema.build(
        name,
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("amount", ColumnType.INT)],
        primary_key=["id"],
    )


def cap_constraint(table: str):
    """``SUM(amount) per org <= CAP`` on ``table``, with a pinned id so
    rebuilt and replayed frameworks anchor identical decisions."""
    from repro.model.constraints import (
        Constraint,
        ConstraintKind,
        upper_bound_regulation,
    )

    template = upper_bound_regulation("cap", table, "amount", CAP, ["org"])
    return Constraint(
        name="cap", kind=ConstraintKind.INTERNAL,
        aggregate=template.aggregate, comparison=template.comparison,
        bound=CAP, tables=(table,), constraint_id=f"cst-{table}-cap",
    )


def org_name(index: int) -> str:
    return f"org{index:03d}"


def is_hot(design: Design, org_index: int) -> bool:
    """Hot orgs are the first ``hot_orgs`` of each table."""
    return org_index < design.hot_orgs


class ReferenceModel:
    """Predicts every decision from per-group running totals.

    Mirrors ``Constraint.check`` for the one SUM constraint: the
    group's current SUM plus the payload's own contribution, compared
    with the cap, then applied the way the database applies it.  An
    INSERT of a live key, or a MODIFY/DELETE of a missing one, is an
    apply failure and so a rejection.
    """

    def __init__(self, cap: int = CAP):
        self.cap = cap
        self.totals: Dict[Tuple[str, str], int] = {}
        self.rows: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def load(self, table: str, row: dict) -> None:
        """Account for a preloaded row."""
        group = (table, row["org"])
        self.totals[group] = self.totals.get(group, 0) + row["amount"]
        self.rows[(table, row["id"])] = (row["org"], row["amount"])

    def decide(self, table: str, operation: str, key: Optional[int],
               payload: dict) -> bool:
        """The decision the framework must reach; applies it if accepted."""
        group = (table, payload.get("org"))
        current = self.totals.get(group, 0)
        contribution = payload.get("amount") or 0
        if current + contribution > self.cap:
            return False
        if operation == "insert":
            row_key = (table, payload["id"])
            if row_key in self.rows:
                return False
            self.rows[row_key] = (payload["org"], payload["amount"])
            self.totals[group] = current + payload["amount"]
            return True
        row_key = (table, key)
        if row_key not in self.rows:
            return False
        org, amount = self.rows.pop(row_key)
        self.totals[(table, org)] -= amount
        if operation == "modify":
            merged_org = payload.get("org", org)
            merged_amount = payload.get("amount", amount)
            self.rows[row_key] = (merged_org, merged_amount)
            merged = (table, merged_org)
            self.totals[merged] = self.totals.get(merged, 0) + merged_amount
        return True


class Generator:
    """The seeded stream every workload draws from.

    ``preload`` rows and the update stream both come from one RNG, so
    one seed gives one table and one stream.  The model is advanced
    with each drawn update, so MODIFY/DELETE always target keys that
    are live at that point of the stream, and only keys of cold orgs.
    """

    def __init__(self, seed: int, design: Design, prefix: str = "u"):
        self.rng = random.Random(seed)
        self.design = design
        self.model = ReferenceModel()
        self.next_id = 0
        self.prefix = prefix
        self.count = 0
        # Live cold keys per table, for O(1) random pick and removal.
        self._live: Dict[str, List[int]] = {t: [] for t in design.tables}
        self._where: Dict[Tuple[str, int], int] = {}

    def _track(self, table: str, row_id: int) -> None:
        live = self._live[table]
        self._where[(table, row_id)] = len(live)
        live.append(row_id)

    def _untrack(self, table: str, row_id: int) -> None:
        live = self._live[table]
        slot = self._where.pop((table, row_id))
        last = live.pop()
        if last != row_id:
            live[slot] = last
            self._where[(table, last)] = slot

    def preload(self, rows_per_table: int) -> Dict[str, List[dict]]:
        """Rows spread evenly over the orgs; each hot org's rows sum to
        ``CAP - hot_headroom``."""
        design = self.design
        out: Dict[str, List[dict]] = {}
        base, extra = divmod(rows_per_table, design.orgs)
        hot_total = CAP - design.hot_headroom
        for table in design.tables:
            rows = []
            for i in range(rows_per_table):
                org_index = i % design.orgs
                if is_hot(design, org_index):
                    count = base + (1 if org_index < extra else 0)
                    amount = hot_total // count
                    if i == org_index:  # the org's first row takes the rest
                        amount += hot_total % count
                else:
                    amount = self.rng.randint(*COLD_AMOUNT)
                row = {"id": self.next_id, "org": org_name(org_index),
                       "amount": amount}
                self.next_id += 1
                rows.append(row)
                self.model.load(table, row)
                if not is_hot(design, org_index):
                    self._track(table, row["id"])
            out[table] = rows
        return out

    def draw(self):
        """One update spec: ``(table, operation, key, payload, update_id,
        expected)``."""
        design = self.design
        rng = self.rng
        table = design.tables[rng.randrange(len(design.tables))]
        roll = rng.random()
        operation, key, org_index = "insert", None, None
        if roll < design.modify + design.delete and self._live[table]:
            live = self._live[table]
            key = live[rng.randrange(len(live))]
            org, _ = self.model.rows[(table, key)]
            if roll < design.modify:
                operation = "modify"
                payload = {"org": org, "amount": rng.randint(*COLD_AMOUNT)}
            else:
                operation = "delete"
                payload = {"org": org}
                self._untrack(table, key)
        else:
            kind = rng.random()
            if kind < design.oversize:
                org_index = rng.randrange(design.orgs)
                amount = rng.randint(*OVERSIZE_AMOUNT)
            elif kind < design.oversize + design.hot:
                org_index = rng.randrange(design.hot_orgs)
                amount = rng.randint(*HOT_AMOUNT)
            else:
                org_index = design.hot_orgs + rng.randrange(
                    design.orgs - design.hot_orgs)
                amount = rng.randint(*COLD_AMOUNT)
            payload = {"id": self.next_id, "org": org_name(org_index),
                       "amount": amount}
            self.next_id += 1
        update_id = f"{self.prefix}-{self.count:07d}"
        self.count += 1
        expected = self.model.decide(table, operation, key, payload)
        if expected and org_index is not None and not is_hot(design, org_index):
            self._track(table, payload["id"])
        return table, operation, key, payload, update_id, expected

    def updates(self, n: int, producer=None):
        """``n`` fresh :class:`Update` objects (signed when ``producer``
        is given) and their expected decisions."""
        from repro.model.update import Update, UpdateOperation

        out, expected = [], []
        for _ in range(n):
            table, operation, key, payload, update_id, accept = self.draw()
            update = Update(
                table=table, operation=UpdateOperation(operation),
                payload=payload, key=(key,) if key is not None else None,
                update_id=update_id,
            )
            if producer is not None:
                update.sign_with(producer)
            out.append(update)
            expected.append(accept)
        return out, expected


def chunk_source(gen: Generator, size: int, producer=None, flip=None):
    """A zero-argument callable drawing the next chunk of ``size``
    updates; ``flip`` inverts the model's expectation for the N-th
    update of the stream (the self-test's proof that checks fire)."""
    drawn = [0]

    def draw():
        updates, expected = gen.updates(size, producer)
        position = flip - drawn[0] if flip is not None else -1
        if 0 <= position < size:
            expected[position] = not expected[position]
        drawn[0] += size
        return updates, expected

    return draw


# -- host, state directories, statistics -----------------------------------


def state_root() -> str:
    """Scratch space for WALs and spans, inside the checkout."""
    path = os.path.join(ROOT, ".perfbench_state")
    os.makedirs(path, exist_ok=True)
    return path


def fresh_state_dir(tag: str) -> str:
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=state_root())


def remove_state_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def fsync_profile(directory: str, samples: int = 64) -> Tuple[float, float]:
    """fsync p50/p99 in ms of 4 KiB appends on ``directory``'s filesystem."""
    path = os.path.join(directory, "fsync-probe")
    timings = []
    with open(path, "wb") as fh:
        block = b"\0" * 4096
        for _ in range(samples):
            fh.write(block)
            fh.flush()
            start = time.perf_counter()
            os.fsync(fh.fileno())
            timings.append(time.perf_counter() - start)
    os.remove(path)
    return percentile(timings, 50) * 1e3, percentile(timings, 99) * 1e3


def host_block(seed: int) -> dict:
    """What a result row needs to be compared only with its own host."""
    from repro.crypto import backend

    probe = fresh_state_dir("host")
    try:
        fsync_p50, fsync_p99 = fsync_profile(probe)
    finally:
        remove_state_dir(probe)
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "modexp_backend": backend.backend_name(),
        "fsync_p50_ms": fsync_p50,
        "fsync_p99_ms": fsync_p99,
        "seed": seed,
        # Every build pins the serial executor; these would still steer
        # the profiler and any default the program reads from them.
        "repro_env": {name: value for name, value in sorted(os.environ.items())
                      if name.startswith("REPRO_")},
    }


def serial_executor():
    """The in-process executor every deployment pins, so no
    ``REPRO_EXECUTOR`` setting moves a workload onto a process pool."""
    from repro.parallel.executors import make_executor

    return make_executor("serial")


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile, the definition ``repro.common.metrics``
    uses; kept here so a change to the program cannot move the
    benchmark's own statistics."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class DecisionCheck:
    """Compares returned decisions with the reference model's."""

    def __init__(self):
        self.compared = 0
        self.mismatches = 0
        self.accepted = 0
        self.first_mismatch: Optional[str] = None

    def compare(self, update_id: str, accepted: bool, expected: bool) -> bool:
        self.compared += 1
        if accepted:
            self.accepted += 1
        if accepted != expected:
            self.mismatches += 1
            if self.first_mismatch is None:
                self.first_mismatch = (
                    f"{update_id}: got {'accept' if accepted else 'reject'}, "
                    f"model says {'accept' if expected else 'reject'}")
            return False
        return True

    @property
    def accept_ratio(self) -> float:
        return self.accepted / self.compared if self.compared else 0.0


@dataclass
class ChunkRun:
    """Timings of one in-process phase of ``submit_many`` chunks."""

    timed: float = 0.0
    updates: int = 0
    chunks: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    payload_bytes: int = 0
    rss_mb: float = 0.0


def run_chunks(submit, draw_chunk, check: DecisionCheck, *,
               seconds: Optional[float] = None,
               chunks: Optional[int] = None,
               deadline: Optional[float] = None,
               recorder=None, rss_after: int = 0) -> ChunkRun:
    """Submit chunks until ``seconds`` of submit time, ``chunks`` chunks
    or the wall ``deadline``, whichever comes first.

    Only the ``submit`` calls are timed (and traced): drawing and
    signing the next chunk happens with the clock stopped.  Every
    returned decision is compared with the reference model; a missing
    result is a failure.  ``rss_mb`` is the peak RSS once ``rss_after``
    updates are done (or at the end), so it measures a fixed amount of
    work however fast the program runs.
    """
    from repro.common.encoding import encode_canonical_bytes

    run = ChunkRun()
    clock = time.perf_counter
    while True:
        if seconds is not None and run.timed >= seconds:
            break
        if chunks is not None and run.chunks >= chunks:
            break
        if deadline is not None and clock() >= deadline:
            break
        updates, expected = draw_chunk()
        run.payload_bytes += sum(len(encode_canonical_bytes(u.payload))
                                 for u in updates)
        if recorder is not None:
            recorder.active = True
        start = clock()
        results = submit(updates)
        elapsed = clock() - start
        if recorder is not None:
            recorder.active = False
        run.timed += elapsed
        run.latencies.append(elapsed)
        run.chunks += 1
        run.updates += len(updates)
        if not run.rss_mb and run.updates >= rss_after:
            run.rss_mb = peak_rss_mb()
        if len(results) != len(updates):
            run.failed += len(updates)
            continue
        for update, result, accept in zip(updates, results, expected):
            if result.update.update_id != update.update_id or not \
                    check.compare(update.update_id, result.applied, accept):
                run.failed += 1
    if not run.rss_mb:
        run.rss_mb = peak_rss_mb()
    return run


# -- the in-process workloads' two runs -------------------------------------


class Deployment:
    """One built deployment of an in-process workload.

    ``target`` has ``submit_many`` and ``metrics`` (``PReVer`` or
    ``ShardedPReVer``).  Subclasses say how to discard it between
    set-ups, what to check after the run, and what they add to the
    traced run's per-layer metrics.
    """

    def __init__(self, target):
        self.target = target
        self.mark = None
        self.notes: Dict[str, object] = {}

    def discard(self) -> None:
        """Close and forget a set-up that will not be measured."""
        self.target.close()

    def finish(self) -> Tuple[Dict[str, bool], Dict[str, float]]:
        """Close after the run; the deployment checks, and any measured
        values the checks produce (per-layer names)."""
        raise NotImplementedError

    def begin_trace(self) -> None:
        """Called just before the traced phase."""
        import layers

        self.mark = layers.RegistryMark(self.target.metrics)

    def traced_metrics(self, spans: list, phase: "ChunkRun") -> Dict[str, float]:
        """Workload-specific per-layer values, read before ``finish``."""
        return {}


def run_inprocess(stream, *, seconds: float, trace: bool, tiny: bool,
                  setups: int, rss_after: int, design: Design) -> Outcome:
    """One run of an in-process workload.

    ``stream()`` returns ``(deploy, draw)``: a zero-argument builder of
    a :class:`Deployment` and a chunk source (see ``chunk_source``).
    Untraced, the deployment is built ``setups`` times, about half
    before the timed phase (the last of those is measured) and the rest
    after it; ``setup_s`` is their median.  Chunks are submitted for
    ``seconds``.  Traced, an untraced half-length pass gives the wall
    the traced pass is compared with, and the traced pass replays the
    same chunks from the same seed with the wrappers installed.
    """
    if trace:
        return _run_traced(stream, seconds, tiny, design)
    deploy, draw = stream()
    before = 1 if tiny else setups - setups // 2
    deployment, setup_times = _set_up(deploy, before)
    gc.collect()
    check = DecisionCheck()
    phase = run_chunks(deployment.target.submit_many, draw, check,
                       seconds=seconds,
                       deadline=time.perf_counter() + 3 * seconds,
                       rss_after=rss_after)
    checks, extras = deployment.finish()
    if not tiny:
        last, more = _set_up(deploy, setups // 2)
        last.discard()
        setup_times += more
    latencies_ms = [t * 1e3 for t in phase.latencies]
    return Outcome(
        metrics={
            "throughput_ups": (phase.updates / phase.timed, "updates/s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (phase.rss_mb, "MiB"),
        },
        attempted=phase.updates, failed=phase.failed,
        checks={"decisions": check.mismatches == 0, **checks},
        notes={
            "chunk_latency_ms": {"p50": percentile(latencies_ms, 50),
                                 "p99": percentile(latencies_ms, 99),
                                 "samples": len(latencies_ms)},
            "setup_samples_s": setup_times,
            "accept_ratio": check.accept_ratio,
            "designed_accept_ratio": design.designed_accept_ratio(),
            "first_mismatch": check.first_mismatch,
            **extras,
        })


def _set_up(deploy, count: int):
    """Build ``count`` deployments, timing each; all but the last are
    discarded.  ``run_inprocess`` sets up before and after the timed
    phase, so ``setup_s`` samples the host over the whole run."""
    times, deployment = [], None
    for _ in range(count):
        if deployment is not None:
            deployment.discard()
            deployment = None
            gc.collect()
        start = time.perf_counter()
        deployment = deploy()
        times.append(time.perf_counter() - start)
    return deployment, times


def _run_traced(stream, seconds, tiny, design) -> Outcome:
    import layers
    import tracing

    deploy, draw = stream()
    deployment = deploy()
    gc.collect()
    baseline = run_chunks(deployment.target.submit_many, draw,
                          DecisionCheck(), seconds=seconds / 2,
                          deadline=time.perf_counter() + 1.5 * seconds)
    deployment.discard()

    deploy, draw = stream()
    deployment = deploy()
    recorder = tracing.SpanRecorder()
    tracing.install_core(recorder)
    deployment.begin_trace()
    check = DecisionCheck()
    gc.collect()
    try:
        phase = run_chunks(deployment.target.submit_many, draw, check,
                           chunks=baseline.chunks, recorder=recorder,
                           deadline=time.perf_counter() + 2 * seconds)
    finally:
        recorder.uninstall()
    spans = recorder.spans()
    summary = tracing.summarize(spans)
    measured = layers.span_metrics(summary, spans, recorder.counts,
                                   phase.updates)
    measured.update({
        "verify.accept_ratio": check.accept_ratio,
        "error_ratio": phase.failed / phase.updates,
        "unattributed_share": layers.attribution(summary, phase.timed),
        "trace_overhead": layers.overhead(phase, baseline),
    })
    measured.update(deployment.traced_metrics(spans, phase))
    checks, extras = deployment.finish()
    measured.update(extras)
    metrics, not_run = layers.complete(measured)
    return Outcome(
        metrics=metrics, attempted=phase.updates, failed=phase.failed,
        checks={"decisions": check.mismatches == 0, **checks},
        notes={
            "not_run": not_run,
            "layer_shares": tracing.layer_shares(summary, phase.timed),
            "designed_accept_ratio": design.designed_accept_ratio(),
            "first_mismatch": check.first_mismatch,
            **deployment.notes,
        })
