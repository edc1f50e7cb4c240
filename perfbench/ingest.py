"""``ingest``: signed WAL ingest into a preloaded single-node table.

In-process, one thread, no server.  A plaintext ``PReVer`` with
``require_signed_updates=True`` and ``Durability.wal_with_snapshots``
at its default ``snapshot_every`` holds 20,000 rows over 256 orgs,
captured by a snapshot during setup.  The stream is 80% INSERT, 10%
MODIFY and 10% DELETE, sent through ``submit_many`` in chunks of 256.

Why: verify's full-table scans dominate here.  With uniform orgs a
chunk touches about 160 groups, so the batch aggregate cache misses,
and MODIFY/DELETE hit its clear-everything path.  Batch auth, WAL
append and snapshot, and anchoring all run at full batch size.
"""

import time

from common import (
    CAP,
    Deployment,
    Design,
    Generator,
    cap_constraint,
    chunk_source,
    fresh_state_dir,
    remove_state_dir,
    run_inprocess,
    serial_executor,
    table_schema,
)

TABLE = "emissions"
DESIGN = Design(tables=(TABLE,), orgs=256, hot_orgs=4, oversize=0.125,
                hot=0.1875, modify=0.10, delete=0.10, hot_headroom=CAP // 10)
PRELOAD = 20_000
CHUNK = 256
#: ``peak_rss_mb`` is read once this many updates are decided.
RSS_AFTER = 2_048
SETUPS = 9
TINY = {"preload": 1_000, "chunk": 64}


def build(state_dir: str, rows=None):
    """The deployment; with ``rows``, preloaded and snapshotted."""
    from repro.core.framework import PReVer
    from repro.database.engine import Database
    from repro.durability import Durability

    database = Database("mgr")
    database.create_table(table_schema(TABLE))
    framework = PReVer(
        [database], require_signed_updates=True,
        durability=Durability.wal_with_snapshots(state_dir),
        executor=serial_executor())
    framework.register_constraint(cap_constraint(TABLE))
    if rows is not None:
        for row in rows:
            database.insert(TABLE, row)
        framework.snapshot_now()
    return framework


class Ingest(Deployment):
    """The preloaded framework and its state directory."""

    def __init__(self, rows):
        self.state_dir = fresh_state_dir("ingest")
        super().__init__(build(self.state_dir, rows))

    def discard(self) -> None:
        self.target.close()
        remove_state_dir(self.state_dir)

    def finish(self):
        """After ``close()``, rebuild from the state directory and run
        ``recover()``: the recovered root must equal the last anchored
        root, and the row count must match."""
        framework = self.target
        framework.close()
        start = time.perf_counter()
        rebuilt = build(self.state_dir)
        report = rebuilt.recover()
        elapsed = time.perf_counter() - start
        table = rebuilt.databases[0].table(TABLE)
        checks = {
            "recover_root": (report.verified_against_anchor and
                             report.final_root
                             == framework.ledger.digest().root.hex()),
            "recover_rows":
                len(table) == len(framework.databases[0].table(TABLE)),
        }
        rebuilt.close()
        remove_state_dir(self.state_dir)
        return checks, {"durability.recover_ms": elapsed * 1e3}

    def traced_metrics(self, spans, phase):
        import layers

        return layers.durability_metrics(self.mark, phase.updates,
                                         phase.payload_bytes)


def run(seed: int, seconds: float, trace: bool, tiny: bool = False,
        flip=None):
    """One run; ``flip`` inverts the model's N-th expected decision
    (the self-test uses it to prove the decision check fires)."""
    from repro.model.participants import DataProducer

    def stream():
        gen = Generator(seed, DESIGN, prefix="ing")
        rows = gen.preload(TINY["preload"] if tiny else PRELOAD)[TABLE]
        draw = chunk_source(gen, TINY["chunk"] if tiny else CHUNK,
                            producer=DataProducer("producer-0"), flip=flip)
        return (lambda: Ingest(rows)), draw

    return run_inprocess(stream, seconds=seconds, trace=trace, tiny=tiny,
                         setups=SETUPS, rss_after=RSS_AFTER, design=DESIGN)
