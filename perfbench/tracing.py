"""Span recording for the traced run.

The benchmark never edits the program: in traced mode it replaces
layer entry points with wrappers from this file, and puts the
originals back afterwards.  Each wrapped call records a span
``[name, start, end, parent, update_id, extra]`` in a per-thread list;
``parent`` is the index of the enclosing wrapped call on the same
thread.  A span's *self* time is its duration minus the time its child
spans cover.  Span names start with the layer they measure
(``pipeline.``, ``verify.``, ``crypto.`` ...), so self times add up by
layer, and ``1 - sum(self) / wall`` is what no wrapper covers.

Wrappers record only while :attr:`SpanRecorder.active` is set, so the
generator's own signing and the checks after a run stay out of the
figures.
"""

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, UPDATE_ID, EXTRA = range(6)


class SpanRecorder:
    """Installs wrappers and keeps their spans in memory."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[list] = []
        self._patches: List[tuple] = []
        #: Exact counts from count-only wrappers: name -> [calls, sum].
        self.counts: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.get_ident(), spans))
        return spans, local.stack

    def _span_wrapper(self, name: str, original: Callable,
                      update_id: Optional[Callable],
                      extra: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        recorder = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            spans, stack = recorder._thread_state()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      update_id(args) if update_id is not None else None,
                      None]
            stack.append(len(spans))
            spans.append(record)
            after = extra(args, kwargs) if extra is not None else None
            record[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
                if after is not None:
                    record[EXTRA] = after()

        return wrapped

    def _count_wrapper(self, name: str, original: Callable,
                       amount: Callable) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if recorder.active:
                entry = recorder.counts[name]
                entry[0] += 1
                entry[1] += amount(args, kwargs)
            return original(*args, **kwargs)

        return wrapped

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapped: Callable) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapped)

    def span(self, owner, attr: str, name: str,
             update_id: Optional[Callable] = None,
             extra: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a class method or module function).

        ``update_id(args)`` names the update a call serves;
        ``extra(args, kwargs)`` runs before the call and returns a
        zero-argument callable whose value is stored on the span after
        it (for exact counts such as rows visited).
        """
        original = getattr(owner, attr)
        self._patch(owner, attr,
                    self._span_wrapper(name, original, update_id, extra))

    def span_everywhere(self, module, attr: str, name: str,
                        extra: Optional[Callable] = None) -> None:
        """Wrap a function at its home module and at every loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        wrapped = self._span_wrapper(name, original, None, extra)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                self._patch(loaded, attr, wrapped)

    def count(self, owner, attr: str, name: str,
              amount: Callable = lambda args, kwargs: 1) -> None:
        """Count calls (and sum ``amount``) without recording spans."""
        original = getattr(owner, attr)
        self._patch(owner, attr, self._count_wrapper(name, original, amount))

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        self.active = False
        while self._patches:
            owner, attr, previous, own = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # -- read-out ------------------------------------------------------------

    def spans(self, skip_thread: Optional[int] = None) -> List[list]:
        """Every span of every thread (but ``skip_thread``), with
        ``parent`` made global."""
        out = []
        for ident, spans in self._threads:
            if ident == skip_thread:
                continue
            offset = len(out)
            for record in spans:
                copy = list(record)
                if copy[PARENT] >= 0:
                    copy[PARENT] += offset
                out.append(copy)
        return out


def summarize(spans: List[list], window=None) -> Dict[str, dict]:
    """Per span name: calls, self and inclusive seconds, summed extras.

    With ``window=(start, end)``, only spans starting inside it count.
    """
    child = [0.0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            child[parent] += record[END] - record[START]
    out: Dict[str, dict] = {}
    for index, record in enumerate(spans):
        if window is not None and not (window[0] <= record[START] < window[1]):
            continue
        entry = out.get(record[NAME])
        if entry is None:
            entry = out[record[NAME]] = {
                "calls": 0, "self": 0.0, "incl": 0.0, "extra": 0.0}
        duration = record[END] - record[START]
        entry["calls"] += 1
        entry["incl"] += duration
        entry["self"] += duration - child[index]
        if record[EXTRA] is not None:
            entry["extra"] += record[EXTRA]
    return out


def calls_outside(spans: List[list], name: str, enclosing: str) -> int:
    """Spans named ``name`` with no ``enclosing`` span among their
    ancestors."""
    count = 0
    for record in spans:
        if record[NAME] != name:
            continue
        parent = record[PARENT]
        while parent >= 0 and spans[parent][NAME] != enclosing:
            parent = spans[parent][PARENT]
        if parent < 0:
            count += 1
    return count


def layer_shares(summary: Dict[str, dict], wall: float) -> Dict[str, float]:
    """Self time per layer (the span-name prefix) as a share of ``wall``."""
    shares: Dict[str, float] = defaultdict(float)
    for name, entry in summary.items():
        shares[name.split(".", 1)[0]] += entry["self"] / wall if wall else 0.0
    return dict(sorted(shares.items()))


# -- the wrapper set ----------------------------------------------------------


def _ctx_update_id(args):
    return args[1].update.update_id


def install_core(recorder: SpanRecorder) -> None:
    """Wrap the in-process layers: pipeline, verify, crypto, encoding,
    database, ledger, consensus, replicated and sharded."""
    import repro.core.framework  # noqa: F401  (load every importer first)
    import repro.core.replicated as replicated
    import repro.core.sharded as sharded
    import repro.serve.server  # noqa: F401
    from repro.common import encoding
    from repro.consensus.driver import ReplicationDriver
    from repro.core import pipeline, routing
    from repro.core.verifiers import PaillierVerifier
    from repro.crypto import signatures
    from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
    from repro.database.engine import Database
    from repro.ledger.central import CentralLedger
    from repro.model.constraints import AggregateSpec, Constraint

    # pipeline stages (repro.core.pipeline)
    for cls, name, methods in (
            (pipeline.AuthStage, "pipeline.auth", ("run_one", "run_batch")),
            (pipeline.RouteStage, "pipeline.route", ("run_one",)),
            (pipeline.VerifyStage, "pipeline.verify", ("run_one", "run_batch")),
            (pipeline.DurabilityStage, "pipeline.wal", ("run_one",)),
            (pipeline.DurabilityStage, "pipeline.commit", ("commit",)),
            (pipeline.ApplyStage, "pipeline.apply", ("run_one",)),
            (pipeline.AnchorStage, "pipeline.anchor", ("run_one", "run_batch"))):
        for method in methods:
            recorder.span(cls, method, name,
                          update_id=_ctx_update_id if method == "run_one" else None)
    recorder.count(pipeline.Pipeline, "run_decided_batch", "pipeline.batch",
                   amount=lambda args, kwargs: len(args[1]))

    # verify: routing, the aggregate cache, reference scans, engines
    recorder.span_everywhere(routing, "check_constraint", "verify.check")
    recorder.span(Constraint, "check", "verify.check")
    recorder.span(routing.BatchAggregateCache, "current", "verify.cache")
    recorder.span(routing.BatchAggregateCache, "note_applied", "verify.cache")

    def rows_scanned(args, kwargs):
        spec, databases, table = args[0], args[1], args[2]
        if spec.window is not None:
            return None  # a range-indexed window visits a subset
        rows = sum(len(database.table(table)) for database in databases)
        return lambda: rows

    recorder.span(AggregateSpec, "evaluate_over", "verify.scan",
                  extra=rows_scanned)
    recorder.span(PaillierVerifier, "verify", "verify.engine")

    # crypto: Schnorr provenance and Paillier
    recorder.span_everywhere(
        signatures, "verify_batch", "crypto.schnorr_batch",
        extra=lambda args, kwargs: (lambda n=len(args[0]): n))
    recorder.span(signatures.SchnorrVerifier, "verify", "crypto.schnorr_one")
    recorder.span(PaillierPublicKey, "encrypt_signed", "crypto.paillier_encrypt")
    recorder.span(PaillierPrivateKey, "decrypt_signed", "crypto.paillier_decrypt")

    # encoding, database, ledger
    recorder.span_everywhere(encoding, "encode_canonical", "encoding.encode")
    for method in ("insert", "update", "delete"):
        recorder.span(Database, method, "database.apply")
    recorder.span(CentralLedger, "append", "ledger.append",
                  extra=lambda args, kwargs: (lambda: 1))
    recorder.span(CentralLedger, "append_batch", "ledger.append",
                  extra=lambda args, kwargs: (lambda n=len(args[1]): n))

    # consensus, replicated, sharded
    def sim_clock(args, kwargs):
        cluster = getattr(args[0], "cluster", None)
        if cluster is None:
            return None  # the local driver has no network
        clock = cluster.network.clock
        start = clock.now()
        return lambda: clock.now() - start

    recorder.span(ReplicationDriver, "propose_batch", "consensus.propose",
                  extra=sim_clock)
    recorder.span(ReplicationDriver, "encode_batch", "consensus.codec")
    recorder.span(ReplicationDriver, "decode_batch", "consensus.codec")
    recorder.span(replicated.ReplicatedShard, "submit_many",
                  "replicated.submit")
    recorder.span(sharded.ShardedPReVer, "submit_many", "sharded.dispatch")


def install_serve(recorder: SpanRecorder) -> None:
    """Wrap the wire codec (server side of ``repro.serve.protocol``)."""
    from repro.serve import protocol

    recorder.span(protocol, "decode_payload", "serve.decode_frame")
    recorder.span(protocol, "update_from_wire", "serve.decode_update")
    recorder.span(protocol, "result_to_wire", "serve.encode_result")
    recorder.span(protocol, "encode_frame", "serve.encode_frame")
