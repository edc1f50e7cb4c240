"""Process-backed shard workers: stateful task pinning for scale-out.

Process shards are the only multicore path: in-node execution is
serial.  A shard is a long-lived stateful ``PReVer`` (tables, ledger
Merkle frontier, WAL handles, engine caches), so its state must live
in exactly one process for its whole lifetime.

:class:`ShardWorker` provides that pinning by construction: each
worker owns a *dedicated single-process* ``ProcessPoolExecutor``, so
every task submitted through it lands in the same child process.  The
child builds the framework once (from a picklable builder callable)
into a module-level registry, and subsequent calls look it up by key —
no framework state ever crosses the process boundary; only updates go
in and :class:`~repro.core.outcome.UpdateResult` lists, digests, and
report dicts come back.

A worker is also the process shard's whole surface: any public name
it does not define itself (``submit_many``, ``digest``, ``recover``,
``health_report``, ...) is the child framework's method of that name,
forwarded through :meth:`ShardWorker.call`.

Used by :class:`repro.core.sharded.ShardedPReVer` under
``dispatch="process"``; everything here is dispatch plumbing, the
sharding semantics live there.
"""

import atexit
import functools
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Dict, List

from repro.common.errors import PReVerError

#: Child-process-side registry: shard key -> the built framework.  One
#: ShardWorker's pool has exactly one process, so each child sees only
#: its own shard's entry.
_STATE: Dict[str, object] = {}


def _shard_build(key: str, builder: Callable[[], object]) -> bool:
    """(child) Build the shard's framework into the registry."""
    _STATE[key] = builder()
    return True


def _shard_method(key: str, method: str, args: tuple, kwargs: dict):
    """(child) Call a public framework method and return its result."""
    return getattr(_STATE[key], method)(*args, **kwargs)


_LIVE_WORKERS: List["ShardWorker"] = []


def _shutdown_workers() -> None:
    while _LIVE_WORKERS:
        _LIVE_WORKERS.pop().close()


atexit.register(_shutdown_workers)


class ShardWorker:
    """One shard pinned to one dedicated child process.

    The pool has ``max_workers=1``, so every call routes to the same
    process and the framework built by ``builder`` stays resident
    there.  ``builder`` must be picklable (a top-level function or a
    ``functools.partial`` over one) and must construct the shard's
    entire framework — databases, constraints, durability — inside the
    child; nothing built in the parent is shipped over.
    """

    def __init__(self, key: str, builder: Callable[[], object]):
        self.key = key
        self._pool = ProcessPoolExecutor(max_workers=1)
        self._closed = False
        try:
            self._pool.submit(_shard_build, key, builder).result()
        except Exception as exc:
            self._pool.shutdown(wait=False, cancel_futures=True)
            raise PReVerError(
                f"shard {key!r} failed to build in its worker: {exc}"
            ) from exc
        _LIVE_WORKERS.append(self)

    def call(self, method: str, *args, **kwargs):
        """Run a framework method in the shard's process, blocking."""
        return self.call_async(method, *args, **kwargs).result()

    def call_async(self, method: str, *args, **kwargs) -> Future:
        """Run a framework method in the shard's process; returns the
        future so batches fan out across shards concurrently."""
        if self._closed:
            raise PReVerError(f"shard worker {self.key!r} is shut down")
        return self._pool.submit(_shard_method, self.key, method, args, kwargs)

    def __getattr__(self, name: str):
        """Any other public name is the shard framework's method of
        that name, forwarded through :meth:`call`."""
        if name.startswith("_"):
            raise AttributeError(name)
        return functools.partial(self.call, name)

    def close(self) -> None:
        """Close the shard framework (WAL flush) and kill the child;
        idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.submit(
                _shard_method, self.key, "close", (), {}
            ).result(timeout=30)
        except Exception:
            pass  # the child may already be gone (crash tests)
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self in _LIVE_WORKERS:
            _LIVE_WORKERS.remove(self)
