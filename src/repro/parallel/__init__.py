"""Multicore scale-out: process-pinned shard workers.

In-node execution is serial: every pipeline stage, including the
crypto (Paillier, Schnorr, Merkle), runs inline in the calling thread.
A host's other cores are used by running shards in their own processes
(``ShardedPReVer(dispatch="process")``), each shard a long-lived
:class:`ShardWorker` child holding its own ``PReVer``.
"""

from repro.parallel.shards import ShardWorker

__all__ = ["ShardWorker"]
