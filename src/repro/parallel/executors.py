"""The in-node executor name, kept for callers that still pass one.

In-node execution has one mode: every stage runs inline in the calling
thread.  Multicore scale-out is process shards
(``ShardedPReVer(dispatch="process")``).  :func:`make_executor` exists
only so ``PReVer(executor=make_executor("serial"))`` keeps working; it
names that one mode and refuses every other.
"""

from repro.common.errors import PReVerError

#: The value ``make_executor("serial")`` returns.
_SERIAL = "serial"


def make_executor(kind: str) -> str:
    """The serial executor; any other ``kind`` raises
    :class:`PReVerError`."""
    if kind != _SERIAL:
        raise PReVerError(
            f"unknown executor kind {kind!r}: in-node execution is serial; "
            "use ShardedPReVer(dispatch='process') for multicore"
        )
    return _SERIAL
