"""Modular-exponentiation acceleration layer.

Every hot ``pow(base, exp, mod)`` in the crypto stack routes through
this module, which provides three things:

1. **A pluggable fast-math backend.**  ``gmpy2`` (GMP bindings) is
   auto-detected and used for ``powmod`` / ``invert`` when importable;
   otherwise the pure-python implementations run.  Selection is
   overridable with ``REPRO_MATH_BACKEND=auto|gmpy2|python`` (or
   :func:`set_backend` in tests).  Both backends are value-identical —
   the equivalence property tests in ``tests/test_crypto_backend.py``
   pin ``powmod`` / ``invert`` agreement on randomized inputs — so the
   backend choice can never change a decision, digest, or WAL byte.

2. **Fixed-base windowed exponentiation** (:class:`FixedBaseTable`,
   :func:`fixed_base`).  For a long-lived base (a Schnorr group
   generator, a cached public key, an ElGamal ``y``) a one-time table
   of ``base^(d << w*i)`` turns every subsequent exponentiation into
   ~``bits/window`` modular multiplications with *no squarings* —
   measurably faster than CPython's C ``pow`` even from pure python
   (~3-5x at 256 bits with the default window).  Tables live in a
   bounded per-process cache: each process (a process shard, say)
   builds its own lazily, so nothing here is ever pickled.

3. **Simultaneous multi-exponentiation** (:func:`multi_exp`,
   Straus/interleaved).  ``Π base_i^{e_i} mod m`` over many pairs
   shares one squaring chain across every base, roughly halving the
   cost of the Schnorr random-linear-combination combined check and
   weighted ciphertext folds relative to independent ``pow`` calls.

The kernels are backend-aware: under gmpy2 the inner multiply loops
run on ``mpz`` limbs; under pure python they run on CPython longs.
Either way the returned values are plain ``int``.
"""

import os
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import PReVerError

_ENV_BACKEND = "REPRO_MATH_BACKEND"

#: Default window width for fixed-base tables.  8 bits ⇒ one
#: multiplication per exponent byte and ``ceil(bits/8) * 256`` cached
#: entries per table (~256 KiB at 256-bit moduli) — the sweet spot
#: measured for pure python; see docs/OPERATIONS.md for the tradeoff.
DEFAULT_FIXED_BASE_WINDOW = 8

#: Window width for Straus interleaved multi-exponentiation (its
#: per-base tables are transient, so a small window wins).
DEFAULT_MULTI_EXP_WINDOW = 4

#: Fixed-base tables are built on the *second* sighting of a base by
#: default (``warm=False``), so one-shot verifications never pay the
#: table build; :data:`_FB_TABLE_CAP` bounds per-process table memory.
_FB_TABLE_CAP = 256
_FB_SEEN_CAP = 4096


class MathBackendError(PReVerError):
    """Unknown or unavailable math backend requested."""


def _egcd(a: int, b: int) -> Tuple[int, int]:
    """Extended Euclid restricted to what inversion needs: (g, x) with
    ``a*x ≡ g (mod b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    return old_r, old_s


class PythonBackend:
    """Pure-python (CPython bigint) implementations — always available."""

    name = "python"

    #: Identity wrapper: kernels run their inner loops on ``wrap``-ed
    #: values (``mpz`` under gmpy2), plain ints here.
    wrap = staticmethod(int)

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent % modulus`` (CPython's C implementation)."""
        return pow(base, exponent, modulus)

    @staticmethod
    def invert(a: int, modulus: int) -> int:
        """Modular inverse; raises ``ValueError`` when not invertible."""
        g, x = _egcd(a % modulus, modulus)
        if g != 1:
            raise ValueError(f"{a} is not invertible modulo {modulus}")
        return x % modulus

    @staticmethod
    def mulmod(a: int, b: int, modulus: int) -> int:
        """``a * b % modulus``."""
        return a * b % modulus


class Gmpy2Backend:
    """GMP-accelerated implementations via ``gmpy2``.

    Results are converted back to plain ``int`` so downstream
    serialization, hashing, and equality are type-stable regardless of
    the backend in effect.
    """

    name = "gmpy2"

    def __init__(self, gmpy2):
        self._gmpy2 = gmpy2
        self.wrap = gmpy2.mpz

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def invert(self, a: int, modulus: int) -> int:
        try:
            return int(self._gmpy2.invert(a, modulus))
        except ZeroDivisionError:
            raise ValueError(f"{a} is not invertible modulo {modulus}") from None

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return int(self._gmpy2.mpz(a) * b % modulus)


_PYTHON_BACKEND = PythonBackend()


def _load_gmpy2() -> Optional[Gmpy2Backend]:
    try:
        import gmpy2  # noqa: F401 — optional accelerator, never a hard dep
    except ImportError:
        return None
    return Gmpy2Backend(gmpy2)


def _resolve(name: Optional[str]):
    name = (name or "auto").strip().lower() or "auto"
    if name == "python":
        return _PYTHON_BACKEND
    if name == "gmpy2":
        backend = _load_gmpy2()
        if backend is None:
            raise MathBackendError(
                "REPRO_MATH_BACKEND=gmpy2 but gmpy2 is not importable; "
                "install gmpy2 or use auto/python"
            )
        return backend
    if name == "auto":
        return _load_gmpy2() or _PYTHON_BACKEND
    raise MathBackendError(f"unknown math backend {name!r}")


_ACTIVE = None


def active_backend():
    """The backend in effect (resolving ``REPRO_MATH_BACKEND`` once)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve(os.environ.get(_ENV_BACKEND))
    return _ACTIVE


def backend_name() -> str:
    """Name of the active backend (``python`` or ``gmpy2``)."""
    return active_backend().name


def set_backend(name: Optional[str] = None) -> str:
    """Force a backend (``python`` / ``gmpy2`` / ``auto``; ``None``
    re-resolves the environment).  Clears the fixed-base table cache so
    subsequent tables build on the new backend.  Returns the name of
    the backend now in effect."""
    global _ACTIVE
    _ACTIVE = _resolve(name if name is not None
                       else os.environ.get(_ENV_BACKEND))
    clear_fixed_base_cache()
    return _ACTIVE.name


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` through the active backend."""
    return active_backend().powmod(base, exponent, modulus)


def invert(a: int, modulus: int) -> int:
    """Modular inverse through the active backend.  Raises
    ``ValueError`` when ``a`` is not invertible."""
    return active_backend().invert(a, modulus)


def mulmod(a: int, b: int, modulus: int) -> int:
    """``a * b % modulus`` through the active backend."""
    return active_backend().mulmod(a, b, modulus)


# -- fixed-base windowed exponentiation --------------------------------------

class FixedBaseTable:
    """Precomputed powers of one base: ``rows[i][d] = base^(d << w*i)``.

    :meth:`pow` then needs only one table lookup and one modular
    multiplication per ``window``-bit digit of the exponent — no
    squarings at all.  Exponents wider than ``max_bits`` fall back to
    the backend ``powmod`` (correct, just unaccelerated).
    """

    __slots__ = ("base", "modulus", "window", "max_bits", "_rows", "_mask")

    def __init__(self, base: int, modulus: int, max_bits: int,
                 window: int = DEFAULT_FIXED_BASE_WINDOW):
        if modulus <= 0:
            raise ValueError("fixed-base table needs a positive modulus")
        if max_bits <= 0 or window <= 0:
            raise ValueError("max_bits and window must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_bits = max_bits
        self._mask = (1 << window) - 1
        wrap = active_backend().wrap
        mod = wrap(modulus)
        size = 1 << window
        rows = []
        base_power = wrap(self.base)
        for _ in range((max_bits + window - 1) // window):
            row = [wrap(1)] * size
            for d in range(1, size):
                row[d] = row[d - 1] * base_power % mod
            rows.append(row)
            # base^(1 << w*(i+1)) = row[-1] * base_power.
            base_power = row[size - 1] * base_power % mod
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` for ``exponent >= 0``."""
        if exponent < 0:
            raise ValueError("fixed-base exponent must be non-negative")
        if exponent >> self.max_bits:
            return powmod(self.base, exponent, self.modulus)
        mod = self.modulus
        acc = 1
        window, mask, rows = self.window, self._mask, self._rows
        i = 0
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * rows[i][digit] % mod
            exponent >>= window
            i += 1
        return int(acc % mod)

    @property
    def entries(self) -> int:
        """Cached table entries (memory cost ≈ entries × modulus size)."""
        return len(self._rows) << self.window


class _PowmodFallback:
    """Same ``.pow`` surface as :class:`FixedBaseTable` without a
    table — what :func:`fixed_base` hands out for a base it has only
    seen once (building a table for a one-shot base costs more than it
    saves)."""

    __slots__ = ("base", "modulus")

    def __init__(self, base: int, modulus: int):
        self.base = base
        self.modulus = modulus

    def pow(self, exponent: int) -> int:
        if exponent < 0:
            raise ValueError("fixed-base exponent must be non-negative")
        return powmod(self.base, exponent, self.modulus)


_FB_TABLES: "OrderedDict[tuple, FixedBaseTable]" = OrderedDict()
_FB_SEEN: "OrderedDict[tuple, int]" = OrderedDict()


def fixed_base(base: int, modulus: int, max_bits: int,
               window: int = DEFAULT_FIXED_BASE_WINDOW,
               warm: bool = False):
    """A cached fixed-base object for ``(base, modulus)``.

    ``warm=True`` builds the table immediately (for bases known to be
    long-lived: group generators, engine public keys).  Otherwise the
    first sighting returns a plain-``powmod`` fallback and the table is
    built from the second sighting on, so one-shot bases never pay the
    build cost.  The cache is per-process and LRU-bounded; process
    shards each grow their own (tables are never pickled).
    """
    key = (base, modulus)
    table = _FB_TABLES.get(key)
    if table is not None:
        _FB_TABLES.move_to_end(key)
        return table
    if not warm:
        seen = _FB_SEEN.get(key, 0) + 1
        if seen < 2:
            _FB_SEEN[key] = seen
            while len(_FB_SEEN) > _FB_SEEN_CAP:
                _FB_SEEN.popitem(last=False)
            return _PowmodFallback(base, modulus)
        _FB_SEEN.pop(key, None)
    table = FixedBaseTable(base, modulus, max_bits, window=window)
    _FB_TABLES[key] = table
    while len(_FB_TABLES) > _FB_TABLE_CAP:
        _FB_TABLES.popitem(last=False)
    return table


def clear_fixed_base_cache() -> None:
    """Drop every cached fixed-base table (tests and backend flips)."""
    _FB_TABLES.clear()
    _FB_SEEN.clear()


def fixed_base_cache_stats() -> dict:
    """Cache occupancy, for diagnostics and the bench artifact."""
    return {
        "tables": len(_FB_TABLES),
        "pending": len(_FB_SEEN),
        "entries": sum(t.entries for t in _FB_TABLES.values()),
    }


# -- simultaneous multi-exponentiation ---------------------------------------

def multi_exp(pairs: Sequence[Tuple[int, int]], modulus: int,
              window: int = DEFAULT_MULTI_EXP_WINDOW) -> int:
    """``Π base^exponent mod modulus`` (Straus interleaved).

    One shared squaring chain covers every base, with a transient
    ``2^window``-entry digit table per base — about half the cost of
    independent ``pow`` calls for the Schnorr RLC shape, from either
    backend.  Exponents must be non-negative (they may exceed the
    group order: callers like the RLC check rely on *unreduced*
    exponents).  An empty product is ``1 % modulus``.
    """
    if modulus <= 0:
        raise ValueError("multi_exp needs a positive modulus")
    wrap = active_backend().wrap
    mod = wrap(modulus)
    tables: List[Tuple[list, int]] = []
    max_bits = 0
    for base, exponent in pairs:
        if exponent < 0:
            raise ValueError("multi_exp exponents must be non-negative")
        if exponent == 0:
            continue
        wrapped = wrap(base % modulus)
        size = 1 << window
        row = [wrap(1)] * size
        for d in range(1, size):
            row[d] = row[d - 1] * wrapped % mod
        tables.append((row, exponent))
        bits = exponent.bit_length()
        if bits > max_bits:
            max_bits = bits
    if not tables:
        return 1 % modulus
    if len(tables) == 1:
        row, exponent = tables[0]
        return powmod(int(row[1]), exponent, modulus)
    mask = (1 << window) - 1
    n_windows = (max_bits + window - 1) // window
    acc = wrap(1)
    for i in range(n_windows - 1, -1, -1):
        if i != n_windows - 1:
            for _ in range(window):
                acc = acc * acc % mod
        shift = i * window
        for row, exponent in tables:
            digit = (exponent >> shift) & mask
            if digit:
                acc = acc * row[digit] % mod
    return int(acc)
