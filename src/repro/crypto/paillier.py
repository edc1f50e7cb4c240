"""Paillier additively homomorphic encryption, from scratch.

PReVer's Research Challenge 1 calls for computing on encrypted data so
an untrusted data manager can verify constraints without seeing
plaintexts.  The constraints PReVer's applications need (COUNT/SUM
bounds, linear aggregates, sliding-window sums) are linear, and Paillier
supports exactly:

* ``Enc(a) * Enc(b) = Enc(a + b)``   (ciphertext multiplication)
* ``Enc(a) ^ k    = Enc(a * k)``     (scalar exponentiation)

Hot-path precomputation (the pipeline decrypts one aggregate per
update, so constant factors matter):

* keys cache everything derivable at construction — ``n²``, the
  Carmichael ``λ`` and classic ``μ``, and the CRT partial inverses
  ``hp``/``hq`` plus ``q⁻¹ mod p`` — so :meth:`PaillierPrivateKey.decrypt`
  is two half-size modular exponentiations and no inversions;
* :meth:`PaillierPublicKey.precompute_randomness` fills a pool of
  ``r^n mod n²`` obfuscators ahead of time (the classic offline/online
  split), so the online cost of :meth:`PaillierPublicKey.encrypt`
  drops to two modular multiplications.

Plaintexts are integers modulo ``n``; negative values are represented
in the upper half of the range (two's-complement style) and mapped back
by :meth:`decrypt_signed`.

Keys pickle as just their defining integers (``__reduce__``), so a
shard builder shipped to a process shard can carry its keypair while
the precomputed randomness pool — mutable, per-process state — never
crosses a process boundary.
"""

import math
from dataclasses import dataclass

from repro.common.errors import PReVerError
from repro.common.randomness import SystemRandomSource
from repro.crypto.backend import powmod
from repro.crypto.numbers import (
    generate_prime,
    lcm,
    modinv,
    random_coprime,
)

DEFAULT_KEY_BITS = 512


class PaillierError(PReVerError):
    """Raised on key/ciphertext misuse (mismatched keys, bad range)."""


def _obfuscate(n: int, n_sq: int, r: int) -> int:
    """``r^n mod n²`` — the one obfuscator exponentiation.

    Every encryption path (pool precompute, pool miss) funnels through
    here, so the fast-math backend applies uniformly and the formula
    exists in exactly one place.  Fixed-base
    tables do not help: the *base* ``r`` is fresh per call; only the
    exponent ``n`` is fixed.
    """
    return powmod(r, n, n_sq)


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public key: modulus n and generator g = n + 1."""

    n: int

    def __post_init__(self):
        # Frozen dataclass: stash derived values via object.__setattr__.
        # Equality/hash stay defined over ``n`` alone.
        object.__setattr__(self, "_n_sq", self.n * self.n)
        object.__setattr__(self, "_r_pool", [])
        object.__setattr__(self, "_r_pool_head", 0)

    def __reduce__(self):
        # Pickling-cheap key handle: another process reconstructs the
        # key from ``n`` alone and re-derives n².  The randomness pool
        # deliberately does not travel — it is mutable per-process
        # state, and sharing one pool across processes would both
        # reuse obfuscators (a security bug) and desynchronize the
        # deterministic drain order.  Pools are per-process.
        return (PaillierPublicKey, (self.n,))

    @property
    def n_squared(self) -> int:
        return self._n_sq

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def max_plaintext(self) -> int:
        return self.n - 1

    # -- precomputed-randomness pool (offline phase) ---------------------

    def precompute_randomness(self, count: int, rng=None) -> int:
        """Generate ``count`` obfuscators ``r^n mod n²`` ahead of time.

        This is the expensive part of encryption; banking it offline
        makes the online :meth:`encrypt` two multiplications.  Returns
        the resulting pool size.  A seeded ``rng`` yields a
        reproducible pool.  The pool belongs to *this* process: the
        key's pickled form excludes it.
        """
        rng = rng or SystemRandomSource()
        n, n_sq = self.n, self._n_sq
        self._r_pool.extend(_obfuscate(n, n_sq, random_coprime(n, rng=rng))
                            for _ in range(count))
        return self.randomness_pool_size

    @property
    def randomness_pool_size(self) -> int:
        return len(self._r_pool) - self._r_pool_head

    def _obfuscator(self, rng=None) -> int:
        """``r^n mod n²`` — pooled when available and no explicit rng
        was requested (an explicit rng means the caller wants control
        over the randomness, so the pool is bypassed).

        The pool drains FIFO via a head index: consumption order
        matches :meth:`precompute_randomness` generation order, so a
        seeded pool produces a deterministic ciphertext stream (the
        old LIFO ``pop()`` reversed it), and the drain is O(1) without
        list shifting.
        """
        if rng is None and self._r_pool_head < len(self._r_pool):
            head = self._r_pool_head
            value = self._r_pool[head]
            object.__setattr__(self, "_r_pool_head", head + 1)
            if head + 1 >= 1024 and (head + 1) * 2 >= len(self._r_pool):
                # Compact: drop the consumed prefix once it dominates.
                object.__setattr__(self, "_r_pool", self._r_pool[head + 1:])
                object.__setattr__(self, "_r_pool_head", 0)
            return value
        rng = rng or SystemRandomSource()
        return _obfuscate(self.n, self._n_sq,
                          random_coprime(self.n, rng=rng))

    def encrypt(self, plaintext: int, rng=None) -> "PaillierCiphertext":
        """Encrypt an integer in [0, n)."""
        m = plaintext % self.n
        n_sq = self._n_sq
        # (n+1)^m = 1 + n*m (mod n^2), so skip the full modpow.
        c = ((1 + self.n * m) % n_sq) * self._obfuscator(rng) % n_sq
        return PaillierCiphertext(public_key=self, value=c)

    def encrypt_signed(self, plaintext: int, rng=None) -> "PaillierCiphertext":
        """Encrypt a possibly negative integer (|m| must be < n/2)."""
        if abs(plaintext) >= self.n // 2:
            raise PaillierError("signed plaintext out of range")
        return self.encrypt(plaintext % self.n, rng=rng)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private key holding the factorization, with CRT precomputation."""

    public_key: PaillierPublicKey
    p: int
    q: int

    def __post_init__(self):
        if self.p * self.q != self.public_key.n:
            raise PaillierError("private key does not match public key")
        n = self.public_key.n
        g = self.public_key.g
        p, q = self.p, self.q
        # Classic-path parameters: λ = lcm(p-1, q-1), μ = L(g^λ mod n²)⁻¹.
        lam = lcm(p - 1, q - 1)
        u = powmod(g, lam, self.public_key.n_squared)
        mu = modinv((u - 1) // n, n)
        object.__setattr__(self, "_lambda", lam)
        object.__setattr__(self, "_mu", mu)
        # CRT-path parameters: hp = Lp(g^(p-1) mod p²)⁻¹ mod p (same for
        # q) and the recombination coefficient q⁻¹ mod p.
        object.__setattr__(self, "_p_sq", p * p)
        object.__setattr__(self, "_q_sq", q * q)
        gp = powmod(g, p - 1, self._p_sq)
        gq = powmod(g, q - 1, self._q_sq)
        object.__setattr__(self, "_hp", modinv((gp - 1) // p, p))
        object.__setattr__(self, "_hq", modinv((gq - 1) // q, q))
        object.__setattr__(self, "_q_inv_p", modinv(q, p))

    def __reduce__(self):
        # Like the public key: pickle only the defining integers and
        # re-derive the CRT precomputation on unpickling (a few
        # half-size modular operations).
        return (PaillierPrivateKey, (self.public_key, self.p, self.q))

    def _check_key(self, ciphertext: "PaillierCiphertext") -> None:
        if ciphertext.public_key.n != self.public_key.n:
            raise PaillierError("ciphertext was encrypted under another key")

    def decrypt(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt to an integer in [0, n) (CRT fast path)."""
        self._check_key(ciphertext)
        return self._decrypt_crt_value(ciphertext.value)

    def decrypt_classic(self, ciphertext: "PaillierCiphertext") -> int:
        """Textbook decryption via λ/μ (same result as :meth:`decrypt`,
        one full-size exponentiation; kept as a cross-check)."""
        self._check_key(ciphertext)
        n = self.public_key.n
        if math.gcd(ciphertext.value, n) != 1:
            raise PaillierError("ciphertext is not coprime to the modulus")
        u = powmod(ciphertext.value, self._lambda, self.public_key.n_squared)
        return ((u - 1) // n) * self._mu % n

    def decrypt_signed(self, ciphertext: "PaillierCiphertext") -> int:
        """Decrypt, mapping the upper half of [0, n) to negatives."""
        value = self.decrypt(ciphertext)
        n = self.public_key.n
        if value > n // 2:
            return value - n
        return value

    def decrypt_crt(self, ciphertext: "PaillierCiphertext") -> int:
        """CRT-accelerated decryption (the :meth:`decrypt` fast path)."""
        self._check_key(ciphertext)
        return self._decrypt_crt_value(ciphertext.value)

    def _decrypt_crt_value(self, c: int) -> int:
        # Fail closed on malformed ciphertexts: every honest ciphertext
        # g^m r^n is a unit mod n², so gcd(c, n) != 1 means the value
        # was never produced by encryption (c = 0, or c sharing a
        # factor with n — which would silently decrypt to garbage and,
        # worse, leak a factor of n to anyone watching the rejection).
        if math.gcd(c, self.public_key.n) != 1:
            raise PaillierError("ciphertext is not coprime to the modulus")
        p, q = self.p, self.q
        mp = (powmod(c, p - 1, self._p_sq) - 1) // p * self._hp % p
        mq = (powmod(c, q - 1, self._q_sq) - 1) // q * self._hq % q
        # Recombine: m ≡ mp (mod p), m ≡ mq (mod q).
        h = self._q_inv_p * (mp - mq) % p
        return (mq + q * h) % self.public_key.n


@dataclass(frozen=True)
class PaillierKeyPair:
    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey


class PaillierCiphertext:
    """A Paillier ciphertext supporting homomorphic operations.

    Operators: ``ct + ct`` and ``ct + int`` give encrypted sums;
    ``ct * int`` gives an encrypted scalar product.  Ciphertext-by-
    ciphertext multiplication is *not* possible in Paillier (that is
    exactly the FHE gap the paper discusses) and raises ``TypeError``.
    """

    __slots__ = ("public_key", "value")

    def __init__(self, public_key: PaillierPublicKey, value: int):
        self.public_key = public_key
        self.value = value % public_key.n_squared

    def __add__(self, other):
        n_sq = self.public_key.n_squared
        if isinstance(other, PaillierCiphertext):
            if other.public_key.n != self.public_key.n:
                raise PaillierError("cannot add ciphertexts under different keys")
            return PaillierCiphertext(self.public_key, self.value * other.value % n_sq)
        if isinstance(other, int):
            encrypted = self.public_key.encrypt(other)
            return self + encrypted
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PaillierCiphertext):
            return self + (other * -1)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        n = self.public_key.n
        exponent = scalar % n
        return PaillierCiphertext(
            self.public_key,
            powmod(self.value, exponent, self.public_key.n_squared),
        )

    __rmul__ = __mul__

    def rerandomize(self, rng=None) -> "PaillierCiphertext":
        """Fresh randomness, same plaintext (unlinkability)."""
        zero = self.public_key.encrypt(0, rng=rng)
        return self + zero

    def to_dict(self) -> dict:
        return {"n": self.public_key.n, "c": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PaillierCiphertext(<{self.value % 10**8}...>)"


def generate_paillier_keypair(bits: int = DEFAULT_KEY_BITS, rng=None) -> PaillierKeyPair:
    """Generate a Paillier key pair with an n of roughly ``bits`` bits."""
    rng = rng or SystemRandomSource()
    half = bits // 2
    while True:
        p = generate_prime(half, rng=rng)
        q = generate_prime(half, rng=rng)
        if p == q:
            continue
        n = p * q
        if math.gcd(n, (p - 1) * (q - 1)) == 1:
            public = PaillierPublicKey(n=n)
            private = PaillierPrivateKey(public_key=public, p=p, q=q)
            return PaillierKeyPair(public_key=public, private_key=private)
