"""Schnorr signatures over a Schnorr group (Fiat–Shamir transformed).

Used to authenticate updates from data producers, authority-issued
regulations, and ledger digests.  Standard construction:

    k  random;  R = g^k;  e = H(R || pk || m);  s = k + e*x (mod q)
    verify:  g^s == R * pk^e

Batch verification (:func:`verify_batch`) checks many signatures at
once with the random-linear-combination trick: raise each individual
equation to an independent random exponent ``z_i`` and compare the
products,

    g^(Σ s_i·z_i)  ==  Π R_i^{z_i} · pk_i^{e_i·z_i}

A forged signature makes the combined equation fail except with
probability ~2^-128 over the ``z_i``; on failure the batch falls back
to per-signature verification to pinpoint the culprits, so the result
vector always equals per-signature :meth:`SchnorrVerifier.verify`.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.randomness import SystemRandomSource
from repro.common.serialization import canonical_bytes
from repro.crypto.backend import fixed_base, multi_exp
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import hash_to_int
from repro.crypto.numbers import int_to_bytes


@dataclass(frozen=True)
class SchnorrSignature:
    commitment: int  # R
    response: int    # s

    def to_dict(self) -> dict:
        return {"R": self.commitment, "s": self.response}


def _challenge(group: SchnorrGroup, commitment: int, pk: int, message: bytes) -> int:
    payload = (
        int_to_bytes(commitment) + b"|" + int_to_bytes(pk) + b"|" + message
    )
    return hash_to_int(payload, group.q, domain=b"schnorr")


class SchnorrSigner:
    """Holds a signing key; exposes the matching verifier."""

    def __init__(self, group: Optional[SchnorrGroup] = None, rng=None):
        self.group = group or SchnorrGroup.default()
        self._x = self.group.random_exponent(rng)
        self.public_key = self.group.power_of_g(self._x)

    def sign(self, message: bytes, rng=None) -> SchnorrSignature:
        k = self.group.random_exponent(rng)
        commitment = self.group.power_of_g(k)
        e = _challenge(self.group, commitment, self.public_key, message)
        s = (k + e * self._x) % self.group.q
        return SchnorrSignature(commitment=commitment, response=s)

    def sign_obj(self, obj, rng=None) -> SchnorrSignature:
        """Sign the canonical serialization of a structured value."""
        return self.sign(canonical_bytes(obj), rng=rng)

    def verifier(self) -> "SchnorrVerifier":
        return SchnorrVerifier(self.group, self.public_key)


class SchnorrVerifier:
    """Verifies signatures for one public key."""

    def __init__(self, group: SchnorrGroup, public_key: int):
        self.group = group
        self.public_key = public_key

    def verify(self, message: bytes, signature: SchnorrSignature) -> bool:
        if not self.group.is_member(signature.commitment):
            return False
        group = self.group
        e = _challenge(group, signature.commitment, self.public_key, message)
        # Both bases are long-lived: g's table is warm and shared; the
        # public key's builds from its second verification (verifiers
        # are cached per key, so hot keys amortize it immediately).
        lhs = group.power_of_g(signature.response)
        pk_pow = fixed_base(self.public_key, group.p,
                            group.q.bit_length()).pow(e % group.q)
        rhs = signature.commitment * pk_pow % group.p
        return lhs == rhs

    def verify_obj(self, obj, signature: SchnorrSignature) -> bool:
        return self.verify(canonical_bytes(obj), signature)


# Keyed verifier cache: hot paths (one provenance check per update)
# were rebuilding a SchnorrVerifier per call.  Verifiers are stateless
# w.r.t. messages, so one instance per (group, public key) suffices.
_VERIFIER_CACHE: "OrderedDict[tuple, SchnorrVerifier]" = OrderedDict()
_VERIFIER_CACHE_MAX = 4096


def cached_verifier(group: SchnorrGroup, public_key: int) -> SchnorrVerifier:
    """A shared :class:`SchnorrVerifier` for ``(group, public_key)``.

    LRU-bounded so long-running services with churning signer sets
    don't grow memory without bound.
    """
    key = (group.p, group.q, group.g, public_key)
    verifier = _VERIFIER_CACHE.get(key)
    if verifier is None:
        verifier = SchnorrVerifier(group, public_key)
        _VERIFIER_CACHE[key] = verifier
        if len(_VERIFIER_CACHE) > _VERIFIER_CACHE_MAX:
            _VERIFIER_CACHE.popitem(last=False)
    else:
        _VERIFIER_CACHE.move_to_end(key)
    return verifier


# -- batch verification -----------------------------------------------------

#: Bit width of the random combination exponents; the false-accept
#: probability of the combined check is ~2^-bits per batch.
_BATCH_EXPONENT_BITS = 128

#: One batch item: (public_key, message, signature).
BatchItem = Tuple[int, bytes, SchnorrSignature]


def verify_batch(
    items: Sequence[BatchItem],
    group: Optional[SchnorrGroup] = None,
    rng=None,
) -> List[bool]:
    """Verify a batch of ``(public_key, message, signature)`` items.

    Returns one bool per item, always equal to what per-item
    :meth:`SchnorrVerifier.verify` would return:

    1. commitments failing subgroup membership are rejected outright
       (cheap Legendre check for safe-prime groups);
    2. the rest go through one random-linear-combination equation — on
       success (the overwhelmingly common all-valid case) everything is
       accepted with one ``g`` exponentiation plus one simultaneous
       multi-exponentiation over every ``R_i`` and ``pk_i`` (one
       shared Straus squaring chain);
    3. on failure, per-signature verification pinpoints exactly which
       signatures are bad.

    Exponents ``e·z`` are deliberately *not* reduced mod q: a hostile
    public key outside the order-q subgroup would make the reduced and
    unreduced forms disagree, and the unreduced form is the one that
    equals the individually-verified equations raised to ``z``.
    """
    items = list(items)
    if not items:
        return []
    group = group or SchnorrGroup.default()
    if len(items) == 1:
        pk, message, signature = items[0]
        return [cached_verifier(group, pk).verify(message, signature)]
    q = group.q
    rng = rng or SystemRandomSource()

    results: List[Optional[bool]] = [None] * len(items)
    candidates = []  # (index, pk, message, e, z, signature)
    s_combined = 0
    for index, (pk, message, signature) in enumerate(items):
        if not group.is_member(signature.commitment):
            results[index] = False
            continue
        e = _challenge(group, signature.commitment, pk, message)
        z = rng.randrange(1, 1 << _BATCH_EXPONENT_BITS)
        candidates.append((index, pk, message, e, z, signature))
        s_combined = (s_combined + signature.response * z) % q
    if not candidates:
        return [bool(r) for r in results]

    lhs = group.power_of_g(s_combined)
    pairs = []
    for _, pk, _, e, z, signature in candidates:
        pairs.append((signature.commitment, z))
        pairs.append((pk, e * z))
    if lhs == multi_exp(pairs, group.p):
        for index, *_ in candidates:
            results[index] = True
        return [bool(r) for r in results]

    # Combined equation failed: pinpoint with per-signature checks.
    for index, pk, message, _, _, signature in candidates:
        results[index] = cached_verifier(group, pk).verify(message,
                                                           signature)
    return [bool(r) for r in results]
