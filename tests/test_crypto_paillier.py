"""Paillier: correctness, the homomorphic laws, and the randomness pool."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.randomness import deterministic_rng
from repro.crypto.numbers import random_coprime
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_paillier_keypair,
)

small_ints = st.integers(min_value=0, max_value=10**9)
signed_ints = st.integers(min_value=-10**8, max_value=10**8)


def test_encrypt_decrypt_roundtrip(paillier):
    for value in (0, 1, 42, 10**12):
        assert paillier.private_key.decrypt(paillier.public_key.encrypt(value)) == value


def test_crt_decrypt_matches_plain_decrypt(paillier):
    ct = paillier.public_key.encrypt(123456789)
    assert paillier.private_key.decrypt(ct) == paillier.private_key.decrypt_crt(ct)


@given(a=small_ints, b=small_ints)
@settings(max_examples=20, deadline=None)
def test_additive_homomorphism(paillier, a, b):
    pk, sk = paillier.public_key, paillier.private_key
    assert sk.decrypt(pk.encrypt(a) + pk.encrypt(b)) == (a + b) % pk.n


@given(a=small_ints, k=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_scalar_homomorphism(paillier, a, k):
    pk, sk = paillier.public_key, paillier.private_key
    assert sk.decrypt(pk.encrypt(a) * k) == (a * k) % pk.n


@given(a=signed_ints, b=signed_ints)
@settings(max_examples=20, deadline=None)
def test_signed_arithmetic(paillier, a, b):
    pk, sk = paillier.public_key, paillier.private_key
    total = sk.decrypt_signed(pk.encrypt_signed(a) + pk.encrypt_signed(b))
    assert total == a + b


def test_subtraction(paillier):
    pk, sk = paillier.public_key, paillier.private_key
    assert sk.decrypt_signed(pk.encrypt_signed(10) - pk.encrypt_signed(25)) == -15
    assert sk.decrypt_signed(pk.encrypt_signed(10) - 3) == 7


def test_plaintext_addition_operator(paillier):
    pk, sk = paillier.public_key, paillier.private_key
    assert sk.decrypt(pk.encrypt(5) + 7) == 12
    assert sk.decrypt(7 + pk.encrypt(5)) == 12


def test_rerandomize_changes_ciphertext_not_plaintext(paillier):
    pk, sk = paillier.public_key, paillier.private_key
    ct = pk.encrypt(99)
    ct2 = ct.rerandomize()
    assert ct2.value != ct.value
    assert sk.decrypt(ct2) == 99


def test_ciphertext_times_ciphertext_is_rejected(paillier):
    pk = paillier.public_key
    with pytest.raises(TypeError):
        pk.encrypt(2) * pk.encrypt(3)


def test_cross_key_addition_rejected(paillier):
    other = generate_paillier_keypair(128)
    with pytest.raises(PaillierError):
        paillier.public_key.encrypt(1) + other.public_key.encrypt(1)


def test_cross_key_decryption_rejected(paillier):
    other = generate_paillier_keypair(128)
    with pytest.raises(PaillierError):
        paillier.private_key.decrypt(other.public_key.encrypt(1))


def test_signed_range_check(paillier):
    with pytest.raises(PaillierError):
        paillier.public_key.encrypt_signed(paillier.public_key.n)


def test_mismatched_private_key_rejected(paillier):
    with pytest.raises(PaillierError):
        PaillierPrivateKey(public_key=PaillierPublicKey(n=15), p=3, q=7)


def test_distinct_encryptions_differ(paillier):
    pk = paillier.public_key
    assert pk.encrypt(7).value != pk.encrypt(7).value


def test_non_coprime_ciphertext_rejected(paillier):
    # gcd(p, n) = p: the L-function's division by n is undefined, and a
    # well-formed encryptor can never emit such a value.
    bogus = PaillierCiphertext(public_key=paillier.public_key,
                               value=paillier.private_key.p)
    for decrypt in (paillier.private_key.decrypt,
                    paillier.private_key.decrypt_signed,
                    paillier.private_key.decrypt_classic):
        with pytest.raises(PaillierError, match="coprime"):
            decrypt(bogus)


# -- the precomputed randomness pool ----------------------------------------

def test_public_key_pickles_without_randomness_pool(paillier):
    key = PaillierPublicKey(paillier.public_key.n)
    key.precompute_randomness(4, rng=deterministic_rng(3))
    assert key.randomness_pool_size == 4
    clone = pickle.loads(pickle.dumps(key))
    assert clone.n == key.n
    assert clone.randomness_pool_size == 0  # pools are per-process
    private_clone = pickle.loads(pickle.dumps(paillier.private_key))
    assert private_clone.decrypt(clone.encrypt(42)) == 42


def test_randomness_pool_drains_fifo_deterministically(paillier):
    n = paillier.public_key.n
    n_sq = n * n
    key = PaillierPublicKey(n)
    assert key.precompute_randomness(6, rng=deterministic_rng(9)) == 6
    draws = deterministic_rng(9)
    expected = [(1 + n * m) * pow(random_coprime(n, rng=draws), n, n_sq)
                % n_sq for m in range(6)]
    # Obfuscators come out in the order they were generated.
    assert [key.encrypt(m).value for m in range(6)] == expected
    assert key.randomness_pool_size == 0
