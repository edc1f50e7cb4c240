"""Pedersen commitments, Schnorr signatures, RSA + blind signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import IntegrityError
from repro.crypto.blind import BlindClient, BlindSignatureError, BlindSigner
from repro.crypto.commitments import PedersenCommitter
from repro.crypto.rsa import RSAError, generate_rsa_keypair
from repro.crypto.signatures import (
    SchnorrSignature,
    SchnorrSigner,
    SchnorrVerifier,
    verify_batch,
)


# -- Pedersen ----------------------------------------------------------------

def test_commit_verify_roundtrip(committer):
    c, r = committer.commit(12345)
    assert committer.verify(c, 12345, r)


def test_wrong_opening_rejected(committer):
    c, r = committer.commit(10)
    assert not committer.verify(c, 11, r)
    assert not committer.verify(c, 10, r + 1)
    with pytest.raises(IntegrityError):
        committer.open_or_raise(c, 11, r)


def test_hiding_same_message_different_commitments(committer):
    c1, _ = committer.commit(7)
    c2, _ = committer.commit(7)
    assert c1.value != c2.value


@given(a=st.integers(min_value=0, max_value=10**6),
       b=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_homomorphic_combination(committer, a, b):
    ca, ra = committer.commit(a)
    cb, rb = committer.commit(b)
    combined = committer.combine(ca, cb)
    assert committer.verify(combined, a + b, (ra + rb) % committer.group.q)


def test_scale(committer):
    c, r = committer.commit(5)
    scaled = committer.scale(c, 3)
    assert committer.verify(scaled, 15, 3 * r % committer.group.q)


def test_direct_multiplication_forbidden(committer):
    c, _ = committer.commit(1)
    with pytest.raises(TypeError):
        c * c


# -- Schnorr signatures --------------------------------------------------------

def test_sign_verify(group):
    signer = SchnorrSigner(group)
    sig = signer.sign(b"message")
    assert signer.verifier().verify(b"message", sig)


def test_tampered_message_rejected(group):
    signer = SchnorrSigner(group)
    sig = signer.sign(b"message")
    assert not signer.verifier().verify(b"messagE", sig)


def test_wrong_key_rejected(group):
    signer = SchnorrSigner(group)
    other = SchnorrSigner(group)
    sig = signer.sign(b"m")
    assert not other.verifier().verify(b"m", sig)


def test_sign_structured_object(group):
    signer = SchnorrSigner(group)
    obj = {"table": "t", "payload": {"x": 1}}
    sig = signer.sign_obj(obj)
    assert signer.verifier().verify_obj(obj, sig)
    assert not signer.verifier().verify_obj({"table": "t", "payload": {"x": 2}}, sig)


def test_signature_commitment_must_be_group_member(group):
    signer = SchnorrSigner(group)
    sig = signer.sign(b"m")
    forged = SchnorrSignature(commitment=group.p - 1, response=sig.response)
    assert not signer.verifier().verify(b"m", forged)


# -- batch Schnorr verification ---------------------------------------------

def test_verify_batch_empty_and_single():
    assert verify_batch([]) == []
    signer = SchnorrSigner()
    signature = signer.sign(b"solo")
    assert verify_batch([(signer.public_key, b"solo", signature)]) == [True]
    assert verify_batch([(signer.public_key, b"other", signature)]) == [False]


def test_verify_batch_pinpoints_tampered_signature():
    signers = [SchnorrSigner() for _ in range(6)]
    items = []
    for i, signer in enumerate(signers):
        message = f"msg-{i}".encode()
        items.append((signer.public_key, message, signer.sign(message)))
    pk, message, signature = items[3]
    items[3] = (pk, message, SchnorrSignature(
        commitment=signature.commitment,
        response=(signature.response + 1) % signers[3].group.q,
    ))
    assert verify_batch(items) == [True, True, True, False, True, True]


def test_verify_batch_rejects_non_member_commitment(group):
    signer = SchnorrSigner(group)
    good = signer.sign(b"ok")
    # p - 1 ≡ -1 is a quadratic non-residue mod a safe prime, so it
    # fails subgroup membership before the combined equation runs.
    bad = SchnorrSignature(commitment=group.p - 1, response=good.response)
    verdicts = verify_batch([
        (signer.public_key, b"ok", good),
        (signer.public_key, b"ok", bad),
    ], group=group)
    assert verdicts == [True, False]


def test_verify_batch_matches_per_signature_for_all_bad():
    signers = [SchnorrSigner() for _ in range(3)]
    items = [(s.public_key, b"m", s.sign(b"other")) for s in signers]
    assert verify_batch(items) == [False, False, False]
    assert [s.verifier().verify(b"m", sig) for s, (_, _, sig)
            in zip(signers, items)] == [False, False, False]


# -- RSA / blind signatures -------------------------------------------------------

def test_rsa_sign_verify(rsa_keys):
    sig = rsa_keys.private_key.sign(b"doc")
    assert rsa_keys.public_key.verify(b"doc", sig)
    assert not rsa_keys.public_key.verify(b"other", sig)


def test_rsa_rejects_out_of_range(rsa_keys):
    with pytest.raises(RSAError):
        rsa_keys.private_key.sign_raw(rsa_keys.public_key.n)
    assert not rsa_keys.public_key.verify(b"doc", 0)


def test_blind_signature_roundtrip(rsa_keys):
    from repro.crypto.rsa import RSAKeyPair

    signer = BlindSigner(keypair=rsa_keys)
    client = BlindClient(signer.public_key)
    blinded = client.blind(b"token-serial-1")
    signature = client.unblind(signer.sign_blinded(blinded))
    assert signer.public_key.verify(b"token-serial-1", signature)


def test_blindness_signer_never_sees_message_hash(rsa_keys):
    """The blinded value must differ from the message's FDH — the
    signer's view is statistically independent of the message."""
    signer = BlindSigner(keypair=rsa_keys)
    client = BlindClient(signer.public_key)
    message = b"secret-serial"
    blinded = client.blind(message)
    assert blinded.blinded != signer.public_key.fdh(message)


def test_blind_client_single_flight(rsa_keys):
    signer = BlindSigner(keypair=rsa_keys)
    client = BlindClient(signer.public_key)
    client.blind(b"a")
    with pytest.raises(BlindSignatureError):
        client.blind(b"b")


def test_unblind_without_blind_raises(rsa_keys):
    client = BlindClient(rsa_keys.public_key)
    with pytest.raises(BlindSignatureError):
        client.unblind(12345)


def test_unblind_detects_bad_signer(rsa_keys):
    signer = BlindSigner(keypair=rsa_keys)
    client = BlindClient(signer.public_key)
    client.blind(b"x")
    with pytest.raises(BlindSignatureError):
        client.unblind(42)  # not a valid blind signature


def test_signature_counter(rsa_keys):
    signer = BlindSigner(keypair=rsa_keys)
    client = BlindClient(signer.public_key)
    signer.sign_blinded(client.blind(b"t"))
    assert signer.signatures_issued == 1
