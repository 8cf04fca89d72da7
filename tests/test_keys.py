"""Key derivation, signing, and registry-backed verification."""

import hashlib

import pytest

from oraclesim.simchain import (
    InvalidSeedError,
    KeyRegistry,
    derive_pair,
    sign,
)

import test_formats as ref


def test_derive_pair_matches_hash_recomputation():
    pair = derive_pair(b"alice")
    assert (pair.secret, pair.pub) == ref.keypair(b"alice")


def test_derive_pair_is_deterministic_and_seed_sensitive():
    assert derive_pair(b"alice") == derive_pair(b"alice")
    assert derive_pair(b"alice") != derive_pair(b"alicf")


def test_empty_seed_rejected():
    with pytest.raises(InvalidSeedError):
        derive_pair(b"")


def test_signature_tag_matches_hash_recomputation():
    pair = derive_pair(b"signer")
    digest = hashlib.sha256(b"message").digest()
    sig = sign(pair.secret, digest)
    assert sig.tag == ref.signature_tag(pair.secret, digest)
    assert sig.signer_pub == pair.pub
    assert sig.digest_signed == digest


def test_sign_requires_digest_sized_input():
    pair = derive_pair(b"signer")
    with pytest.raises(ValueError):
        sign(pair.secret, b"short")


def test_registry_verifies_only_known_keys():
    reg = KeyRegistry()
    pair = reg.keygen(b"alice")
    digest = hashlib.sha256(b"payload").digest()
    sig = sign(pair.secret, digest)
    assert reg.verify(sig, pair.pub, digest)

    stranger = derive_pair(b"stranger")
    stray = sign(stranger.secret, digest)
    assert not reg.verify(stray, stranger.pub, digest)


def test_verify_rejects_wrong_digest_and_tampered_tag():
    reg = KeyRegistry()
    pair = reg.keygen(b"alice")
    digest = hashlib.sha256(b"payload").digest()
    other = hashlib.sha256(b"other").digest()
    sig = sign(pair.secret, digest)
    assert not reg.verify(sig, pair.pub, other)

    forged = type(sig)(signer_pub=sig.signer_pub, digest_signed=digest, tag=bytes(32))
    assert not reg.verify(forged, pair.pub, digest)


def test_keygen_is_deterministic_per_seed():
    reg = KeyRegistry()
    a1 = reg.keygen(b"alice")
    a2 = reg.keygen(b"alice")
    assert a1 == a2
    assert reg.verify(sign(a1.secret, bytes(32)), a1.pub, bytes(32))
