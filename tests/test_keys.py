"""Key derivation, signing, and registry-backed verification."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oraclesim.simchain import (
    InvalidReason,
    InvalidSeedError,
    KeyPair,
    KeyRegistry,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    derive_pair,
    sighash,
    sign,
    sign_input,
    sign_payment,
    txid,
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


def test_a_key_pair_signs_with_its_pub_and_admission_checks_the_tag():
    reg = KeyRegistry()
    alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
    chain = SimChain(genesis=[TxOutput(1_000, PayToKey(alice.pub))], keys=reg)
    [(coin, _)] = chain.utxos_for(alice.pub)
    pay = (TxOutput(900, PayToKey(bob.pub)),)
    unsigned = Transaction((TxInput(coin),), pay)

    # a derived pair signs as `sign` does from its secret alone
    for tx in (sign_input(unsigned, 0, alice), sign_payment(alice, [coin], pay, 0)):
        assert tx.inputs[0].witness.signatures == (sign(alice.secret, sighash(unsigned)),)
        assert chain.validate(tx).ok

    # a pair whose pub is not sha256(secret) signs as alice, and is refused
    forged = KeyPair(secret=bob.secret, pub=alice.pub)
    for tx in (sign_input(unsigned, 0, forged), sign_payment(forged, [coin], pay, 0)):
        assert tx.inputs[0].witness.signatures[0].signer_pub == alice.pub
        verdict = chain.submit(tx)
        assert (verdict.accepted, verdict.invalid_reason) == (False, InvalidReason.BAD_WITNESS)



def test_verify_is_the_one_signer_check():
    """Alice's tag relabelled with another signer pub is refused by `verify`,
    and so by a pay-to-key spend, which checks the signer nowhere else: the
    relabelled witness would be a twin of the payment with another txid."""
    reg = KeyRegistry()
    alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
    chain = SimChain(genesis=[TxOutput(1_000, PayToKey(alice.pub))], keys=reg)
    [(coin, _)] = chain.utxos_for(alice.pub)
    pay = (TxOutput(900, PayToKey(bob.pub)),)
    signed = sign_input(Transaction((TxInput(coin),), pay), 0, alice)
    [sig] = signed.inputs[0].witness.signatures
    for label in (bob.pub, bytes(32)):
        relabelled = replace(sig, signer_pub=label)
        assert not reg.verify(relabelled, alice.pub, sig.digest_signed)
        twin = signed.with_witness(0, Witness((relabelled,)))
        assert txid(twin) != txid(signed)
        assert chain.submit(twin).invalid_reason is InvalidReason.BAD_WITNESS
    assert chain.submit(signed).accepted

# the empty secret is an example, not a draw: under -bb, hypothesis's cache may
# compare a drawn b"" with 0 (see ROADMAP, "-bb and hypothesis")
@example(secret=b"", digest=bytes(32))
@given(secret=st.binary(min_size=1, max_size=64), digest=st.binary(min_size=32, max_size=32))
def test_key_pair_sign_is_the_one_tag_rule(secret, digest):
    pair = KeyPair(secret, hashlib.sha256(secret).digest())
    assert pair.sign(digest) == sign(secret, digest)
    for wrong in (digest[:31], digest + b"\x00"):
        with pytest.raises(ValueError, match="digest must be 32 bytes"):
            pair.sign(wrong)

    reg = KeyRegistry()
    issued = reg.keygen(b"seed:" + secret)
    assert reg.verify(issued.sign(digest), issued.pub, digest)
