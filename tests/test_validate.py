"""Consensus validation: witness satisfaction, spend rules, locktimes."""

import itertools

import pytest

from oraclesim.simchain import (
    DataCarrier,
    Either,
    InvalidReason,
    KeyRegistry,
    MultiSig,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    ValidationResult,
    Witness,
    build_payment,
    deserialize_tx,
    p2sh_lock,
    serialize_tx,
    sighash,
    sign,
    validate_tx,
)

SOURCE_ID = bytes([0xAA]) * 32


def spend_of(lock, value=1000, outputs=None, locktime=0):
    """One-input tx spending a synthetic UTXO under `lock`, plus its UTXO set."""
    utxo = {(SOURCE_ID, 0): TxOutput(value=value, lock=lock)}
    tx = Transaction(
        inputs=(TxInput(outpoint=(SOURCE_ID, 0)),),
        outputs=tuple(outputs or (TxOutput(value=value, lock=DataCarrier(b"sink")),)),
        locktime=locktime,
    )
    return tx, utxo


def signed_by(tx, pairs, **witness_fields):
    digest = sighash(tx)
    sigs = tuple(sign(p.secret, digest) for p in pairs)
    return tx.with_witness(0, Witness(signatures=sigs, **witness_fields))


@pytest.fixture
def reg():
    return KeyRegistry()


def test_multisig_two_of_three_matches_subset_enumeration(reg):
    holders = [reg.keygen(name.encode()) for name in ("a", "b", "c")]
    lock = MultiSig(m=2, keys=tuple(p.pub for p in holders))
    for bits in itertools.product([0, 1], repeat=3):
        signers = [p for p, b in zip(holders, bits) if b]
        tx, utxo = spend_of(lock)
        tx = signed_by(tx, signers)
        verdict = validate_tx(tx, utxo, height=1, keys=reg)
        assert verdict.ok == (sum(bits) >= 2), f"signers={bits}"
        if not verdict.ok:
            assert verdict.reason is InvalidReason.BAD_WITNESS


def test_repeated_signature_counts_once(reg):
    holders = [reg.keygen(name.encode()) for name in ("a", "b")]
    lock = MultiSig(m=2, keys=tuple(p.pub for p in holders))
    tx, utxo = spend_of(lock)
    tx = signed_by(tx, [holders[0], holders[0]])
    verdict = validate_tx(tx, utxo, height=1, keys=reg)
    assert verdict.reason is InvalidReason.BAD_WITNESS


def test_outsider_signature_does_not_count(reg):
    insider = reg.keygen(b"in")
    outsider = reg.keygen(b"out")
    lock = MultiSig(m=1, keys=(insider.pub,))
    tx, utxo = spend_of(lock)
    tx = signed_by(tx, [outsider])
    assert not validate_tx(tx, utxo, height=1, keys=reg).ok


def test_pay_to_key_happy_and_sad_paths(reg):
    alice = reg.keygen(b"alice")
    mallory = reg.keygen(b"mallory")
    tx, utxo = spend_of(PayToKey(alice.pub))
    assert validate_tx(signed_by(tx, [alice]), utxo, height=1, keys=reg).ok
    assert not validate_tx(signed_by(tx, [mallory]), utxo, height=1, keys=reg).ok
    assert not validate_tx(tx, utxo, height=1, keys=reg).ok


def test_signature_bound_to_tx_digest(reg):
    alice = reg.keygen(b"alice")
    tx, utxo = spend_of(PayToKey(alice.pub))
    other = Transaction(
        inputs=tx.inputs, outputs=(TxOutput(value=1, lock=PayToKey(alice.pub)),)
    )
    stolen = tx.with_witness(
        0, Witness(signatures=(sign(alice.secret, sighash(other)),))
    )
    verdict = validate_tx(stolen, utxo, height=1, keys=reg)
    assert verdict.reason is InvalidReason.BAD_WITNESS


def test_missing_input(reg):
    alice = reg.keygen(b"alice")
    tx, _ = spend_of(PayToKey(alice.pub))
    verdict = validate_tx(signed_by(tx, [alice]), {}, height=1, keys=reg)
    assert verdict.reason is InvalidReason.MISSING_INPUT


def test_intra_tx_double_spend(reg):
    alice = reg.keygen(b"alice")
    utxo = {(SOURCE_ID, 0): TxOutput(value=10, lock=PayToKey(alice.pub))}
    tx = Transaction(
        inputs=(TxInput(outpoint=(SOURCE_ID, 0)), TxInput(outpoint=(SOURCE_ID, 0))),
        outputs=(TxOutput(value=1, lock=PayToKey(alice.pub)),),
    )
    verdict = validate_tx(tx, utxo, height=1, keys=reg)
    assert verdict.reason is InvalidReason.DOUBLE_SPEND


def test_one_input_is_never_a_double_spend(reg):
    alice = reg.keygen(b"alice")
    tx, utxo = spend_of(PayToKey(alice.pub), value=100, outputs=[TxOutput(60, PayToKey(alice.pub))])
    signed = signed_by(tx, [alice])
    verdict = validate_tx(signed, utxo, height=1, keys=reg)
    assert type(verdict) is ValidationResult and verdict == (True, None, 40)
    short = {(SOURCE_ID, 0): TxOutput(value=59, lock=PayToKey(alice.pub))}
    for spend, view, reason in (
        (tx, utxo, InvalidReason.BAD_WITNESS),
        (signed, {}, InvalidReason.MISSING_INPUT),
        (signed, short, InvalidReason.OVERSPEND),
    ):
        assert validate_tx(spend, view, height=1, keys=reg).reason is reason


def test_a_missing_outpoint_named_twice_is_a_double_spend(reg):
    """The duplicate check comes before any input is looked up."""
    tx = Transaction(
        inputs=(TxInput(outpoint=(SOURCE_ID, 0)), TxInput(outpoint=(SOURCE_ID, 0))),
        outputs=(TxOutput(value=1, lock=DataCarrier(b"sink")),),
    )
    assert validate_tx(tx, {}, height=1, keys=reg).reason is InvalidReason.DOUBLE_SPEND


def test_a_premature_double_spend_is_premature(reg):
    """The locktime check comes before the duplicate check."""
    alice = reg.keygen(b"alice")
    utxo = {(SOURCE_ID, 0): TxOutput(value=10, lock=PayToKey(alice.pub))}
    tx = Transaction(
        inputs=(TxInput(outpoint=(SOURCE_ID, 0)), TxInput(outpoint=(SOURCE_ID, 0))),
        outputs=(TxOutput(value=1, lock=PayToKey(alice.pub)),),
        locktime=2,
    )
    assert validate_tx(tx, utxo, height=1, keys=reg).reason is InvalidReason.PREMATURE
    assert validate_tx(tx, utxo, height=2, keys=reg).reason is InvalidReason.DOUBLE_SPEND


def test_overspend(reg):
    alice = reg.keygen(b"alice")
    tx, utxo = spend_of(
        PayToKey(alice.pub),
        value=100,
        outputs=[TxOutput(value=101, lock=PayToKey(alice.pub))],
    )
    verdict = validate_tx(signed_by(tx, [alice]), utxo, height=1, keys=reg)
    assert verdict.reason is InvalidReason.OVERSPEND


def test_locktime_gate(reg):
    alice = reg.keygen(b"alice")
    tx, utxo = spend_of(PayToKey(alice.pub), locktime=50)
    tx = signed_by(tx, [alice])
    assert validate_tx(tx, utxo, height=50, keys=reg).ok
    premature = validate_tx(tx, utxo, height=49, keys=reg)
    assert premature.reason is InvalidReason.PREMATURE


def test_data_carrier_is_unspendable(reg):
    alice = reg.keygen(b"alice")
    tx, utxo = spend_of(DataCarrier(b"burned"))
    verdict = validate_tx(signed_by(tx, [alice]), utxo, height=1, keys=reg)
    assert verdict.reason is InvalidReason.UNSPENDABLE_INPUT


def test_script_hash_requires_matching_redeem(reg):
    alice = reg.keygen(b"alice")
    redeem = MultiSig(m=1, keys=(alice.pub,))
    tx, utxo = spend_of(p2sh_lock(redeem))
    assert validate_tx(signed_by(tx, [alice], redeem=redeem), utxo, height=1, keys=reg).ok

    wrong = MultiSig(m=1, keys=(alice.pub, alice.pub[::-1]))
    verdict = validate_tx(signed_by(tx, [alice], redeem=wrong), utxo, height=1, keys=reg)
    assert verdict.reason is InvalidReason.BAD_WITNESS
    assert not validate_tx(signed_by(tx, [alice]), utxo, height=1, keys=reg).ok


def test_either_branch_satisfaction(reg):
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    carol = reg.keygen(b"carol")
    lock = Either(left=PayToKey(alice.pub), right=PayToKey(bob.pub))
    tx, utxo = spend_of(lock)
    assert validate_tx(signed_by(tx, [alice]), utxo, height=1, keys=reg).ok
    assert validate_tx(signed_by(tx, [bob]), utxo, height=1, keys=reg).ok
    assert not validate_tx(signed_by(tx, [carol]), utxo, height=1, keys=reg).ok


def test_commitment_never_gates_spending(reg):
    alice = reg.keygen(b"alice")
    lock = MultiSig(m=1, keys=(alice.pub,), commitment=bytes([0xFF]) * 32)
    tx, utxo = spend_of(lock)
    assert validate_tx(signed_by(tx, [alice]), utxo, height=1, keys=reg).ok


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: admission trusts the _sighash memo")
def test_admission_refuses_a_signature_carried_over_by_a_forged_sighash_memo(reg):
    """A 990-sat payment wearing the witness of alice's signed 10-sat payment,
    with that payment's digest written into its `_sighash` memo, is refused
    as its byte-identical twin read back from the wire is."""
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    chain = SimChain(genesis=(TxOutput(value=1000, lock=PayToKey(alice.pub)),), keys=reg)
    signed = build_payment(chain, alice, [TxOutput(value=10, lock=PayToKey(bob.pub))])
    forged = Transaction(
        inputs=(TxInput(outpoint=signed.inputs[0].outpoint, witness=signed.inputs[0].witness),),
        outputs=(TxOutput(value=990, lock=PayToKey(bob.pub)),),
    )
    object.__setattr__(forged, "_sighash", sighash(signed))

    twin = chain.submit(deserialize_tx(serialize_tx(forged)))
    assert twin.invalid_reason is InvalidReason.BAD_WITNESS
    assert chain.submit(forged).invalid_reason is InvalidReason.BAD_WITNESS
