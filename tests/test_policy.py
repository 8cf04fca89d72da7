"""Standardness classification across both relay policy eras."""

import pytest

from oraclesim.simchain import (
    DataCarrier,
    Either,
    Era,
    KeyRegistry,
    MultiSig,
    NonStandardReason,
    PayToKey,
    POLICY_TEST2013,
    POLICY_V090,
    TimeLocked,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    classify,
    p2sh_lock,
    policy_for,
    sighash,
    sign,
    validate_tx,
)

PUB = bytes([0x11]) * 32
SOURCE = bytes([0xAA]) * 32


def tx_with_output(lock):
    return Transaction(inputs=(), outputs=(TxOutput(value=0, lock=lock),))


@pytest.mark.parametrize(
    "policy,cap",
    [(POLICY_TEST2013, 80), (POLICY_V090, 40)],
    ids=["test2013", "v090"],
)
def test_data_payload_cap_boundaries(policy, cap):
    at_cap = tx_with_output(DataCarrier(bytes(cap)))
    over = tx_with_output(DataCarrier(bytes(cap + 1)))
    assert classify(at_cap, policy).standard
    decision = classify(over, policy)
    assert not decision.standard
    assert decision.reason is NonStandardReason.DATA_PAYLOAD_TOO_LARGE


def test_multisig_key_count_boundary():
    keys3 = tuple(bytes([i]) * 32 for i in range(1, 4))
    keys4 = tuple(bytes([i]) * 32 for i in range(1, 5))
    assert classify(tx_with_output(MultiSig(m=1, keys=keys3)), POLICY_TEST2013).standard
    decision = classify(tx_with_output(MultiSig(m=1, keys=keys4)), POLICY_TEST2013)
    assert decision.reason is NonStandardReason.TOO_MANY_MULTISIG_KEYS


def test_committed_multisig_is_non_template():
    lock = MultiSig(m=1, keys=(PUB,), commitment=bytes(32))
    decision = classify(tx_with_output(lock), POLICY_TEST2013)
    assert decision.reason is NonStandardReason.NON_TEMPLATE_OUTPUT


def test_bare_timelock_and_disjunction_are_non_template():
    for lock in (
        TimeLocked(inner=PayToKey(PUB), unlock_height=10),
        Either(left=PayToKey(PUB), right=PayToKey(PUB[::-1])),
    ):
        decision = classify(tx_with_output(lock), POLICY_TEST2013)
        assert decision.reason is NonStandardReason.NON_TEMPLATE_OUTPUT


def test_script_hash_wrapping_hides_the_template():
    inner = Either(left=PayToKey(PUB), right=PayToKey(PUB[::-1]))
    assert classify(tx_with_output(p2sh_lock(inner)), POLICY_V090).standard


def test_witness_signature_count_boundary():
    reg = KeyRegistry()
    signers = [reg.keygen(bytes([i])) for i in range(1, 6)]
    base = Transaction(
        inputs=(TxInput(outpoint=(SOURCE, 0)),),
        outputs=(TxOutput(value=0, lock=PayToKey(PUB)),),
    )
    digest = sighash(base)

    def with_sigs(k):
        sigs = tuple(sign(p.secret, digest) for p in signers[:k])
        return base.with_witness(0, Witness(signatures=sigs))

    assert classify(with_sigs(3), POLICY_TEST2013).standard
    decision = classify(with_sigs(4), POLICY_TEST2013)
    assert decision.reason is NonStandardReason.TOO_MANY_WITNESS_SIGS


def test_payment_templates_are_standard_everywhere():
    for policy in (POLICY_TEST2013, POLICY_V090):
        assert classify(tx_with_output(PayToKey(PUB)), policy).standard
        assert classify(tx_with_output(p2sh_lock(PayToKey(PUB))), policy).standard


def test_policy_lookup_accepts_enum_and_string():
    assert policy_for("test2013") is POLICY_TEST2013
    assert policy_for(Era.V090) is POLICY_V090
    assert POLICY_V090.max_data_payload == 40
    assert POLICY_TEST2013.max_data_payload == 80


def test_nonstandard_tx_still_validates():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    utxo = {(SOURCE, 0): TxOutput(value=5, lock=PayToKey(alice.pub))}
    tx = Transaction(
        inputs=(TxInput(outpoint=(SOURCE, 0)),),
        outputs=(TxOutput(value=5, lock=TimeLocked(inner=PayToKey(alice.pub), unlock_height=9)),),
    )
    tx = tx.with_witness(0, Witness(signatures=(sign(alice.secret, sighash(tx)),)))
    assert not classify(tx, POLICY_V090).standard
    assert validate_tx(tx, utxo, height=1, keys=reg)
