"""Standardness classification across both relay policy eras."""

import json

import pytest

from oraclesim.harness import ParseError, Scenario, run_scenario
from oraclesim.harness.cli import main
from oraclesim.simchain import (
    POLICIES,
    DataCarrier,
    Either,
    KeyRegistry,
    MultiSig,
    NonStandardReason,
    PayToKey,
    POLICY_TEST2013,
    POLICY_V090,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    classify,
    p2sh_lock,
    serialize_tx,
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


def test_bare_disjunction_is_non_template():
    for lock in (
        Either(left=PayToKey(PUB), right=PayToKey(PUB[::-1])),
        Either(left=MultiSig(m=1, keys=(PUB,)), right=PayToKey(PUB)),
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


def test_policies_list_each_era_once_by_its_name():
    assert POLICIES == {"v090": POLICY_V090, "test2013": POLICY_TEST2013}
    assert list(POLICIES) == ["v090", "test2013"]  # the default first, as refusals list them
    assert all(policy.name == name for name, policy in POLICIES.items())
    assert POLICY_V090.max_data_payload == 40
    assert POLICY_TEST2013.max_data_payload == 80


@pytest.mark.parametrize("name", POLICIES)
def test_each_era_runs_a_scenario_and_classifies_on_the_cli(name, capsys):
    result = run_scenario({"name": "t", "seed": 1, "ticks": 2, "policy": name})
    assert result.passed and result.world.chain.policy is POLICIES[name]
    tx = serialize_tx(tx_with_output(DataCarrier(bytes(60))))  # over 40 bytes, within 80
    assert main(["classify-tx", tx.hex(), "--era", name]) == 0
    standard = json.loads(capsys.readouterr().out)["standard"]
    assert standard is (60 <= POLICIES[name].max_data_payload)


def test_an_era_outside_the_list_is_refused(tmp_path, capsys):
    doc = {"name": "t", "seed": 1, "ticks": 2, "policy": "v091"}
    refusal = f"scenario.policy: expected one of {', '.join(POLICIES)}, got 'v091'"
    with pytest.raises(ParseError) as raised:
        Scenario.from_dict(doc)
    assert str(raised.value) == refusal
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert refusal in capsys.readouterr().err
    tx = serialize_tx(tx_with_output(PayToKey(PUB)))
    with pytest.raises(SystemExit) as exited:
        main(["classify-tx", tx.hex(), "--era", "v091"])
    assert exited.value.code == 2
    assert "invalid choice: 'v091'" in capsys.readouterr().err


def test_nonstandard_tx_still_validates():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    utxo = {(SOURCE, 0): TxOutput(value=5, lock=PayToKey(alice.pub))}
    tx = Transaction(
        inputs=(TxInput(outpoint=(SOURCE, 0)),),
        outputs=(TxOutput(value=5, lock=Either(PayToKey(alice.pub), PayToKey(PUB))),),
    )
    tx = tx.with_witness(0, Witness(signatures=(sign(alice.secret, sighash(tx)),)))
    assert not classify(tx, POLICY_V090).standard
    assert validate_tx(tx, utxo, height=1, keys=reg).ok
