"""Fact lifecycle, selective key release, and the two-party demo contract."""

import hashlib
from dataclasses import replace
from random import Random

import pytest

from oraclesim.datafeed import Comparator, Condition, DataSource, NoDataError
from oraclesim.realitykeys import (
    DemoContract,
    Fact,
    FactRegistry,
    FactState,
    NotFinalizedError,
    Outcome,
    PastResolutionError,
    ReconstructionMismatchError,
    StateError,
    TipTooSmallError,
    TooEarlyError,
    UnknownSourceError,
    WindowClosedError,
    WrongBranchError,
    demo_claim,
    demo_contract,
    demo_countersign,
    demo_setup,
)
from oraclesim.simchain import (
    InvalidReason,
    KeyRegistry,
    Miner,
    PayToKey,
    POLICY_V090,
    SimChain,
    TxInput,
    TxOutput,
    Witness,
    build_payment,
    sighash,
    sign,
    txid,
)

T_NOW = 1_390_000_000
T_RES = T_NOW + 10_000
WINDOW = 86_400
SOLO = [Miner("solo", 1.0)]
REF = Condition(source_id="btc-price", key="BTCUSD", comparator=Comparator.GE, threshold=400)

SECRET_HELD, SECRET_RELEASED, SECRET_DESTROYED = "held", "released", "destroyed"


def secret_status(registry, fact_id, outcome):
    """What became of an outcome's secret: held until the fact is finalized,
    then released for the winner and destroyed for the loser."""
    fact = registry.facts[fact_id]
    if fact.state is FactState.FINALIZED:
        return SECRET_RELEASED if outcome is fact.released_outcome else SECRET_DESTROYED
    return SECRET_HELD


def make_registry(price=405.0, keys=None):
    source = DataSource("btc-price", entries=[("BTCUSD", T_RES, price)])
    return FactRegistry({"btc-price": source}, keys=keys or KeyRegistry())


def posted_fact(registry, now=T_RES):
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    registry.post_result(fact.id, now=now)
    return fact


def test_registration_publishes_two_pubs():
    registry = make_registry()
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    assert fact.state is FactState.REGISTERED
    assert len(fact.yes_pub) == 32 and len(fact.no_pub) == 32
    assert fact.yes_pub != fact.no_pub
    assert secret_status(registry, fact.id, Outcome.YES) == SECRET_HELD
    second = registry.register_fact("another?", T_RES, REF, now=T_NOW)
    assert (fact.id, second.id) == ("rk-1", "rk-2")


def test_registration_guards():
    registry = make_registry()
    with pytest.raises(PastResolutionError):
        registry.register_fact("too late?", T_NOW, REF, now=T_NOW)
    bad_ref = Condition("nowhere", "BTCUSD", Comparator.GE, 400)
    with pytest.raises(UnknownSourceError):
        registry.register_fact("where?", T_RES, bad_ref, now=T_NOW)
    gap_ref = Condition("btc-price", "NO_SUCH", Comparator.GE, 400)
    with pytest.raises(UnknownSourceError, match="no key 'NO_SUCH'"):
        registry.register_fact("gap?", T_RES, gap_ref, now=T_NOW)


@pytest.mark.parametrize("price,expected", [(405.0, Outcome.YES), (399.99, Outcome.NO), (400.0, Outcome.YES)])
def test_post_result_applies_comparator(price, expected):
    registry = make_registry(price=price)
    fact = posted_fact(registry)
    assert fact.posted_result is expected
    assert fact.state is FactState.RESULT_POSTED
    assert fact.objection_deadline == T_RES + WINDOW


def test_post_result_guards():
    registry = make_registry()
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    with pytest.raises(TooEarlyError):
        registry.post_result(fact.id, now=T_RES - 1)
    registry.post_result(fact.id, now=T_RES)
    with pytest.raises(StateError):
        registry.post_result(fact.id, now=T_RES)

    early = registry.register_fact("before the first price?", T_RES - 1, REF, now=T_NOW)
    with pytest.raises(NoDataError):
        registry.post_result(early.id, now=T_RES - 1)


def test_objection_tip_boundary_and_window():
    registry = make_registry()
    fact = posted_fact(registry)
    with pytest.raises(TipTooSmallError):
        registry.object(fact.id, tip=999_999, claimed=Outcome.NO, now=T_RES + 1)
    assert registry.object(fact.id, tip=1_000_000, claimed=Outcome.NO, now=T_RES + 1)
    assert registry.tips_collected == 1_000_000
    with pytest.raises(WindowClosedError):
        registry.object(fact.id, tip=2_000_000, claimed=Outcome.NO, now=fact.objection_deadline)


def test_objection_requires_posted_result():
    registry = make_registry()
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    with pytest.raises(StateError):
        registry.object(fact.id, tip=1_000_000, claimed=Outcome.NO, now=T_NOW)


def test_human_check_override_wins_at_finalization():
    registry = make_registry(price=405.0)  # automation says yes
    registry.human_check = lambda fact, claimed: claimed
    fact = posted_fact(registry)
    registry.object(fact.id, tip=1_000_000, claimed=Outcome.NO, now=T_RES + 1)
    assert fact.human_override is Outcome.NO

    secret = registry.finalize(fact.id, now=fact.objection_deadline)
    assert hashlib.sha256(secret).digest() == fact.no_pub
    assert secret_status(registry, fact.id, Outcome.YES) == SECRET_DESTROYED


def test_finalize_releases_winner_and_destroys_loser():
    registry = make_registry()
    fact = posted_fact(registry)
    with pytest.raises(TooEarlyError):
        registry.finalize(fact.id, now=fact.objection_deadline - 1)
    secret = registry.finalize(fact.id, now=fact.objection_deadline)
    assert hashlib.sha256(secret).digest() == fact.yes_pub
    assert fact.state is FactState.FINALIZED
    assert secret_status(registry, fact.id, Outcome.YES) == SECRET_RELEASED
    assert secret_status(registry, fact.id, Outcome.NO) == SECRET_DESTROYED
    assert registry.finalize(fact.id, now=fact.objection_deadline + 999) == secret


def test_finalize_requires_a_posted_result():
    registry = make_registry()
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    with pytest.raises(StateError):
        registry.finalize(fact.id, now=T_RES + WINDOW)


def test_at_most_one_secret_ever_leaves_the_registry():
    registry = make_registry()
    fact = posted_fact(registry)
    observed = set()
    observed.add(registry.finalize(fact.id, now=fact.objection_deadline))
    observed.add(registry.finalize(fact.id, now=fact.objection_deadline + 1))
    assert len(observed) == 1
    statuses = {secret_status(registry, fact.id, o) for o in Outcome}
    assert statuses == {SECRET_RELEASED, SECRET_DESTROYED}


# --- demo contract on chain --------------------------------------------------


@pytest.fixture
def demo_env():
    keys = KeyRegistry()
    funder = keys.keygen(b"funder")
    chain = SimChain(
        policy=POLICY_V090,
        genesis=[TxOutput(value=1_000_000, lock=PayToKey(funder.pub))],
        keys=keys,
    )
    registry = make_registry(keys=keys)
    alice = keys.keygen(b"alice")
    bob = keys.keygen(b"bob")
    alice_temp = keys.keygen(b"alice-temp")
    bob_temp = keys.keygen(b"bob-temp")

    fund = build_payment(
        chain,
        funder,
        [
            TxOutput(value=70_000, lock=PayToKey(alice_temp.pub)),
            TxOutput(value=30_000, lock=PayToKey(bob_temp.pub)),
        ],
    )
    assert chain.submit(fund).accepted
    chain.mine_next(SOLO, Random(1))
    fund_id = txid(fund)
    temp_outpoints = ((fund_id, 0), (fund_id, 1))
    return chain, registry, alice, bob, alice_temp, bob_temp, temp_outpoints


def funded_contract(chain, registry, alice, bob, alice_temp, bob_temp, temp_outpoints, stakes=(70_000, 30_000)):
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    contract = demo_contract(fact, alice.pub, bob.pub, stakes, temp_outpoints)
    partial = demo_setup(chain, contract, alice_temp)
    complete = demo_countersign(chain, contract, bob_temp, partial)
    result = chain.submit(complete)
    assert result.accepted and result.standard.standard
    chain.mine_next(SOLO, Random(2))
    return fact, contract


def test_demo_happy_path_alice_claims(demo_env):
    chain, registry, alice, bob, alice_temp, bob_temp, temps = demo_env
    fact, contract = funded_contract(chain, registry, alice, bob, alice_temp, bob_temp, temps)
    assert chain.utxo[contract.funding_outpoint].value == 100_000

    registry.post_result(fact.id, now=T_RES)
    registry.finalize(fact.id, now=T_RES + WINDOW)

    dest = chain.keys.keygen(b"alice-payout")
    spend = demo_claim(chain, registry, contract, alice, dest.pub, fee=1_000)
    assert chain.submit(spend).accepted
    chain.mine_next(SOLO, Random(3))
    assert chain.balance(dest.pub) == 99_000


def test_demo_countersign_rejects_altered_rebuild(demo_env):
    chain, registry, alice, bob, alice_temp, bob_temp, temps = demo_env
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    contract = demo_contract(fact, alice.pub, bob.pub, (70_000, 30_000), temps)
    partial = demo_setup(chain, contract, alice_temp, fee=0)
    with pytest.raises(ReconstructionMismatchError):
        demo_countersign(chain, contract, bob_temp, partial, fee=500)

    greedy = partial.with_witness(0, Witness())
    greedy = type(partial)(
        inputs=greedy.inputs,
        outputs=(TxOutput(value=100_000, lock=PayToKey(alice.pub)),),
    )
    with pytest.raises(ReconstructionMismatchError):
        demo_countersign(chain, contract, bob_temp, greedy)

    # one outpoint, one output value or the locktime off: each is refused,
    # also when the partner's memoised sighash claims the agreed digest
    [(spent, index), other] = [txin.outpoint for txin in partial.inputs]
    [escrow] = partial.outputs
    altered = [
        replace(partial, inputs=(TxInput((spent, index + 1), partial.inputs[0].witness),
                                 TxInput(other))),
        replace(partial, outputs=(replace(escrow, value=escrow.value - 1),)),
        replace(partial, locktime=1),
    ]
    for tx in altered:
        for forged in (False, True):
            if forged:
                object.__setattr__(tx, "_sighash", sighash(partial))
            with pytest.raises(ReconstructionMismatchError):
                demo_countersign(chain, contract, bob_temp, tx)
    # a forged memo on the agreed transaction changes nothing: Bob signs his rebuild
    agreed = replace(partial)
    object.__setattr__(agreed, "_sighash", bytes(32))
    complete = demo_countersign(chain, contract, bob_temp, agreed)
    assert chain.submit(complete).accepted


def test_demo_setup_requires_agreed_stakes(demo_env):
    chain, registry, alice, bob, alice_temp, bob_temp, temps = demo_env
    fact = registry.register_fact("BTC >= $400?", T_RES, REF, now=T_NOW)
    contract = demo_contract(fact, alice.pub, bob.pub, (70_000, 99_999), temps)
    with pytest.raises(StateError):
        demo_setup(chain, contract, alice_temp)


def test_demo_p2sh_unspendable_before_key_release(demo_env):
    chain, registry, alice, bob, alice_temp, bob_temp, temps = demo_env
    fact, contract = funded_contract(chain, registry, alice, bob, alice_temp, bob_temp, temps)

    from oraclesim.simchain import Transaction, TxInput

    attempt = Transaction(
        inputs=(TxInput(outpoint=contract.funding_outpoint),),
        outputs=(TxOutput(value=100_000, lock=PayToKey(alice.pub)),),
    )
    digest = sighash(attempt)
    party_sigs = [sign(alice.secret, digest), sign(bob.secret, digest)]
    witness_options = [
        (),
        (party_sigs[0],),
        (party_sigs[1],),
        tuple(party_sigs),
    ]
    for sigs in witness_options:
        candidate = attempt.with_witness(0, Witness(signatures=sigs, redeem=contract.redeem))
        verdict = chain.validate(candidate)
        assert not verdict.ok and verdict.reason is InvalidReason.BAD_WITNESS


def test_demo_claim_branch_matrix(demo_env):
    chain, registry, alice, bob, alice_temp, bob_temp, temps = demo_env
    fact, contract = funded_contract(chain, registry, alice, bob, alice_temp, bob_temp, temps)
    with pytest.raises(NotFinalizedError):
        demo_claim(chain, registry, contract, alice, alice.pub)

    registry.post_result(fact.id, now=T_RES)
    registry.finalize(fact.id, now=T_RES + WINDOW)
    assert fact.released_outcome is Outcome.YES
    with pytest.raises(WrongBranchError):
        demo_claim(chain, registry, contract, bob, bob.pub)
    spend = demo_claim(chain, registry, contract, alice, alice.pub)
    assert chain.validate(spend).ok


def test_demo_claim_no_branch_for_bob():
    keys = KeyRegistry()
    funder = keys.keygen(b"funder")
    chain = SimChain(
        policy=POLICY_V090,
        genesis=[TxOutput(value=1_000_000, lock=PayToKey(funder.pub))],
        keys=keys,
    )
    registry = make_registry(price=399.0, keys=keys)  # resolves no
    alice = keys.keygen(b"alice")
    bob = keys.keygen(b"bob")
    alice_temp = keys.keygen(b"alice-temp")
    bob_temp = keys.keygen(b"bob-temp")
    fund = build_payment(
        chain,
        funder,
        [
            TxOutput(value=50_000, lock=PayToKey(alice_temp.pub)),
            TxOutput(value=50_000, lock=PayToKey(bob_temp.pub)),
        ],
    )
    chain.submit(fund)
    chain.mine_next(SOLO, Random(1))
    temps = ((txid(fund), 0), (txid(fund), 1))

    fact, contract = funded_contract(
        chain, registry, alice, bob, alice_temp, bob_temp, temps, stakes=(50_000, 50_000)
    )
    registry.post_result(fact.id, now=T_RES)
    registry.finalize(fact.id, now=T_RES + WINDOW)
    assert fact.released_outcome is Outcome.NO
    with pytest.raises(WrongBranchError):
        demo_claim(chain, registry, contract, alice, alice.pub)
    spend = demo_claim(chain, registry, contract, bob, bob.pub)
    assert chain.submit(spend).accepted
    chain.mine_next(SOLO, Random(4))
    assert chain.balance(bob.pub) == 100_000
