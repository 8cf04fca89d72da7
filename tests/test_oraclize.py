"""Conditional contracts: disjointness, polling, proof gating, refunds."""

from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from oraclesim.codec import sha256
from oraclesim.datafeed import Comparator, DataSource, NoDataError
from oraclesim.oraclize import (
    AlreadySettledError,
    ArbitrationRequiredError,
    Condition,
    ConditionalContract,
    ContractState,
    EmptyTimeframeError,
    NonSSLSourceError,
    Oracle,
    OraclizeError,
    OverlappingConditionsError,
    ProofInvalidError,
    TooEarlyError,
    arbitrate,
    check_disjoint,
    co_sign_and_broadcast,
    conditions_overlap,
    poll_times,
    refund_expiry,
)
from oraclesim.simchain import (
    BadWitnessError,
    KeyRegistry,
    Miner,
    MultiSig,
    PayToKey,
    POLICY_V090,
    RejectedError,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    sighash,
    sign,
)

COIN = 10**8
T0 = 1_700_000_000
HOUR = 3600
DAY = 24 * HOUR
MINERS = [Miner("solo", 1.0)]
DUMMY = bytes(32)


def make_world(temp_entries=(), rain_entries=(), *, ssl=True, coins_each=6):
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    carol = reg.keygen(b"carol")
    genesis = [
        TxOutput(value=2 * COIN, lock=PayToKey(pair.pub))
        for pair in (alice, bob, carol)
        for _ in range(coins_each)
    ]
    chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
    entries = [("milan.temp", t, v) for t, v in temp_entries]
    entries += [("milan.rain", t, v) for t, v in rain_entries]
    sources = {"wolfram": DataSource("wolfram", entries, ssl=ssl)}
    oracle = Oracle(reg, sources)
    return chain, reg, oracle, alice, bob, carol


def milan_conditions(bob_pub):
    return (
        Condition("wolfram", "milan.temp", Comparator.GT, 10, bob_pub),
        Condition("wolfram", "milan.rain", Comparator.EQ, True, bob_pub),
    )


def fund(chain, oracle, alice, bob, conditions, **kwargs):
    defaults = dict(
        stakes=(5 * COIN // 10, 3 * COIN // 10),
        default_beneficiary=alice.pub,
        start=T0,
        end=T0 + DAY,
        refund_locktime=chain.height + 6,
    )
    defaults.update(kwargs)
    contract = oracle.build_contract(
        chain, alice=alice, bob=bob, conditions=conditions, **defaults
    )
    chain.mine_next(MINERS, Random(1))  # confirm the funding
    return contract


# ----------------------------------------------------------- vocabulary


def test_condition_vocabulary():
    for cmp in (Comparator.LT, Comparator.LE, Comparator.EQ, Comparator.GE, Comparator.GT):
        Condition("s", "k", cmp, 10, DUMMY)
    Condition("s", "k", Comparator.EQ, True, DUMMY)
    Condition("s", "k", Comparator.EQ, "storm", DUMMY)
    with pytest.raises(ValueError):
        Condition("s", "k", Comparator.NE, 10, DUMMY)
    with pytest.raises(ValueError):
        Condition("s", "k", Comparator.GT, True, DUMMY)
    with pytest.raises(ValueError):
        Condition("s", "k", Comparator.LT, "storm", DUMMY)


def test_condition_holds_is_typed():
    gt10 = Condition("s", "k", Comparator.GT, 10, DUMMY)
    assert gt10.holds(12)
    assert gt10.holds(10.5)
    assert not gt10.holds(10)
    assert not gt10.holds(True)  # bool is an event, not a number
    assert not gt10.holds("12")
    event = Condition("s", "k", Comparator.EQ, True, DUMMY)
    assert event.holds(True)
    assert not event.holds(False)
    assert not event.holds(1)  # int 1 is not the event flag
    label = Condition("s", "k", Comparator.EQ, "storm", DUMMY)
    assert label.holds("storm")
    assert not label.holds("calm")


def cond(cmp, threshold, key="k"):
    return Condition("s", key, cmp, threshold, DUMMY)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (cond(Comparator.GT, 10), cond(Comparator.GT, 5), True),  # both hold at 12
        (cond(Comparator.GT, 10), cond(Comparator.LE, 10), False),
        (cond(Comparator.GT, 10), cond(Comparator.LT, 10), False),
        (cond(Comparator.GE, 10), cond(Comparator.LE, 10), True),  # exactly 10
        (cond(Comparator.GE, 10), cond(Comparator.LT, 10), False),
        (cond(Comparator.EQ, 10), cond(Comparator.GE, 10), True),
        (cond(Comparator.EQ, 10), cond(Comparator.GT, 10), False),
        (cond(Comparator.EQ, 10), cond(Comparator.EQ, 10), True),
        (cond(Comparator.EQ, 10), cond(Comparator.EQ, 11), False),
        (cond(Comparator.LT, 5), cond(Comparator.GE, 5), False),  # a partition
        (cond(Comparator.EQ, True), cond(Comparator.EQ, False), False),
        (cond(Comparator.EQ, True), cond(Comparator.EQ, True), True),
        (cond(Comparator.EQ, True), cond(Comparator.GT, 0), False),  # kinds differ
        (cond(Comparator.EQ, "rain"), cond(Comparator.EQ, "snow"), False),
        (cond(Comparator.EQ, "rain"), cond(Comparator.EQ, "rain"), True),
        (cond(Comparator.GT, 10), cond(Comparator.GT, 10, key="other"), False),
    ],
)
def test_overlap_known_cases(a, b, expected):
    assert conditions_overlap(a, b) is expected
    assert conditions_overlap(b, a) is expected


def test_check_disjoint_reports_the_offending_pair():
    ok = [cond(Comparator.GT, 10), cond(Comparator.LE, 5)]
    check_disjoint(ok)
    with pytest.raises(OverlappingConditionsError):
        check_disjoint([cond(Comparator.GT, 10), cond(Comparator.GT, 5)])


# independent decision procedure: enough sample points to hit any
# nonempty intersection of two threshold intervals, evaluated exactly
_SAT = {
    Comparator.LT: lambda x, t: x < t,
    Comparator.LE: lambda x, t: x <= t,
    Comparator.EQ: lambda x, t: x == t,
    Comparator.GE: lambda x, t: x >= t,
    Comparator.GT: lambda x, t: x > t,
}


def sampled_overlap(a, b):
    ta, tb = Fraction(a.threshold), Fraction(b.threshold)
    points = {ta, tb, min(ta, tb) - 1, max(ta, tb) + 1, (ta + tb) / 2}
    return any(
        _SAT[a.comparator](p, ta) and _SAT[b.comparator](p, tb) for p in points
    )


def test_overlap_agrees_with_point_sampling():
    rng = Random(11)
    comparators = [Comparator.LT, Comparator.LE, Comparator.EQ, Comparator.GE, Comparator.GT]
    for trial in range(2000):
        if trial % 2:
            thresholds = [rng.randint(-3, 3), rng.randint(-3, 3)]
        else:
            thresholds = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        a = cond(rng.choice(comparators), thresholds[0])
        b = cond(rng.choice(comparators), thresholds[1])
        expected = sampled_overlap(a, b)
        assert conditions_overlap(a, b) is expected, (a, b)
        assert conditions_overlap(b, a) is expected


# --------------------------------------------------------- construction


def test_build_contract_funds_escrow_and_presigns_refund():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 8)], rain_entries=[(T0, False)]
    )
    refund_locktime = chain.height + 6
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub), refund_locktime=refund_locktime
    )

    escrow = chain.utxo[contract.funding_outpoint]
    assert isinstance(escrow.lock, MultiSig)
    assert escrow.lock.m == 2
    assert escrow.lock.keys == (alice.pub, bob.pub, oracle.pair.pub)
    stakes_total = 8 * COIN // 10
    assert escrow.value == stakes_total - 1000 == contract.escrow_value

    # both agents paid their stake, change came back
    assert chain.balance(alice.pub) == 12 * COIN - 5 * COIN // 10
    assert chain.balance(bob.pub) == 12 * COIN - 3 * COIN // 10

    draft = contract.refund_draft
    assert draft.locktime == refund_locktime
    assert len(draft.inputs[0].witness.signatures) == 2  # pre-signed by both
    assert sum(out.value for out in draft.outputs) == contract.escrow_value - 1000
    assert contract.state is ContractState.ACTIVE


def test_zero_stake_agent_still_contributes_one_coin():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 8)], rain_entries=[(T0, False)]
    )
    first_coin = chain.utxos_for(alice.pub)[0][0]
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub), stakes=(0, 3 * COIN // 10)
    )
    funding = chain.txs_by_id[contract.funding_outpoint[0]]
    assert first_coin in [txin.outpoint for txin in funding.inputs]
    assert chain.balance(alice.pub) == 12 * COIN  # the whole coin came back as change


def test_build_contract_guards():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 8)])
    overlapping = (
        Condition("wolfram", "milan.temp", Comparator.GT, 10, bob.pub),
        Condition("wolfram", "milan.temp", Comparator.GT, 5, carol.pub),
    )
    with pytest.raises(OverlappingConditionsError):
        fund(chain, oracle, alice, bob, overlapping)
    with pytest.raises(EmptyTimeframeError):
        fund(chain, oracle, alice, bob, milan_conditions(bob.pub), end=T0)
    with pytest.raises(ValueError):
        fund(chain, oracle, alice, bob, milan_conditions(bob.pub), poll_interval=0)


def test_non_ssl_source_is_rejected():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 8)], ssl=False)
    with pytest.raises(NonSSLSourceError):
        fund(chain, oracle, alice, bob, milan_conditions(bob.pub))


# --------------------------------------------------------------- milan


def test_milan_settles_to_bob_on_warm_reading():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
    )
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub))
    bob_before = chain.balance(bob.pub)

    settlement = oracle.poll(contract, T0 + HOUR)
    assert settlement is not None
    assert settlement.condition_index == 0
    assert settlement.observation.value == 12
    assert settlement.proof_ok is True
    assert contract.state is ContractState.SETTLED_CONDITION
    assert contract.settled_condition == 0

    co_sign_and_broadcast(chain, settlement, bob)
    chain.mine_next(MINERS, Random(2))
    payout = contract.escrow_value - 1000
    assert chain.balance(bob.pub) == bob_before + payout


def test_milan_defaults_to_alice_on_cold_dry_trace():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 8)], rain_entries=[(T0, False)]
    )
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub))
    alice_before = chain.balance(alice.pub)

    ticks = list(poll_times(contract))
    assert len(ticks) == 24  # hourly over a day
    assert all(oracle.poll(contract, t) is None for t in ticks)

    with pytest.raises(TooEarlyError):
        oracle.settle_default(contract, contract.end)
    settlement = oracle.settle_default(contract, contract.end + 1)
    assert settlement.condition_index is None
    assert contract.state is ContractState.SETTLED_DEFAULT

    co_sign_and_broadcast(chain, settlement, alice)
    chain.mine_next(MINERS, Random(3))
    assert chain.balance(alice.pub) == alice_before + contract.escrow_value - 1000
    with pytest.raises(AlreadySettledError):
        oracle.settle_default(contract, contract.end + 2)


def test_rain_event_settles_via_second_condition():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 8)], rain_entries=[(T0, False), (T0 + 3 * HOUR, True)]
    )
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub))
    assert oracle.poll(contract, T0 + HOUR) is None
    assert oracle.poll(contract, T0 + 2 * HOUR) is None
    settlement = oracle.poll(contract, T0 + 3 * HOUR)
    assert settlement.condition_index == 1
    assert settlement.observation.value is True
    assert settlement.tx.outputs[0].lock == PayToKey(bob.pub)


def test_simultaneous_conditions_resolve_by_list_order():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, True)]
    )
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub))
    settlement = oracle.poll(contract, T0 + HOUR)
    assert settlement.condition_index == 0


def test_poll_alignment_guards():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 8)])
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub)[:1])
    with pytest.raises(ValueError):
        oracle.poll(contract, T0)  # the window opens after start
    with pytest.raises(ValueError):
        oracle.poll(contract, T0 + HOUR + 1)  # off the schedule
    with pytest.raises(ValueError):
        oracle.poll(contract, T0 + DAY + HOUR)  # past the end


def test_missing_series_surfaces_no_data():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0 + 2 * HOUR, 8)])
    windy = (Condition("wolfram", "milan.wind", Comparator.GT, 50, bob.pub),)
    with pytest.raises(ValueError, match="has no key 'milan.wind'"):
        fund(chain, oracle, alice, bob, windy)  # a key the source lacks is refused
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub)[:1])
    with pytest.raises(NoDataError):
        oracle.poll(contract, T0 + HOUR)  # the series starts after this poll


# --------------------------------------------------------- proof gating


def corrupting_hook(proof):
    return replace(proof, attestation=sha256(proof.attestation))


def test_tampered_proof_with_shield_on_blocks_signature():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 12)])
    oracle.proof_hook = corrupting_hook
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub)[:1], proofshield=True
    )
    with pytest.raises(ProofInvalidError):
        oracle.poll(contract, T0 + HOUR)
    assert contract.state is ContractState.ACTIVE  # no signature happened
    [record] = oracle.audit
    assert record.kind == "refused"
    assert record.tx is None
    assert record.proof_ok is False

    oracle.proof_hook = None  # data path is clean again: next tick settles
    settlement = oracle.poll(contract, T0 + 2 * HOUR)
    assert settlement.proof_ok is True
    assert settlement.verified_before_signing is True


def test_co_signing_a_refusal_is_refused_and_broadcasts_nothing():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 12)])
    oracle.proof_hook = corrupting_hook
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub)[:1], proofshield=True
    )
    with pytest.raises(ProofInvalidError):
        oracle.poll(contract, T0 + HOUR)
    pooled = len(chain.mempool.entries)
    with pytest.raises(ProofInvalidError, match="refused to sign"):
        co_sign_and_broadcast(chain, oracle.audit[0], bob)
    assert len(chain.mempool.entries) == pooled
    assert contract.state is ContractState.ACTIVE


def test_tampered_proof_with_shield_off_signs_and_flags():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 12)])
    oracle.proof_hook = corrupting_hook
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub)[:1], proofshield=False
    )
    settlement = oracle.poll(contract, T0 + HOUR)
    assert settlement is not None
    assert settlement.proof_ok is False
    assert settlement.verified_before_signing is False
    [record] = oracle.audit
    assert record.tx is not None and record.proof_ok is False
    # the flawed settlement still spends: auditability, not prevention
    co_sign_and_broadcast(chain, settlement, bob)


def test_shielded_oracle_never_signs_unverified_over_adversarial_trace():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], coins_each=40
    )
    rng = Random(7)
    tampering = {"on": False}
    oracle.proof_hook = lambda proof: corrupting_hook(proof) if tampering["on"] else proof

    settled = 0
    for _ in range(15):
        contract = fund(
            chain, oracle, alice, bob,
            milan_conditions(bob.pub)[:1],
            stakes=(COIN, COIN),
            proofshield=True,
        )
        for tick in poll_times(contract):
            tampering["on"] = rng.random() < 0.5
            try:
                if oracle.poll(contract, tick) is not None:
                    settled += 1
                    break
            except ProofInvalidError:
                continue
    assert settled == 15
    condition_records = [r for r in oracle.audit if r.kind == "condition"]
    refusals = [r for r in oracle.audit if r.kind == "refused"]
    assert len(condition_records) == 15 and refusals
    assert all(r.proof_ok and r.verified_before_signing for r in condition_records)


# ------------------------------------------------- witnesses and refunds


def test_a_refused_broadcast_is_a_bad_witness_only_when_the_witness_is_bad():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
    )
    terms = dict(
        alice=alice, bob=bob, conditions=milan_conditions(bob.pub),
        stakes=(5 * COIN // 10, 3 * COIN // 10), default_beneficiary=alice.pub,
        start=T0, end=T0 + DAY, refund_locktime=chain.height + 6,
    )
    contract = oracle.build_contract(chain, **terms)
    # the same funding again, then one spending the same coins, before a block
    for stakes, reason in ((terms["stakes"], "duplicate"), ((COIN // 10, COIN // 10), "conflict")):
        with pytest.raises(RejectedError, match=f"^funding rejected: {reason}$") as raised:
            oracle.build_contract(chain, **{**terms, "stakes": stakes})
        assert not isinstance(raised.value, BadWitnessError)

    chain.mine_next(MINERS, Random(1))
    settlement = oracle.poll(contract, T0 + HOUR)
    with pytest.raises(BadWitnessError, match="^settlement rejected: bad_witness$"):
        co_sign_and_broadcast(chain, settlement, carol)  # carol holds no escrow key
    co_sign_and_broadcast(chain, settlement, bob)
    with pytest.raises(RejectedError, match="^settlement rejected: duplicate$") as raised:
        co_sign_and_broadcast(chain, settlement, bob)
    assert not isinstance(raised.value, BadWitnessError)


def test_a_refused_refund_names_the_pool_reason():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 8)], rain_entries=[(T0, False)]
    )
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub), refund_locktime=2
    )
    chain.broadcast(contract.refund_draft, "refund")  # an agent relays the draft first
    with pytest.raises(RejectedError, match="^refund rejected: duplicate$") as raised:
        refund_expiry(chain, contract)
    assert not isinstance(raised.value, BadWitnessError)
    assert contract.state is ContractState.ACTIVE


def test_threshold_witness_enumeration():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
    )
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub))
    settlement = oracle.poll(contract, T0 + HOUR)

    # the settlement with the oracle's signature taken off its one input
    lone = replace(settlement, tx=settlement.tx.with_witness(0, Witness()))
    with pytest.raises(BadWitnessError):
        co_sign_and_broadcast(chain, lone, bob)  # bob alone is 1 of 2

    # the oracle alone cannot redirect the escrow to itself either
    theft = Transaction(
        inputs=(TxInput(outpoint=contract.funding_outpoint),),
        outputs=(
            TxOutput(value=contract.escrow_value - 1000, lock=PayToKey(oracle.pair.pub)),
        ),
    )
    theft = theft.with_witness(
        0, Witness(signatures=(sign(oracle.pair.secret, sighash(theft)),))
    )
    assert not chain.submit(theft).accepted

    # oracle + alice complete bob's settlement: the script counts keys,
    # not intent, which is exactly why the oracle must be trusted
    tx = co_sign_and_broadcast(chain, settlement, alice)
    chain.mine_next(MINERS, Random(4))
    assert tx.outputs[0].lock == PayToKey(bob.pub)


def test_dead_oracle_refund_after_locktime():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 8)], rain_entries=[(T0, False)]
    )
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub), refund_locktime=4
    )
    alice_before = chain.balance(alice.pub)
    bob_before = chain.balance(bob.pub)

    with pytest.raises(TooEarlyError):
        refund_expiry(chain, contract)  # next height is 2, locktime is 4
    chain.mine_next(MINERS, Random(5))
    chain.mine_next(MINERS, Random(6))

    refund_expiry(chain, contract)
    assert contract.state is ContractState.REFUNDED
    chain.mine_next(MINERS, Random(7))

    refund_value = contract.escrow_value - 1000
    alice_share = refund_value * 5 // 8  # pro rata on the 5:3 stakes
    assert chain.balance(alice.pub) == alice_before + alice_share
    assert chain.balance(bob.pub) == bob_before + refund_value - alice_share
    with pytest.raises(AlreadySettledError):
        refund_expiry(chain, contract)


def test_settlement_and_refund_exclude_each_other():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
    )
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub), refund_locktime=2
    )
    settlement = oracle.poll(contract, T0 + HOUR)
    co_sign_and_broadcast(chain, settlement, bob)
    chain.mine_next(MINERS, Random(8))

    with pytest.raises(AlreadySettledError):
        refund_expiry(chain, contract)
    with pytest.raises(AlreadySettledError):
        oracle.poll(contract, T0 + 2 * HOUR)
    # the pre-signed draft double-spends the settled escrow: dead on arrival
    assert not chain.submit(contract.refund_draft).accepted


# ----------------------------------------------------------- arbitration


def test_arbitrated_contract_resolves_by_the_fourth_party():
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
    )
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub), arbitrator=carol
    )
    escrow = chain.utxo[contract.funding_outpoint]
    assert escrow.lock.keys == (alice.pub, bob.pub, carol.pub)

    with pytest.raises(ArbitrationRequiredError):
        oracle.poll(contract, T0 + HOUR)
    with pytest.raises(ArbitrationRequiredError):
        oracle.settle_default(contract, contract.end + 1)

    settlement = arbitrate(contract, carol, 0)
    assert contract.state is ContractState.SETTLED_CONDITION
    assert settlement.kind == "arbitrated" and settlement.time is None
    assert oracle.audit == []  # the oracle made no decision here
    tx = co_sign_and_broadcast(chain, settlement, bob)
    chain.mine_next(MINERS, Random(9))
    assert tx.outputs[0].lock == PayToKey(bob.pub)


def test_arbitrated_default_and_oracle_key_exclusion():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 8)])
    contract = fund(
        chain, oracle, alice, bob, milan_conditions(bob.pub)[:1], arbitrator=carol
    )
    settlement = arbitrate(contract, carol, None)
    assert contract.state is ContractState.SETTLED_DEFAULT
    assert settlement.tx.outputs[0].lock == PayToKey(alice.pub)

    # the oracle's key is not in this escrow: its co-signature is worthless
    digest = sighash(settlement.tx)
    forged = settlement.tx.with_witness(
        0,
        Witness(
            signatures=(
                *settlement.tx.inputs[0].witness.signatures,
                sign(oracle.pair.secret, digest),
            )
        ),
    )
    assert not chain.submit(forged).accepted
    co_sign_and_broadcast(chain, settlement, alice)


@pytest.mark.parametrize("index", [-1, 2, 7])
def test_arbitration_refuses_a_condition_the_contract_lacks(index):
    chain, reg, oracle, alice, bob, carol = make_world(
        temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
    )
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub), arbitrator=carol)
    assert len(contract.conditions) == 2
    with pytest.raises(OraclizeError, match=f"has no condition {index}"):
        arbitrate(contract, carol, index)
    # a refused decision settles nothing: the arbitrator can still decide
    assert contract.state is ContractState.ACTIVE
    arbitrate(contract, carol, 1)
    assert contract.settled_condition == 1


def test_arbitration_takes_only_the_named_arbitrator():
    chain, reg, oracle, alice, bob, carol = make_world(temp_entries=[(T0, 8)])
    contract = fund(chain, oracle, alice, bob, milan_conditions(bob.pub)[:1], arbitrator=carol)
    with pytest.raises(OraclizeError, match="names another arbitrator"):
        arbitrate(contract, bob, 0)
    assert contract.state is ContractState.ACTIVE


def test_poll_records_a_condition_audit_row():
    for refused_first in (False, True):
        chain, reg, oracle, alice, bob, carol = make_world(
            temp_entries=[(T0, 12)], rain_entries=[(T0, False)]
        )
        contract = fund(
            chain, oracle, alice, bob, milan_conditions(bob.pub), proofshield=refused_first
        )
        refusals = []
        if refused_first:
            oracle.proof_hook = corrupting_hook
            with pytest.raises(ProofInvalidError):
                oracle.poll(contract, T0 + HOUR)
            oracle.proof_hook = None
            refusals = list(oracle.audit)
            (refused,) = refusals
            assert refused.kind == "refused" and refused.time == T0 + HOUR
            assert refused.tx is None
        returned = oracle.poll(contract, T0 + (1 + refused_first) * HOUR)
        assert oracle.audit == [*refusals, returned]
        record = oracle.audit[-1]
        assert record is returned
        assert record.kind == "condition"
        assert record.contract_id == contract.contract_id
        assert record.tx is not None and record.proof_ok
