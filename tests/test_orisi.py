"""Safe-parameter arithmetic, the PoW bus, and the multi-oracle settlement."""

import itertools
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oraclesim import orisi
from oraclesim.datafeed import Comparator, DataSource
from oraclesim.harness import bundled_scenarios, run_scenario
from oraclesim.orisi import (
    BadQuorumError,
    BusMessage,
    Condition,
    ContractState,
    DEFAULT_BUS_DIFFICULTY,
    DraftKind,
    KeyLimitExceededError,
    MessageBus,
    NotAllAckedError,
    OracleNode,
    OrisiFees,
    QuorumNotReachedError,
    SafeParams,
    StateError,
    VerificationFailedError,
    _pow_bound,
    activate,
    check_pow,
    compute_safe_params,
    decode_bus_payload,
    encode_bus_payload,
    finalize,
    mint_message,
    propose,
    ready_draft,
)
from oraclesim.simchain import (
    BadWitnessError,
    InvalidReason,
    KeyPair,
    KeyRegistry,
    Miner,
    MultiSig,
    NonStandardReason,
    PayToKey,
    POLICY_V090,
    RejectedError,
    SimChain,
    Transaction,
    TxOutput,
    Witness,
    classify,
    sighash,
    sign,
)
import test_formats as ref
from test_script_tx import _edits

LOOSE = [Miner("loose", 1.0)]
T_START = 1_400_000_000
T_RESULT = T_START + 7_200
T_SETTLE = T_START + 86_400
BTC = 100_000_000


def test_safe_params_examples():
    assert compute_safe_params(4, 7) == SafeParams(m=4, n=7, threshold=8, total_keys=11, agent_keys=4)
    assert compute_safe_params(3, 3) == SafeParams(m=3, n=3, threshold=4, total_keys=4, agent_keys=1)
    with pytest.raises(KeyLimitExceededError):
        compute_safe_params(5, 10)  # 2*10-5+1 = 16
    with pytest.raises(BadQuorumError):
        compute_safe_params(0, 3)
    with pytest.raises(BadQuorumError):
        compute_safe_params(4, 3)


def test_safe_params_whole_accept_region():
    for n in range(1, 16):
        for m in range(1, n + 1):
            total = 2 * n - m + 1
            if total > 15:
                with pytest.raises(KeyLimitExceededError):
                    compute_safe_params(m, n)
                continue
            params = compute_safe_params(m, n)
            assert params.threshold == n + 1 > n
            assert params.agent_keys + m == params.threshold
            assert params.agent_keys >= 1
            assert params.total_keys == total <= 15


def leading_zero_bits(digest: bytes) -> int:
    as_int = int.from_bytes(digest, "big")
    return 256 - as_int.bit_length() if as_int else 256


def test_pow_bound_matches_integer_arithmetic():
    samples = [
        bytes(32),
        bytes([0x80]) + bytes(31),
        bytes([0x01]) + bytes(31),
        bytes([0x00, 0xFF]) + bytes(30),
        bytes([0x00, 0x00, 0x10]) + bytes(29),
    ]
    for digest in samples:
        for difficulty in range(257):
            assert (digest <= _pow_bound(difficulty)) == (leading_zero_bits(digest) >= difficulty)


@pytest.mark.parametrize("difficulty", [257, 300, -1])
def test_difficulty_outside_0_to_256_is_refused(difficulty):
    with pytest.raises(ValueError):
        mint_message(b"never ground", difficulty)  # at 257 grinding could never end
    assert not check_pow(BusMessage(b"payload", 0, difficulty))


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=300), difficulty=st.integers(0, 10))
def test_mint_message_returns_the_smallest_clearing_nonce(payload, difficulty):
    message = mint_message(payload, difficulty)
    first = next(
        n
        for n in itertools.count()
        if leading_zero_bits(ref.message_digest(payload, n)) >= difficulty
    )
    assert message == BusMessage(payload, first, difficulty)
    assert check_pow(message)
    if first:
        assert not check_pow(BusMessage(payload, first - 1, difficulty))


def test_bundled_orisi_scenarios_mint_pinned_nonces(monkeypatch):
    minted = []

    def record(*args, **kwargs):
        message = mint_message(*args, **kwargs)
        minted.append(message.nonce)
        return message

    monkeypatch.setattr(orisi, "mint_message", record)
    for path in bundled_scenarios():
        if path.stem in ("orisi_election", "orisi_theft"):
            minted.clear()
            assert run_scenario(path).passed
            assert minted == [68, 835, 473, 17, 180, 6, 428], path.stem


def test_mint_message_clears_difficulty_deterministically():
    a = mint_message(b"hello oracles", difficulty=8)
    b = mint_message(b"hello oracles", difficulty=8)
    assert a == b
    assert check_pow(a)


def test_bus_drops_bad_pow_and_low_difficulty():
    bus = MessageBus()
    good = mint_message(b"payload", difficulty=8)
    assert bus.post(good)

    bad_nonce = next(
        n for n in itertools.count() if not check_pow(BusMessage(b"payload", n, 8))
    )
    assert not bus.post(BusMessage(b"payload", bad_nonce, 8))

    weak = mint_message(b"payload", difficulty=4)
    assert not bus.post(weak)
    assert bus.dropped == 2
    assert [m.payload for m in bus.drain()] == [b"payload"]
    assert bus.drain() == []


def test_bus_drops_a_nonce_outside_the_u64_range():
    bus = MessageBus()
    for nonce in (-1, 2**64):
        assert not check_pow(BusMessage(b"payload", nonce, 8))
        assert not bus.post(BusMessage(b"payload", nonce, 8))
    assert bus.dropped == 2
    assert bus.drain() == []


# --- end-to-end contract -----------------------------------------------------


def build_world(n=7, m=4, candidate_a_wins=True, amount=10 * BTC):
    keys = KeyRegistry()
    alice = keys.keygen(b"alice")
    bob = keys.keygen(b"bob")
    project = keys.keygen(b"orisi-project")
    entries = [("candidate_a_wins", T_RESULT, candidate_a_wins)]
    source = DataSource("election", entries=entries)
    nodes = [
        OracleNode(oracle_id=f"oracle-{i}", keypair=keys.keygen(b"oracle-%d" % i), source=source)
        for i in range(n)
    ]
    chain = SimChain(
        policy=POLICY_V090,
        genesis=[TxOutput(value=11 * BTC, lock=PayToKey(alice.pub))],
        keys=keys,
    )
    condition = Condition(
        source_id="election",
        key="candidate_a_wins",
        comparator=Comparator.EQ,
        threshold=True,
        settle_time=T_SETTLE,
    )
    fees = OrisiFees(oracle_fee=10_000, project_fee=30_000, project_pub=project.pub)
    contract, agents = propose(
        chain,
        "election-safe",
        alice,
        bob.pub,
        [(node.oracle_id, node.keypair.pub) for node in nodes],
        m,
        condition,
        amount,
        fees,
    )
    return chain, contract, agents, nodes, alice, bob, project


def test_a_condition_on_a_feed_of_another_kind_never_unlocks():
    chain, contract, agents, nodes, alice, bob, project = build_world()
    # the election feed holds the event True; the number 0.5 is of another kind
    contract.condition = Condition("election", "candidate_a_wins", Comparator.GT, 0.5, T_SETTLE)
    assert nodes[0].evaluate(contract, T_RESULT) is None
    assert nodes[0].evaluate(contract, T_SETTLE) is DraftKind.REFUND


def test_propose_builds_the_paper_safe():
    chain, contract, agents, nodes, alice, bob, project = build_world()
    assert contract.state is ContractState.PROPOSED
    assert contract.params.threshold == 8 and contract.params.total_keys == 11
    lock = contract.funding_tx.outputs[0].lock
    assert isinstance(lock, MultiSig) and lock.m == 8 and len(lock.keys) == 11
    assert contract.funding_tx.outputs[0].value == 10 * BTC
    assert len(agents) == 4

    for draft in (contract.unlock_tx, contract.refund_tx):
        assert [i.outpoint for i in draft.inputs] == [contract.safe_outpoint]
        assert len(draft.outputs) == 1 + 7 + 1
        assert draft.outputs[0].value == 10 * BTC - 7 * 10_000 - 30_000
        assert sum(o.value for o in draft.outputs) == 10 * BTC
    assert contract.unlock_tx.outputs[0].lock == PayToKey(bob.pub)
    assert contract.refund_tx.outputs[0].lock == PayToKey(alice.pub)


def test_propose_rejects_zero_amount_and_fee_starvation():
    chain, contract, agents, nodes, alice, bob, project = build_world()
    fees = contract.fees
    with pytest.raises(ValueError):
        propose(chain, "x", alice, bob.pub, [("o", nodes[0].keypair.pub)], 1, contract.condition, 0, fees)
    with pytest.raises(ValueError):
        propose(
            chain, "y", alice, bob.pub, [("o", nodes[0].keypair.pub)], 1,
            contract.condition, 40_000, fees,  # 10k oracle + 30k project leaves nothing
        )


def test_ack_handshake_gates_activation():
    chain, contract, agents, nodes, *_ = build_world()
    for node in nodes[:-1]:
        node.ack(contract)
    with pytest.raises(NotAllAckedError):
        activate(chain, contract)
    assert contract.state is ContractState.PROPOSED

    nodes[-1].ack(contract)
    assert contract.state is ContractState.ACKED
    activate(chain, contract)
    assert contract.state is ContractState.ACTIVE
    chain.mine_next(LOOSE, Random(1))
    assert chain.utxo[contract.safe_outpoint].value == 10 * BTC


def test_ack_rejects_draft_that_omits_an_oracle_fee():
    chain, contract, agents, nodes, alice, bob, project = build_world()
    tampered = Transaction(
        inputs=contract.unlock_tx.inputs,
        outputs=contract.unlock_tx.outputs[:-2] + (contract.unlock_tx.outputs[-1],),
    )
    contract.unlock_tx = tampered
    victim = nodes[-1]  # fee outputs follow sorted oracle ids, so the drop hits oracle-6
    with pytest.raises(VerificationFailedError):
        victim.ack(contract)


def test_ack_rejects_unlisted_oracle_and_foreign_condition():
    chain, contract, agents, nodes, *_ = build_world()
    stranger = OracleNode("stranger", chain.keys.keygen(b"stranger"), nodes[0].source)
    with pytest.raises(VerificationFailedError):
        stranger.ack(contract)

    other_source = DataSource("weather", entries=[("k", 0, 1)])
    blind = OracleNode(nodes[0].oracle_id, nodes[0].keypair, other_source)
    with pytest.raises(VerificationFailedError):
        blind.ack(contract)


def test_ack_refuses_a_source_without_the_condition_key():
    chain, contract, agents, nodes, *_ = build_world()
    keyless = DataSource("election", entries=[("turnout", 0, 61)])
    node = OracleNode(nodes[0].oracle_id, nodes[0].keypair, keyless)
    with pytest.raises(VerificationFailedError, match="no key 'candidate_a_wins'"):
        node.ack(contract)


def activated_world(**kwargs):
    chain, contract, agents, nodes, alice, bob, project = build_world(**kwargs)
    for node in nodes:
        node.ack(contract)
    activate(chain, contract)
    chain.mine_next(LOOSE, Random(1))
    return chain, contract, agents, nodes, alice, bob, project


def test_polling_no_data_then_signatures_over_bus():
    chain, contract, agents, nodes, *_ = activated_world()
    bus = MessageBus()
    assert nodes[0].poll_and_sign(contract, bus, now=T_START) is None  # no data yet, retry later

    for node in nodes[:4]:
        assert node.poll_and_sign(contract, bus, now=T_RESULT) is not None
    applied = contract.apply_bus(bus, chain.keys)
    assert applied == 4
    assert len(contract.signatures[DraftKind.UNLOCK]) == 4
    assert ready_draft(contract) is DraftKind.UNLOCK

    again = nodes[0].poll_and_sign(contract, bus, now=T_RESULT + 3600)
    assert again is None  # already signed


def test_bus_garbage_and_spam_never_become_signatures():
    chain, contract, agents, nodes, *_ = activated_world()
    bus = MessageBus()
    bus.post(mint_message(b"not a signature at all"))
    assert contract.apply_bus(bus, chain.keys) == 0

    sig = sign(nodes[0].keypair.secret, sighash(contract.unlock_tx))
    payload = encode_bus_payload(contract.contract_id, nodes[0].oracle_id, DraftKind.UNLOCK, sig)
    bad = next(
        BusMessage(payload, n, DEFAULT_BUS_DIFFICULTY)
        for n in itertools.count()
        if not check_pow(BusMessage(payload, n, DEFAULT_BUS_DIFFICULTY))
    )
    assert not bus.post(bad)
    assert contract.apply_bus(bus, chain.keys) == 0
    assert contract.signatures[DraftKind.UNLOCK] == {}

    forged = sign(chain.keys.keygen(b"mallory").secret, sighash(contract.unlock_tx))
    payload = encode_bus_payload(contract.contract_id, nodes[0].oracle_id, DraftKind.UNLOCK, forged)
    bus.post(mint_message(payload))
    assert contract.apply_bus(bus, chain.keys) == 0

    # node 0's own tag under another signer pub: `KeyRegistry.verify` is the
    # one signer check, and the slot does not check the signer again
    oracle_id = nodes[0].oracle_id
    relabelled = replace(sig, signer_pub=nodes[1].keypair.pub)
    assert not contract.record_signature(DraftKind.UNLOCK, oracle_id, relabelled, chain.keys)
    assert contract.record_signature(DraftKind.UNLOCK, oracle_id, sig, chain.keys)


def _bus_refuses_or_round_trips(payload: bytes) -> None:
    try:
        decoded = decode_bus_payload(payload)
    except ValueError:  # what `ContractState.apply_bus` skips
        return
    assert encode_bus_payload(*decoded) == payload


_BUS_PAYLOADS = [
    encode_bus_payload("c1", "o1", DraftKind.UNLOCK, sign(bytes(32), bytes(range(32)))),
    encode_bus_payload("", "oracle-Ω", DraftKind.REFUND, sign(b"\x07" * 32, b"\xff" * 32)),
]


@settings(max_examples=500)
@given(data=st.binary(max_size=200))
def test_decode_bus_payload_refuses_or_round_trips_arbitrary_bytes(data):
    _bus_refuses_or_round_trips(data)


@settings(max_examples=500)
@given(payload=st.sampled_from(_BUS_PAYLOADS), data=st.data())
def test_decode_bus_payload_refuses_or_round_trips_edited_payloads(payload, data):
    assert decode_bus_payload(payload)[2] in (DraftKind.UNLOCK, DraftKind.REFUND)
    _bus_refuses_or_round_trips(data.draw(_edits(payload)))


def settle_unlock(chain, contract, agents, nodes, m=4):
    bus = MessageBus()
    for node in nodes[:m]:
        node.poll_and_sign(contract, bus, now=T_RESULT)
    contract.apply_bus(bus, chain.keys)
    return finalize(chain, contract, agents)


def test_settlement_pays_everyone_and_is_nonstandard():
    chain, contract, agents, nodes, alice, bob, project = activated_world()
    settled = settle_unlock(chain, contract, agents, nodes)
    assert contract.state is ContractState.SETTLED
    decision = classify(settled, chain.policy)
    assert not decision.standard
    assert decision.reason is NonStandardReason.TOO_MANY_WITNESS_SIGS
    assert len(settled.inputs[0].witness.signatures) == 8

    chain.mine_next(LOOSE, Random(2))
    assert chain.balance(bob.pub) == 10 * BTC - 100_000
    assert chain.balance(project.pub) == 30_000
    for node in nodes:
        assert chain.balance(node.keypair.pub) == 10_000


def test_refund_path_when_condition_settles_false():
    chain, contract, agents, nodes, alice, bob, project = activated_world(candidate_a_wins=False)
    bus = MessageBus()
    for node in nodes:
        assert node.poll_and_sign(contract, bus, now=T_RESULT) is None  # false but not settled
    for node in nodes[:4]:
        node.poll_and_sign(contract, bus, now=T_SETTLE)
    contract.apply_bus(bus, chain.keys)
    assert ready_draft(contract) is DraftKind.REFUND

    alice_before = chain.balance(alice.pub)
    finalize(chain, contract, agents)
    assert contract.state is ContractState.REFUNDED
    chain.mine_next(LOOSE, Random(3))
    assert chain.balance(alice.pub) == alice_before + 10 * BTC - 100_000
    assert chain.balance(bob.pub) == 0


def test_quorum_arithmetic_on_finalize():
    chain, contract, agents, nodes, *_ = activated_world()
    bus = MessageBus()
    for node in nodes[:3]:
        node.poll_and_sign(contract, bus, now=T_RESULT)
    contract.apply_bus(bus, chain.keys)
    with pytest.raises(QuorumNotReachedError):
        finalize(chain, contract, agents)  # 3 + 4 = 7 < 8

    nodes[3].poll_and_sign(contract, bus, now=T_RESULT)
    contract.apply_bus(bus, chain.keys)
    with pytest.raises(BadWitnessError):
        finalize(chain, contract, agents[:-1])  # missing a padding key
    assert finalize(chain, contract, agents)


def test_a_refused_activation_names_the_pool_reason():
    chain, contract, agents, nodes, *_ = build_world()
    for node in nodes:
        node.ack(contract)
    chain.broadcast(contract.funding_tx, "funding")  # someone relays it first
    with pytest.raises(RejectedError, match="^funding rejected: duplicate$") as raised:
        activate(chain, contract)
    assert not isinstance(raised.value, BadWitnessError)
    assert contract.state is ContractState.ACKED


def test_a_refused_settlement_is_a_bad_witness_only_when_the_witness_is_bad():
    chain, contract, agents, nodes, *_ = activated_world()
    bus = MessageBus()
    for node in nodes[:4]:
        node.poll_and_sign(contract, bus, now=T_RESULT)
    contract.apply_bus(bus, chain.keys)
    # a padding pub paired with a wrong secret: its signature names another key
    impostor = KeyPair(secret=bytes(32), pub=agents[-1].pub)
    with pytest.raises(BadWitnessError, match="^settlement rejected: bad_witness$"):
        finalize(chain, contract, (*agents[:-1], impostor))
    assert contract.state is ContractState.ACTIVE

    finalize(chain, contract, agents)
    contract.state = ContractState.ACTIVE  # a rolled-back state finalizes the same bytes again
    with pytest.raises(RejectedError, match="^settlement rejected: duplicate$") as raised:
        finalize(chain, contract, agents)
    assert not isinstance(raised.value, BadWitnessError)
    assert len(chain.mempool.entries) == 1


def test_all_oracles_together_cannot_steal():
    chain, contract, agents, nodes, alice, bob, project = activated_world()
    theft = Transaction(
        inputs=contract.unlock_tx.inputs,
        outputs=(TxOutput(value=10 * BTC, lock=PayToKey(nodes[0].keypair.pub)),),
    )
    digest = sighash(theft)
    sigs = tuple(sign(node.keypair.secret, digest) for node in nodes)
    theft = theft.with_witness(0, Witness(signatures=sigs))
    verdict = chain.validate(theft)
    assert not verdict.ok and verdict.reason is InvalidReason.BAD_WITNESS


def test_any_m_subset_plus_agents_reaches_threshold():
    chain, contract, agents, nodes, *_ = activated_world(n=5, m=3, amount=2 * BTC)
    draft = contract.unlock_tx
    digest = sighash(draft)
    agent_sigs = tuple(sign(p.secret, digest) for p in agents)
    for subset in itertools.combinations(nodes, 3):
        sigs = tuple(sign(node.keypair.secret, digest) for node in subset) + agent_sigs
        candidate = draft.with_witness(0, Witness(signatures=sigs))
        assert chain.validate(candidate).ok, [n.oracle_id for n in subset]
    for subset in itertools.combinations(nodes, 2):
        sigs = tuple(sign(node.keypair.secret, digest) for node in subset) + agent_sigs
        candidate = draft.with_witness(0, Witness(signatures=sigs))
        assert not chain.validate(candidate).ok


def test_at_most_one_draft_settles():
    chain, contract, agents, nodes, *_ = activated_world()
    settle_unlock(chain, contract, agents, nodes)
    chain.mine_next(LOOSE, Random(4))

    with pytest.raises(StateError):
        finalize(chain, contract, agents)

    contract.state = ContractState.ACTIVE  # even a rolled-back state cannot double-settle
    digest = sighash(contract.refund_tx)
    sigs = tuple(sign(n.keypair.secret, digest) for n in nodes[:4])
    sigs += tuple(sign(p.secret, digest) for p in agents)
    candidate = contract.refund_tx.with_witness(0, Witness(signatures=sigs))
    verdict = chain.validate(candidate)
    assert not verdict.ok and verdict.reason is InvalidReason.MISSING_INPUT


def test_finalize_requires_active_state():
    chain, contract, agents, nodes, *_ = build_world()
    with pytest.raises(StateError):
        finalize(chain, contract, agents)
