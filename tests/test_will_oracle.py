"""Will contract: hash gate, condition gate, and the 2-of-2 spend paths."""

import hashlib
from random import Random

import pytest

from oraclesim.datafeed import DataSource, NoDataError
from oraclesim.simchain import (
    BadWitnessError,
    InsufficientFundsError,
    InvalidReason,
    KeyRegistry,
    Miner,
    MultiSig,
    PayToKey,
    POLICY_TEST2013,
    RejectedError,
    SimChain,
    TxOutput,
    Witness,
    add_signature,
    sighash,
    sign,
)
from oraclesim.will_oracle import (
    ConditionFalseError,
    HashMismatchError,
    OracleServer,
    build_claim,
    create_will,
    expr_hash,
)

EXPR = "has_died('john smith', born_on=1950/01/02)"
T_ALIVE = 1_000_000
T_DEAD = 2_000_000
LOOSE = [Miner("loose", 1.0)]


@pytest.fixture
def setup():
    reg = KeyRegistry()
    grandfather = reg.keygen(b"grandfather")
    heir = reg.keygen(b"grandson")
    oracle_keys = reg.keygen(b"oracle")
    truth = DataSource(
        "registry-of-deaths",
        entries=[(EXPR, T_ALIVE, False), (EXPR, T_DEAD, True)],
    )
    chain = SimChain(
        policy=POLICY_TEST2013,
        genesis=[TxOutput(value=100_000, lock=PayToKey(grandfather.pub))],
        keys=reg,
    )
    oracle = OracleServer(keypair=oracle_keys, truth_source=truth)
    return chain, grandfather, heir, oracle


def fund(chain, creator, oracle, heir, amount=60_000):
    contract, _ = create_will(chain, creator, oracle.pub, heir.pub, EXPR, amount)
    chain.mine_next(LOOSE, Random(1))
    return contract


def test_create_will_commits_expression_hash(setup):
    chain, creator, heir, oracle = setup
    contract, funding = create_will(chain, creator, oracle.pub, heir.pub, EXPR, 60_000)
    assert contract.expr_hash == hashlib.sha256(EXPR.encode()).digest()
    lock = funding.outputs[0].lock
    assert isinstance(lock, MultiSig)
    assert (lock.m, lock.keys, lock.commitment) == (2, (oracle.pub, heir.pub), contract.expr_hash)
    assert contract.amount == 60_000

    chain.mine_next(LOOSE, Random(1))
    assert chain.utxo[contract.funding_outpoint].value == 60_000


def test_funding_script_is_nonstandard_but_minable(setup):
    chain, creator, heir, oracle = setup
    create_will(chain, creator, oracle.pub, heir.pub, EXPR, 60_000)
    entry = next(iter(chain.mempool.entries.values()))
    assert not entry.standard.standard
    strict = [Miner("strict", 1.0, accepts_nonstandard=False)]
    assert chain.mine_next(strict, Random(1)).txs == ()
    assert chain.mine_next(LOOSE, Random(1)).txs != ()


def test_create_will_rejects_empty_expression_and_overdraft(setup):
    chain, creator, heir, oracle = setup
    with pytest.raises(ValueError):
        create_will(chain, creator, oracle.pub, heir.pub, "", 1_000)
    with pytest.raises(InsufficientFundsError):
        create_will(chain, creator, oracle.pub, heir.pub, EXPR, 100_001)


def test_a_refused_funding_names_the_pool_reason(setup):
    chain, creator, heir, oracle = setup
    create_will(chain, creator, oracle.pub, heir.pub, EXPR, 60_000)
    # the same funding again, then one spending the same coin, before a block
    for amount, why in ((60_000, "duplicate"), (50_000, "conflict")):
        with pytest.raises(RejectedError, match=f"^funding rejected: {why}$") as raised:
            create_will(chain, creator, oracle.pub, heir.pub, EXPR, amount)
        assert not isinstance(raised.value, BadWitnessError)
    assert len(chain.mempool) == 1


def test_oracle_gate_over_all_four_combinations(setup):
    chain, creator, heir, oracle = setup
    contract = fund(chain, creator, oracle, heir)
    partial = build_claim(chain, contract, heir)

    sig = oracle.sign_request(chain, EXPR, partial, now=T_DEAD)
    assert sig.digest_signed == sighash(partial)

    with pytest.raises(ConditionFalseError):
        oracle.sign_request(chain, EXPR, partial, now=T_ALIVE)
    with pytest.raises(HashMismatchError):
        oracle.sign_request(chain, EXPR + " ", partial, now=T_DEAD)
    with pytest.raises(HashMismatchError):
        oracle.sign_request(chain, EXPR + " ", partial, now=T_ALIVE)


def test_oracle_fails_before_any_record_exists(setup):
    chain, creator, heir, oracle = setup
    contract = fund(chain, creator, oracle, heir)
    partial = build_claim(chain, contract, heir)
    with pytest.raises(NoDataError):
        oracle.sign_request(chain, EXPR, partial, now=T_ALIVE - 1)


def test_oracle_ignores_transactions_without_its_contract(setup):
    chain, creator, heir, oracle = setup
    fund(chain, creator, oracle, heir)
    from oraclesim.simchain import build_payment

    stray = build_payment(chain, creator, [TxOutput(value=100, lock=PayToKey(heir.pub))])
    with pytest.raises(HashMismatchError):
        oracle.sign_request(chain, EXPR, stray, now=T_DEAD)


def test_claim_moves_funds_to_heir(setup):
    chain, creator, heir, oracle = setup
    contract = fund(chain, creator, oracle, heir)
    partial = build_claim(chain, contract, heir, fee=500)
    oracle_sig = oracle.sign_request(chain, EXPR, partial, now=T_DEAD)
    spend = add_signature(partial, 0, oracle_sig)
    assert chain.submit(spend).accepted
    chain.mine_next(LOOSE, Random(2))
    assert chain.balance(heir.pub) == contract.amount - 500
    assert contract.funding_outpoint not in chain.utxo


def test_spend_paths_require_both_signatures(setup):
    chain, creator, heir, oracle = setup
    contract = fund(chain, creator, oracle, heir)
    partial = build_claim(chain, contract, heir)
    digest = sighash(partial)
    heir_sig = partial.inputs[0].witness.signatures[0]
    oracle_sig = oracle.sign_request(chain, EXPR, partial, now=T_DEAD)
    bare = partial.with_witness(0, Witness())

    both = add_signature(partial, 0, oracle_sig)
    assert chain.validate(both)

    for witness_sigs in [(), (heir_sig,), (oracle_sig,)]:
        candidate = bare.with_witness(0, Witness(signatures=witness_sigs))
        verdict = chain.validate(candidate)
        assert not verdict
        assert verdict.reason is InvalidReason.BAD_WITNESS
