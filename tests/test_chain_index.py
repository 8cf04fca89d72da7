"""The chain's owner index and the memoised digests, checked by brute force.

Random pay, lock and unlock traffic over several owners runs through the
public relay and mining path.  At every height the index must equal a fresh
scan of `chain.utxo`, and every memoised digest and the kept bytes must equal
a fresh serialization, also for transactions derived from a memoised one.
The block hash is recomputed from the block layout and `serialize_tx`, never
from the kept bytes.
"""

import sys
from dataclasses import replace
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from oraclesim.codec import Writer, sha256
from oraclesim.simchain import (
    DataCarrier,
    InsufficientFundsError,
    KeyRegistry,
    Miner,
    MultiSig,
    PayToKey,
    POLICY_TEST2013,
    SimChain,
    TimeLocked,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    block_hash,
    build_payment,
    p2sh_lock,
    serialize_tx,
    sighash,
    txid,
)
from oraclesim.simchain.tx import _serialized, sign_input, tx_size

OWNERS = 4
SOLO = [Miner("solo", 1.0)]


def scanned_coins(chain, pub):
    found = [
        (op, out)
        for op, out in chain.utxo.items()
        if isinstance(out.lock, PayToKey) and out.lock.pub == pub
    ]
    return sorted(found, key=lambda item: item[0])


def assert_digests_fresh(tx: Transaction) -> None:
    data = serialize_tx(tx)
    assert _serialized(tx) == data
    assert txid(tx) == sha256(data)
    assert tx_size(tx) == len(data)
    assert sighash(tx) == sha256(serialize_tx(tx.without_witnesses()))


def check_chain(chain, owners, stranger):
    for pub in [*owners, stranger]:
        coins = scanned_coins(chain, pub)
        assert chain.utxos_for(pub) == coins
        assert chain.balance(pub) == sum(out.value for _, out in coins)
    tip = chain.blocks[-1]
    w = Writer().u64(tip.height).string(tip.miner_id).raw(tip.parent).u32(len(tip.txs))
    for tx in tip.txs:
        w.raw(serialize_tx(tx))
    assert chain.tip_hash == block_hash(tip) == sha256(w.getvalue())
    for tx in tip.txs:
        assert_digests_fresh(tx)
        derived = [replace(tx, locktime=tx.locktime + 1)]
        if tx.inputs:
            derived.append(tx.with_witness(0, Witness(expr_preimage=b"other")))
        for other in derived:
            assert_digests_fresh(other)


def lock_for(kind: str, pub: bytes, height: int):
    if kind == "multisig":
        return MultiSig(m=1, keys=(pub,))
    if kind == "p2sh":
        return p2sh_lock(PayToKey(pub))
    if kind == "timelock":
        return TimeLocked(inner=PayToKey(pub), unlock_height=height + 2)
    return DataCarrier(b"memo")


def unlock_tx(chain, pairs, pick: int, fee: int):
    """Spend one multisig or time-locked coin back to its owner's key."""
    spendable = []
    for op, out in sorted(chain.utxo.items(), key=lambda item: item[0]):
        lock = out.lock
        if isinstance(lock, MultiSig):
            spendable.append((op, out, lock.keys[0]))
        elif isinstance(lock, TimeLocked) and chain.height + 1 >= lock.unlock_height:
            spendable.append((op, out, lock.inner.pub))
    if not spendable:
        return None
    op, out, pub = spendable[pick % len(spendable)]
    unsigned = Transaction(
        inputs=(TxInput(outpoint=op),),
        outputs=(TxOutput(value=max(out.value - fee, 0), lock=PayToKey(pub)),),
    )
    # memoise the sighash first, so the signed copy inherits it
    sighash(unsigned)
    return sign_input(unsigned, 0, pairs[pub])


owner = st.integers(0, OWNERS - 1)
ACTION = st.one_of(
    st.tuples(st.just("pay"), owner, owner, st.integers(0, 40_000), st.integers(0, 300)),
    st.tuples(
        st.just("lock"),
        owner,
        st.sampled_from(["multisig", "p2sh", "timelock", "carrier"]),
        st.integers(0, 20_000),
        st.integers(0, 300),
    ),
    st.tuples(st.just("unlock"), st.integers(0, 50), st.integers(0, 300)),
    st.tuples(st.just("mine")),
)


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(ACTION, max_size=40), coins=st.integers(1, 4))
def test_owner_index_and_digests_match_brute_force(actions, coins):
    reg = KeyRegistry()
    keypairs = [reg.keygen(b"owner-%d" % i) for i in range(OWNERS)]
    owners = [pair.pub for pair in keypairs]
    pairs = dict(zip(owners, keypairs))
    stranger = reg.keygen(b"stranger").pub
    genesis = [TxOutput(value=25_000, lock=PayToKey(pub)) for pub in owners for _ in range(coins)]
    genesis.append(TxOutput(value=7_000, lock=MultiSig(m=1, keys=(owners[0],))))
    chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    rng = Random(0)
    check_chain(chain, owners, stranger)
    for action in [*actions, ("mine",)]:
        kind = action[0]
        if kind == "mine":
            chain.mine_next(SOLO, rng)
            check_chain(chain, owners, stranger)
            continue
        if kind == "unlock":
            tx = unlock_tx(chain, pairs, action[1], action[2])
        else:
            sender = keypairs[action[1]]
            if kind == "pay":
                lock, value, fee = PayToKey(owners[action[2]]), action[3], action[4]
            else:
                lock, value, fee = lock_for(action[2], sender.pub, chain.height), action[3], action[4]
            try:
                tx = build_payment(chain, sender, [TxOutput(value=value, lock=lock)], fee=fee)
            except InsufficientFundsError:
                tx = None
        if tx is not None:
            chain.submit(tx)


def test_submitting_and_mining_encodes_each_tx_once(monkeypatch):
    reg = KeyRegistry()
    senders = [reg.keygen(b"owner-%d" % i) for i in range(OWNERS)]
    stranger = reg.keygen(b"stranger").pub
    genesis = [TxOutput(value=25_000, lock=PayToKey(pair.pub)) for pair in senders]
    chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    txs = [
        build_payment(chain, pair, [TxOutput(value=1_000, lock=PayToKey(stranger))], fee=10)
        for pair in senders
    ]

    encoded = []
    original = serialize_tx

    def counting(tx):
        encoded.append(tx)
        return original(tx)

    # every module that bound the encoder, so a second call site is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("oraclesim") and getattr(module, "serialize_tx", None) is original:
            monkeypatch.setattr(module, "serialize_tx", counting)
    for tx in txs:
        assert chain.submit(tx).accepted
    block = chain.mine_next(SOLO, Random(0))
    assert list(block.txs) == txs
    block_hash(block)
    # the witness-blanked copies that sighash encodes are other objects
    assert sum(any(seen is tx for tx in txs) for seen in encoded) == len(txs)
