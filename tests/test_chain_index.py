"""The chain's owner index and the memoised digests, checked by brute force.

Random pay, lock and unlock traffic over several owners runs through the
public relay and mining path.  At every height the index must equal a fresh
scan of `chain.utxo`, and every memoised digest and the kept bytes must equal
a fresh serialization, also for transactions derived from a memoised one.
The block hash is recomputed by the reference of the block layout
(`test_formats.block_hash`), which writes each transaction itself and never
reads the kept bytes.

The owners are read in three ways: from height 0, first at a drawn step,
and not until the end; the last only ever receives.  Whether read or not,
each owner's kept outpoint list must be strictly increasing and hold
exactly the owner's pay-to-key outpoints in `chain.utxo`.

The owner index itself is built on the chain's first owner query, so a
second chain given the same traffic is first queried at a drawn step, and
must then answer as the chain queried from genesis, after one pass over its
UTXO set and no more.
"""

import struct
import sys
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclesim.codec import sha256
from oraclesim.counterparty import (
    XCP,
    Broadcast,
    Send,
    carried_ciphertexts,
    compose_message_tx,
    decode_payload,
    replay,
)
from oraclesim.simchain import (
    Block,
    DataCarrier,
    Either,
    InsufficientFundsError,
    KeyRegistry,
    Miner,
    MultiSig,
    PayToKey,
    POLICY_TEST2013,
    POLICY_V090,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    _serialized,
    block_hash,
    build_payment,
    p2sh_lock,
    select_coins,
    serialize_tx,
    sighash,
    sign_input,
    tx_size,
    txid,
)

import test_formats as ref

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
    blank = Transaction(tuple(TxInput(txin.outpoint) for txin in tx.inputs), tx.outputs, tx.locktime)
    assert sighash(tx) == sha256(serialize_tx(blank))


def check_chain(chain, owners, stranger, reading):
    """Check the tip; read the coins of the owners in `reading` only."""
    for pub in [*owners, stranger]:
        coins = scanned_coins(chain, pub)
        if pub in reading:
            assert chain.utxos_for(pub) == coins
        owned = list(chain._owned(pub))
        assert all(a < b for a, b in zip(owned, owned[1:]))  # strictly increasing
        assert owned == [op for op, _ in coins]
        assert chain.balance(pub) == sum(out.value for _, out in coins)
    tip = chain.blocks[-1]
    assert chain.tip_hash == block_hash(tip) == ref.block_hash(tip)
    for tx in tip.txs:
        assert_digests_fresh(tx)
        moved = replace(tx, locktime=tx.locktime + 1)
        assert (moved._bytes, moved._txid, moved._sighash) == (None, None, None)
        derived = [moved]
        if tx.inputs:
            rewitnessed = tx.with_witness(0, Witness(redeem=DataCarrier(b"other")))
            assert rewitnessed._sighash is tx._sighash is not None  # carried over
            derived.append(rewitnessed)
        for other in derived:
            assert_digests_fresh(other)


def test_block_hash_is_the_hash_of_the_block_layout():
    reg = KeyRegistry()
    alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
    chain = SimChain(genesis=[TxOutput(5_000, PayToKey(alice.pub))] * 3, keys=reg)
    genesis = chain.blocks[0]
    coins = [op for op, _ in chain.utxos_for(alice.pub)]
    payments = tuple(
        sign_input(Transaction((TxInput(op),), (TxOutput(4_000 - i, PayToKey(bob.pub)),)), 0, alice)
        for i, op in enumerate(coins)
    )
    parent = bytes(range(32))
    snowman = "mïner☃"
    blocks = {
        "empty": Block(height=1, miner_id="", txs=(), parent=parent),
        "genesis": genesis,
        "several": Block(height=2, miner_id="solo", txs=payments + genesis.txs, parent=parent),
        "non-ascii miner": Block(height=3, miner_id=snowman, txs=payments[:1], parent=parent),
    }
    for name, block in blocks.items():
        assert block_hash(block) == ref.block_hash(block), name
    assert chain.tip_hash == ref.block_hash(genesis)

    # the miner id's length prefix counts bytes; a count of characters differs
    block = blocks["non-ascii miner"]
    assert (len(snowman), len(snowman.encode("utf-8"))) == (6, 9)
    by_chars = (
        struct.pack("<QI", block.height, len(snowman)) + snowman.encode("utf-8") + block.parent
        + struct.pack("<I", 1) + serialize_tx(payments[0])
    )
    assert block_hash(block) != sha256(by_chars)


def lock_for(kind: str, pub: bytes):
    if kind == "multisig":
        return MultiSig(m=1, keys=(pub,))
    if kind == "p2sh":
        return p2sh_lock(PayToKey(pub))
    if kind == "either":
        return Either(left=PayToKey(pub), right=PayToKey(pub[::-1]))
    return DataCarrier(b"memo")


def unlock_tx(chain, pairs, pick: int, fee: int):
    """Spend one multisig or `Either` coin back to its owner's key."""
    spendable = []
    for op, out in sorted(chain.utxo.items(), key=lambda item: item[0]):
        lock = out.lock
        if isinstance(lock, MultiSig):
            spendable.append((op, out, lock.keys[0]))
        elif isinstance(lock, Either):
            spendable.append((op, out, lock.left.pub))
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
spender = st.integers(0, OWNERS - 2)  # the last owner only receives
ACTION = st.one_of(
    st.tuples(st.just("pay"), spender, owner, st.integers(0, 40_000), st.integers(0, 300)),
    st.tuples(
        st.just("lock"),
        spender,
        st.sampled_from(["multisig", "p2sh", "either", "carrier"]),
        st.integers(0, 20_000),
        st.integers(0, 300),
    ),
    st.tuples(st.just("unlock"), st.integers(0, 50), st.integers(0, 300)),
    st.tuples(st.just("mine")),
)


@settings(max_examples=40, deadline=None)
@given(actions=st.lists(ACTION, max_size=40), coins=st.integers(1, 4), late=st.integers(0, 40))
def test_owner_index_and_digests_match_brute_force(actions, coins, late):
    reg = KeyRegistry()
    keypairs = [reg.keygen(b"owner-%d" % i) for i in range(OWNERS)]
    owners = [pair.pub for pair in keypairs]
    pairs = dict(zip(owners, keypairs))
    stranger = reg.keygen(b"stranger").pub
    genesis = [TxOutput(value=25_000, lock=PayToKey(pub)) for pub in owners for _ in range(coins)]
    genesis.append(TxOutput(value=7_000, lock=MultiSig(m=1, keys=(owners[0],))))
    chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    rng = Random(0)
    # owners 0 and 1 are read from height 0, owner 2 from step `late` on
    reading = set(owners[:2])
    check_chain(chain, owners, stranger, reading)
    for step, action in enumerate([*actions, ("mine",)]):
        if step == late:
            reading.add(owners[2])
        kind = action[0]
        if kind == "mine":
            chain.mine_next(SOLO, rng)
            check_chain(chain, owners, stranger, reading)
            continue
        if kind == "unlock":
            tx = unlock_tx(chain, pairs, action[1], action[2])
        else:
            # selecting coins reads them, so owner 2 sends nothing before it is read
            sender = keypairs[action[1] if owners[action[1]] in reading else 0]
            if kind == "pay":
                lock, value, fee = PayToKey(owners[action[2]]), action[3], action[4]
            else:
                lock, value, fee = lock_for(action[2], sender.pub), action[3], action[4]
            try:
                tx = build_payment(chain, sender, [TxOutput(value=value, lock=lock)], fee=fee)
            except InsufficientFundsError:
                tx = None
        if tx is not None:
            chain.submit(tx)
    check_chain(chain, owners, stranger, {*owners, stranger})


class CountedScans(dict):
    """A UTXO set that counts the passes made over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()


TARGET = 30_000


def selection(chain, pub):
    try:
        return select_coins(chain, pub, TARGET)
    except InsufficientFundsError:
        return None


def scanned_selection(coins):
    """`select_coins` of TARGET by brute force: a prefix of the sorted coins."""
    picked, have = [], 0
    for op, out in coins:
        if picked and have >= TARGET:
            break
        picked.append(op)
        have += out.value
    return (picked, have) if picked and have >= TARGET else None


QUERIES = {
    "utxos_for": SimChain.utxos_for,
    "balance": SimChain.balance,
    "select_coins": selection,
}


@settings(max_examples=40, deadline=None)
@given(
    actions=st.lists(ACTION, max_size=40),
    coins=st.integers(1, 4),
    first=st.integers(0, 40),
    query=st.sampled_from(sorted(QUERIES)),
    reader=st.integers(0, OWNERS),
)
def test_an_owner_index_built_on_the_first_query_answers_as_one_kept_from_genesis(
    actions, coins, first, query, reader
):
    reg = KeyRegistry()
    keypairs = [reg.keygen(b"owner-%d" % i) for i in range(OWNERS)]
    owners = [pair.pub for pair in keypairs]
    pairs = dict(zip(owners, keypairs))
    everyone = [*owners, reg.keygen(b"stranger").pub]
    genesis = [TxOutput(value=25_000, lock=PayToKey(pub)) for pub in owners for _ in range(coins)]
    genesis.append(TxOutput(value=7_000, lock=MultiSig(m=1, keys=(owners[0],))))
    # the traffic is built on `kept`, queried from genesis; `late` only relays it
    kept = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    late = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    late.utxo = CountedScans(late.utxo)
    kept_rng, late_rng = Random(0), Random(0)

    def check(queried):
        assert late.tip_hash == kept.tip_hash
        assert late.supply() == kept.supply()
        if not queried:
            assert late._order is None  # a chain nobody queried keeps no index
            return
        for pub in everyone:
            scans = late.utxo.scans
            answers = [late.utxos_for(pub), late.balance(pub), selection(late, pub)]
            assert late.utxo.scans == scans  # another owner's first read scans nothing
            coins = scanned_coins(late, pub)
            assert answers == [coins, sum(out.value for _, out in coins), scanned_selection(coins)]
            assert answers == [kept.utxos_for(pub), kept.balance(pub), selection(kept, pub)]

    def first_query():
        # the late chain's first owner query builds its index in one pass
        scans = late.utxo.scans
        assert QUERIES[query](late, everyone[reader]) == QUERIES[query](kept, everyone[reader])
        assert late.utxo.scans == scans + 1 and late._order is not None

    check(queried=False)
    for step, action in enumerate([*actions, ("mine",)]):
        if step == first:
            first_query()
        kind = action[0]
        if kind == "mine":
            assert late.mine_next(SOLO, late_rng) == kept.mine_next(SOLO, kept_rng)
            check(queried=step >= first)
            continue
        if kind == "unlock":
            tx = unlock_tx(kept, pairs, action[1], action[2])
        else:
            sender = keypairs[action[1]]
            if kind == "pay":
                lock = PayToKey(owners[action[2]])
            else:
                lock = lock_for(action[2], sender.pub)
            try:
                tx = build_payment(kept, sender, [TxOutput(action[3], lock)], fee=action[4])
            except InsufficientFundsError:
                tx = None
        if tx is not None:
            assert late.submit(tx) == kept.submit(tx)
    if first > len(actions):
        first_query()
    check(queried=True)
    assert [block_hash(b) for b in late.blocks] == [block_hash(b) for b in kept.blocks]


def test_compose_message_tx_keys_the_payload_by_the_first_coin():
    reg = KeyRegistry()
    rich, poor = reg.keygen(b"rich"), reg.keygen(b"poor")
    genesis = [TxOutput(value=25_000, lock=PayToKey(rich.pub)) for _ in range(3)]
    chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
    message = Send(XCP, 1, "dest")
    # a sender with no coin cannot spend, so it cannot compose either
    with pytest.raises(InsufficientFundsError, match="^need 0, have 0$"):
        compose_message_tx(chain, poor, message, fee=0)
    [(first, _), *_] = chain.utxos_for(rich.pub)
    # the payload is keyed by the first coin in outpoint order, and coin
    # selection spends that coin first
    tx = compose_message_tx(chain, rich, message, fee=30_000)
    assert [txin.outpoint for txin in tx.inputs] == [op for op, _ in chain.utxos_for(rich.pub)[:2]]
    assert decode_payload(carried_ciphertexts(tx)[0], first[0]) == message
    # with no fee and no extra outputs the spend still takes that one coin,
    # keys the payload by it, and replays as a valid message
    feed = Broadcast(timestamp=1, value=0, fee_fraction=0, text="t")
    tx = compose_message_tx(chain, rich, feed, fee=0)
    assert [txin.outpoint for txin in tx.inputs] == [first]
    assert decode_payload(carried_ciphertexts(tx)[0], first[0]) == feed
    assert chain.submit(tx).accepted
    assert chain.mine_next(SOLO, Random(1)).txs == (tx,)
    [entry] = replay(chain).log
    assert (entry.txid, entry.message, entry.valid) == (txid(tx), feed, True)


def test_submitting_and_mining_encodes_each_tx_once(monkeypatch):
    reg = KeyRegistry()
    senders = [reg.keygen(b"owner-%d" % i) for i in range(OWNERS)]
    stranger = reg.keygen(b"stranger").pub
    genesis = [TxOutput(value=25_000, lock=PayToKey(pair.pub)) for pair in senders]
    chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    pay = TxOutput(value=1_000, lock=PayToKey(stranger))
    built = [build_payment(chain, pair, [pay], fee=10) for pair in senders[1:]]
    # one transaction assembled and signed by hand, so it carries no bytes yet
    [(outpoint, coin)] = chain.utxos_for(senders[0].pub)
    change = TxOutput(value=coin.value - 1_010, lock=PayToKey(senders[0].pub))
    by_hand = sign_input(Transaction((TxInput(outpoint),), (pay, change)), 0, senders[0])
    txs = [by_hand, *built]

    # a built transaction's kept bytes are those of its fresh twin, so
    # `serialize_tx` need never see it
    for tx in built:
        twin = Transaction(tx.inputs, tx.outputs, tx.locktime)
        assert tx._bytes == serialize_tx(twin) and tx._sighash == sighash(twin)
    assert by_hand._bytes is None

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
    # on submit, mine and block hash the hand-signed transaction is encoded
    # once and every built one never
    assert [sum(seen is tx for seen in encoded) for tx in txs] == [1] + [0] * len(built)
    assert by_hand._bytes == original(Transaction(by_hand.inputs, by_hand.outputs))
