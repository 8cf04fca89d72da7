"""Lock script and transaction serialization, digests, and builders."""

import hashlib
import struct
from dataclasses import fields
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from oraclesim.codec import Reader, TruncatedError
from oraclesim.counterparty import Bet, Broadcast, compose_burn_tx, compose_message_tx
from oraclesim.datafeed import Comparator
from oraclesim.simchain import (
    Block,
    DataCarrier,
    EMPTY_WITNESS,
    Either,
    InsufficientFundsError,
    KeyPair,
    KeyRegistry,
    MAX_LOCK_DEPTH,
    Miner,
    MultiSig,
    PayToKey,
    POLICY_TEST2013,
    ScriptHash,
    Signature,
    SimChain,
    TimeLocked,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    _serialized,
    add_signature,
    block_hash,
    build_payment,
    deserialize_tx,
    lock_from_reader,
    p2sh_lock,
    script_digest,
    select_coins,
    serialize_lock,
    serialize_tx,
    sighash,
    sign,
    sign_input,
    sign_payment,
    spend,
    txid,
)

import test_formats as ref


def deserialize_lock(data):
    """The lock whose serialization is exactly `data`."""
    r = Reader(data)
    lock = lock_from_reader(r)
    r.expect_done()
    return lock


PUB_A = bytes([0x11]) * 32
PUB_B = bytes([0x22]) * 32
PUB_C = bytes([0x33]) * 32


def sample_locks():
    multisig = MultiSig(m=2, keys=(PUB_A, PUB_B, PUB_C))
    return [
        PayToKey(PUB_A),
        multisig,
        MultiSig(m=1, keys=(PUB_A,), commitment=bytes(32)),
        p2sh_lock(multisig),
        DataCarrier(b""),
        DataCarrier(b"hello world"),
        TimeLocked(inner=PayToKey(PUB_B), unlock_height=144),
        Either(left=PayToKey(PUB_A), right=TimeLocked(inner=PayToKey(PUB_B), unlock_height=7)),
        p2sh_lock(Either(left=multisig, right=PayToKey(PUB_C))),
    ]


def test_every_lock_round_trips():
    for lock in sample_locks():
        assert deserialize_lock(serialize_lock(lock)) == lock


def test_lock_digests_are_pairwise_distinct():
    digests = [script_digest(lock) for lock in sample_locks()]
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("value", [-1, 2**64])
def test_output_value_must_fit_u64(value):
    with pytest.raises(ValueError, match="output value must fit u64"):
        TxOutput(value=value, lock=PayToKey(PUB_A))
    TxOutput(value=2**64 - 1, lock=PayToKey(PUB_A))


def test_multisig_constraints():
    with pytest.raises(ValueError):
        MultiSig(m=0, keys=(PUB_A,))
    with pytest.raises(ValueError):
        MultiSig(m=3, keys=(PUB_A, PUB_B))
    with pytest.raises(ValueError):
        MultiSig(m=1, keys=tuple(bytes([i]) * 32 for i in range(16)))
    with pytest.raises(ValueError):
        MultiSig(m=1, keys=(PUB_A,), commitment=b"short")
    MultiSig(m=15, keys=tuple(bytes([i]) * 32 for i in range(15)))


def test_multisig_keys_must_be_32_bytes_so_locks_cannot_alias():
    # keys are written raw: without the length check these two locks
    # serialize to the same bytes, so distinct transactions share a txid
    lock = MultiSig(m=1, keys=(PUB_A, PUB_B))
    with pytest.raises(ValueError):
        MultiSig(m=1, keys=(PUB_A + PUB_B[:16], PUB_B[:16]))
    assert deserialize_lock(serialize_lock(lock)) == lock


def test_pay_to_key_and_script_hash_must_be_32_bytes_so_txs_cannot_alias():
    # Without the length check, the second pair of outputs writes the same
    # bytes as the first (its values are the bytes between the keys), so two
    # unequal transactions share a txid.
    first_value, second_value = 7, 9
    x = (
        bytes(range(1, 33))
        + struct.pack("<Q", first_value) + b"\x01"
        + struct.pack("<Q", second_value) + b"\x01"
        + bytes(range(100, 123))
    )
    assert len(x) == 73 and x[40] == x[49] == 1
    tx = Transaction(
        inputs=(),
        outputs=(TxOutput(5, PayToKey(x[0:32])), TxOutput(first_value, PayToKey(x[41:73]))),
    )
    assert deserialize_tx(serialize_tx(tx)) == tx
    with pytest.raises(ValueError):
        PayToKey(x[0:41])
    with pytest.raises(ValueError):
        PayToKey(x[50:73])
    # a 33-byte key used to serialize and then fail to parse back
    with pytest.raises(ValueError):
        PayToKey(b"\x11" * 33)
    for size in (0, 31, 33):
        with pytest.raises(ValueError):
            ScriptHash(bytes(size))
    assert deserialize_lock(serialize_lock(ScriptHash(bytes(32)))) == ScriptHash(bytes(32))


def test_negative_output_value_rejected():
    with pytest.raises(ValueError):
        TxOutput(value=-1, lock=PayToKey(PUB_A))


def test_minimal_tx_bytes_match_hand_packed_layout():
    tx = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 3)),),
        outputs=(TxOutput(value=5000, lock=PayToKey(PUB_B)),),
        locktime=9,
    )
    expected = b"".join(
        [
            struct.pack("<H", 1),  # input count
            PUB_A,  # source txid
            struct.pack("<I", 3),  # output index
            struct.pack("<H", 0),  # witness: no signatures
            b"\x00",  # witness: no redeem script
            b"\x00",  # witness: no preimage
            struct.pack("<H", 1),  # output count
            struct.pack("<Q", 5000),  # value
            b"\x01",  # pay-to-key tag
            PUB_B,
            struct.pack("<Q", 9),  # locktime
        ]
    )
    assert serialize_tx(tx) == expected
    assert txid(tx) == hashlib.sha256(expected).digest()


def test_sighash_ignores_witnesses_txid_does_not():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    base = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0)),),
        outputs=(TxOutput(value=1, lock=PayToKey(PUB_B)),),
    )
    signed = sign_input(base, 0, alice)
    assert sighash(signed) == sighash(base)
    assert txid(signed) != txid(base)
    assert signed.inputs[0].witness.signatures[0].digest_signed == sighash(base)


def test_records_are_slotted_and_their_memos_are_invisible():
    alice = KeyRegistry().keygen(b"alice")
    unsigned = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0)),),
        outputs=(TxOutput(value=1, lock=PayToKey(PUB_B)),),
    )
    tx = sign_input(unsigned, 0, alice)
    block = Block(height=1, miner_id="m", txs=(tx,), parent=bytes(32))
    sig = tx.inputs[0].witness.signatures[0]
    records = [alice, sig, tx, tx.inputs[0], tx.inputs[0].witness, tx.outputs[0], block]
    records += sample_locks()
    assert {type(r) for r in records} == {
        KeyPair, Signature, Transaction, TxInput, Witness, TxOutput, Block,
        PayToKey, MultiSig, ScriptHash, DataCarrier, TimeLocked, Either,
    }
    for record in records:
        assert "__slots__" in vars(type(record)) and not hasattr(record, "__dict__")

    # memoised on one of two equal objects only, and seen by neither ==, hash nor repr
    twin_tx = Transaction(tx.inputs, tx.outputs, tx.locktime)
    twin_block = Block(block.height, block.miner_id, (twin_tx,), block.parent)
    txid(tx), block_hash(block)
    assert None not in (tx._bytes, tx._txid, tx._sighash)
    assert (twin_tx._bytes, twin_tx._txid, twin_tx._sighash) == (None,) * 3
    for memoised, fresh in ((tx, twin_tx), (block, twin_block)):
        assert memoised == fresh and hash(memoised) == hash(fresh)
        assert repr(memoised) == repr(fresh)
    assert "_txid" not in repr(tx)
    deep = Either(left=PayToKey(PUB_A), right=TimeLocked(inner=PayToKey(PUB_B), unlock_height=7))
    assert deep._depth == 2 and "_depth" not in repr(deep)
    # the memos are the only fields left out of __init__, and what fields() adds
    assert [f.name for f in fields(Transaction) if not f.init] == ["_bytes", "_txid", "_sighash"]
    assert [f.name for f in fields(Block) if not f.init] == []
    assert [f.name for f in fields(Either) if not f.init] == ["_depth"]


def test_cosigning_preserves_existing_signatures():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    base = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0)), TxInput(outpoint=(PUB_B, 1))),
        outputs=(TxOutput(value=1, lock=PayToKey(PUB_C)),),
    )
    once = sign_input(base, 0, alice)
    twice = sign_input(once, 1, bob)
    assert twice.inputs[0].witness == once.inputs[0].witness
    assert sighash(twice) == sighash(base)


def test_co_signatures_land_in_signer_order():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    base = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0)),),
        outputs=(TxOutput(value=1, lock=PayToKey(PUB_C)),),
    )
    both = sign_input(base, 0, alice, bob)
    assert [s.signer_pub for s in both.inputs[0].witness.signatures] == [alice.pub, bob.pub]
    assert add_signature(sign_input(base, 0, alice), 0, sign(bob.secret, sighash(base))) == both


def test_tx_round_trips_with_rich_witness():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    redeem = MultiSig(m=1, keys=(alice.pub,))
    tx = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0)),),
        outputs=(
            TxOutput(value=10, lock=p2sh_lock(redeem)),
            TxOutput(value=0, lock=DataCarrier(b"payload")),
        ),
        locktime=42,
    )
    tx = sign_input(tx, 0, alice, redeem=redeem, expr_preimage=b"if this then that")
    assert deserialize_tx(serialize_tx(tx)) == tx


@pytest.mark.parametrize(
    "signers, locktime, redeemed",
    [((), 0, False), ((b"alice",), 0, False), ((b"alice", b"bob"), 42, True)],
    ids=["unsigned", "one_signer", "two_signers_locktime_redeem"],
)
def test_spend_is_the_hand_built_one_input_spend(signers, locktime, redeemed):
    reg = KeyRegistry()
    pairs = [reg.keygen(seed) for seed in signers]
    witness = {"redeem": MultiSig(m=2, keys=tuple(p.pub for p in pairs))} if redeemed else {}
    outpoint = (PUB_A, 3)
    outputs = [TxOutput(value=7, lock=PayToKey(PUB_B)), TxOutput(value=0, lock=DataCarrier(b"x"))]

    built = spend(outpoint, outputs, *pairs, locktime=locktime, **witness)
    unsigned = Transaction((TxInput(outpoint),), tuple(outputs), locktime)
    assert serialize_tx(built) == serialize_tx(sign_input(unsigned, 0, *pairs, **witness))
    if not pairs:
        assert built.inputs[0].witness is EMPTY_WITNESS


def test_deserialize_rejects_truncation_and_trailing_bytes():
    tx = Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0)),),
        outputs=(TxOutput(value=1, lock=PayToKey(PUB_B)),),
    )
    data = serialize_tx(tx)
    with pytest.raises(TruncatedError):
        deserialize_tx(data[:-1])
    with pytest.raises(ValueError):
        deserialize_tx(data + b"\x00")


def _flag_tx(**witness):
    return Transaction(
        inputs=(TxInput(outpoint=(PUB_A, 0), witness=Witness(**witness)),),
        outputs=(TxOutput(value=1, lock=PayToKey(PUB_B)),),
    )


# (encode, decode, value with the flag 0, value with the flag 1, flag offset);
# a tx's witness starts after u16 n_inputs, the outpoint and u16 n_signatures
PRESENCE_FLAGS = {
    "has_redeem": (
        serialize_tx, deserialize_tx,
        _flag_tx(), _flag_tx(redeem=PayToKey(PUB_C)), 2 + 32 + 4 + 2,
    ),
    "has_preimage": (
        serialize_tx, deserialize_tx,
        _flag_tx(), _flag_tx(expr_preimage=b"preimage"), 2 + 32 + 4 + 2 + 1,
    ),
    "has_commitment": (
        serialize_lock, deserialize_lock,
        MultiSig(m=1, keys=(PUB_A,)), MultiSig(m=1, keys=(PUB_A,), commitment=PUB_B),
        1 + 1 + 1 + 32,
    ),
}


@pytest.mark.parametrize("flag", PRESENCE_FLAGS)
def test_presence_flags_are_exactly_0_or_1(flag):
    encode, decode, absent, present, offset = PRESENCE_FLAGS[flag]
    for value, obj in enumerate((absent, present)):
        data = encode(obj)
        assert data[offset] == value
        assert decode(data) == obj
        assert encode(decode(data)) == data
    data = encode(present)
    with pytest.raises(ValueError, match="not 0 or 1"):
        decode(data[:offset] + b"\x02" + data[offset + 1 :])


def _nested_lock_bytes(levels, tag):
    """A PayToKey inside `levels` TimeLocked (tag 5) or left-nested Either (tag 6) locks."""
    if tag == 5:
        # each level's tag and unlock height, then the inner lock
        return (b"\x05" + struct.pack("<Q", 0)) * levels + b"\x01" + PUB_A
    # each level's tag and left lock, then each Either's right branch
    return b"\x06" * levels + b"\x01" + PUB_A + (b"\x01" + PUB_B) * levels


def _tx_with_one_output(lock: bytes) -> bytes:
    """No inputs, then one output of value 0 under `lock`, and locktime 0."""
    return struct.pack("<HHQ", 0, 1, 0) + lock + struct.pack("<Q", 0)


@pytest.mark.parametrize("tag", [5, 6], ids=["time_locked", "either"])
def test_decoders_refuse_locks_nested_past_the_limit(tag):
    at_limit = _nested_lock_bytes(MAX_LOCK_DEPTH, tag)
    assert serialize_lock(deserialize_lock(at_limit)) == at_limit
    as_output = _tx_with_one_output(at_limit)
    assert serialize_tx(deserialize_tx(as_output)) == as_output
    for levels in (MAX_LOCK_DEPTH + 1, 5000):
        data = _nested_lock_bytes(levels, tag)
        with pytest.raises(ValueError, match="nested deeper than"):
            deserialize_lock(data)
        with pytest.raises(ValueError, match="nested deeper than"):
            deserialize_tx(_tx_with_one_output(data))
    redeem = _nested_lock_bytes(MAX_LOCK_DEPTH + 1, tag)
    # one input whose witness carries the over-deep lock as its redeem script, no outputs
    spend = (
        struct.pack("<H", 1) + PUB_A + struct.pack("<IH", 0, 0) + b"\x01" + redeem + b"\x00"
        + struct.pack("<HQ", 0, 0)
    )
    with pytest.raises(ValueError, match="nested deeper than"):
        deserialize_tx(spend)


@pytest.mark.parametrize(
    "wrap",
    [
        lambda lock: TimeLocked(inner=lock, unlock_height=0),
        lambda lock: Either(left=lock, right=PayToKey(PUB_B)),
        lambda lock: Either(left=PayToKey(PUB_B), right=lock),
    ],
    ids=["time_locked", "either_left", "either_right"],
)
def test_locks_refuse_construction_past_the_limit(wrap):
    lock = PayToKey(PUB_A)
    for _ in range(MAX_LOCK_DEPTH):
        lock = wrap(lock)
    assert deserialize_lock(serialize_lock(lock)) == lock
    assert lock._depth == MAX_LOCK_DEPTH
    tx = Transaction(inputs=(), outputs=(TxOutput(value=0, lock=lock),))
    assert deserialize_tx(serialize_tx(tx)) == tx
    with pytest.raises(ValueError, match="nested deeper than"):
        wrap(lock)


@pytest.fixture
def funded_chain():
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    chain = SimChain(
        policy=POLICY_TEST2013,
        genesis=[
            TxOutput(value=30_000, lock=PayToKey(alice.pub)),
            TxOutput(value=20_000, lock=PayToKey(alice.pub)),
        ],
        keys=reg,
    )
    return chain, alice, bob


def test_build_payment_selects_coins_and_returns_change(funded_chain):
    chain, alice, bob = funded_chain
    tx = build_payment(chain, alice, [TxOutput(value=35_000, lock=PayToKey(bob.pub))], fee=100)
    assert len(tx.inputs) == 2
    total_in = sum(chain.utxo[i.outpoint].value for i in tx.inputs)
    change = [o for o in tx.outputs if isinstance(o.lock, PayToKey) and o.lock.pub == alice.pub]
    assert total_in - sum(o.value for o in tx.outputs) == 100
    assert change and change[0].value == total_in - 35_000 - 100
    assert chain.validate(tx)


def test_build_payment_is_deterministic(funded_chain):
    chain, alice, bob = funded_chain
    a = build_payment(chain, alice, [TxOutput(value=1_000, lock=PayToKey(bob.pub))], fee=10)
    b = build_payment(chain, alice, [TxOutput(value=1_000, lock=PayToKey(bob.pub))], fee=10)
    assert serialize_tx(a) == serialize_tx(b)


def test_build_payment_insufficient_funds(funded_chain):
    chain, alice, bob = funded_chain
    with pytest.raises(InsufficientFundsError):
        build_payment(chain, alice, [TxOutput(value=50_001, lock=PayToKey(bob.pub))], fee=0)
    build_payment(chain, alice, [TxOutput(value=50_000, lock=PayToKey(bob.pub))], fee=0)
    with pytest.raises(InsufficientFundsError):
        build_payment(chain, alice, [TxOutput(value=50_000, lock=PayToKey(bob.pub))], fee=1)


def test_select_coins_zero_target_edge(funded_chain):
    chain, alice, bob = funded_chain
    first = chain.utxos_for(alice.pub)[0]
    # one rule for every spend: at least one coin, even for a zero target
    assert select_coins(chain, alice.pub, 0) == ([first[0]], first[1].value)
    # so an owner with no coins cannot cover even a zero target
    with pytest.raises(InsufficientFundsError, match="^need 0, have 0$"):
        select_coins(chain, bob.pub, 0)
    # a payment of nothing, with no fee, spends one coin and confirms
    free = build_payment(chain, alice, [TxOutput(value=0, lock=PayToKey(bob.pub))])
    assert [txin.outpoint for txin in free.inputs] == [first[0]]
    assert chain.submit(free).accepted
    block = chain.mine_next([Miner("solo", 1.0)], Random(1))
    assert block.txs == (free,)


def test_select_coins_walks_sorted_outpoints(funded_chain):
    chain, alice, bob = funded_chain
    coins = chain.utxos_for(alice.pub)
    total = sum(out.value for _, out in coins)
    assert select_coins(chain, alice.pub, coins[0][1].value) == ([coins[0][0]], coins[0][1].value)
    assert select_coins(chain, alice.pub, coins[0][1].value + 1) == ([op for op, _ in coins], total)
    with pytest.raises(InsufficientFundsError, match=f"need {total + 1}, have {total}"):
        select_coins(chain, alice.pub, total + 1)


# --------------------------------------------------------- encoder pinning
# The encoders against the struct reference of FORMATS.md's layouts
# (`test_formats`), on every lock kind and on drawn transactions.


def _nested(levels: int, wrap):
    """A PayToKey inside `levels` locks, each made from the one below by `wrap`."""
    lock = PayToKey(PUB_A)
    for level in range(levels):
        lock = wrap(lock, level)
    return lock


# every lock kind, TimeLocked and Either nested as deep as a lock may be, and
# multisig with and without a commitment
_EVERY_KIND = (
    PayToKey(PUB_A),
    MultiSig(2, (PUB_A, PUB_B, PUB_C)),
    MultiSig(1, (PUB_A,), PUB_C),
    ScriptHash(PUB_B),
    DataCarrier(b""),
    DataCarrier(bytes(range(40))),
    _nested(MAX_LOCK_DEPTH, lambda inner, level: TimeLocked(inner, 2**64 - 1 - level)),
    _nested(MAX_LOCK_DEPTH, lambda inner, level: Either(inner, PayToKey(PUB_B))),
    _nested(MAX_LOCK_DEPTH, lambda inner, level: Either(MultiSig(1, (PUB_C,), PUB_A), inner)),
    _nested(
        MAX_LOCK_DEPTH,
        lambda inner, level: TimeLocked(inner, level) if level % 2 else Either(inner, inner),
    ),
)
assert all(lock._depth == MAX_LOCK_DEPTH for lock in _EVERY_KIND[6:])

_B32 = st.binary(min_size=32, max_size=32)
_U64 = st.integers(0, 2**64 - 1)
_MULTISIGS = st.lists(_B32, min_size=1, max_size=4).flatmap(
    lambda keys: st.builds(
        MultiSig, st.integers(1, len(keys)), st.just(tuple(keys)), st.none() | _B32
    )
)
_LOCKS = st.recursive(
    st.builds(PayToKey, _B32)
    | _MULTISIGS
    | st.builds(ScriptHash, _B32)
    | st.builds(DataCarrier, st.binary(min_size=1, max_size=40)),
    lambda inner: st.builds(TimeLocked, inner, _U64) | st.builds(Either, inner, inner),
    max_leaves=5,
)
_ANY_LOCK = _LOCKS | st.sampled_from(_EVERY_KIND)
_WITNESSES = st.builds(
    Witness,
    st.lists(st.builds(Signature, _B32, _B32, _B32), max_size=3).map(tuple),
    st.none() | _ANY_LOCK,
    st.none() | st.binary(min_size=1, max_size=40),
)
_TXS = st.builds(
    Transaction,
    st.lists(
        st.builds(TxInput, st.tuples(_B32, st.integers(0, 2**32 - 1)), _WITNESSES), max_size=3
    ).map(tuple),
    st.lists(st.builds(TxOutput, _U64, _ANY_LOCK), max_size=3).map(tuple),
    _U64,
)
# The strategies above draw no empty payload or preimage: hypothesis keys its
# cache by the values drawn, where b"" and 0 hash alike, and under `-bb`
# comparing them raises BytesWarning.  This example holds both.
_EMPTY_BYTES_TX = Transaction(
    (TxInput((PUB_C, 0), Witness(expr_preimage=b"")),), (TxOutput(0, DataCarrier(b"")),)
)
_EVERY_KIND_TX = Transaction(
    tuple(TxInput((PUB_C, i), Witness(redeem=lock)) for i, lock in enumerate(_EVERY_KIND)),
    tuple(TxOutput(i, lock) for i, lock in enumerate(_EVERY_KIND)),
)

_BUILDERS = ("build_payment", "sign_payment", "compose_message_tx", "compose_burn_tx")
# one payload short enough for a data carrier, and one split over a multisig
_MESSAGES = (
    Broadcast(1_000, 7, 0, "t"),
    Bet("cd" * 32, Comparator.GE, 3 * 10**9, 1_200, 100_000, 200_000, 1),
)


@st.composite
def _spends(draw):
    """A builder, the sender's coin values, an amount to pay and a fee that
    the coins cover, and a message to carry."""
    coins = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4))
    amount = draw(st.integers(0, sum(coins)))
    fee = draw(st.integers(0, sum(coins) - amount))
    return draw(st.sampled_from(_BUILDERS)), coins, amount, fee, draw(st.sampled_from(_MESSAGES))


def _build(builder, coins, amount, fee, message) -> Transaction:
    reg = KeyRegistry()
    alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
    genesis = [TxOutput(value, PayToKey(alice.pub)) for value in coins]
    chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
    pay = TxOutput(amount, PayToKey(bob.pub))
    if builder == "build_payment":
        return build_payment(chain, alice, [pay], fee=fee)
    if builder == "sign_payment":
        picked, gathered = select_coins(chain, alice.pub, amount + fee)
        return sign_payment(alice, picked, [pay], gathered - amount - fee)
    if builder == "compose_message_tx":
        return compose_message_tx(chain, alice, message, fee=fee, extra_outputs=(pay,))
    return compose_burn_tx(chain, alice, amount, fee=fee)


@given(_TXS, _spends())
@example(_EVERY_KIND_TX, ("sign_payment", [5, 6, 7], 10, 3, _MESSAGES[0]))
@example(_EVERY_KIND_TX, ("compose_message_tx", [10**6], 0, 0, _MESSAGES[1]))
@example(_EMPTY_BYTES_TX, ("build_payment", [1], 1, 0, _MESSAGES[0]))
def test_serialize_tx_matches_the_reference_and_sighash_blanks_every_witness(tx, payment):
    assert serialize_tx(tx) == ref.transaction(tx)
    assert deserialize_tx(serialize_tx(tx)) == tx
    blanked = Transaction(
        tuple(TxInput(txin.outpoint, Witness()) for txin in tx.inputs), tx.outputs, tx.locktime
    )
    assert sighash(tx) == hashlib.sha256(serialize_tx(blanked)).digest()
    assert sighash(tx) == ref.sighash(tx)
    for lock in [out.lock for out in tx.outputs] + [txin.witness.redeem for txin in tx.inputs]:
        if lock is not None:
            assert serialize_lock(lock) == ref.lock_script(lock)

    # a built transaction keeps the bytes and the sighash of its fresh twin
    built = _build(*payment)
    twin = Transaction(built.inputs, built.outputs, built.locktime)
    assert None not in (built._bytes, built._sighash)
    assert built._bytes == serialize_tx(twin) == ref.transaction(twin)
    assert built._sighash == sighash(twin)
    assert built._sighash == ref.sighash(twin)
    assert txid(built) == ref.txid(twin)


# alice holds 400, 300, 200 and 100, spent in that order: `coins` of them
# cover paid + fee and leave `change`
@pytest.mark.parametrize(
    "paid, fee, coins, change",
    [
        (350, 20, 1, 30), (400, 0, 1, 0),
        (500, 10, 2, 190), (700, 0, 2, 0),
        (880, 0, 3, 20), (880, 20, 3, 0),
        (950, 20, 4, 30), (1000, 0, 4, 0),
    ],
)
def test_build_payment_equals_its_unsigned_twin_signed_input_by_input(paid, fee, coins, change):
    reg = KeyRegistry()
    alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
    chain = SimChain(
        policy=POLICY_TEST2013,
        genesis=[TxOutput(value=v, lock=PayToKey(alice.pub)) for v in (400, 300, 200, 100)],
        keys=reg,
    )
    pay = TxOutput(value=paid, lock=PayToKey(bob.pub))
    tx = build_payment(chain, alice, [pay], fee=fee)

    outputs = (pay, TxOutput(value=change, lock=PayToKey(alice.pub))) if change else (pay,)
    spent = [outpoint for outpoint, _ in chain.utxos_for(alice.pub)][:coins]
    twin = Transaction(inputs=tuple(TxInput(op) for op in spent), outputs=outputs)
    for index in range(coins):
        twin = sign_input(twin, index, alice)

    assert tx == twin
    assert _serialized(tx) == _serialized(twin)
    assert txid(tx) == txid(twin)
    assert tx._sighash is not None  # set when it was built
    assert sighash(tx) == sighash(twin) == sighash(deserialize_tx(_serialized(tx)))
    assert [i.witness for i in tx.inputs] == [i.witness for i in twin.inputs]
    assert tx.with_witness(0, Witness())._sighash == sighash(twin)
    assert chain.validate(tx)


# ------------------------------------------------------------ decoder fuzz


def _rich_tx() -> Transaction:
    redeem = Either(
        left=MultiSig(m=2, keys=(PUB_A, PUB_B), commitment=PUB_C),
        right=TimeLocked(inner=PayToKey(PUB_C), unlock_height=500),
    )
    sig = Signature(PUB_A, bytes(range(32)), PUB_B)
    witness = Witness(signatures=(sig, sig), redeem=redeem, expr_preimage=b"if rain then bob")
    return Transaction(
        inputs=(TxInput(outpoint=(PUB_C, 7), witness=witness), TxInput(outpoint=(PUB_B, 0))),
        outputs=(
            TxOutput(value=1_000, lock=p2sh_lock(redeem)),
            TxOutput(value=0, lock=DataCarrier(b"payload")),
            TxOutput(value=5, lock=TimeLocked(inner=redeem, unlock_height=9)),
        ),
        locktime=12,
    )


_DECODERS = [
    (deserialize_tx, serialize_tx, serialize_tx(_rich_tx())),
    (deserialize_lock, serialize_lock, serialize_lock(_rich_tx().outputs[2].lock)),
]


@st.composite
def _edits(draw, data: bytes) -> bytes:
    """``data`` after one to three byte edits: replace, delete or insert."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "insert":
            out.insert(draw(st.integers(0, len(out))), draw(st.integers(0, 255)))
        elif out:
            at = draw(st.integers(0, len(out) - 1))
            if edit == "replace":
                out[at] = draw(st.integers(0, 255))
            else:
                del out[at]
    return bytes(out)


def _refuses_or_round_trips(decode, encode, data: bytes) -> None:
    try:
        decoded = decode(data)
    except ValueError:
        return
    assert encode(decoded) == data


@pytest.mark.parametrize("decode, encode, _", _DECODERS, ids=["tx", "lock"])
@settings(max_examples=500)
@given(data=st.binary(max_size=200))
def test_decoders_refuse_or_round_trip_arbitrary_bytes(decode, encode, _, data):
    _refuses_or_round_trips(decode, encode, data)


@pytest.mark.parametrize("decode, encode, valid", _DECODERS, ids=["tx", "lock"])
@settings(max_examples=500)
@given(data=st.data())
def test_decoders_refuse_or_round_trip_edited_bytes(decode, encode, valid, data):
    assert encode(decode(valid)) == valid
    _refuses_or_round_trips(decode, encode, data.draw(_edits(valid)))
