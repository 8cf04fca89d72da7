"""Meta-chain over the host: payload codec, replay, burns, feeds, and bets."""

import gc
import hashlib
import json
import struct
import weakref
from dataclasses import MISSING, fields
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oraclesim import counterparty, simchain
from oraclesim.codec import TruncatedError
from oraclesim.counterparty import (
    BURN_PUB,
    AppliedMessage,
    BadMagicError,
    Bet,
    BetRecord,
    BetStatus,
    Broadcast,
    Burn,
    CHUNK,
    DATA_CARRIER_LIMIT,
    FEE_FRACTION_UNIT,
    MAGIC,
    MatchRecord,
    MetaState,
    R_BAD_SIDE,
    R_BALANCE,
    R_FEE_FRACTION,
    R_NO_SOURCE,
    R_STALE,
    R_WRONG_BURN,
    R_ZERO_WAGER,
    Send,
    XCP,
    _xor_stream,
    carried_ciphertexts,
    carrier_output,
    compose_burn_tx,
    compose_message_tx,
    decode_payload,
    encode_message,
    replay,
    state_digest,
    state_to_json,
    xcp_in_circulation,
)
from oraclesim.datafeed import Comparator, compare
from oraclesim.simchain import (
    Block,
    DataCarrier,
    InsufficientFundsError,
    KeyRegistry,
    Miner,
    MultiSig,
    PayToKey,
    POLICY_V090,
    SimChain,
    Transaction,
    TxOutput,
    build_payment,
    p2sh_lock,
    select_coins,
    serialize_tx,
    spend,
    txid,
)
import test_formats as ref
from test_script_tx import _edits

XCP_UNIT = 10**8
MINERS = [Miner("solo", 1.0, accepts_nonstandard=True)]


def make_chain(coins_each=6, value=2 * 10**8):
    reg = KeyRegistry()
    people = {name: reg.keygen(name.encode()) for name in ("alice", "bob", "claire")}
    genesis = [
        TxOutput(value=value, lock=PayToKey(pair.pub))
        for pair in people.values()
        for _ in range(coins_each)
    ]
    chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
    return chain, people


def mine(chain, *txs, seed=1):
    for tx in txs:
        result = chain.submit(tx)
        assert result.accepted, result
    return chain.mine_next(MINERS, Random(seed))


def addr(pair):
    return pair.pub.hex()


# -------------------------------------------------------------------- codec


KEY_A = bytes(range(32))
KEY_B = bytes(range(1, 33))

ALL_MESSAGES = [
    Send(asset="XCP", qty=5 * XCP_UNIT, dest="ab" * 32),
    Broadcast(timestamp=1_700_000_000, value=405 * XCP_UNIT, fee_fraction=10**6,
              text="BTC-USD price"),
    Bet(feed="cd" * 32, comparator=Comparator.GE, target=400 * XCP_UNIT,
        deadline=1_700_000_500, wager=10 * XCP_UNIT, counterwager=5 * XCP_UNIT, side=1),
    Burn(btc_qty=10**8),
]


@pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_codec_round_trip(message):
    payload = encode_message(message, KEY_A)
    assert decode_payload(payload, KEY_A) == message


def test_codec_round_trip_randomized():
    rng = Random(21)
    for _ in range(200):
        pick = rng.randrange(4)
        if pick == 0:
            msg = Send(asset=rng.choice(["XCP", "GOLD"]), qty=rng.randrange(2**40),
                       dest=bytes(rng.randrange(256) for _ in range(32)).hex())
        elif pick == 1:
            msg = Broadcast(timestamp=rng.randrange(2**40),
                            value=rng.randrange(-2**40, 2**40),
                            fee_fraction=rng.randrange(FEE_FRACTION_UNIT),
                            text="Ω" * rng.randrange(30))
        elif pick == 2:
            msg = Bet(feed=bytes(rng.randrange(256) for _ in range(32)).hex(),
                      comparator=Comparator(rng.randint(1, 6)),
                      target=rng.randrange(-2**40, 2**40),
                      deadline=rng.randrange(2**40),
                      wager=rng.randrange(1, 2**40), counterwager=rng.randrange(1, 2**40),
                      side=rng.randint(0, 1))
        else:
            msg = Burn(btc_qty=rng.randrange(2**40))
        key = bytes(rng.randrange(256) for _ in range(32))
        assert decode_payload(encode_message(msg, key), key) == msg


def test_payload_layout_is_bit_exact():
    message = Send(asset="XCP", qty=5 * XCP_UNIT, dest="aa")
    body = struct.pack("<B", 1)
    body += struct.pack("<I", 3) + b"XCP"
    body += struct.pack("<Q", 5 * XCP_UNIT)
    body += struct.pack("<I", 2) + b"aa"
    plain = MAGIC + body
    expected = bytes(b ^ KEY_A[i % 32] for i, b in enumerate(plain))
    assert encode_message(message, KEY_A) == expected


@given(st.binary(max_size=200), st.binary(min_size=1, max_size=64))
@example(b"", b"k")
@example(b"short", bytes(range(64)))
def test_xor_stream_matches_the_per_byte_reference(data, key):
    expected = bytes(b ^ key[i % len(key)] for i, b in enumerate(data))
    assert _xor_stream(data, key) == expected


def test_xor_stream_rejects_an_empty_key():
    with pytest.raises(ValueError):
        _xor_stream(b"data", b"")


def test_wrong_key_scrambles_the_magic():
    payload = encode_message(ALL_MESSAGES[0], KEY_A)
    with pytest.raises(BadMagicError):
        decode_payload(payload, KEY_B)
    with pytest.raises(BadMagicError):
        decode_payload(b"JUNKJUNK" + payload[8:], KEY_A)


def test_truncated_and_padded_payloads_fail():
    payload = encode_message(ALL_MESSAGES[0], KEY_A)
    with pytest.raises(TruncatedError, match=r"^need 4 bytes at offset 1, have 3$"):
        decode_payload(payload[:12], KEY_A)
    padded = payload + bytes([0 ^ KEY_A[len(payload) % 32]])
    with pytest.raises(ValueError, match=r"^1 trailing bytes after decode$") as raised:
        decode_payload(padded, KEY_A)
    assert type(raised.value) is ValueError  # not a truncation


def _refuses_or_round_trips(payload: bytes, key: bytes) -> None:
    try:
        message = decode_payload(payload, key)
    except (BadMagicError, ValueError):  # what `replay` skips
        return
    assert encode_message(message, key) == payload


@settings(max_examples=500)
@given(key=st.sampled_from([KEY_A, KEY_B]), body=st.binary(max_size=120), sealed=st.booleans())
def test_decode_payload_refuses_or_round_trips_arbitrary_bytes(key, body, sealed):
    """Arbitrary bytes, as they are or as a body behind the magic under ``key``."""
    _refuses_or_round_trips(_xor_stream(MAGIC + body, key) if sealed else body, key)


@settings(max_examples=500)
@given(message=st.sampled_from(ALL_MESSAGES), data=st.data())
def test_decode_payload_refuses_or_round_trips_edited_payloads(message, data):
    """One to three byte edits of a valid plaintext, sealed again under the key."""
    plain = _xor_stream(encode_message(message, KEY_A), KEY_A)
    _refuses_or_round_trips(_xor_stream(data.draw(_edits(plain)), KEY_A), KEY_A)


def _width(lo: int, hi: int):
    """Integers of one codec width, its ends and their neighbours included."""
    return st.one_of(st.sampled_from((lo, lo + 1, hi - 1, hi)), st.integers(lo, hi))


_U8, _U32, _U64 = _width(0, 2**8 - 1), _width(0, 2**32 - 1), _width(0, 2**64 - 1)
_I64 = _width(-(2**63), 2**63 - 1)
_TEXT = st.text(max_size=40)  # non-ASCII and empty included; no lone surrogates

MESSAGES = st.one_of(
    st.builds(Send, asset=_TEXT, qty=_U64, dest=_TEXT),
    st.builds(Broadcast, timestamp=_U64, value=_I64, fee_fraction=_U32, text=_TEXT),
    st.builds(
        Bet, feed=_TEXT, comparator=st.sampled_from(Comparator), target=_I64,
        deadline=_U64, wager=_U64, counterwager=_U64, side=_U8,
    ),
    st.builds(Burn, btc_qty=_U64),
)


def _decodes_as_the_reference_does(payload: bytes, key: bytes) -> None:
    try:
        kind, fields = ref.decode_consensus_payload(payload, key)
    except ValueError:
        # what the reference refuses is refused with an exception `replay` skips
        with pytest.raises((BadMagicError, ValueError)):
            decode_payload(payload, key)
        return
    decoded = decode_payload(payload, key)
    assert (type(decoded).__name__, decoded._asdict()) == (kind, fields)
    if isinstance(decoded, Bet):
        assert type(decoded.comparator) is Comparator  # not an int


@settings(max_examples=300, deadline=None)
@given(
    message=MESSAGES,
    key=st.binary(min_size=1, max_size=40),
    tag=st.one_of(st.sampled_from((1, 2, 3, 4)), st.integers(0, 255)),
    # never empty: after a message of varying length, hypothesis's cache may compare
    # b"" with a 0 drawn there, an error under -bb; the empty body has its own test
    body=st.binary(min_size=1, max_size=100),
    data=st.data(),
)
def test_the_body_table_agrees_with_the_struct_reference(message, key, tag, body, data):
    payload = encode_message(message, key)
    assert payload == ref.consensus_payload(message, key)
    decoded = decode_payload(payload, key)
    assert decoded == message
    assert repr(decoded) == repr(message)
    assert ref.decode_consensus_payload(payload, key) == (type(message).__name__, message._asdict())

    plain = _xor_stream(payload, key)
    for cut in range(len(payload)):
        _decodes_as_the_reference_does(payload[:cut], key)
    _decodes_as_the_reference_does(_xor_stream(data.draw(_edits(plain)), key), key)
    _decodes_as_the_reference_does(_xor_stream(MAGIC + bytes((tag,)) + body, key), key)


@pytest.mark.parametrize("key", [KEY_A, KEY_B])
def test_an_empty_body_behind_each_tag_decodes_as_the_reference_does(key):
    for tag in range(256):
        _decodes_as_the_reference_does(_xor_stream(MAGIC + bytes((tag,)), key), key)


def test_small_payloads_ride_a_data_carrier():
    out = carrier_output(b"x" * DATA_CARRIER_LIMIT, owner_pub=b"\1" * 32)
    assert isinstance(out.lock, DataCarrier)


def test_large_payloads_ride_multisig_keys():
    payload = bytes(range(65))  # 41+ bytes forces the multisig path
    out = carrier_output(payload, owner_pub=b"\1" * 32)
    assert isinstance(out.lock, MultiSig)
    assert out.lock.m == 1
    assert out.lock.keys[0] == b"\1" * 32
    assert len(out.lock.keys) == 1 + 3  # 65 bytes over 31-byte chunks

    class FakeTx:
        outputs = [out]

    assert carried_ciphertexts(FakeTx()) == [payload]


def test_bet_payload_exceeding_40_bytes_chooses_multisig():
    bet = ALL_MESSAGES[2]
    payload = encode_message(bet, KEY_A)
    assert len(payload) > DATA_CARRIER_LIMIT
    out = carrier_output(payload, owner_pub=b"\2" * 32)
    assert isinstance(out.lock, MultiSig)


def test_oversized_payload_rejected():
    with pytest.raises(ValueError):
        carrier_output(bytes(31 * 14 + 1), owner_pub=b"\1" * 32)


def _reference_carrier_keys(payload, owner_pub):
    """The multisig keys as the carrier chunked them before it built them in
    one pass: a length byte, then the chunk zero-padded to 31 bytes."""
    size = len(payload)
    count = -(-size // CHUNK)
    padded = payload + bytes(count * CHUNK - size)
    return (owner_pub,) + tuple(
        bytes((min(CHUNK, size - i),)) + padded[i : i + CHUNK] for i in range(0, size, CHUNK)
    )


def test_carrier_keys_match_the_reference_chunking_at_every_size():
    owner, rng = b"\1" * 32, Random(434)
    for size in range(31 * 14 + 1):  # 14 spare keys beside the owner's: the multisig cap
        payload = rng.randbytes(size)
        out = carrier_output(payload, owner)
        if size <= DATA_CARRIER_LIMIT:
            assert out.lock == DataCarrier(payload)
        else:
            assert out.lock == MultiSig(m=1, keys=_reference_carrier_keys(payload, owner))
        assert carried_ciphertexts(Transaction(inputs=(), outputs=(out,))) == [payload], size
    with pytest.raises(ValueError):
        carrier_output(rng.randbytes(31 * 14 + 1), owner)


def test_a_spare_key_with_a_length_byte_past_the_chunk_carries_nothing():
    owner = b"\1" * 32
    payload_key = bytes((CHUNK,)) + bytes(range(CHUNK))
    for lead in range(CHUNK + 1, 256):
        odd = bytes((lead,)) + bytes(CHUNK)
        for keys in ((owner, odd), (owner, payload_key, odd), (owner, odd, payload_key)):
            out = TxOutput(value=0, lock=MultiSig(m=1, keys=keys))
            assert carried_ciphertexts(Transaction(inputs=(), outputs=(out,))) == []


# ------------------------------------------------------------- record form

RECORDS = [
    *ALL_MESSAGES,
    BetRecord(1, "ab" * 32, ALL_MESSAGES[2]),
    MatchRecord(1, "cd" * 32, Comparator.GE, 5, 9, "ab" * 32, 1, "ef" * 32, 2),
    AppliedMessage(3, 0, bytes(32), "ab" * 32, ALL_MESSAGES[3], True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_never_equals_the_plain_tuple_of_its_fields(record):
    plain = tuple(record)
    twin = type(record)(*plain)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)  # equal records hash alike
    assert record != plain and plain != record
    assert not record == plain and not plain == record
    assert len({record, plain}) == 2 and {record: 1}.get(plain) is None


def test_records_of_different_kinds_with_equal_values_are_unequal():
    kinds = [type(r) for r in RECORDS]
    pairs = [
        (a, b) for a in kinds for b in kinds if a is not b and len(a._fields) == len(b._fields)
    ]
    assert {frozenset(p) for p in pairs} == {
        frozenset((Broadcast, BetRecord)), frozenset((Bet, AppliedMessage))
    }
    for a, b in pairs:
        values = tuple(range(len(a._fields)))
        x, y = a(*values), b(*values)
        assert x != y and not x == y
        assert len({x, y}) == 2


# ------------------------------------------------------------------- replay


def burn_and_mine(chain, pair, sats, seed):
    tx = compose_burn_tx(chain, pair, sats)
    mine(chain, tx, seed=seed)
    return tx


def test_burn_issues_at_the_configured_rate():
    chain, people = make_chain()
    supply_before = chain.supply()
    tx = burn_and_mine(chain, people["alice"], 10**8, seed=2)  # one host coin
    state = replay(chain)
    assert state.balance(addr(people["alice"])) == 1000 * XCP_UNIT
    assert state.burned == 10**8
    assert state.issued == 1000 * XCP_UNIT
    # the burned coin still sits in the utxo set, on a key nobody holds
    assert chain.balance(BURN_PUB) == 10**8
    fee = 1000
    assert chain.supply() - chain.balance(BURN_PUB) == supply_before - 10**8 - fee
    assert txid(tx) in chain.txs_by_id


def test_burn_to_a_spendable_address_issues_nothing():
    chain, people = make_chain()
    alice, bob = people["alice"], people["bob"]
    decoy = TxOutput(value=10**8, lock=PayToKey(bob.pub))
    tx = compose_message_tx(chain, alice, Burn(btc_qty=10**8), extra_outputs=(decoy,))
    mine(chain, tx, seed=3)
    state = replay(chain)
    assert txid(tx) in chain.txs_by_id  # host does not care
    assert state.balance(addr(alice)) == 0
    assert state.issued == 0
    [entry] = state.log
    assert not entry.valid
    assert entry.reason == "wrong burn address"


def test_send_moves_balance_and_overspend_is_meta_invalid():
    chain, people = make_chain()
    alice, bob = people["alice"], people["bob"]
    burn_and_mine(chain, alice, 200_000, seed=4)  # 2 XCP
    over = compose_message_tx(chain, alice, Send(XCP, 5 * XCP_UNIT, addr(bob)))
    mine(chain, over, seed=5)
    ok = compose_message_tx(chain, alice, Send(XCP, 1 * XCP_UNIT, addr(bob)))
    mine(chain, ok, seed=6)

    state = replay(chain)
    assert txid(over) in chain.txs_by_id  # host-valid regardless
    entries = {e.txid: e for e in state.log}
    assert entries[txid(over)].valid is False
    assert entries[txid(over)].reason == "insufficient balance"
    assert entries[txid(ok)].valid is True
    assert state.balance(addr(alice)) == 1 * XCP_UNIT
    assert state.balance(addr(bob)) == 1 * XCP_UNIT
    assert xcp_in_circulation(state) == state.issued


def test_replay_is_deterministic():
    chain, people = make_chain()
    alice, bob = people["alice"], people["bob"]
    burn_and_mine(chain, alice, 300_000, seed=7)
    mine(chain, compose_message_tx(chain, alice, Send(XCP, 2 * XCP_UNIT, addr(bob))), seed=8)
    first = state_digest(replay(chain))
    second = state_digest(replay(chain))
    assert first == second
    # digest is the hash of the canonical JSON document
    doc = json.dumps(state_to_json(replay(chain)), sort_keys=True, separators=(",", ":"))
    assert first == hashlib.sha256(doc.encode()).digest()



def test_a_message_source_is_the_first_key_of_the_output_its_first_input_spends():
    """A spent multisig names its first key.  A spent script hash names no
    key, and a block the chain never mined may spend an outpoint the chain
    does not know, which names nothing: both messages are logged invalid,
    as `R_NO_SOURCE`."""
    reg = KeyRegistry()
    alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
    multisig = MultiSig(m=1, keys=(alice.pub, bob.pub))
    genesis = [TxOutput(10**6, multisig), TxOutput(10**6, p2sh_lock(multisig))]
    chain = SimChain(genesis=genesis, keys=reg)
    genesis_id = txid(chain.blocks[0].txs[0])
    message = Broadcast(timestamp=1, value=2, fee_fraction=0, text="t")

    def carrying(outpoint, **witness):
        payload = encode_message(message, outpoint[0])
        return spend(outpoint, [carrier_output(payload, alice.pub)], alice, **witness)

    from_multisig = carrying((genesis_id, 0))
    from_script_hash = carrying((genesis_id, 1), redeem=multisig)
    mine(chain, from_multisig, from_script_hash)
    applied = {a.txid: (a.source, a.valid, a.reason) for a in replay(chain).log}
    assert applied == {
        txid(from_multisig): (addr(alice), True, None),
        txid(from_script_hash): ("", False, R_NO_SOURCE),
    }

    stray = carrying((bytes(32), 0))
    state = MetaState()
    state.apply_block(chain, Block(chain.height + 1, "elsewhere", (stray,), chain.tip_hash))
    assert [(a.source, a.valid, a.reason) for a in state.log] == [("", False, R_NO_SOURCE)]


def test_same_block_order_is_consensus():
    def run(alice_fee, bob_fee):
        chain, people = make_chain()
        alice, bob, claire = people["alice"], people["bob"], people["claire"]
        burn_and_mine(chain, alice, 500_000, seed=9)  # alice: 5 XCP, bob: none
        pay_bob = compose_message_tx(
            chain, alice, Send(XCP, 5 * XCP_UNIT, addr(bob)), fee=alice_fee
        )
        relay = compose_message_tx(
            chain, bob, Send(XCP, 5 * XCP_UNIT, addr(claire)), fee=bob_fee
        )
        mine(chain, pay_bob, relay, seed=10)
        return replay(chain)

    alice_first = run(alice_fee=5000, bob_fee=1000)
    assert alice_first.balance(addr_of(alice_first, "claire")) == 5 * XCP_UNIT

    bob_first = run(alice_fee=1000, bob_fee=5000)
    # bob's relay ran before he had the balance: invalid, coins stop with bob
    assert bob_first.balance(addr_of(bob_first, "claire")) == 0
    assert bob_first.balance(addr_of(bob_first, "bob")) == 5 * XCP_UNIT
    assert state_digest(alice_first) != state_digest(bob_first)


def addr_of(state, name):
    reg = KeyRegistry()
    return reg.keygen(name.encode()).pub.hex()


def test_non_protocol_data_is_ignored():
    chain, people = make_chain()
    alice = people["alice"]
    noise = build_payment(
        chain, alice, [TxOutput(value=0, lock=DataCarrier(b"hello world"))], fee=500
    )
    mine(chain, noise, seed=11)
    state = replay(chain)
    assert state.log == []
    assert state.balances == {}


def test_garbage_carrier_does_not_mask_the_real_payload():
    chain, people = make_chain()
    alice = people["alice"]
    coins = chain.utxos_for(alice.pub)
    key_txid = coins[0][0][0]
    payload = encode_message(Burn(btc_qty=100_000), key_txid)
    junk = TxOutput(value=0, lock=DataCarrier(b"\xff" * 12))
    burn_out = TxOutput(value=100_000, lock=PayToKey(BURN_PUB))
    tx = build_payment(
        chain,
        alice,
        [junk, carrier_output(payload, alice.pub), burn_out],
        fee=1000,
    )
    assert len(carried_ciphertexts(tx)) == 2  # junk rides first
    mine(chain, tx, seed=11)
    state = replay(chain)
    [entry] = state.log
    assert entry.valid
    assert state.issued == 100_000 * 1000


def test_multisig_refuses_an_empty_spare_key():
    with pytest.raises(ValueError):
        MultiSig(m=1, keys=(bytes(32), b""))


@pytest.mark.parametrize("spare_key", [bytes([CHUNK + 1]) + bytes(CHUNK)], ids=["oversized"])
def test_multisig_with_a_non_payload_key_carries_nothing(spare_key):
    chain, people = make_chain()
    alice = people["alice"]
    key_txid = chain.utxos_for(alice.pub)[0][0][0]
    payload = encode_message(Burn(btc_qty=100_000), key_txid)
    odd = TxOutput(value=0, lock=MultiSig(m=1, keys=(alice.pub, spare_key)))
    burn_out = TxOutput(value=100_000, lock=PayToKey(BURN_PUB))
    tx = build_payment(
        chain, alice, [odd, carrier_output(payload, alice.pub), burn_out], fee=1000
    )
    assert carried_ciphertexts(tx) == [payload]
    mine(chain, tx, seed=12)  # host-valid and standard: every replica must fold it
    [entry] = replay(chain).log
    assert entry.valid and entry.message == Burn(btc_qty=100_000)


def _compose_selecting_twice(chain, sender, message, fee, extra_outputs):
    """The composition that selects coins twice, kept as the reference: the
    payload key from a selection with no target, then `build_payment`'s."""
    coins, _ = select_coins(chain, sender.pub, 0)
    payload = encode_message(message, coins[0][0])
    outputs = [carrier_output(payload, sender.pub), *extra_outputs]
    return build_payment(chain, sender, outputs, fee=fee)


@settings(max_examples=60)
@given(
    coins=st.lists(st.integers(1, 10**6), min_size=1, max_size=5),
    fee=st.integers(0, 2 * 10**6),
    burn=st.none() | st.integers(0, 2 * 10**6),
    message=st.sampled_from(ALL_MESSAGES[:3]),
)
def test_composing_selects_coins_once_with_the_bytes_of_two_selections(coins, fee, burn, message):
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    genesis = [TxOutput(value, PayToKey(alice.pub)) for value in coins]
    chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
    if burn is None:
        compose, carried, extra = compose_message_tx, message, ()
    else:
        compose, carried = compose_burn_tx, burn
        message, extra = Burn(burn), (TxOutput(burn, PayToKey(BURN_PUB)),)

    calls = []
    select = simchain.select_coins

    def counting(*args):
        calls.append(args)
        return select(*args)

    # every module that binds the selector, so a call by any route is counted
    with patch.object(simchain, "select_coins", counting), patch.object(
        counterparty, "select_coins", counting
    ):
        try:
            tx = compose(chain, alice, carried, fee=fee)
        except InsufficientFundsError:
            tx = None
    assert len(calls) == 1
    if tx is None:
        with pytest.raises(InsufficientFundsError):
            _compose_selecting_twice(chain, alice, message, fee, extra)
    else:
        assert serialize_tx(tx) == serialize_tx(
            _compose_selecting_twice(chain, alice, message, fee, extra)
        )


# ------------------------------------------------------------- feeds & bets


def seeded_bettors(chain, people, sats=1_500_000):
    for seed, name in enumerate(("alice", "bob")):
        burn_and_mine(chain, people[name], sats, seed=30 + seed)


def make_bet(side, wager, counterwager, feed, deadline=1_000):
    return Bet(
        feed=feed,
        comparator=Comparator.GE,
        target=400 * XCP_UNIT,
        deadline=deadline,
        wager=wager,
        counterwager=counterwager,
        side=side,
    )


def test_bet_match_escrow_and_settlement_zero_sum():
    chain, people = make_chain()
    alice, bob, claire = people["alice"], people["bob"], people["claire"]
    feed = addr(claire)
    seeded_bettors(chain, people)  # 15 XCP each

    yes = make_bet(1, 10 * XCP_UNIT, 5 * XCP_UNIT, feed)
    no = make_bet(0, 5 * XCP_UNIT, 10 * XCP_UNIT, feed)
    mine(chain, compose_message_tx(chain, alice, yes), seed=32)
    state = replay(chain)
    assert state.bets[-1].status is BetStatus.OPEN
    assert state.balance(addr(alice)) == 15 * XCP_UNIT  # no escrow until matched

    mine(chain, compose_message_tx(chain, bob, no), seed=33)
    state = replay(chain)
    assert state.balance(addr(alice)) == 5 * XCP_UNIT
    assert state.balance(addr(bob)) == 10 * XCP_UNIT
    [match] = state.matches
    assert (match.yes_owner, match.no_owner) == (addr(alice), addr(bob))
    assert match.escrow == 15 * XCP_UNIT
    assert xcp_in_circulation(state) == state.issued

    # before the deadline: nothing settles
    early = Broadcast(timestamp=999, value=500 * XCP_UNIT, fee_fraction=10**6, text="")
    mine(chain, compose_message_tx(chain, claire, early), seed=34)
    assert replay(chain).matches[0].settled is False

    at_deadline = Broadcast(
        timestamp=1_000, value=405 * XCP_UNIT, fee_fraction=10**6, text=""
    )
    mine(chain, compose_message_tx(chain, claire, at_deadline), seed=35)
    state = replay(chain)
    [match] = state.matches
    assert match.settled and match.winner == "yes"
    pot = 15 * XCP_UNIT
    fee = pot * 10**6 // FEE_FRACTION_UNIT
    assert match.fee_paid == fee
    assert state.balance(addr(alice)) == 5 * XCP_UNIT + pot - fee
    assert state.balance(addr(bob)) == 10 * XCP_UNIT
    assert state.balance(feed) == fee
    assert xcp_in_circulation(state) == state.issued


def test_no_side_wins_when_the_comparison_fails():
    chain, people = make_chain()
    alice, bob, claire = people["alice"], people["bob"], people["claire"]
    feed = addr(claire)
    seeded_bettors(chain, people)
    mine(chain, compose_message_tx(chain, alice, make_bet(1, 10 * XCP_UNIT, 5 * XCP_UNIT, feed)), seed=36)
    mine(chain, compose_message_tx(chain, bob, make_bet(0, 5 * XCP_UNIT, 10 * XCP_UNIT, feed)), seed=37)
    low = Broadcast(timestamp=1_001, value=399 * XCP_UNIT, fee_fraction=0, text="")
    mine(chain, compose_message_tx(chain, claire, low), seed=38)
    state = replay(chain)
    assert state.matches[0].winner == "no"
    assert state.balance(addr(bob)) == 10 * XCP_UNIT + 15 * XCP_UNIT
    assert state.balance(feed) == 0


def test_mismatched_terms_stay_open():
    chain, people = make_chain()
    alice, bob, claire = people["alice"], people["bob"], people["claire"]
    feed = addr(claire)
    seeded_bettors(chain, people)
    mine(chain, compose_message_tx(chain, alice, make_bet(1, 10 * XCP_UNIT, 5 * XCP_UNIT, feed)), seed=39)
    # wrong odds: requires 6 from the yes side instead of the offered 10
    odd = make_bet(0, 5 * XCP_UNIT, 6 * XCP_UNIT, feed)
    mine(chain, compose_message_tx(chain, bob, odd), seed=40)
    state = replay(chain)
    assert [r.status for r in state.bets] == [BetStatus.OPEN, BetStatus.OPEN]
    assert state.matches == []


def test_a_maker_who_spent_the_stake_is_cancelled_and_the_taker_stays_open():
    chain, people = make_chain()
    alice, bob, claire = people["alice"], people["bob"], people["claire"]
    feed = addr(claire)
    seeded_bettors(chain, people)  # 15 XCP each
    yes = make_bet(1, 10 * XCP_UNIT, 5 * XCP_UNIT, feed)
    mine(chain, compose_message_tx(chain, alice, yes), seed=50)
    away = Send(XCP, 10 * XCP_UNIT, addr(claire))
    mine(chain, compose_message_tx(chain, alice, away), seed=51)
    before = replay(chain)
    before_digest = state_digest(before)
    no = make_bet(0, 5 * XCP_UNIT, 10 * XCP_UNIT, feed)
    mine(chain, compose_message_tx(chain, bob, no), seed=52)
    state = replay(chain)
    # the earlier snapshot shares alice's record, which the cancel replaced
    assert before.bets[0].status is BetStatus.OPEN
    assert state_digest(before) == before_digest
    assert [(r.owner, r.status) for r in state.bets] == [
        (addr(alice), BetStatus.CANCELLED),
        (addr(bob), BetStatus.OPEN),
    ]
    assert state.matches == []
    assert state.balance(addr(alice)) == 5 * XCP_UNIT
    assert state.balance(addr(bob)) == 15 * XCP_UNIT
    assert xcp_in_circulation(state) == state.issued


def test_unmatched_bets_expire_after_the_deadline_broadcast():
    chain, people = make_chain()
    alice, claire = people["alice"], people["claire"]
    feed = addr(claire)
    burn_and_mine(chain, alice, 1_500_000, seed=41)
    mine(chain, compose_message_tx(chain, alice, make_bet(1, 10 * XCP_UNIT, 5 * XCP_UNIT, feed)), seed=42)
    past = Broadcast(timestamp=1_500, value=0, fee_fraction=0, text="")
    mine(chain, compose_message_tx(chain, claire, past), seed=43)
    state = replay(chain)
    assert state.bets[0].status is BetStatus.EXPIRED
    assert state.balance(addr(alice)) == 15 * XCP_UNIT  # nothing was escrowed


def test_stale_broadcast_is_invalid_and_ignored():
    chain, people = make_chain()
    claire = people["claire"]
    mine(chain, compose_message_tx(chain, claire, Broadcast(10, 1, 0, "a")), seed=44)
    mine(chain, compose_message_tx(chain, claire, Broadcast(10, 2, 0, "same ts")), seed=45)
    mine(chain, compose_message_tx(chain, claire, Broadcast(9, 3, 0, "older")), seed=46)
    state = replay(chain)
    reasons = [e.reason for e in state.log]
    assert reasons == [None, "stale broadcast", "stale broadcast"]
    assert [e.value for e in state.feeds[addr(claire)]] == [1]


def test_conservation_and_determinism_over_random_traffic():
    rng = Random(47)
    chain, people = make_chain(coins_each=10, value=5 * 10**8)
    pairs = list(people.values())
    names = [addr(p) for p in pairs]
    feed = names[2]
    for height in range(12):
        candidates = []
        for pair in pairs:
            roll = rng.random()
            try:
                if roll < 0.3:
                    candidates.append(compose_burn_tx(chain, pair, rng.randrange(1, 200_000)))
                elif roll < 0.6:
                    candidates.append(compose_message_tx(
                        chain, pair,
                        Send(XCP, rng.randrange(1, 3 * XCP_UNIT), rng.choice(names)),
                    ))
                elif roll < 0.8:
                    candidates.append(compose_message_tx(
                        chain, pair,
                        make_bet(rng.randint(0, 1), rng.choice([1, 2]) * XCP_UNIT,
                                 rng.choice([1, 2]) * XCP_UNIT, feed,
                                 deadline=rng.randrange(5, 20)),
                    ))
                else:
                    candidates.append(compose_message_tx(
                        chain, pair,
                        Broadcast(height * 2 + rng.randint(0, 1),
                                  rng.randrange(0, 10) * XCP_UNIT, 10**6, ""),
                    ))
            except ValueError:
                continue
        mine(chain, *candidates, seed=100 + height)
        state = replay(chain)
        assert xcp_in_circulation(state) == state.issued  # at every height
    assert state_digest(replay(chain)) == state_digest(replay(chain))


def full_fold(chain):
    state = MetaState()
    for block in chain.blocks:
        state.apply_block(chain, block)
    return state


def traffic_tx(chain, pair, names, height, op, param):
    if op == 0:
        return compose_burn_tx(chain, pair, 1 + param % 500_000)
    if op == 1:
        send = Send(XCP, 1 + param % (3 * XCP_UNIT), names[param % len(names)])
        return compose_message_tx(chain, pair, send)
    if op == 2:
        broadcast = Broadcast(2 * height + param % 2, param % 10 * XCP_UNIT, 10**6, "")
        return compose_message_tx(chain, pair, broadcast)
    # one deadline and few stakes, so opposite sides meet, match and settle
    wager, counterwager = ((1, 1), (1, 2), (2, 1))[param // 2 % 3]
    stake = XCP_UNIT // 10
    bet = make_bet(param % 2, wager * stake, counterwager * stake, names[2], deadline=12)
    return compose_message_tx(chain, pair, bet)


ACTOR_OP = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 2**20))
FUNDING = ((0, 300_000),) * 3  # every actor burns for 3 XCP first


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(ACTOR_OP, ACTOR_OP, ACTOR_OP), min_size=1, max_size=8),
    st.lists(st.booleans(), min_size=9, max_size=9),
)
# bets at heights 2 and 3 match, a third stays open; the feed's broadcast at
# height 6 settles the match and expires the open bet
@example(
    [((3, 1), None, (3, 2)), (None, (3, 0), None), (None,) * 3, (None,) * 3, (None, None, (2, 0))],
    [True] * 9,
)
def test_incremental_replay_equals_a_fresh_fold_at_every_height(blocks, replay_at):
    chain, people = make_chain(coins_each=10, value=5 * 10**8)
    pairs = list(people.values())
    names = [addr(p) for p in pairs]
    kept = []
    for height, ops in enumerate([FUNDING, *blocks], start=1):
        txs = [
            traffic_tx(chain, pair, names, height, *op)
            for pair, op in zip(pairs, ops)
            if op is not None
        ]
        mine(chain, *txs, seed=height)
        if not replay_at[height - 1]:
            continue  # the next replay folds several blocks at once
        expected = state_digest(full_fold(chain))
        state = replay(chain)
        assert state_digest(state) == expected
        kept.append((state, expected))
        # records are immutable and shared with the replica: editing one is refused
        for record in state.bets:
            with pytest.raises(AttributeError):
                record.status = BetStatus.CANCELLED
        for match in state.matches:
            with pytest.raises(AttributeError):
                match.settled = True
        # the containers are the caller's: wrecking them leaves the replica intact
        wrecked = replay(chain)
        wrecked.bets[:] = [r._replace(status=BetStatus.CANCELLED) for r in wrecked.bets]
        wrecked.matches.clear()
        for entries in wrecked.feeds.values():
            entries.clear()
        wrecked.balances[(names[0], XCP)] = -1
        wrecked.log.clear()
        assert state_digest(replay(chain)) == expected
    assert state_digest(replay(chain)) == state_digest(full_fold(chain))
    # no later settle, expiry, cancel or match rewrote a record an earlier snapshot shares
    for state, expected in kept:
        assert state_digest(state) == expected


def scanning_settle_feed(state, feed, broadcast):
    """The broadcast's settlement as a walk over every match and every bet."""
    for i, match in enumerate(state.matches):
        if match.settled or match.feed != feed or match.deadline > broadcast.timestamp:
            continue
        pot = match.yes_escrow + match.no_escrow
        fee = pot * broadcast.fee_fraction // FEE_FRACTION_UNIT
        yes = compare(match.comparator, broadcast.value, match.target)
        state.matches[i] = match._replace(settled=True, winner="yes" if yes else "no", fee_paid=fee)
        state._credit(feed, fee)
        state._credit(match.yes_owner if yes else match.no_owner, pot - fee)
    for i, record in enumerate(state.bets):
        bet = record.bet
        if record.status is BetStatus.OPEN and bet.feed == feed and bet.deadline <= broadcast.timestamp:
            state.bets[i] = record._replace(status=BetStatus.EXPIRED)


def scanning_apply_bet(state, source, bet, tx):
    """A bet's matching as a walk over every bet in bet-id order."""
    if bet.wager == 0 or bet.counterwager == 0:
        return False, R_ZERO_WAGER
    if bet.side not in (0, 1):
        return False, R_BAD_SIDE
    wanted = (bet.feed, bet.comparator, bet.target, bet.deadline, 1 - bet.side,
              bet.counterwager, bet.wager)
    for i, record in enumerate(state.bets):
        other = record.bet
        if record.status is not BetStatus.OPEN or terms_of(other) != wanted:
            continue
        if state.balance(record.owner) < other.wager:
            state.bets[i] = record._replace(status=BetStatus.CANCELLED)
            continue
        if state.balance(source) < bet.wager:
            return False, R_BALANCE
        state._debit(record.owner, other.wager)
        state._debit(source, bet.wager)
        state.bets[i] = record._replace(status=BetStatus.MATCHED)
        state.bets.append(BetRecord(len(state.bets) + 1, source, bet, BetStatus.MATCHED))
        yes, no = (source, bet.wager), (record.owner, other.wager)
        if bet.side == 0:
            yes, no = no, yes
        state.matches.append(MatchRecord(
            len(state.matches) + 1, bet.feed, bet.comparator, bet.target, bet.deadline, *yes, *no
        ))
        return True, None
    state.bets.append(BetRecord(len(state.bets) + 1, source, bet))
    return True, None


def scanning_fold(chain):
    """A full fold that walks every bet and match, as the fold did before it
    kept indexes: the reference the indexed fold must equal byte for byte."""
    with patch.dict(counterparty._FOLD, {Bet: scanning_apply_bet}), patch.object(
        counterparty, "_settle_feed", scanning_settle_feed
    ):
        return full_fold(chain)


def terms_of(bet):
    return (bet.feed, bet.comparator, bet.target, bet.deadline, bet.side, bet.wager,
            bet.counterwager)


def open_buckets(bets):
    """The open bets by their terms, in bet-id order, from a scan of every bet."""
    buckets = {}
    for i, record in enumerate(bets):
        if record.status is BetStatus.OPEN:
            terms = terms_of(record.bet)
            buckets[terms] = buckets.get(terms, ()) + (i,)
    return buckets


DEADLINES = (12, 30, 36)  # broadcasts at height h carry timestamps 6h to 6h + 5
TERMS = ((1, 1), (1, 2), (2, 1))


def bet_traffic_tx(chain, pair, names, height, op, param):
    """Mostly bets, on bob's and claire's feeds, over three deadlines and
    three pairs of stakes, so that identical open bets pile up."""
    if op == 0:
        return compose_burn_tx(chain, pair, 1 + param % 500_000)
    if op == 1:  # all but 0.05 of a funded actor's 3 XCP: its open bets can no longer be taken
        return compose_message_tx(chain, pair, Send(XCP, 295 * XCP_UNIT // 100, names[param % 3]))
    if op == 2:
        broadcast = Broadcast(6 * height + param % 6, param % 10 * 100 * XCP_UNIT, 10**6, "")
        return compose_message_tx(chain, pair, broadcast)
    wager, counterwager = TERMS[param // 12 % 3]
    stake = XCP_UNIT // 10
    bet = make_bet(param // 6 % 2, wager * stake, counterwager * stake, names[1 + param % 2],
                   deadline=DEADLINES[param // 2 % 3])
    return compose_message_tx(chain, pair, bet)


def bet_param(feed, deadline, side, terms):
    """The `bet_traffic_tx` parameter of a bet on feed 0 (bob's) or 1 (claire's)."""
    return feed + 2 * DEADLINES.index(deadline) + 6 * side + 12 * TERMS.index(terms)


BET_OP = st.none() | st.tuples(st.sampled_from((0, 1, 2, 3, 3, 3)), st.integers(0, 2**10))
YES_1_2 = (3, bet_param(0, 30, 1, (1, 2)))  # wager 0.1 on bob's feed, asks 0.2, deadline 30
NO_2_1 = (3, bet_param(0, 30, 0, (2, 1)))  # the bet that takes YES_1_2


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(BET_OP, BET_OP, BET_OP), min_size=1, max_size=8),
    st.lists(st.booleans(), min_size=9, max_size=9),
)
# alice and bob open the same bet (ids 1 and 2) and claire opens another
# (id 3); alice sends her stake away; claire's taker cancels bet 1 and
# matches bet 2; bob's broadcast at timestamp 30, their deadline, settles
# that match and expires bet 3, while alice's bet on claire's feed stays open
@example(
    [
        (YES_1_2, YES_1_2, (3, bet_param(0, 30, 1, (1, 1)))),
        ((1, 1), None, None),
        (None, None, NO_2_1),
        ((3, bet_param(1, 36, 0, (1, 1))), (2, 0), None),
    ],
    [True] * 9,
)
# as above, but claire has sent her own stake away too, so her first taker
# cancels bet 1 and is refused, leaving bet 2 open; after a burn her second
# taker matches it, and alice's later copy of bet 1 expires with the settlement
@example(
    [
        (YES_1_2, YES_1_2, (1, 1)),
        ((1, 1), None, None),
        (None, None, NO_2_1),
        (None, None, (0, 299_999)),
        (YES_1_2, None, NO_2_1),
        (None, (2, 0), None),
    ],
    [True, False, True, False, True, True, True, True, True],
)
def test_indexed_fold_equals_a_scanning_fold_under_bet_heavy_traffic(blocks, replay_at):
    chain, people = make_chain(coins_each=10, value=5 * 10**8)
    pairs = list(people.values())
    names = [addr(p) for p in pairs]
    kept, forked = [], None
    for height, ops in enumerate([FUNDING, *blocks], start=1):
        txs = [
            bet_traffic_tx(chain, pair, names, height, *op)
            for pair, op in zip(pairs, ops)
            if op is not None
        ]
        block = mine(chain, *txs, seed=height)
        if forked is not None:
            forked.apply_block(chain, block)
        if not replay_at[height - 1]:
            continue
        expected = state_digest(scanning_fold(chain))
        state = replay(chain)
        assert state_digest(state) == expected
        assert state._open == open_buckets(state.bets)
        assert state.escrowed() == sum(m.escrow for m in state.matches)
        kept.append((state, expected))
        if forked is None:
            # a second snapshot, folded onward block by block from here on
            forked = replay(chain)
        else:
            assert state_digest(forked) == expected
        # folding into a snapshot leaves the memo as it was
        assert state_digest(replay(chain)) == expected
    expected = state_digest(scanning_fold(chain))
    assert state_digest(replay(chain)) == expected
    assert forked is None or state_digest(forked) == expected
    for state, expected in kept:
        assert state_digest(state) == expected


def pinned_traffic_chain():
    """Twelve blocks of seeded bet-heavy traffic, then four blocks that add
    a match left unsettled and one message for each meta-invalid reason a
    replica can log, with a non-ASCII feed text carried over multisig."""
    rng = Random(25)
    chain, people = make_chain(coins_each=10, value=5 * 10**8)
    pairs = list(people.values())
    names = [addr(p) for p in pairs]
    for height in range(1, 13):
        ops = FUNDING if height == 1 else [
            None if rng.random() < 0.2 else (rng.choice((0, 1, 2, 3, 3, 3)), rng.randrange(2**10))
            for _ in pairs
        ]
        txs = [bet_traffic_tx(chain, p, names, height, *op) for p, op in zip(pairs, ops) if op]
        mine(chain, *txs, seed=height)
    alice, bob, claire = pairs
    def far(side, wager=XCP_UNIT):  # a deadline no broadcast reaches
        return make_bet(side, wager, XCP_UNIT, names[2], deadline=10**6)

    decoy = TxOutput(value=5_000, lock=PayToKey(bob.pub))
    for height, messages in enumerate(
        [
            (Burn(300_000), Burn(300_000), Broadcast(0, -7, 0, "Ωmega " * 12)),
            (far(1), far(0), Broadcast(0, 1, 0, "")),  # stale
            (far(1, wager=0), far(2), Broadcast(10**5, 1, FEE_FRACTION_UNIT + 1, "")),
            (None, None, Burn(5_000)),
        ],
        start=13,
    ):
        txs = []
        for pair, message in zip(pairs, messages):
            if message is None:
                continue
            extra = (decoy,) if pair is claire and isinstance(message, Burn) else ()
            if isinstance(message, Burn) and not extra:
                txs.append(compose_burn_tx(chain, pair, message.btc_qty))
            else:
                txs.append(compose_message_tx(chain, pair, message, extra_outputs=extra))
        mine(chain, *txs, seed=height)
    return chain


def test_state_digest_of_seeded_traffic_is_pinned():
    """`state_digest` of traffic that reaches every JSON field of
    `state_to_json`: each bet status, a match settled with a fee and one
    left open, and every meta-invalid reason but an unknown source."""
    state = replay(pinned_traffic_chain())
    assert {r.status for r in state.bets} == set(BetStatus)
    assert any(m.settled and m.fee_paid > 0 for m in state.matches)
    assert any(not m.settled and m.winner is None for m in state.matches)
    assert {e.reason for e in state.log} == {
        None, R_BALANCE, R_STALE, R_FEE_FRACTION, R_ZERO_WAGER, R_BAD_SIDE, R_WRONG_BURN
    }
    assert state_digest(state).hex() == (
        "f1c04e57b919adb6f94e407e52c609b809b523f045f3dc0f9e9442dd3e3759b8"
    )


def test_a_fold_that_raises_leaves_nothing_half_folded(monkeypatch):
    chain, people = make_chain()
    burn_and_mine(chain, people["alice"], 100_000, seed=14)
    replay(chain)
    burn_and_mine(chain, people["bob"], 200_000, seed=15)
    fold = MetaState.apply_block

    def interrupted(state, chain, block):
        fold(state, chain, block)
        raise RuntimeError("interrupted after folding the block")

    monkeypatch.setattr(MetaState, "apply_block", interrupted)
    with pytest.raises(RuntimeError):
        replay(chain)
    monkeypatch.undo()
    assert state_digest(replay(chain)) == state_digest(full_fold(chain))


def _containers(value):
    """Every list, dict and set in `value`, through nested containers and
    tuples, records included (they hold none: they are shared by design)."""
    if isinstance(value, (list, dict, set)):
        yield value
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set)):
        for item in value:
            yield from _containers(item)


def test_a_snapshot_copies_every_field_and_shares_no_container():
    chain, people = make_chain()
    alice, bob, claire = people["alice"], people["bob"], people["claire"]
    feed = addr(claire)
    seeded_bettors(chain, people)
    broadcast = Broadcast(timestamp=10, value=1, fee_fraction=0, text="")
    mine(chain, compose_message_tx(chain, claire, broadcast), seed=60)
    # a matched pair holds an escrow; a bet on other terms stays open
    mine(chain, compose_message_tx(chain, alice, make_bet(1, 10 * XCP_UNIT, 5 * XCP_UNIT, feed)), seed=61)
    mine(chain, compose_message_tx(chain, bob, make_bet(0, 5 * XCP_UNIT, 10 * XCP_UNIT, feed)), seed=62)
    mine(chain, compose_message_tx(chain, bob, make_bet(1, XCP_UNIT, XCP_UNIT, feed)), seed=63)
    snapshot = replay(chain)
    memo = counterparty._folds[chain][0]
    assert snapshot is not memo

    for f in fields(MetaState):  # `compare=False` fields included
        kept, copied = getattr(memo, f.name), getattr(snapshot, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        # so that a field the snapshot leaves out, and so at its default, shows
        assert kept != default, f"{f.name}: the traffic above must reach this field"
        assert copied == kept, f.name
        shared = {id(c) for c in _containers(kept)} & {id(c) for c in _containers(copied)}
        assert not shared, f"{f.name}: the snapshot shares a container with the memo"


def test_replay_memo_does_not_keep_a_chain_alive():
    chain, people = make_chain()
    burn_and_mine(chain, people["alice"], 100_000, seed=13)
    assert replay(chain).issued == 100_000 * 1000
    gone = weakref.ref(chain)
    del chain
    gc.collect()
    assert gone() is None


def test_multisig_embedded_message_survives_mining():
    chain, people = make_chain()
    claire = people["claire"]
    wordy = Broadcast(timestamp=5, value=1, fee_fraction=0, text="x" * 60)
    tx = compose_message_tx(chain, claire, wordy)
    carriers = [o for o in tx.outputs if isinstance(o.lock, MultiSig)]
    assert carriers, "expected the multisig embedding for a 60+ byte payload"
    mine(chain, tx, seed=48)
    state = replay(chain)
    assert state.feeds[addr(claire)][0].text == "x" * 60
