"""Meta-chain replicated over host transactions.

Protocol messages ride inside ordinary host transactions:  the payload is
magic-prefixed, obfuscated with a repeating-key XOR stream keyed by the
first input's txid (a documented stand-in cipher, isolated so a real one
could be substituted), and embedded either as a data-carrier output (40
bytes or less) or split across the spare keys of a 1-of-N multisig output.

Every replica folds the host chain in (block, tx index) order into the same
MetaState.  Host validity and meta validity are independent: a host-valid
transaction whose meta message breaks a rule (overspend, stale broadcast,
wrong burn output) confirms on the host chain but is marked invalid in the
meta log and changes nothing.

XCP exists only through proof-of-burn: paying host coin to the vanity
address `BURN_PUB` (nobody holds its key) credits the sender at
`DEFAULT_BURN_RATE`.  Feeds are broadcast histories per address; bets escrow XCP at match
time and settle on the first feed broadcast at or past their deadline.
"""

from __future__ import annotations

import json
import struct
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from typing import NamedTuple

from .codec import TruncatedError, pack_bytes, sha256
from .datafeed import Comparator, compare
from .simchain import (
    MAX_MULTISIG_KEYS,
    Block,
    DataCarrier,
    KeyPair,
    MultiSig,
    PayToKey,
    SimChain,
    Transaction,
    TxOutput,
    select_coins,
    sign_payment,
    txid,
)

MAGIC = b"CNTRPRTY"
DATA_CARRIER_LIMIT = 40  # larger payloads fall back to multisig embedding
CHUNK = 31  # payload bytes per embedded multisig key (1 length byte + 31)
_FULL_CHUNK = bytes((CHUNK,))  # the length byte of every chunk but the last
DEFAULT_BURN_RATE = 1000  # XCP base units issued per satoshi burned
FEE_FRACTION_UNIT = 10**8  # fee_fraction is a fraction in 1e-8 steps

# a vanity lock nobody can sign for: its preimage secret was never generated
BURN_PUB = sha256(b"proof-of-burn vanity address, key unknown")

XCP = "XCP"


class CounterpartyError(Exception):
    """Base for meta-protocol failures."""


class BadMagicError(CounterpartyError):
    """Payload does not start with the protocol magic after decryption; a body
    behind the magic that does not decode raises `ValueError`, the subclass
    `codec.TruncatedError` when it ends mid-field."""


# ----------------------------------------------------------------- messages


def _record(kind: type) -> type:
    """Make a `NamedTuple` a record: equal only to a record of its own kind.

    A record is its field values as a tuple, built in one call and immutable;
    its fields in declaration order are what the codec writes, and
    `_asdict()` is its JSON form.  Tuple equality alone would make two kinds
    with equal values, or a record and the plain tuple of its values, equal.
    """

    def same(self, other) -> bool:
        return type(other) is kind and tuple.__eq__(self, other)

    def differs(self, other) -> bool:
        return type(other) is not kind or tuple.__ne__(self, other)

    kind.__eq__, kind.__ne__ = same, differs
    return kind


@_record
class Send(NamedTuple):
    asset: str
    qty: int
    dest: str


@_record
class Broadcast(NamedTuple):
    timestamp: int
    value: int  # fixed point, 1e-8 steps
    fee_fraction: int  # of FEE_FRACTION_UNIT
    text: str


@_record
class Bet(NamedTuple):
    feed: str
    comparator: Comparator
    target: int  # fixed point, 1e-8 steps
    deadline: int
    wager: int  # XCP base units this side escrows
    counterwager: int  # XCP base units required from the other side
    side: int  # 1 bets the comparison holds, 0 bets against


@_record
class Burn(NamedTuple):
    btc_qty: int  # satoshi the host transaction pays to the burn address


MetaMessage = Send | Broadcast | Bet | Burn


def _xor_stream(data: bytes, key: bytes) -> bytes:
    if not key:
        raise ValueError("empty cipher key")
    size = len(data)
    stream = (key * (size // len(key) + 1))[:size]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(size, "big")


_STRING = "string"  # in a body layout: a u32 length-prefixed UTF-8 string field
_LENGTH = struct.Struct("<I")


class _Body:
    """One message kind's body layout, which both directions read.

    The body is the kind's `u8` tag, then the record's fields in declaration
    order: each `_STRING` one string field, and each run of fixed-width
    fields one precompiled little-endian struct, packed and unpacked in one
    call.  Encoding reads the values straight from the record; decoding
    builds the record from the values read, in one call.
    """

    def __init__(self, tag: int, kind: type, layout: tuple[str, ...], make=None) -> None:
        self.tag, self.kind = tag, kind
        self.head = MAGIC + bytes((tag,))
        self.make = make or partial(tuple.__new__, kind)  # the values read -> the record
        steps, at = [], 0
        for part in layout:
            run = None if part is _STRING else struct.Struct("<" + part)
            width = 1 if run is None else len(part)
            steps.append((run, at, at + width))
            at += width
        if at != len(kind._fields):
            raise TypeError(f"{kind.__name__} layout covers {at} of {len(kind._fields)} fields")
        self.steps = tuple(steps)

    def encode(self, message: MetaMessage) -> bytes:
        """The magic, then the body of `message`, before the cipher."""
        parts = [self.head]
        for run, at, stop in self.steps:
            if run is None:
                parts.append(pack_bytes(message[at].encode("utf-8")))
            else:
                parts.append(run.pack(*message[at:stop]))
        return b"".join(parts)

    def decode(self, plain: bytes, pos: int) -> MetaMessage:
        """The message whose fields start at offset `pos` of `plain` and
        run to its end."""
        end, values = len(plain), []
        for run, _, _ in self.steps:
            if run is not None:
                if pos + run.size > end:
                    raise _truncated(pos, run.size, end)
                values += run.unpack_from(plain, pos)
                pos += run.size
            else:
                if pos + _LENGTH.size > end:
                    raise _truncated(pos, _LENGTH.size, end)
                (size,) = _LENGTH.unpack_from(plain, pos)
                pos += _LENGTH.size
                if pos + size > end:
                    raise _truncated(pos, size, end)
                values.append(plain[pos : pos + size].decode("utf-8"))
                pos += size
        if pos != end:
            raise ValueError(f"{end - pos} trailing bytes after decode")
        return self.make(values)


def _truncated(pos: int, size: int, end: int) -> TruncatedError:
    # offsets count from the tag, the first byte after the magic
    at = pos - len(MAGIC)
    return TruncatedError(f"need {size} bytes at offset {at}, have {end - pos}")


_COMPARATORS = {int(c): c for c in Comparator}


def _bet(values: list) -> Bet:
    comparator = _COMPARATORS.get(values[1])
    if comparator is None:
        raise ValueError(f"{values[1]} is not a valid Comparator")
    values[1] = comparator
    return tuple.__new__(Bet, values)


# The one declaration of every body; FORMATS.md tabulates the same layouts.
_BODIES = {
    body.kind: body
    for body in (
        _Body(1, Send, (_STRING, "Q", _STRING)),
        _Body(2, Broadcast, ("QqI", _STRING)),
        _Body(3, Bet, (_STRING, "BqQQQB"), make=_bet),
        _Body(4, Burn, ("Q",)),
    )
}
_BODY_BY_TAG = {body.tag: body for body in _BODIES.values()}


def encode_message(message: MetaMessage, key_txid: bytes) -> bytes:
    """Serialized, obfuscated payload: XOR(magic || body, first-input txid)."""
    body = _BODIES.get(type(message))
    if body is None:
        raise TypeError(f"not a protocol message: {message!r}")
    return _xor_stream(body.encode(message), key_txid)


def decode_payload(payload: bytes, key_txid: bytes) -> MetaMessage:
    """Inverse of encode_message; the wrong key scrambles the magic."""
    plain = _xor_stream(payload, key_txid)
    if not plain.startswith(MAGIC):
        raise BadMagicError("payload magic missing after decryption")
    pos = len(MAGIC)
    if pos == len(plain):
        raise _truncated(pos, 1, pos)
    body = _BODY_BY_TAG.get(plain[pos])
    if body is None:
        raise ValueError(f"unknown message tag {plain[pos]}")
    return body.decode(plain, pos + 1)


# ----------------------------------------------------- host transaction glue


def carrier_output(payload: bytes, owner_pub: bytes) -> TxOutput:
    """Wrap an encoded payload into a host output.

    Up to 40 bytes ride in a data-carrier output; anything larger is split
    over the spare keys of a 1-of-N multisig whose first key stays the
    owner's, 31 payload bytes per key behind a length byte.
    """
    size = len(payload)
    if size <= DATA_CARRIER_LIMIT:
        return TxOutput(0, DataCarrier(payload))
    count = -(-size // CHUNK)
    if count + 1 > MAX_MULTISIG_KEYS:
        raise ValueError(f"payload of {size} bytes exceeds multisig capacity")
    tail = (count - 1) * CHUNK  # where the last chunk starts
    padded = payload.ljust(count * CHUNK, b"\0")
    keys = [owner_pub]
    for start in range(0, tail, CHUNK):
        keys.append(_FULL_CHUNK + padded[start : start + CHUNK])
    keys.append(bytes((size - tail,)) + padded[tail:])
    return TxOutput(0, MultiSig(1, tuple(keys)))


def carried_ciphertexts(tx: Transaction) -> list[bytes]:
    """Candidate payloads in a host transaction, in output order."""
    found = []
    for out in tx.outputs:
        lock = out.lock
        if isinstance(lock, DataCarrier):
            found.append(lock.payload)
        elif isinstance(lock, MultiSig) and lock.m == 1 and len(lock.keys) >= 2:
            chunks = []
            for key in lock.keys[1:]:
                if key[0] > CHUNK:
                    break  # not a payload key: the output carries nothing
                chunks.append(key[1 : 1 + key[0]])
            else:
                found.append(b"".join(chunks))
    return found


def compose_message_tx(
    chain: SimChain,
    sender: KeyPair,
    message: MetaMessage,
    *,
    fee: int = 1000,
    extra_outputs: tuple[TxOutput, ...] = (),
) -> Transaction:
    """Build and sign a host transaction carrying one protocol message,
    keyed by the txid of the first coin it spends.

    The coins are selected once, before the payload exists: the carrier
    output is worth nothing, so the target is the extra outputs plus the fee.
    """
    if fee < 0:
        raise ValueError("fee must be non-negative")
    target = fee
    for out in extra_outputs:
        target += out.value
    coins, gathered = select_coins(chain, sender.pub, target)
    payload = encode_message(message, coins[0][0])
    outputs = (carrier_output(payload, sender.pub), *extra_outputs)
    return sign_payment(sender, coins, outputs, gathered - target)


def compose_burn_tx(
    chain: SimChain, sender: KeyPair, btc_qty: int, *, fee: int = 1000
) -> Transaction:
    """Pay host coin to the unspendable vanity address, declaring the burn."""
    burn_out = TxOutput(btc_qty, PayToKey(BURN_PUB))
    return compose_message_tx(chain, sender, Burn(btc_qty), fee=fee, extra_outputs=(burn_out,))


# -------------------------------------------------------------- meta state


class BetStatus(Enum):
    OPEN = "open"
    MATCHED = "matched"
    EXPIRED = "expired"
    CANCELLED = "cancelled"  # owner could not fund the escrow at match time


@_record
class BetRecord(NamedTuple):
    bet_id: int
    owner: str
    bet: Bet
    status: BetStatus = BetStatus.OPEN


@_record
class MatchRecord(NamedTuple):
    match_id: int
    feed: str
    comparator: Comparator
    target: int
    deadline: int
    yes_owner: str
    yes_escrow: int
    no_owner: str
    no_escrow: int
    settled: bool = False
    winner: str | None = None  # "yes" or "no"
    fee_paid: int = 0

    @property
    def escrow(self) -> int:
        return self.yes_escrow + self.no_escrow if not self.settled else 0


@_record
class AppliedMessage(NamedTuple):
    height: int
    tx_index: int
    txid: bytes
    source: str
    message: MetaMessage
    valid: bool
    reason: str | None = None


_SETTLE, _EXPIRE = 0, 1  # kinds of entry in a feed's `_due` heap: a match, an open bet


@dataclass
class MetaState:
    """The replicated state, and the indexes that spare a fold its history.

    `bets` and `matches` hold every record ever made, in id order.  A record
    (`BetRecord`, `MatchRecord`, `AppliedMessage`, and the messages they
    hold) is a tuple-backed `NamedTuple`, immutable and built in one call;
    a fold replaces a changed record in its slot with the record's own
    `_replace`.  Beside them the fold keeps three indexes, so that no
    message walks the history:

    - `_open`: the open bets by their terms (feed, comparator, target,
      deadline, side, wager, counterwager), each bucket a tuple of `bets`
      slots in bet-id order.  A bet looks up the one bucket it can match,
      and cancels and matches from its front, in the order a walk over
      every bet would take.
    - `_due`: per feed, a heap of `(deadline, kind, slot)` for each
      unsettled match and each bet opened on it.  A broadcast pops only
      what it settles or expires; a popped bet that is no longer open is
      passed over.
    - `_escrowed`: the stakes held by unsettled matches.
    """

    balances: dict[tuple[str, str], int] = field(default_factory=dict)
    feeds: dict[str, list[Broadcast]] = field(default_factory=dict)
    bets: list[BetRecord] = field(default_factory=list)
    matches: list[MatchRecord] = field(default_factory=list)
    log: list[AppliedMessage] = field(default_factory=list)
    burned: int = 0
    issued: int = 0
    _open: dict[tuple, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)
    _due: dict[str, list[tuple[int, int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _escrowed: int = field(default=0, repr=False, compare=False)

    def balance(self, address: str, asset: str = XCP) -> int:
        return self.balances.get((address, asset), 0)

    def escrowed(self) -> int:
        return self._escrowed

    def _credit(self, address: str, qty: int, asset: str = XCP) -> None:
        self.balances[(address, asset)] = self.balance(address, asset) + qty

    def _debit(self, address: str, qty: int, asset: str = XCP) -> None:
        self.balances[(address, asset)] = self.balance(address, asset) - qty

    def apply_block(self, chain: SimChain, block: Block) -> None:
        """Fold one host block into this state, in transaction order.

        `chain` must hold every transaction the block spends from.  Each
        candidate payload is decoded once; the first that decodes is the
        transaction's message, and it is logged valid or invalid.
        """
        for tx_index, tx in enumerate(block.txs):
            if not tx.inputs:
                continue
            key_txid = tx.inputs[0].outpoint[0]
            for cipher in carried_ciphertexts(tx):
                try:
                    message = decode_payload(cipher, key_txid)
                except (BadMagicError, ValueError):
                    continue  # not ours, or the magic matched but the body is garbage
                break
            else:
                continue
            source = _source_address(chain, tx)
            if source is None:
                source, valid, reason = "", False, R_NO_SOURCE
            else:
                valid, reason = _FOLD[type(message)](self, source, message, tx)
            self.log.append(
                AppliedMessage(block.height, tx_index, txid(tx), source, message, valid, reason)
            )


def xcp_in_circulation(state: MetaState) -> int:
    """Balances plus live escrows; equals issuance at every height."""
    held = state.escrowed()
    for (_, asset), qty in state.balances.items():
        if asset == XCP:
            held += qty
    return held


# invalid-message reasons, fixed strings so digests are comparable
R_BALANCE = "insufficient balance"
R_STALE = "stale broadcast"
R_FEE_FRACTION = "bad fee fraction"
R_WRONG_BURN = "wrong burn address"
R_ZERO_WAGER = "zero wager"
R_BAD_SIDE = "bad side"
R_NO_SOURCE = "unidentifiable source"


def _source_address(chain: SimChain, tx: Transaction) -> str | None:
    spent = chain.output_at(tx.inputs[0].outpoint)
    if spent is None:
        return None
    lock = spent.lock
    if isinstance(lock, PayToKey):
        return lock.pub.hex()
    if isinstance(lock, MultiSig):
        return lock.keys[0].hex()
    return None


# chain -> (folded state, last folded block)
_folds = weakref.WeakKeyDictionary()


def replay(chain: SimChain) -> MetaState:
    """Fold the host chain into the replicated meta state.

    Pure function of the chain contents: any replica gets a bit-identical
    state, compared via state_digest.

    The fold is incremental.  A private memo, held weakly per chain, keeps
    the folded state and the last folded block; a later call folds only
    the blocks appended since, with `MetaState.apply_block`, the one fold
    path.  The host chain has no reorgs, so blocks are only ever appended;
    if the memo's last block is no longer at its height, the fold starts
    again from genesis.  The returned state is a snapshot the caller owns:
    mutating it, or folding further blocks into it, never changes what a
    later call returns.  Every record in it is an immutable tuple shared
    with the memo (a fold replaces a changed bet or match in its list slot
    with the record's `_replace`, never edits it), so a snapshot copies
    containers only: the record lists, the balances, the feeds, the `_open`
    map (its buckets are tuples, shared) and each `_due` heap.  `_snapshot`
    constructs the new `MetaState` from those copies and the three counts,
    one argument per field, with no generic copy in between; a field added
    to `MetaState` needs its own argument there, and the snapshot test fails
    until it has one.
    """
    # taken out while folding, so a fold that raises leaves no half-folded state
    state, last = _folds.pop(chain, (None, None))
    blocks = chain.blocks
    if last is not None and last.height < len(blocks) and blocks[last.height] is last:
        start = last.height + 1
    else:
        state, start = MetaState(), 0
    for block in blocks[start:]:
        state.apply_block(chain, block)
    _folds[chain] = (state, blocks[-1])
    return _snapshot(state)


def _snapshot(state: MetaState) -> MetaState:
    # every record is an immutable tuple, shared; only the containers are the caller's
    return MetaState(
        balances=dict(state.balances),
        feeds={feed: list(entries) for feed, entries in state.feeds.items()},
        bets=list(state.bets),
        matches=list(state.matches),
        log=list(state.log),
        burned=state.burned,
        issued=state.issued,
        _open=dict(state._open),
        _due={feed: list(due) for feed, due in state._due.items()},
        _escrowed=state._escrowed,
    )


# Each fold step takes (state, source, message, host transaction) and returns
# (valid, reason); `_FOLD`, after the steps, maps each message kind to its own.
_Verdict = tuple[bool, str | None]


def _apply_send(state: MetaState, source: str, message: Send, tx: Transaction) -> _Verdict:
    asset, qty, dest = message
    if state.balance(source, asset) < qty:
        return False, R_BALANCE
    state._debit(source, qty, asset)
    state._credit(dest, qty, asset)
    return True, None


def _apply_burn(state: MetaState, source: str, message: Burn, tx: Transaction) -> _Verdict:
    paid = 0
    for out in tx.outputs:
        if isinstance(out.lock, PayToKey) and out.lock.pub == BURN_PUB:
            paid += out.value
    if paid != message.btc_qty or paid == 0:
        return False, R_WRONG_BURN
    issued = paid * DEFAULT_BURN_RATE
    state._credit(source, issued)
    state.burned += paid
    state.issued += issued
    return True, None


def _apply_broadcast(
    state: MetaState, source: str, message: Broadcast, tx: Transaction
) -> _Verdict:
    if message.fee_fraction > FEE_FRACTION_UNIT:
        return False, R_FEE_FRACTION
    entries = state.feeds.setdefault(source, [])
    if entries and message.timestamp <= entries[-1].timestamp:
        return False, R_STALE
    entries.append(message)
    _settle_feed(state, source, message)
    return True, None


def _settle_feed(state: MetaState, feed: str, broadcast: Broadcast) -> None:
    # the first broadcast at or past a deadline settles every match behind it
    # and expires every bet still open behind it
    due = state._due.get(feed)
    if not due:
        return
    bets, settled = state.bets, []
    while due and due[0][0] <= broadcast.timestamp:
        _, kind, i = heappop(due)
        if kind == _SETTLE:
            settled.append(i)
        elif bets[i].status is BetStatus.OPEN:
            record = bets[i]
            bets[i] = record._replace(status=BetStatus.EXPIRED)
            state._open.pop(_terms(record.bet), None)  # its bucket shares the deadline
    for i in sorted(settled):  # credits go out in match-id order
        match = state.matches[i]
        pot = match.yes_escrow + match.no_escrow
        fee = pot * broadcast.fee_fraction // FEE_FRACTION_UNIT
        holds = compare(match.comparator, broadcast.value, match.target)
        winner_side = "yes" if holds else "no"
        winner = match.yes_owner if winner_side == "yes" else match.no_owner
        state.matches[i] = match._replace(settled=True, winner=winner_side, fee_paid=fee)
        state._escrowed -= pot
        state._credit(feed, fee)
        state._credit(winner, pot - fee)


def _terms(bet: Bet) -> tuple:
    """The `_open` bucket an open bet is filed under."""
    feed, comparator, target, deadline, wager, counterwager, side = bet
    return feed, comparator, target, deadline, side, wager, counterwager


def _apply_bet(state: MetaState, source: str, bet: Bet, tx: Transaction) -> _Verdict:
    feed, comparator, target, deadline, wager, counterwager, side = bet
    if wager == 0 or counterwager == 0:
        return False, R_ZERO_WAGER
    if side not in (0, 1):
        return False, R_BAD_SIDE
    bets = state.bets
    # the open bets this one can take, oldest first: the other side, wagers swapped
    wanted = (feed, comparator, target, deadline, 1 - side, counterwager, wager)
    makers = state._open.pop(wanted, ())
    for n, i in enumerate(makers):
        record = bets[i]
        maker, stake = record.owner, counterwager  # a maker's wager is this bet's counterwager
        if state.balance(maker) < stake:
            # maker spent the stake meanwhile
            bets[i] = record._replace(status=BetStatus.CANCELLED)
            continue
        if state.balance(source) < wager:
            state._open[wanted] = makers[n:]
            return False, R_BALANCE
        if n + 1 < len(makers):
            state._open[wanted] = makers[n + 1 :]
        state._debit(maker, stake)
        state._debit(source, wager)
        bets[i] = record._replace(status=BetStatus.MATCHED)
        bets.append(BetRecord(len(bets) + 1, source, bet, BetStatus.MATCHED))
        matches = state.matches
        heappush(state._due.setdefault(feed, []), (deadline, _SETTLE, len(matches)))
        # (yes_owner, yes_escrow, no_owner, no_escrow)
        sides = (source, wager, maker, stake) if side == 1 else (maker, stake, source, wager)
        matches.append(MatchRecord(len(matches) + 1, feed, comparator, target, deadline, *sides))
        state._escrowed += wager + stake
        return True, None
    terms = _terms(bet)
    state._open[terms] = state._open.get(terms, ()) + (len(bets),)
    heappush(state._due.setdefault(feed, []), (deadline, _EXPIRE, len(bets)))
    bets.append(BetRecord(len(bets) + 1, source, bet, BetStatus.OPEN))
    return True, None


_FOLD = {Send: _apply_send, Broadcast: _apply_broadcast, Bet: _apply_bet, Burn: _apply_burn}


# ------------------------------------------------------------ state digest


def message_json(message: MetaMessage) -> dict:
    """The JSON form of a message: its kind, then its fields."""
    return {"type": type(message).__name__.lower(), **message._asdict()}


def state_to_json(state: MetaState) -> dict:
    return {
        "burn_rate": DEFAULT_BURN_RATE,
        "burn_pub": BURN_PUB.hex(),
        "burned": state.burned,
        "issued": state.issued,
        "balances": {
            f"{address}/{asset}": qty
            for (address, asset), qty in sorted(state.balances.items())
        },
        "feeds": {
            feed: [e._asdict() for e in entries]
            for feed, entries in sorted(state.feeds.items())
        },
        "bets": [
            {
                "bet_id": r.bet_id,
                "owner": r.owner,
                "status": r.status.value,
                **message_json(r.bet),
            }
            for r in state.bets
        ],
        "matches": [m._asdict() for m in state.matches],
        "log": [
            {
                "height": e.height,
                "tx_index": e.tx_index,
                "txid": e.txid.hex(),
                "source": e.source,
                "valid": e.valid,
                "reason": e.reason,
                "message": message_json(e.message),
            }
            for e in state.log
        ],
    }


def state_digest(state: MetaState) -> bytes:
    """H(canonical JSON): replicas compare replays with one hash."""
    doc = json.dumps(state_to_json(state), sort_keys=True, separators=(",", ":"))
    return sha256(doc.encode("utf-8"))
