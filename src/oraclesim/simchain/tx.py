"""Transactions: canonical serialization, ids, signing digests, builders.

Two digests matter.  `txid` hashes the full canonical serialization,
witnesses included, and is the transaction's identity.  `sighash` hashes
the same layout with every witness written blank (`Witness()`, the four
bytes 00 00 00 00) — that is what signatures commit to, so co-signers can
add their signatures to a partially signed transaction without
invalidating earlier ones.  `serialize_tx` writes the canonical bytes;
`_blank_digest` writes the sighash preimage from a transaction's parts
(outpoints, outputs, locktime), with the blank witness in each input's
place, and both write the outputs and locktime with one helper.

A `Transaction` is frozen, so each is serialized at most once: its
canonical bytes are kept on the instance, and `txid`, `tx_size` and the
chain's block encoding all read them.  `txid` and `sighash` keep their
digests too, and a transaction derived from another by its witnesses
alone inherits the sighash.  `serialize_tx` itself is the pure encoder.

Every record here is a slotted frozen dataclass: no instance carries a
`__dict__`.  So that the three memos have slots, they are declared fields,
left out of `__init__`, `==`, `hash` and `repr`; `dataclasses.fields()`
lists them, and nothing else sees them.

Signing builds each transaction once.  `build_payment` builds no unsigned
twin: it hashes the selected outpoints, the outputs and the locktime with
`_blank_digest`, signs that digest once, and constructs the signed
transaction in one step, with the one `Witness` shared by every input and
the digest set as its sighash.  `with_witness`, and so `sign_input` and
`add_signature`, rebuilds the inputs tuple once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from ..codec import Reader, Writer, pack_u8, pack_u16, pack_u32, pack_u64, sha256
from .keys import KeyPair, Signature, sign, signature_from_reader, write_signature
from .script import LockScript, PayToKey, lock_from_reader, write_lock

if TYPE_CHECKING:
    from .chain import SimChain


class InsufficientFundsError(ValueError):
    """Payment builder could not cover outputs plus fee."""


@dataclass(frozen=True, slots=True)
class Witness:
    signatures: tuple[Signature, ...] = ()
    redeem: LockScript | None = None
    expr_preimage: bytes | None = None


EMPTY_WITNESS = Witness()
_BLANK_WITNESS = b"\x00\x00\x00\x00"  # EMPTY_WITNESS: no signatures, redeem or preimage


@dataclass(frozen=True, slots=True)
class TxInput:
    outpoint: tuple[bytes, int]  # (txid, output index)
    witness: Witness = EMPTY_WITNESS


@dataclass(frozen=True, slots=True)
class TxOutput:
    value: int  # satoshi
    lock: LockScript

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**64:
            raise ValueError("output value must fit u64")


@dataclass(frozen=True, slots=True)
class Transaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    locktime: int = 0  # block height; 0 = no lock

    # Memoised by _serialized, txid and sighash; fields only for their slots,
    # so they take no part in equality, hash or repr, and `replace` starts them afresh.
    _bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _txid: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _sighash: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def with_witness(self, index: int, witness: Witness) -> "Transaction":
        """New transaction with input `index`'s witness replaced."""
        inputs = list(self.inputs)
        inputs[index] = TxInput(inputs[index].outpoint, witness)
        return self._rewitnessed(tuple(inputs))

    def without_witnesses(self) -> "Transaction":
        return self._rewitnessed(tuple(TxInput(i.outpoint) for i in self.inputs))

    def _rewitnessed(self, inputs: tuple[TxInput, ...]) -> "Transaction":
        """This transaction with `inputs`, which differ from its own in
        witnesses only; the sighash blanks them, so it carries over."""
        derived = Transaction(inputs, self.outputs, self.locktime)
        if self._sighash is not None:
            object.__setattr__(derived, "_sighash", self._sighash)
        return derived


def _write_witness(w: Writer, wit: Witness) -> None:
    put = w.put
    put(pack_u16(len(wit.signatures)))
    for sig in wit.signatures:
        write_signature(w, sig)
    if wit.redeem is None:
        put(pack_u8(0))
    else:
        put(pack_u8(1))
        write_lock(w, wit.redeem)
    if wit.expr_preimage is None:
        put(pack_u8(0))
    else:
        put(pack_u8(1))
        w.bytes(wit.expr_preimage)


def _witness_from_reader(r: Reader) -> Witness:
    sigs = tuple(signature_from_reader(r) for _ in range(r.u16()))
    redeem = lock_from_reader(r) if r.flag() else None
    preimage = r.bytes() if r.flag() else None
    return Witness(signatures=sigs, redeem=redeem, expr_preimage=preimage)


def serialize_tx(tx: Transaction) -> bytes:
    """The canonical bytes of `tx`."""
    w = Writer()
    put = w.put
    put(pack_u16(len(tx.inputs)))
    for txin in tx.inputs:
        put(txin.outpoint[0])
        put(pack_u32(txin.outpoint[1]))
        _write_witness(w, txin.witness)
    _write_outputs(w, tx.outputs, tx.locktime)
    return w.getvalue()


def _blank_digest(
    outpoints: Sequence[tuple[bytes, int]], outputs: Sequence[TxOutput], locktime: int
) -> bytes:
    """The sighash of a transaction with these inputs, outputs and locktime:
    the hash of its canonical bytes with every witness written `Witness()`."""
    w = Writer()
    put = w.put
    put(pack_u16(len(outpoints)))
    for spent, index in outpoints:
        put(spent)
        put(pack_u32(index))
        put(_BLANK_WITNESS)
    _write_outputs(w, outputs, locktime)
    return sha256(w.getvalue())


def _write_outputs(w: Writer, outputs: Sequence[TxOutput], locktime: int) -> None:
    """The layout after the inputs, the same in the txid and the sighash."""
    put = w.put
    put(pack_u16(len(outputs)))
    for txout in outputs:
        put(pack_u64(txout.value))
        write_lock(w, txout.lock)
    put(pack_u64(locktime))


def deserialize_tx(data: bytes) -> Transaction:
    r = Reader(data)
    inputs = []
    for _ in range(r.u16()):
        outpoint = (r.raw(32), r.u32())
        inputs.append(TxInput(outpoint=outpoint, witness=_witness_from_reader(r)))
    outputs = []
    for _ in range(r.u16()):
        value = r.u64()
        outputs.append(TxOutput(value=value, lock=lock_from_reader(r)))
    locktime = r.u64()
    r.expect_done()
    return Transaction(inputs=tuple(inputs), outputs=tuple(outputs), locktime=locktime)


def _serialized(tx: Transaction) -> bytes:
    """`serialize_tx(tx)`, encoded once per frozen transaction."""
    if tx._bytes is None:
        object.__setattr__(tx, "_bytes", serialize_tx(tx))
    return tx._bytes


def txid(tx: Transaction) -> bytes:
    if tx._txid is None:
        object.__setattr__(tx, "_txid", sha256(_serialized(tx)))
    return tx._txid


def sighash(tx: Transaction) -> bytes:
    if tx._sighash is None:
        digest = _blank_digest([txin.outpoint for txin in tx.inputs], tx.outputs, tx.locktime)
        object.__setattr__(tx, "_sighash", digest)
    return tx._sighash


def tx_size(tx: Transaction) -> int:
    return len(_serialized(tx))


def sign_input(tx: Transaction, index: int, *signers: KeyPair, **witness_fields) -> Transaction:
    """Give input `index` a witness holding one signature per signer, in order."""
    digest = sighash(tx)
    sigs = tuple(sign(signer.secret, digest) for signer in signers)
    return tx.with_witness(index, Witness(signatures=sigs, **witness_fields))


def add_signature(tx: Transaction, index: int, sig: Signature) -> Transaction:
    """Append a co-signature to input `index`'s witness."""
    wit = tx.inputs[index].witness
    return tx.with_witness(index, replace(wit, signatures=wit.signatures + (sig,)))


def select_coins(
    chain: "SimChain", pub: bytes, target: int, at_least_one: bool = False
) -> tuple[list[tuple[bytes, int]], int]:
    """Take the owner's pay-to-key outpoints, in sorted order, until `target` is covered.

    Walks the chain's kept order of the owner's outpoints and stops at the
    first coins that cover `target`, so neither the set nor the owner's
    coins are scanned or sorted.  Returns the outpoints taken and their
    total.  With `at_least_one`, one coin is taken even when `target` is
    zero.  Raises InsufficientFundsError when the owner's coins run out first.
    """
    order, coins = chain._owned(pub)
    picked: list[tuple[bytes, int]] = []
    have = 0
    for outpoint in order:
        if have >= target and (picked or not at_least_one):
            break
        picked.append(outpoint)
        have += coins[outpoint].value
    if have < target or (at_least_one and not picked):
        raise InsufficientFundsError(f"need {target}, have {have}")
    return picked, have


def build_payment(
    chain: "SimChain", sender: KeyPair, outputs: Sequence[TxOutput], fee: int = 0
) -> Transaction:
    """Spend the sender's pay-to-key UTXOs into `outputs` plus change.

    Coin selection is deterministic (outpoints in sorted order).  Raises
    InsufficientFundsError when the sender's spendable value cannot cover
    outputs plus fee.
    """
    if fee < 0:
        raise ValueError("fee must be non-negative")
    target = sum(o.value for o in outputs) + fee
    selected, gathered = select_coins(chain, sender.pub, target)

    change = gathered - target
    outs = tuple(outputs)
    if change > 0:
        outs += (TxOutput(value=change, lock=PayToKey(sender.pub)),)
    digest = _blank_digest(selected, outs, 0)
    witness = Witness(signatures=(sign(sender.secret, digest),))
    tx = Transaction(tuple(TxInput(op, witness) for op in selected), outs)
    object.__setattr__(tx, "_sighash", digest)
    return tx
