"""Minimal deterministic UTXO ledger with standardness-aware relay and mining.

Lock scripts are a closed set of templates rather than a stack interpreter;
signatures are a simulation-grade digest scheme whose verifier holds a
pub-to-secret registry.  Both choices keep the protocol modules executable
and enumerable at desk scale while preserving the behaviours that mattered
historically: multisig key limits, data-carrier payload caps, and the
starvation of non-standard transactions by non-compliant miners.

The sections run in dependency order: keys, script, tx, policy, validate,
mempool, chain, mining.  Each opens with a comment on how its part is built
and why.
"""

from __future__ import annotations

import enum
import hashlib
import math
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field, replace
from operator import attrgetter
from random import Random
from typing import Mapping, NamedTuple, Sequence, Union

from .codec import Reader, pack_bytes, pack_u16, pack_u32, pack_u64, sha256


# --------------------------------------------------------------------- keys
# Simulation-grade keypairs and signatures.
#
# A pubkey is the SHA-256 digest of its secret; a signature over a digest is
# SHA-256(secret || digest).  Verification recomputes the tag from the secret
# held in a per-simulation registry, standing in for asymmetric verification.
# The scheme gives the two properties the protocols actually need — only the
# secret holder can sign, and a revealed secret lets anyone sign (Reality
# Keys key release) — without real cryptography.  The registry is instanced
# per simulation; nothing is process-global.  `KeyPair.sign` makes every tag;
# `sign` adapts it to a bare secret for the benchmark workloads.


class InvalidSeedError(ValueError):
    """keygen was given an empty seed."""


@dataclass(frozen=True, slots=True)
class KeyPair:
    secret: bytes  # 32 bytes
    pub: bytes  # 32 bytes, sha256(secret)

    def sign(self, digest: bytes) -> Signature:
        """The one tag rule: sha256(secret || digest), under this pair's pub."""
        if len(digest) != 32:
            raise ValueError("digest must be 32 bytes")
        return Signature(self.pub, digest, sha256(self.secret + digest))  # signer pub, digest, tag


@dataclass(frozen=True, slots=True)
class Signature:
    signer_pub: bytes
    digest_signed: bytes
    tag: bytes  # sha256(secret || digest_signed)


def serialize_signature(sig: Signature) -> bytes:
    """The 96-byte wire form: signer pub, digest signed, tag."""
    return sig.signer_pub + sig.digest_signed + sig.tag


def signature_from_reader(r: Reader) -> Signature:
    return Signature(signer_pub=r.raw(32), digest_signed=r.raw(32), tag=r.raw(32))


def derive_pair(seed_material: bytes) -> KeyPair:
    """Deterministic keypair from seed material. Same seed, same pair."""
    if not seed_material:
        raise InvalidSeedError("seed material must be nonempty")
    secret = sha256(b"key:" + seed_material)
    return KeyPair(secret=secret, pub=sha256(secret))


def sign(secret: bytes, digest: bytes) -> Signature:
    """`KeyPair.sign` for a bare secret. No `oraclesim` module calls it; it
    stays only because `perfbench/workloads.py` imports it."""
    return KeyPair(secret, sha256(secret)).sign(digest)


class KeyRegistry:
    """Per-simulation pub-to-secret map backing signature verification."""

    def __init__(self) -> None:
        self._secrets: dict[bytes, bytes] = {}

    def keygen(self, seed_material: bytes) -> KeyPair:
        pair = derive_pair(seed_material)
        self._secrets[pair.pub] = pair.secret
        return pair

    def verify(self, sig: Signature, pub: bytes, digest: bytes) -> bool:
        """False for a pub this registry never issued."""
        secret = self._secrets.get(pub)
        if secret is None or sig.signer_pub != pub or sig.digest_signed != digest:
            return False
        return sig.tag == sha256(secret + digest)


# ------------------------------------------------------------------- script
# Lock script templates.
#
# The script engine is a closed set of templates covering every construction
# the protocol modules build: pay-to-key, M-of-N multisig (15-key cap), P2SH,
# unspendable data carriers, and a two-branch disjunction of signature checks
# used for hash-committed contract redeems.  An `Either` branch is a
# `PayToKey` or a `MultiSig`, so no lock nests, and nothing that reads a lock
# recurses past one level.  Time enters only through a transaction's
# `locktime`, the one timelock of the 2013-14 chain.  MultiSig carries an
# optional 32-byte commitment — the "two signatures plus committed hash"
# template — which is inert for spending (the committed hash is published for
# off-chain checks, not enforced on-chain) but changes the script's identity
# and standardness.


MAX_MULTISIG_KEYS = 15

# each template's tag byte, which both the encoder and the decoder read
_TAG_PAY_TO_KEY = b"\x01"
_TAG_MULTISIG = b"\x02"
_TAG_SCRIPT_HASH = b"\x03"
_TAG_DATA_CARRIER = b"\x04"
_TAG_EITHER = b"\x06"  # tag 5, a height timelock, is retired
_ABSENT, _PRESENT = b"\x00", b"\x01"  # a presence flag


@dataclass(frozen=True, slots=True)
class PayToKey:
    pub: bytes

    def __post_init__(self) -> None:
        # written raw with no length, so only a 32-byte key parses back
        if len(self.pub) != 32:
            raise ValueError("pay-to-key pub must be 32 bytes")


@dataclass(frozen=True, slots=True)
class MultiSig:
    m: int
    keys: tuple[bytes, ...]
    commitment: bytes | None = None  # published hash, not a spend condition

    def __post_init__(self) -> None:
        if not 1 <= self.m <= len(self.keys):
            raise ValueError(f"multisig requires 1 <= m <= n, got {self.m} of {len(self.keys)}")
        if len(self.keys) > MAX_MULTISIG_KEYS:
            raise ValueError(f"multisig capped at {MAX_MULTISIG_KEYS} keys, got {len(self.keys)}")
        # keys are written raw with no length, so only fixed-size keys parse back
        if {*map(len, self.keys)} != {32}:
            raise ValueError("multisig keys must be 32 bytes")
        if self.commitment is not None and len(self.commitment) != 32:
            raise ValueError("commitment must be 32 bytes")


@dataclass(frozen=True, slots=True)
class ScriptHash:
    h: bytes  # sha256 of the serialized redeem script

    def __post_init__(self) -> None:
        if len(self.h) != 32:  # written raw, as PayToKey's pub
            raise ValueError("script hash must be 32 bytes")


@dataclass(frozen=True, slots=True)
class DataCarrier:
    payload: bytes


@dataclass(frozen=True, slots=True)
class Either:
    left: PayToKey | MultiSig
    right: PayToKey | MultiSig

    def __post_init__(self) -> None:
        if not {type(self.left), type(self.right)} <= {PayToKey, MultiSig}:
            raise ValueError("an Either branch must be a PayToKey or a MultiSig")


LockScript = Union[PayToKey, MultiSig, ScriptHash, DataCarrier, Either]


def lock_from_reader(r: Reader) -> LockScript:
    """One lock script; an `Either`'s branches are read as signature checks,
    so a nested tag is refused before anything is built under it."""
    tag = r.raw(1)
    if tag == _TAG_SCRIPT_HASH:
        return ScriptHash(h=r.raw(32))
    if tag == _TAG_DATA_CARRIER:
        return DataCarrier(payload=r.bytes())
    if tag == _TAG_EITHER:
        return Either(left=_signature_check(r, r.raw(1)), right=_signature_check(r, r.raw(1)))
    if tag == _TAG_PAY_TO_KEY or tag == _TAG_MULTISIG:
        return _signature_check(r, tag)
    raise ValueError(f"unknown lock script tag {tag[0]}")


def _signature_check(r: Reader, tag: bytes) -> PayToKey | MultiSig:
    """The `PayToKey` or `MultiSig` lock after `tag`; ValueError on any other tag."""
    if tag == _TAG_PAY_TO_KEY:
        return PayToKey(pub=r.raw(32))
    if tag == _TAG_MULTISIG:
        m = r.u8()
        n = r.u8()
        keys = tuple(r.raw(32) for _ in range(n))
        commitment = r.raw(32) if r.flag() else None
        return MultiSig(m=m, keys=keys, commitment=commitment)
    raise ValueError(f"lock script tag {tag[0]} in an Either branch is not PayToKey or MultiSig")


def serialize_lock(lock: LockScript) -> bytes:
    """The canonical bytes of `lock`: its tag byte, then its fields."""
    if isinstance(lock, PayToKey):
        return _TAG_PAY_TO_KEY + lock.pub
    if isinstance(lock, DataCarrier):
        return _TAG_DATA_CARRIER + pack_bytes(lock.payload)
    if isinstance(lock, MultiSig):
        keys = lock.keys
        head = _TAG_MULTISIG + bytes((lock.m, len(keys)))
        if lock.commitment is None:
            return b"".join((head, *keys, _ABSENT))
        return b"".join((head, *keys, _PRESENT, lock.commitment))
    if isinstance(lock, ScriptHash):
        return _TAG_SCRIPT_HASH + lock.h
    if isinstance(lock, Either):
        return _TAG_EITHER + serialize_lock(lock.left) + serialize_lock(lock.right)
    raise TypeError(f"not a lock script: {lock!r}")


def script_digest(lock: LockScript) -> bytes:
    return sha256(serialize_lock(lock))


def p2sh_lock(redeem: LockScript) -> ScriptHash:
    """Wrap a redeem script into a pay-to-script-hash output lock."""
    return ScriptHash(h=script_digest(redeem))


# ----------------------------------------------------------------------- tx
# Transactions: canonical serialization, ids, signing digests, builders.
#
# Two digests matter.  `txid` hashes the full canonical serialization,
# witnesses included, and is the transaction's identity.  `sighash` hashes
# the same layout with every witness written blank (`Witness()`, the four
# bytes 00 00 00 00) — that is what signatures commit to, so co-signers can
# add their signatures to a partially signed transaction without
# invalidating earlier ones.
#
# Every encoder returns bytes, one per layout: `serialize_signature`,
# `serialize_lock`, `_serialize_witness`, `_tail` for the outputs and the
# locktime, which the txid and the sighash share, and `serialize_tx`, which
# walks the inputs once and writes each outpoint with its own witness.
# `_tx_layout` writes the same layout with one encoded witness shared by
# every input: the blank one for the sighash preimage, or a payment's one
# signed witness.
#
# A `Transaction` is frozen, so each is serialized at most once: its
# canonical bytes are kept on the instance, and `txid`, `tx_size` and the
# chain's block encoding all read them.  `txid` and `sighash` keep their
# digests too, and a transaction derived from another by its witnesses
# alone inherits the sighash.  `serialize_tx` itself is the pure encoder.
#
# Every record of this section is a slotted frozen dataclass: no instance
# carries a `__dict__`.  So that the three memos have slots, they are
# declared fields, left out of `__init__`, `==`, `hash` and `repr`;
# `dataclasses.fields()` lists them, and nothing else sees them.
#
# Signing builds and encodes each transaction once.  A host spend is
# `select_coins`, then `sign_payment`, which builds no unsigned twin: it
# encodes the outputs and the locktime once, as one tail, and takes from it
# both the sighash preimage and, after signing that digest once, the
# canonical bytes, with the one `Witness` shared by every input.  It keeps
# the digest as the sighash and the bytes as the transaction's own, so a
# built transaction never reaches `serialize_tx`.  It encodes both from the
# fields it constructs, and takes no bytes from its caller.
# `with_witness`, and so `sign_input` and `add_signature`, rebuilds the
# inputs tuple once.  `spend` is the one builder of a contract spend: the
# single output a contract locked, spent into new outputs and signed by the
# quorum that meets its lock, or left unsigned as a draft for co-signers.
#
# `select_coins` is the one coin-selection rule of every host spend: the
# owner's coins in outpoint order until the target is covered, and always at
# least one, since a transaction without inputs is never valid.


class InsufficientFundsError(ValueError):
    """Payment builder could not cover outputs plus fee."""


@dataclass(frozen=True, slots=True)
class Witness:
    signatures: tuple[Signature, ...] = ()
    redeem: LockScript | None = None


EMPTY_WITNESS = Witness()
_BLANK_WITNESS = b"\x00\x00\x00\x00"  # EMPTY_WITNESS: no signatures, no redeem, the reserved byte
_RESERVED = b"\x00"  # a witness's last byte: always 00, and decoders refuse any other


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

    # Set by sign_payment, or memoised by _serialized, txid and sighash; fields
    # only for their slots, so they take no part in equality, hash or repr,
    # and `replace` starts them afresh.
    _bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _txid: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _sighash: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def with_witness(self, index: int, witness: Witness) -> "Transaction":
        """New transaction with input `index`'s witness replaced; the sighash carries over."""
        inputs = list(self.inputs)
        inputs[index] = TxInput(inputs[index].outpoint, witness)
        derived = Transaction(tuple(inputs), self.outputs, self.locktime)
        object.__setattr__(derived, "_sighash", self._sighash)
        return derived


def _serialize_witness(wit: Witness) -> bytes:
    parts = [pack_u16(len(wit.signatures)), *map(serialize_signature, wit.signatures)]
    parts.append(_ABSENT if wit.redeem is None else _PRESENT + serialize_lock(wit.redeem))
    parts.append(_RESERVED)
    return b"".join(parts)


def _witness_from_reader(r: Reader) -> Witness:
    sigs = tuple(signature_from_reader(r) for _ in range(r.u16()))
    redeem = lock_from_reader(r) if r.flag() else None
    if r.u8():
        raise ValueError("a witness's reserved byte must be 00")
    return Witness(signatures=sigs, redeem=redeem)


def serialize_tx(tx: Transaction) -> bytes:
    """The canonical bytes of `tx`."""
    inputs = tx.inputs
    parts = [pack_u16(len(inputs))]
    for txin in inputs:
        spent, index = txin.outpoint
        parts += (spent, pack_u32(index), _serialize_witness(txin.witness))
    parts.append(_tail(tx.outputs, tx.locktime))
    return b"".join(parts)


def _tx_layout(outpoints: Sequence[tuple[bytes, int]], witness: bytes, tail: bytes) -> bytes:
    """The transaction layout with one encoded `witness` in every input:
    each outpoint with that witness, then `tail`, the encoded outputs and
    locktime."""
    parts = [pack_u16(len(outpoints))]
    for spent, index in outpoints:
        parts += (spent, pack_u32(index), witness)
    parts.append(tail)
    return b"".join(parts)


def _tail(outputs: Sequence[TxOutput], locktime: int) -> bytes:
    """The layout after the inputs, the same in the txid and the sighash."""
    parts = [pack_u16(len(outputs))]
    for txout in outputs:
        parts += (pack_u64(txout.value), serialize_lock(txout.lock))
    parts.append(pack_u64(locktime))
    return b"".join(parts)


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
        outpoints = [txin.outpoint for txin in tx.inputs]
        preimage = _tx_layout(outpoints, _BLANK_WITNESS, _tail(tx.outputs, tx.locktime))
        object.__setattr__(tx, "_sighash", sha256(preimage))
    return tx._sighash


def tx_size(tx: Transaction) -> int:
    return len(_serialized(tx))


def sign_input(tx: Transaction, index: int, *signers: KeyPair, **witness_fields) -> Transaction:
    """Give input `index` a witness holding one signature per signer, in order."""
    digest = sighash(tx)
    sigs = tuple(signer.sign(digest) for signer in signers)
    return tx.with_witness(index, Witness(signatures=sigs, **witness_fields))


def spend(
    outpoint: tuple[bytes, int],
    outputs: Sequence[TxOutput],
    *signers: KeyPair,
    locktime: int = 0,
    **witness_fields,
) -> Transaction:
    """Spend the one output at `outpoint` into `outputs`, each signer signing
    input 0 in order; unsigned when no signer is given."""
    tx = Transaction((TxInput(outpoint),), tuple(outputs), locktime)
    return sign_input(tx, 0, *signers, **witness_fields) if signers else tx


def add_signature(tx: Transaction, index: int, sig: Signature) -> Transaction:
    """Append a co-signature to input `index`'s witness."""
    wit = tx.inputs[index].witness
    return tx.with_witness(index, replace(wit, signatures=wit.signatures + (sig,)))


def select_coins(chain: SimChain, pub: bytes, target: int) -> tuple[list[tuple[bytes, int]], int]:
    """Take the owner's pay-to-key outpoints, in sorted order, until `target`
    is covered, and always at least one: a transaction without inputs is
    never valid, so the first coin taken is the same for every target.

    Walks the chain's kept order of the owner's outpoints, each value read
    from the UTXO set, up to the first coins that cover `target`; nothing is
    scanned or sorted.  Returns the outpoints taken and their total.  Raises
    InsufficientFundsError when the owner's coins run out first.
    """
    utxo = chain.utxo
    picked: list[tuple[bytes, int]] = []
    have = 0
    for outpoint in chain._owned(pub):
        if picked and have >= target:
            break
        picked.append(outpoint)
        have += utxo[outpoint].value
    if have < target or not picked:
        raise InsufficientFundsError(f"need {target}, have {have}")
    return picked, have


def build_payment(
    chain: SimChain, sender: KeyPair, outputs: Sequence[TxOutput], fee: int = 0
) -> Transaction:
    """Spend the sender's pay-to-key UTXOs into `outputs` plus change.

    Coins are taken by `select_coins`, so the payment has at least one
    input, and signed by `sign_payment`.  Raises InsufficientFundsError
    when the sender's spendable value cannot cover outputs plus fee.
    """
    if fee < 0:
        raise ValueError("fee must be non-negative")
    target = sum(o.value for o in outputs) + fee
    coins, gathered = select_coins(chain, sender.pub, target)
    return sign_payment(sender, coins, outputs, gathered - target)


def sign_payment(
    sender: KeyPair,
    coins: Sequence[tuple[bytes, int]],
    outputs: Sequence[TxOutput],
    change: int,
) -> Transaction:
    """Spend `coins`, outpoints locked to the sender's key, into `outputs`,
    then `change` back to the sender unless it is 0, with one signature by
    `sender` in every input's witness.

    The transaction keeps its sighash and its canonical bytes, both encoded
    here from one encoding of its outputs and locktime.
    """
    outs = tuple(outputs)
    if change:
        outs += (TxOutput(change, PayToKey(sender.pub)),)
    tail = _tail(outs, 0)
    digest = sha256(_tx_layout(coins, _BLANK_WITNESS, tail))
    witness = Witness((sender.sign(digest),))
    inputs = []
    for outpoint in coins:
        inputs.append(TxInput(outpoint, witness))
    tx = Transaction(tuple(inputs), outs)
    object.__setattr__(tx, "_bytes", _tx_layout(coins, _serialize_witness(witness), tail))
    object.__setattr__(tx, "_sighash", digest)
    return tx


# ------------------------------------------------------------------- policy
# Relay standardness policy.
#
# Standardness never affects validity; it only decides which miners will
# touch a transaction.  `POLICIES` names the eras modelled, the one list that
# scenarios and the CLI choose from: the v0.9.0 rules capping data payloads at
# 40 bytes, the default, and the mid-2013 test release that relayed 80.
# Multisig is standard up to three keys; bigger key sets, bare non-payment
# templates, and witnesses carrying more than three signatures (the footprint
# of spending a large multisig) are all non-standard.
#
# `classify` returns shared decisions, one per outcome, and builds none.


MAX_STANDARD_MULTISIG_KEYS = 3  # in every era


class NonStandardReason(enum.Enum):
    DATA_PAYLOAD_TOO_LARGE = "data_payload_too_large"
    TOO_MANY_MULTISIG_KEYS = "too_many_multisig_keys"
    NON_TEMPLATE_OUTPUT = "non_template_output"
    TOO_MANY_WITNESS_SIGS = "too_many_witness_sigs"


@dataclass(frozen=True)
class StandardnessPolicy:
    name: str
    max_data_payload: int


POLICY_V090 = StandardnessPolicy(name="v090", max_data_payload=40)
POLICY_TEST2013 = StandardnessPolicy(name="test2013", max_data_payload=80)

POLICIES = {policy.name: policy for policy in (POLICY_V090, POLICY_TEST2013)}


@dataclass(frozen=True)
class StandardnessDecision:
    standard: bool
    reason: NonStandardReason | None = None

    def __bool__(self) -> bool:
        # `perfbench/workloads.py` reads a decision as a truth value
        return self.standard


_STANDARD = StandardnessDecision(True)
_NONSTANDARD = {reason: StandardnessDecision(False, reason) for reason in NonStandardReason}


def classify(tx: Transaction, policy: StandardnessPolicy) -> StandardnessDecision:
    """Pure function of the transaction bytes and the policy."""
    for out in tx.outputs:
        lock = out.lock
        if isinstance(lock, DataCarrier):
            if len(lock.payload) > policy.max_data_payload:
                return _NONSTANDARD[NonStandardReason.DATA_PAYLOAD_TOO_LARGE]
        elif isinstance(lock, MultiSig):
            if len(lock.keys) > MAX_STANDARD_MULTISIG_KEYS:
                return _NONSTANDARD[NonStandardReason.TOO_MANY_MULTISIG_KEYS]
            if lock.commitment is not None:
                # hash-committed multisig is the hand-rolled contract script
                return _NONSTANDARD[NonStandardReason.NON_TEMPLATE_OUTPUT]
        elif isinstance(lock, (PayToKey, ScriptHash)):
            pass
        else:  # Either
            return _NONSTANDARD[NonStandardReason.NON_TEMPLATE_OUTPUT]
    for txin in tx.inputs:
        if len(txin.witness.signatures) > MAX_STANDARD_MULTISIG_KEYS:
            return _NONSTANDARD[NonStandardReason.TOO_MANY_WITNESS_SIGS]
    return _STANDARD


# ----------------------------------------------------------------- validate
# Consensus validity of transactions against a UTXO view.
#
# A transaction is valid when it has inputs (one without would be valid at
# every height, so its txid could be mined again and again), every input
# exists and is unspent, every witness satisfies its lock, the locktime has
# passed, and outputs do not exceed inputs.  Standardness plays no part here.
#
# A valid result carries the fee, inputs minus outputs, summed while the
# inputs are checked, so the mempool never sums them again.  Invalid results
# are shared, one per `InvalidReason`.


class InvalidReason(enum.Enum):
    NO_INPUTS = "no_inputs"
    MISSING_INPUT = "missing_input"
    DOUBLE_SPEND = "double_spend"
    BAD_WITNESS = "bad_witness"
    OVERSPEND = "overspend"
    PREMATURE = "premature"
    UNSPENDABLE_INPUT = "unspendable_input"


class ValidationResult(NamedTuple):
    ok: bool
    reason: InvalidReason | None = None
    fee: int | None = None  # inputs minus outputs when ok

    def __bool__(self) -> bool:
        # `perfbench/layertrace.py` counts `bool(result)` as the ok share of
        # `validate_tx`; a named tuple without it would always be true
        return self.ok


_INVALID = {reason: ValidationResult(False, reason) for reason in InvalidReason}


def _satisfies(
    lock: LockScript,
    witness: Witness,
    digest: bytes,
    keys: KeyRegistry,
) -> InvalidReason | None:
    """None when the witness satisfies the lock, else the failure reason."""
    if isinstance(lock, PayToKey):
        for sig in witness.signatures:
            if keys.verify(sig, lock.pub, digest):
                return None
        return InvalidReason.BAD_WITNESS
    if isinstance(lock, MultiSig):
        # commitment is a published hash, not a spend condition
        satisfied = set()
        for sig in witness.signatures:
            if sig.signer_pub in lock.keys and keys.verify(sig, sig.signer_pub, digest):
                satisfied.add(sig.signer_pub)
        return None if len(satisfied) >= lock.m else InvalidReason.BAD_WITNESS
    if isinstance(lock, ScriptHash):
        if witness.redeem is None or script_digest(witness.redeem) != lock.h:
            return InvalidReason.BAD_WITNESS
        return _satisfies(witness.redeem, witness, digest, keys)
    if isinstance(lock, DataCarrier):
        return InvalidReason.UNSPENDABLE_INPUT
    if isinstance(lock, Either):
        if _satisfies(lock.left, witness, digest, keys) is None:
            return None
        if _satisfies(lock.right, witness, digest, keys) is None:
            return None
        return InvalidReason.BAD_WITNESS
    raise TypeError(f"not a lock script: {lock!r}")


def validate_tx(
    tx: Transaction,
    utxo_set: Mapping[tuple[bytes, int], TxOutput],
    height: int,
    keys: KeyRegistry,
) -> ValidationResult:
    """Validity of `tx` if included in a block at `height`."""
    inputs = tx.inputs
    if not inputs:
        return _INVALID[InvalidReason.NO_INPUTS]
    if tx.locktime > height:
        return _INVALID[InvalidReason.PREMATURE]
    # one input cannot name its outpoint twice
    if len(inputs) > 1 and len({txin.outpoint for txin in inputs}) != len(inputs):
        return _INVALID[InvalidReason.DOUBLE_SPEND]

    total_in = 0
    digest = sighash(tx)
    for txin in inputs:
        source = utxo_set.get(txin.outpoint)
        if source is None:
            return _INVALID[InvalidReason.MISSING_INPUT]
        failure = _satisfies(source.lock, txin.witness, digest, keys)
        if failure is not None:
            return _INVALID[failure]
        total_in += source.value

    total_out = 0
    for out in tx.outputs:
        total_out += out.value
    if total_out > total_in:
        return _INVALID[InvalidReason.OVERSPEND]
    return tuple.__new__(ValidationResult, (True, None, total_in - total_out))


# ------------------------------------------------------------------ mempool
# Relay pool with standardness tagging, conflict tracking, and expiry.
#
# Every accepted tx is validated against the confirmed UTXO set, so pool
# entries never spend each other's outputs: a child must wait until its
# parent confirms. Standardness is recorded at submit time and consulted
# by miners, never by validation.
#
# Admission is one pass, and the fee is the one `validate_tx` computed. An
# entry's txid is its key in `entries`; its mining rank, best fee rate first
# and then its arrival number, is fixed at submit. `_claimed` is the set of
# outpoints the entries spend. `entries` keeps arrival order, in which
# `arrival_height` never decreases, so expiry stops at the first young entry.
#
# Admission runs once per relayed transaction, so it builds no per-call list,
# set or generator, and it builds every result and entry with `tuple.__new__`
# and all of its fields in order: a named tuple built by keyword runs its
# generated Python `__new__`, at over twice the cost of `tuple.__new__`.


REASON_INVALID = "invalid"
REASON_DUPLICATE = "duplicate"
REASON_CONFLICT = "conflict"


class SubmitResult(NamedTuple):
    txid: bytes
    accepted: bool
    standard: StandardnessDecision | None = None
    reason: str | None = None
    invalid_reason: InvalidReason | None = None


class RejectedError(ValueError):
    """A refused broadcast: "<what> rejected: <why>", <why> the `InvalidReason`
    value of an invalid spend, else the pool's reason (duplicate, conflict)."""


class BadWitnessError(RejectedError):
    """A witness that does not satisfy its lock (`InvalidReason.BAD_WITNESS`)."""


class MempoolEntry(NamedTuple):
    tx: Transaction
    fee: int
    size: int
    arrival_height: int
    standard: StandardnessDecision
    rank: tuple[float, int]  # (-(fee / size), arrival number): mining order, ascending


_rank = attrgetter("rank")


class Mempool:
    expiry_blocks = 100  # an entry not mined this many blocks after its arrival leaves

    def __init__(self) -> None:
        self.entries: dict[bytes, MempoolEntry] = {}  # by txid, in arrival order
        self._claimed: set[tuple[bytes, int]] = set()
        self._next_seq = 0

    def submit(self, chain: SimChain, tx: Transaction) -> SubmitResult:
        tid = txid(tx)
        if tid in self.entries:
            return tuple.__new__(SubmitResult, (tid, False, None, REASON_DUPLICATE, None))
        claimed = self._claimed
        for txin in tx.inputs:
            if txin.outpoint in claimed:
                return tuple.__new__(SubmitResult, (tid, False, None, REASON_CONFLICT, None))
        verdict = chain.validate(tx)
        if not verdict.ok:
            return tuple.__new__(SubmitResult, (tid, False, None, REASON_INVALID, verdict.reason))
        decision = classify(tx, chain.policy)
        fee, size, seq = verdict.fee, tx_size(tx), self._next_seq
        self._next_seq = seq + 1
        self.entries[tid] = tuple.__new__(
            MempoolEntry, (tx, fee, size, chain.height, decision, (-(fee / size), seq))
        )
        for txin in tx.inputs:
            claimed.add(txin.outpoint)
        return tuple.__new__(SubmitResult, (tid, True, decision, None, None))

    def candidates(self, include_nonstandard: bool) -> list[MempoolEntry]:
        """Entries a miner will consider, best fee rate first, FIFO on ties."""
        pool = [e for e in self.entries.values() if include_nonstandard or e.standard.standard]
        pool.sort(key=_rank)
        return pool

    def on_block(self, block: Block) -> None:
        for tx in block.txs:
            self._remove(txid(tx))
        expired = []
        for tid, entry in self.entries.items():
            if block.height - entry.arrival_height < self.expiry_blocks:
                break  # every later arrival is at least as young
            expired.append(tid)
        for tid in expired:
            self._remove(tid)

    def _remove(self, tid: bytes) -> None:
        entry = self.entries.pop(tid, None)
        if entry is not None:
            for txin in entry.tx.inputs:
                self._claimed.discard(txin.outpoint)


# -------------------------------------------------------------------- chain
# Chain state: blocks, the UTXO set, and block application.
#
# The chain owns the key registry, the standardness policy, and the mempool.
# There are no reorgs, no difficulty, and no coinbase: value enters at the
# genesis allocation and only ever decreases by fees (burned) or by being
# locked behind unspendable scripts.
#
# `chain.utxo`, the one store of unspent outputs, changes only in
# `_apply_block`.  The owner index is a view of it that holds no output: each
# owner's sorted pay-to-key outpoints and their running sum, so `utxos_for`,
# `balance` and coin selection scan nothing.  The first owner query builds it
# in one pass over the set, and `_apply_block`'s one loop keeps it.  So a
# chain nobody queries (a relay of presigned transactions) keeps no index,
# and a chain is scanned for it at most once.  `balance`, which a scenario
# calls per tracked owner each tick, checks `_order` itself and then reads
# `_balances`, without a call to `_index`.
#
# `block_hash` feeds the header, then each transaction's bytes as kept when
# its txid was taken, into one hash state, so a block never encodes a
# transaction again and its bytes are never joined into one string.


GENESIS_PARENT = bytes(32)


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    miner_id: str
    txs: tuple[Transaction, ...]
    parent: bytes


def block_hash(block: Block) -> bytes:
    """H of the block layout in FORMATS.md: u64 height, string miner_id,
    raw parent, u32 n_txs, then each transaction's canonical bytes."""
    txs = block.txs
    state = hashlib.sha256(
        pack_u64(block.height) + pack_bytes(block.miner_id.encode("utf-8")) + block.parent
        + pack_u32(len(txs))
    )
    for tx in txs:
        state.update(_serialized(tx))
    return state.digest()


class SimChain:
    def __init__(
        self,
        policy: StandardnessPolicy = POLICY_V090,
        genesis: Sequence[TxOutput] = (),
        keys: KeyRegistry | None = None,
    ) -> None:
        self.policy = policy
        self.keys = keys if keys is not None else KeyRegistry()
        self.mempool = Mempool()
        self.utxo: dict[tuple[bytes, int], TxOutput] = {}
        # the owner index, None until the first owner query: sorted outpoints and sum per owner
        self._order: defaultdict[bytes, list[tuple[bytes, int]]] | None = None
        self._balances: defaultdict[bytes, int] = defaultdict(int)
        self.blocks: list[Block] = []
        self.txs_by_id: dict[bytes, Transaction] = {}

        genesis_tx = Transaction(inputs=(), outputs=tuple(genesis))
        self._apply_block(Block(height=0, miner_id="genesis", txs=(genesis_tx,), parent=GENESIS_PARENT))

    # --- queries ----------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def tip_hash(self) -> bytes:
        return block_hash(self.blocks[-1])

    def utxos_for(self, pub: bytes) -> list[tuple[tuple[bytes, int], TxOutput]]:
        """The owner's pay-to-key coins in sorted outpoint order."""
        utxo = self.utxo
        return [(op, utxo[op]) for op in self._owned(pub)]

    def _owned(self, pub: bytes) -> Sequence[tuple[bytes, int]]:
        """The owner's pay-to-key outpoints in sorted order, the chain's own
        list for reading only."""
        return self._index().get(pub, ())

    def balance(self, pub: bytes) -> int:
        """The owner's pay-to-key value, from the owner index."""
        if self._order is None:
            self._index()
        return self._balances.get(pub, 0)

    def _index(self) -> defaultdict[bytes, list[tuple[bytes, int]]]:
        """The owner index's outpoint lists.  The chain's first owner query
        builds the index in one pass over `utxo`; `_apply_block` keeps it."""
        if self._order is None:
            order = self._order = defaultdict(list)
            for outpoint, out in self.utxo.items():
                if isinstance(out.lock, PayToKey):
                    order[out.lock.pub].append(outpoint)
                    self._balances[out.lock.pub] += out.value
            for owned in order.values():
                owned.sort()
        return self._order

    def supply(self) -> int:
        return sum(out.value for out in self.utxo.values())

    def output_at(self, outpoint: tuple[bytes, int]) -> TxOutput | None:
        """Output for an outpoint, spent or not; None if the tx is unknown."""
        tx = self.txs_by_id.get(outpoint[0])
        if tx is None or outpoint[1] >= len(tx.outputs):
            return None
        return tx.outputs[outpoint[1]]

    def validate(self, tx: Transaction) -> ValidationResult:
        """Validity if the tx were included at the next height."""
        return validate_tx(tx, self.utxo, self.height + 1, self.keys)

    # --- state transitions --------------------------------------------------

    def submit(self, tx: Transaction) -> SubmitResult:
        return self.mempool.submit(self, tx)

    def broadcast(self, tx: Transaction, what: str) -> SubmitResult:
        """Submit `tx` once; raise RejectedError, naming `what`, if refused."""
        result = self.mempool.submit(self, tx)
        if not result.accepted:
            why = result.invalid_reason
            error = BadWitnessError if why is InvalidReason.BAD_WITNESS else RejectedError
            raise error(f"{what} rejected: {result.reason if why is None else why.value}")
        return result

    def mine_next(self, miners, rng) -> Block:
        return mine_next(self, miners, rng)

    def _apply_block(self, block: Block) -> None:
        utxo, txs_by_id, order, balances = self.utxo, self.txs_by_id, self._order, self._balances
        for tx in block.txs:
            tid = txid(tx)
            for txin in tx.inputs:
                outpoint = txin.outpoint
                out = utxo.pop(outpoint)
                if order is not None and isinstance(out.lock, PayToKey):
                    owned = order[out.lock.pub]
                    del owned[bisect_left(owned, outpoint)]
                    balances[out.lock.pub] -= out.value
            for idx, out in enumerate(tx.outputs):
                utxo[(tid, idx)] = out
                if order is not None and isinstance(out.lock, PayToKey):
                    insort(order[out.lock.pub], (tid, idx))
                    balances[out.lock.pub] += out.value
            txs_by_id[tid] = tx
        self.blocks.append(block)
        self.mempool.on_block(block)


# ------------------------------------------------------------------- mining
# Hashrate-weighted block production.
#
# One block per call: a winning miner is drawn with probability equal to
# its hashrate share, then fills its block greedily by fee rate. Policy
# compliance matters only here: a compliant miner never considers
# nonstandard txs, which is what makes nonstandard inclusion a waiting
# game rather than a validity question.
#
# Blocks are filled from the pool without validating again, because every
# entry of the chain's own pool is valid at the next height:
#
# - the pool validated it at submit against the confirmed UTXO set;
# - `_claimed` refuses a second claim on an outpoint, so no two entries
#   spend one output;
# - `mine_next` is the only caller of `SimChain._apply_block` after
#   genesis, so only pool entries spend confirmed outputs, and they leave
#   the pool with their block;
# - keys are only ever added to the registry, and `locktime` validity only
#   grows with height.
#
# `tests/test_mempool_mining.py` checks every mined block of random
# traffic by brute force.


DEFAULT_BLOCK_SIZE_BUDGET = 16384


class NoMinersError(ValueError):
    """Raised when asked to mine with an empty miner table."""


@dataclass(frozen=True)
class Miner:
    miner_id: str
    hashrate: float
    accepts_nonstandard: bool = True
    block_size_budget: int = DEFAULT_BLOCK_SIZE_BUDGET

    def __post_init__(self) -> None:
        if not 0.0 < self.hashrate <= 1.0:
            raise ValueError("hashrate must be in (0, 1]")
        if self.block_size_budget < 1:
            raise ValueError("block_size_budget must be positive")


def _draw_winner(miners: Sequence[Miner], rng: Random) -> Miner:
    roll = rng.random()
    acc = 0.0
    for miner in miners:
        acc += miner.hashrate
        if roll < acc:
            return miner
    return miners[-1]


def check_miners(miners: Sequence[Miner]) -> None:
    """Raise ValueError unless the table is non-empty and its hashrates sum to 1."""
    if not miners:
        raise NoMinersError("cannot mine without miners")
    total = sum(m.hashrate for m in miners)
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise ValueError(f"miner hashrates must sum to 1, got {total}")


def mine_next(chain: SimChain, miners: Sequence[Miner], rng: Random) -> Block:
    check_miners(miners)
    winner = _draw_winner(miners, rng)
    included: list[Transaction] = []
    used = 0
    for entry in chain.mempool.candidates(include_nonstandard=winner.accepts_nonstandard):
        if used + entry.size > winner.block_size_budget:
            continue
        included.append(entry.tx)
        used += entry.size

    block = Block(
        height=chain.height + 1,
        miner_id=winner.miner_id,
        txs=tuple(included),
        parent=chain.tip_hash,
    )
    chain._apply_block(block)
    return block
