"""Consensus validity of transactions against a UTXO view.

A transaction is valid when it has inputs (one without would be valid at
every height, so its txid could be mined again and again), every input
exists and is unspent, every witness satisfies its lock, the locktime has
passed, and outputs do not exceed inputs.  Standardness plays no part here.

A valid result carries the fee, inputs minus outputs, summed while the
inputs are checked, so the mempool never sums them again.  Invalid results
are shared, one per `InvalidReason`.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple

from .keys import KeyRegistry
from .script import (
    DataCarrier,
    Either,
    LockScript,
    MultiSig,
    PayToKey,
    ScriptHash,
    TimeLocked,
    script_digest,
)
from .tx import Transaction, TxOutput, Witness, sighash


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
        return self.ok


_INVALID = {reason: ValidationResult(False, reason) for reason in InvalidReason}


def _satisfies(
    lock: LockScript,
    witness: Witness,
    digest: bytes,
    height: int,
    keys: KeyRegistry,
) -> InvalidReason | None:
    """None when the witness satisfies the lock, else the failure reason."""
    if isinstance(lock, PayToKey):
        for sig in witness.signatures:
            if sig.signer_pub == lock.pub and keys.verify(sig, lock.pub, digest):
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
        return _satisfies(witness.redeem, witness, digest, height, keys)
    if isinstance(lock, DataCarrier):
        return InvalidReason.UNSPENDABLE_INPUT
    if isinstance(lock, TimeLocked):
        if height < lock.unlock_height:
            return InvalidReason.PREMATURE
        return _satisfies(lock.inner, witness, digest, height, keys)
    if isinstance(lock, Either):
        if _satisfies(lock.left, witness, digest, height, keys) is None:
            return None
        if _satisfies(lock.right, witness, digest, height, keys) is None:
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
    if not tx.inputs:
        return _INVALID[InvalidReason.NO_INPUTS]
    if tx.locktime > height:
        return _INVALID[InvalidReason.PREMATURE]

    outpoints = [txin.outpoint for txin in tx.inputs]
    if len(set(outpoints)) != len(outpoints):
        return _INVALID[InvalidReason.DOUBLE_SPEND]

    total_in = 0
    digest = sighash(tx)
    for txin in tx.inputs:
        source = utxo_set.get(txin.outpoint)
        if source is None:
            return _INVALID[InvalidReason.MISSING_INPUT]
        failure = _satisfies(source.lock, txin.witness, digest, height, keys)
        if failure is not None:
            return _INVALID[failure]
        total_in += source.value

    total_out = sum(o.value for o in tx.outputs)
    if total_out > total_in:
        return _INVALID[InvalidReason.OVERSPEND]
    return ValidationResult(True, None, total_in - total_out)
