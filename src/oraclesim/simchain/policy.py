"""Relay standardness policy.

Standardness never affects validity; it only decides which miners will
touch a transaction.  Two eras are modelled: the mid-2013 test release that
relayed 80-byte data payloads, and the v0.9.0 rules that halved the cap to
40 bytes.  Multisig is standard up to three keys; bigger key sets, bare
non-payment templates, and witnesses carrying more than three signatures
(the footprint of spending a large multisig) are all non-standard.

`classify` returns shared decisions, one per outcome, and builds none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .script import DataCarrier, MultiSig, PayToKey, ScriptHash
from .tx import Transaction

MAX_STANDARD_MULTISIG_KEYS = 3  # in every era


class Era(enum.Enum):
    TEST2013 = "test2013"
    V090 = "v090"


class NonStandardReason(enum.Enum):
    DATA_PAYLOAD_TOO_LARGE = "data_payload_too_large"
    TOO_MANY_MULTISIG_KEYS = "too_many_multisig_keys"
    NON_TEMPLATE_OUTPUT = "non_template_output"
    TOO_MANY_WITNESS_SIGS = "too_many_witness_sigs"


@dataclass(frozen=True)
class StandardnessPolicy:
    era: Era
    max_data_payload: int


POLICY_TEST2013 = StandardnessPolicy(era=Era.TEST2013, max_data_payload=80)
POLICY_V090 = StandardnessPolicy(era=Era.V090, max_data_payload=40)

_POLICIES = {Era.TEST2013: POLICY_TEST2013, Era.V090: POLICY_V090}


def policy_for(era: Era | str) -> StandardnessPolicy:
    if isinstance(era, str):
        era = Era(era)
    return _POLICIES[era]


@dataclass(frozen=True)
class StandardnessDecision:
    standard: bool
    reason: NonStandardReason | None = None

    def __bool__(self) -> bool:
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
        else:  # TimeLocked, Either
            return _NONSTANDARD[NonStandardReason.NON_TEMPLATE_OUTPUT]
    for txin in tx.inputs:
        if len(txin.witness.signatures) > MAX_STANDARD_MULTISIG_KEYS:
            return _NONSTANDARD[NonStandardReason.TOO_MANY_WITNESS_SIGS]
    return _STANDARD
