"""Minimal deterministic UTXO ledger with standardness-aware relay and mining.

Lock scripts are a closed set of templates rather than a stack interpreter;
signatures are a simulation-grade digest scheme whose verifier holds a
pub-to-secret registry.  Both choices keep the protocol modules executable
and enumerable at desk scale while preserving the behaviours that mattered
historically: multisig key limits, data-carrier payload caps, and the
starvation of non-standard transactions by non-compliant miners.
"""

from .keys import (
    InvalidSeedError,
    KeyPair,
    KeyRegistry,
    Signature,
    derive_pair,
    sign,
)
from .script import (
    DataCarrier,
    Either,
    LockScript,
    MultiSig,
    PayToKey,
    ScriptHash,
    TimeLocked,
    lock_from_reader,
    p2sh_lock,
    script_digest,
    serialize_lock,
)
from .tx import (
    InsufficientFundsError,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    build_payment,
    deserialize_tx,
    serialize_tx,
    sighash,
    txid,
)
from .policy import (
    POLICY_TEST2013,
    POLICY_V090,
    NonStandardReason,
    StandardnessDecision,
    StandardnessPolicy,
    classify,
    policy_for,
)
from .validate import InvalidReason, ValidationResult, validate_tx
from .chain import Block, SimChain, block_hash, serialize_block
from .mempool import Mempool, SubmitResult
from .mining import Miner, NoMinersError, mine_next

__all__ = [
    "Block",
    "DataCarrier",
    "Either",
    "InsufficientFundsError",
    "InvalidReason",
    "InvalidSeedError",
    "KeyPair",
    "KeyRegistry",
    "LockScript",
    "Mempool",
    "Miner",
    "MultiSig",
    "NoMinersError",
    "NonStandardReason",
    "PayToKey",
    "POLICY_TEST2013",
    "POLICY_V090",
    "ScriptHash",
    "Signature",
    "SimChain",
    "StandardnessDecision",
    "StandardnessPolicy",
    "SubmitResult",
    "TimeLocked",
    "Transaction",
    "TxInput",
    "TxOutput",
    "ValidationResult",
    "Witness",
    "block_hash",
    "build_payment",
    "classify",
    "derive_pair",
    "deserialize_tx",
    "lock_from_reader",
    "mine_next",
    "p2sh_lock",
    "policy_for",
    "script_digest",
    "serialize_block",
    "serialize_lock",
    "serialize_tx",
    "sighash",
    "sign",
    "txid",
    "validate_tx",
]
