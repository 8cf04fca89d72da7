"""Single-oracle will contract: a hash-committed 2-of-2 multisig.

The creator locks funds behind MultiSig(2, [oracle, heir]) carrying a
commitment to the hash of a condition expression. The oracle co-signs a
spend only when the requester's expression hashes to the committed value
and evaluates true against the oracle's truth source; the heir cannot
move the funds alone, and neither can the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import sha256
from .datafeed import DataSource, query
from .simchain import (
    KeyPair,
    MultiSig,
    PayToKey,
    Signature,
    SimChain,
    Transaction,
    TxOutput,
    build_payment,
    sighash,
    spend,
)


class WillError(ValueError):
    """Base for will-contract request failures."""


class HashMismatchError(WillError):
    """Expression does not hash to the script's committed value."""


class ConditionFalseError(WillError):
    """Expression hash matched but the condition is not true yet."""


def expr_hash(expression: str) -> bytes:
    return sha256(expression.encode("utf-8"))


def will_lock(oracle_pub: bytes, heir_pub: bytes, commitment: bytes) -> MultiSig:
    return MultiSig(m=2, keys=(oracle_pub, heir_pub), commitment=commitment)


@dataclass(frozen=True)
class WillContract:
    heir_pub: bytes
    expr_hash: bytes
    funding_outpoint: tuple[bytes, int]
    amount: int


def create_will(
    chain: SimChain,
    creator: KeyPair,
    oracle_pub: bytes,
    heir_pub: bytes,
    expression: str,
    amount: int,
    fee: int = 0,
) -> tuple[WillContract, Transaction]:
    """Fund the will output and broadcast the funding transaction."""
    if not expression:
        raise ValueError("expression must be nonempty")
    commitment = expr_hash(expression)
    lock = will_lock(oracle_pub, heir_pub, commitment)
    funding = build_payment(chain, creator, [TxOutput(value=amount, lock=lock)], fee=fee)
    result = chain.broadcast(funding, "funding")
    contract = WillContract(
        heir_pub=heir_pub,
        expr_hash=commitment,
        funding_outpoint=(result.txid, 0),
        amount=amount,
    )
    return contract, funding


class OracleServer:
    """Passive signer: checks the committed hash, then the truth source."""

    def __init__(self, keypair: KeyPair, truth_source: DataSource) -> None:
        self.keypair = keypair
        self.truth_source = truth_source

    @property
    def pub(self) -> bytes:
        return self.keypair.pub

    def sign_request(
        self, chain: SimChain, expression: str, partial_tx: Transaction, now: int
    ) -> Signature:
        commitment = self._committed_hash(chain, partial_tx)
        if expr_hash(expression) != commitment:
            raise HashMismatchError("expression does not match the committed hash")
        obs = query(self.truth_source, expression, now)
        if obs.value is not True:
            raise ConditionFalseError(f"condition evaluates to {obs.value!r}")
        return self.keypair.sign(sighash(partial_tx))

    def _committed_hash(self, chain: SimChain, partial_tx: Transaction) -> bytes:
        for txin in partial_tx.inputs:
            source = chain.output_at(txin.outpoint)
            if (
                source is not None
                and isinstance(source.lock, MultiSig)
                and source.lock.commitment is not None
                and self.pub in source.lock.keys
            ):
                return source.lock.commitment
        raise HashMismatchError("no hash-committed input names this oracle")


def build_claim(
    chain: SimChain,
    contract: WillContract,
    heir: KeyPair,
    fee: int = 0,
) -> Transaction:
    """Heir's half-signed spend of the will output to the heir. Deterministic,
    so the oracle's signature over its sighash composes with a rebuilt copy."""
    claim = TxOutput(value=contract.amount - fee, lock=PayToKey(contract.heir_pub))
    return spend(contract.funding_outpoint, (claim,), heir)
