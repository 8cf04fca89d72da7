"""Relay pool with standardness tagging, conflict tracking, and expiry.

Every accepted tx is validated against the confirmed UTXO set, so pool
entries never spend each other's outputs: a child must wait until its
parent confirms. Standardness is recorded at submit time and consulted
by miners, never by validation.

Admission is one pass. The fee is the one `validate_tx` computed while
checking the inputs, and each entry's mining rank, best fee rate first
and earlier arrival on ties, is fixed when it is submitted. `entries`
keeps arrival order, in which `arrival_height` never decreases, so expiry
stops at the first entry that is young enough.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from .policy import StandardnessDecision, classify
from .tx import Transaction, tx_size, txid
from .validate import InvalidReason

if TYPE_CHECKING:
    from .chain import Block, SimChain

REASON_INVALID = "invalid"
REASON_DUPLICATE = "duplicate"
REASON_CONFLICT = "conflict"


class SubmitResult(NamedTuple):
    txid: bytes
    accepted: bool
    standard: StandardnessDecision | None = None
    reason: str | None = None
    invalid_reason: InvalidReason | None = None

    def __bool__(self) -> bool:
        return self.accepted


class MempoolEntry(NamedTuple):
    tx: Transaction
    txid: bytes
    fee: int
    size: int
    arrival_height: int
    arrival_seq: int
    standard: StandardnessDecision
    rank: tuple[float, int]  # (-(fee / size), arrival_seq): mining order, ascending


_rank = attrgetter("rank")


class Mempool:
    def __init__(self, expiry_blocks: int = 100) -> None:
        if expiry_blocks < 1:
            raise ValueError("expiry_blocks must be positive")
        self.expiry_blocks = expiry_blocks
        self.entries: dict[bytes, MempoolEntry] = {}  # in arrival order
        self._claimed: dict[tuple[bytes, int], bytes] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tx_id: bytes) -> bool:
        return tx_id in self.entries

    def submit(self, chain: "SimChain", tx: Transaction) -> SubmitResult:
        tid = txid(tx)
        if tid in self.entries:
            return SubmitResult(tid, False, reason=REASON_DUPLICATE)
        for txin in tx.inputs:
            if txin.outpoint in self._claimed:
                return SubmitResult(tid, False, reason=REASON_CONFLICT)
        verdict = chain.validate(tx)
        if not verdict:
            return SubmitResult(tid, False, reason=REASON_INVALID, invalid_reason=verdict.reason)
        decision = classify(tx, chain.policy)
        fee, size, seq = verdict.fee, tx_size(tx), self._next_seq
        self._next_seq = seq + 1
        self.entries[tid] = MempoolEntry(
            tx, tid, fee, size, chain.height, seq, decision, (-(fee / size), seq)
        )
        for txin in tx.inputs:
            self._claimed[txin.outpoint] = tid
        return SubmitResult(tid, True, decision)

    def candidates(self, include_nonstandard: bool) -> list[MempoolEntry]:
        """Entries a miner will consider, best fee rate first, FIFO on ties."""
        pool = [e for e in self.entries.values() if include_nonstandard or e.standard.standard]
        pool.sort(key=_rank)
        return pool

    def on_block(self, block: "Block", height: int) -> None:
        for tx in block.txs:
            self._remove(txid(tx))
        expired = []
        for tid, entry in self.entries.items():
            if height - entry.arrival_height < self.expiry_blocks:
                break  # every later arrival is at least as young
            expired.append(tid)
        for tid in expired:
            self._remove(tid)

    def _remove(self, tid: bytes) -> None:
        entry = self.entries.pop(tid, None)
        if entry is None:
            return
        for txin in entry.tx.inputs:
            self._claimed.pop(txin.outpoint, None)
