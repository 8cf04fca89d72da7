"""Chain state: blocks, the UTXO set, and block application.

The chain owns the key registry, the standardness policy, and the mempool.
There are no reorgs, no difficulty, and no coinbase: value enters at the
genesis allocation and only ever decreases by fees (burned) or by being
locked behind unspendable scripts.

`chain.utxo` is read-only outside `_apply_block`.  That method is the only
place the UTXO set changes, and it keeps indexes beside it: the pay-to-key
coins of each owner, each owner's running balance, and each owner's
outpoints in sorted order.  `utxos_for`, `balance` and coin selection read
them without scanning the set or sorting.  An owner's order is built on its
first read and kept from then on, so an owner nobody reads (a payer of
presigned transactions) costs no sorted insert or delete.

`serialize_block` writes the header, then each transaction's bytes as kept
when its txid was taken, so a block never encodes a transaction again.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Sequence

from ..codec import Writer, sha256
from .keys import KeyRegistry
from .mempool import Mempool, SubmitResult
from .policy import POLICY_V090, StandardnessPolicy
from .script import PayToKey
from .tx import Transaction, TxOutput, _serialized, txid
from .validate import ValidationResult, validate_tx

GENESIS_PARENT = bytes(32)


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    miner_id: str
    txs: tuple[Transaction, ...]
    parent: bytes

    # memoised by block_hash; a field only for its slot, as Transaction's memos
    _hash: bytes | None = field(default=None, init=False, repr=False, compare=False)


def serialize_block(block: Block) -> bytes:
    w = Writer()
    w.u64(block.height).string(block.miner_id).raw(block.parent)
    w.u32(len(block.txs))
    for tx in block.txs:
        w.raw(_serialized(tx))
    return w.getvalue()


def block_hash(block: Block) -> bytes:
    if block._hash is None:
        object.__setattr__(block, "_hash", sha256(serialize_block(block)))
    return block._hash


class SimChain:
    def __init__(
        self,
        policy: StandardnessPolicy = POLICY_V090,
        genesis: Sequence[TxOutput] = (),
        keys: KeyRegistry | None = None,
        expiry_blocks: int = 100,
    ) -> None:
        self.policy = policy
        self.keys = keys if keys is not None else KeyRegistry()
        self.mempool = Mempool(expiry_blocks=expiry_blocks)
        self.utxo: dict[tuple[bytes, int], TxOutput] = {}
        # pay-to-key outpoints per owner pub, their summed value, and the
        # outpoints in sorted order for each owner read since its coins appeared
        self._coins: dict[bytes, dict[tuple[bytes, int], TxOutput]] = {}
        self._balances: dict[bytes, int] = {}
        self._order: dict[bytes, list[tuple[bytes, int]]] = {}
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
        order, coins = self._owned(pub)
        return [(op, coins[op]) for op in order]

    def _owned(self, pub: bytes) -> tuple[list[tuple[bytes, int]], dict]:
        """The owner's pay-to-key outpoints in sorted order, and their outputs.

        Both are the chain's own, for reading only; the order is sorted on
        the owner's first read and kept by `_apply_block` after that.
        """
        coins = self._coins.get(pub)
        if coins is None:
            return [], {}
        order = self._order.get(pub)
        if order is None:
            order = self._order[pub] = sorted(coins)
        return order, coins

    def balance(self, pub: bytes) -> int:
        return self._balances.get(pub, 0)

    def supply(self) -> int:
        return sum(out.value for out in self.utxo.values())

    def output_at(self, outpoint: tuple[bytes, int]) -> TxOutput | None:
        """Output for an outpoint, spent or not; None if the tx is unknown."""
        tx = self.txs_by_id.get(outpoint[0])
        if tx is None or outpoint[1] >= len(tx.outputs):
            return None
        return tx.outputs[outpoint[1]]

    def is_confirmed(self, tx_id: bytes) -> bool:
        return tx_id in self.txs_by_id

    def validate(self, tx: Transaction) -> ValidationResult:
        """Validity if the tx were included at the next height."""
        return validate_tx(tx, self.utxo, self.height + 1, self.keys)

    # --- state transitions --------------------------------------------------

    def submit(self, tx: Transaction) -> SubmitResult:
        return self.mempool.submit(self, tx)

    def mine_next(self, miners, rng) -> Block:
        from .mining import mine_next

        return mine_next(self, miners, rng)

    def _apply_block(self, block: Block) -> None:
        coins, balances, orders = self._coins, self._balances, self._order
        for tx in block.txs:
            tid = txid(tx)
            for txin in tx.inputs:
                outpoint = txin.outpoint
                out = self.utxo.pop(outpoint)
                if isinstance(out.lock, PayToKey):
                    owner = out.lock.pub
                    owned = coins[owner]
                    del owned[outpoint]
                    if owned:
                        balances[owner] -= out.value
                        order = orders.get(owner)
                        if order is not None:
                            del order[bisect_left(order, outpoint)]
                    else:
                        del coins[owner], balances[owner]
                        orders.pop(owner, None)
            for idx, out in enumerate(tx.outputs):
                outpoint = (tid, idx)
                self.utxo[outpoint] = out
                if isinstance(out.lock, PayToKey):
                    owner = out.lock.pub
                    coins.setdefault(owner, {})[outpoint] = out
                    balances[owner] = balances.get(owner, 0) + out.value
                    order = orders.get(owner)
                    if order is not None:
                        insort(order, outpoint)
            self.txs_by_id[tid] = tx
        self.blocks.append(block)
        self.mempool.on_block(block, self.height)
