"""Chain state: blocks, the UTXO set, and block application.

The chain owns the key registry, the standardness policy, and the mempool.
There are no reorgs, no difficulty, and no coinbase: value enters at the
genesis allocation and only ever decreases by fees (burned) or by being
locked behind unspendable scripts.

`chain.utxo` is read-only outside `_apply_block`.  That method is the only
place the UTXO set changes, and it keeps two indexes beside it: the
pay-to-key coins of each owner and each owner's running balance, which
`utxos_for` and `balance` read without scanning the set.

`serialize_block` writes the header, then each transaction's bytes as kept
when its txid was taken, so a block never encodes a transaction again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..codec import Writer, sha256
from .keys import KeyRegistry
from .mempool import Mempool, SubmitResult
from .policy import POLICY_V090, StandardnessPolicy
from .script import PayToKey
from .tx import Transaction, TxOutput, _serialized, txid
from .validate import ValidationResult, validate_tx

GENESIS_PARENT = bytes(32)


@dataclass(frozen=True)
class Block:
    height: int
    miner_id: str
    txs: tuple[Transaction, ...]
    parent: bytes

    _hash = None  # memoised by block_hash; not a dataclass field


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
        # pay-to-key outpoints per owner pub, and their summed value
        self._coins: dict[bytes, dict[tuple[bytes, int], TxOutput]] = {}
        self._balances: dict[bytes, int] = {}
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
        coins = self._coins.get(pub)
        if coins is None:
            return []
        return [(op, coins[op]) for op in sorted(coins)]

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
        coins, balances = self._coins, self._balances
        for tx in block.txs:
            tid = txid(tx)
            for txin in tx.inputs:
                out = self.utxo.pop(txin.outpoint)
                if isinstance(out.lock, PayToKey):
                    owner = out.lock.pub
                    owned = coins[owner]
                    del owned[txin.outpoint]
                    if owned:
                        balances[owner] -= out.value
                    else:
                        del coins[owner], balances[owner]
            for idx, out in enumerate(tx.outputs):
                outpoint = (tid, idx)
                self.utxo[outpoint] = out
                if isinstance(out.lock, PayToKey):
                    owner = out.lock.pub
                    coins.setdefault(owner, {})[outpoint] = out
                    balances[owner] = balances.get(owner, 0) + out.value
            self.txs_by_id[tid] = tx
        self.blocks.append(block)
        self.mempool.on_block(block, self.height)
