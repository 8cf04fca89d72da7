"""Hashrate-weighted block production.

One block per call: a winning miner is drawn with probability equal to
its hashrate share, then fills its block greedily by fee rate. Policy
compliance matters only here: a compliant miner never considers
nonstandard txs, which is what makes nonstandard inclusion a waiting
game rather than a validity question.

Blocks are filled from the pool without validating again, because every
entry of the chain's own pool is valid at the next height:

- the pool validated it at submit against the confirmed UTXO set;
- `_claimed` refuses a second claim on an outpoint, so no two entries
  spend one output;
- this function is the only caller of `SimChain._apply_block` after
  genesis, so only pool entries spend confirmed outputs, and they leave
  the pool with their block;
- keys are only ever added to the registry, and `locktime` and
  `TimeLocked` validity only grow with height.

`tests/test_mempool_mining.py` checks every mined block of random
traffic by brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

from .chain import Block, SimChain
from .tx import Transaction

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
