"""Logarithmic market scoring rule: cost, price, and trade-charge math.

The automated market maker quotes every trade from the cost function
C(q) = b * ln(sum_i exp(q_i / b)).  A trade moving quantities from q to q'
costs C(q') - C(q), so total cost depends only on the net position (path
independence) and the maker's worst-case loss is bounded by C(q0), the
initial liquidity.

Everything here is pure float math over share quantities.  The ledger
layer converts charges to integer coin units at its own boundary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["cost", "prices", "charge"]


def _check_b(b: float) -> None:
    if not b > 0:
        raise ValueError("liquidity parameter b must be positive")


def cost(q: Sequence[float], b: float) -> float:
    """C(q) = b * ln(sum exp(q_i / b)), evaluated without overflow."""
    _check_b(b)
    if not q:
        raise ValueError("market needs at least one outcome state")
    scaled = [qi / b for qi in q]
    top = max(scaled)
    # log-sum-exp with the max factored out: every exp argument is <= 0
    return b * (top + math.log(math.fsum(math.exp(s - top) for s in scaled)))


def prices(q: Sequence[float], b: float) -> tuple[float, ...]:
    """Instantaneous price of every state; a softmax of q/b, summing to 1."""
    _check_b(b)
    if not q:
        raise ValueError("market needs at least one outcome state")
    scaled = [qi / b for qi in q]
    top = max(scaled)
    weights = [math.exp(s - top) for s in scaled]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def charge(q: Sequence[float], b: float, state: int, delta: float) -> float:
    """Cost of moving one state's quantity by delta shares.

    Positive for buys, negative for sells (a refund to the trader).
    """
    after = list(q)
    after[state] += delta
    return cost(after, b) - cost(q, b)
