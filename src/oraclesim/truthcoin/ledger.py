"""Two-coin side ledger, decisions, ballots, and the vote consensus rule.

Coin amounts are integer base units (10**8 per CSH or VTC) so conservation
checks are exact.  CSH is minted by peg-in and burned by peg-out; VTC supply
never changes, it only moves between holders through vote resolution.

The consensus rule is stake-weighted: binary outcomes by weighted majority,
scalar outcomes by weighted median.  Each voter is then slashed in
proportion to the distance between their report and the outcome, and the
slashed stake is redistributed to the remaining voters by accuracy weight
with largest-remainder rounding, so the VTC total is unchanged down to the
last base unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from ..codec import Writer, sha256

COIN = 10**8  # base units per CSH and per VTC


class TruthcoinError(Exception):
    """Base for side-ledger rule violations."""


class InsufficientCSHError(TruthcoinError):
    pass


class InsufficientVTCError(TruthcoinError):
    pass


class InsufficientSharesError(TruthcoinError):
    pass


class PastMaturityError(TruthcoinError):
    pass


class TradingClosedError(TruthcoinError):
    pass


class CommitClosedError(TruthcoinError):
    pass


class RevealClosedError(TruthcoinError):
    pass


class RevealMismatchError(TruthcoinError):
    pass


class RevealOpenError(TruthcoinError):
    pass


class WindowOpenError(TruthcoinError):
    pass


class NotConfirmedError(TruthcoinError):
    pass


class StateError(TruthcoinError):
    pass


# ---------------------------------------------------------------- decisions


@dataclass(frozen=True)
class Binary:
    """Outcome reported as exactly 0 or 1."""

    def in_range(self, report: float) -> bool:
        return report == 0.0 or report == 1.0

    def distance(self, report: float, outcome: float) -> Fraction:
        return abs(Fraction(report) - Fraction(outcome))

    def payoff(self, outcome: float) -> float:
        # fraction of one CSH paid per share on the yes branch
        return outcome


@dataclass(frozen=True)
class Scalar:
    """Outcome reported anywhere in [xmin, xmax]."""

    xmin: float
    xmax: float

    def __post_init__(self) -> None:
        if not self.xmin < self.xmax:
            raise ValueError("scalar bounds must satisfy xmin < xmax")

    def in_range(self, report: float) -> bool:
        return self.xmin <= report <= self.xmax

    def distance(self, report: float, outcome: float) -> Fraction:
        span = Fraction(self.xmax) - Fraction(self.xmin)
        return abs(Fraction(report) - Fraction(outcome)) / span

    def payoff(self, outcome: float) -> float:
        return (outcome - self.xmin) / (self.xmax - self.xmin)


DecisionKind = Binary | Scalar


class DecisionState(Enum):
    OPEN = "open"
    OBSERVABLE = "observable"
    MATURE = "mature"
    RESOLVED = "resolved"
    REVOTE = "revote"
    CONFIRMED = "confirmed"


@dataclass
class Decision:
    decision_id: str
    author: str
    prompt: str
    kind: DecisionKind
    maturity_time: int
    state: DecisionState = DecisionState.OPEN
    outcome: float | None = None
    # set when the outcome 0.5 came from a failed quorum or an exact tie
    unresolvable: bool = False


# ------------------------------------------------------------------ markets


@dataclass
class Market:
    """LMSR market over the product of its decisions' branches.

    States are indexed by the binary expansion of the branch tuple: with
    decisions (d1, .., dk), state s selects branch (s >> (k-1-i)) & 1 of
    decision i, so for one decision state 0 is no/short and state 1 is
    yes/long.
    """

    market_id: str
    author: str
    decision_ids: tuple[str, ...]
    b: float
    fee_rate: float
    q: list[float]
    collateral: int  # CSH base units backing redemptions
    holdings: dict[str, dict[int, float]] = field(default_factory=dict)

    def shares_of(self, holder: str, state: int) -> float:
        return self.holdings.get(holder, {}).get(state, 0.0)

    def branch(self, state: int, position: int) -> int:
        return (state >> (len(self.decision_ids) - 1 - position)) & 1


# ------------------------------------------------------------------ ballots


class BallotPhase(Enum):
    COMMIT = "commit"
    REVEAL = "reveal"
    TALLY = "tally"
    RESOLVED = "resolved"
    CONFIRMED = "confirmed"
    REVOTE = "revote"


@dataclass
class VoteRecord:
    stake: int
    commitment: bytes | None = None
    reveal: dict[str, float] | None = None


@dataclass
class Ballot:
    period: int
    decision_ids: tuple[str, ...]
    phase: BallotPhase = BallotPhase.COMMIT
    votes: dict[str, VoteRecord] = field(default_factory=dict)
    outcomes: dict[str, float] = field(default_factory=dict)
    resolved_time: int | None = None
    window_start: int | None = None  # height of the first veto-window block
    reballoted: bool = False


@dataclass(frozen=True)
class SideBlock:
    height: int
    miner_id: str
    veto_flags: frozenset[int] = frozenset()


class VetoOutcome(Enum):
    CONFIRMED = "confirmed"
    REVOTE = "revote"


def commitment_digest(reports: Mapping[str, float], salt: bytes) -> bytes:
    """Binding commitment to a report set: H(canonical reports || salt)."""
    w = Writer()
    w.u32(len(reports))
    for decision_id in sorted(reports):
        w.string(decision_id)
        w.f64(reports[decision_id])
    w.bytes(salt)
    return sha256(w.getvalue())


# ----------------------------------------------------------------- side ledger


@dataclass
class SideLedger:
    csh: dict[str, int] = field(default_factory=dict)
    vtc: dict[str, int] = field(default_factory=dict)
    frozen_vtc: dict[str, int] = field(default_factory=dict)

    def mint_csh(self, address: str, amount: int) -> None:
        if amount < 0:
            raise ValueError("amount must be nonnegative")
        self.csh[address] = self.csh.get(address, 0) + amount

    def debit_csh(self, address: str, amount: int) -> None:
        if amount < 0:
            raise ValueError("amount must be nonnegative")
        have = self.csh.get(address, 0)
        if have < amount:
            raise InsufficientCSHError(f"{address} holds {have}, needs {amount}")
        self.csh[address] = have - amount

    def credit_csh(self, address: str, amount: int) -> None:
        self.mint_csh(address, amount)

    def freeze_vtc(self, address: str, amount: int) -> None:
        if amount < 0:
            raise ValueError("amount must be nonnegative")
        have = self.vtc.get(address, 0)
        if have < amount:
            raise InsufficientVTCError(f"{address} holds {have}, needs {amount}")
        self.vtc[address] = have - amount
        self.frozen_vtc[address] = self.frozen_vtc.get(address, 0) + amount

    def unfreeze_vtc(self, address: str, amount: int) -> None:
        have = self.frozen_vtc.get(address, 0)
        if have < amount:
            raise InsufficientVTCError(f"{address} has {have} frozen, needs {amount}")
        self.frozen_vtc[address] = have - amount
        self.vtc[address] = self.vtc.get(address, 0) + amount

    def vtc_supply(self) -> int:
        return sum(self.vtc.values()) + sum(self.frozen_vtc.values())

    def csh_held(self) -> int:
        return sum(self.csh.values())


# ------------------------------------------------------------- consensus math


def weighted_binary_outcome(votes: Sequence[tuple[int, float]]) -> float | None:
    """Stake-weighted majority over {0, 1} reports; None on an exact tie."""
    ones = sum(stake for stake, report in votes if report == 1.0)
    zeros = sum(stake for stake, report in votes if report == 0.0)
    if ones > zeros:
        return 1.0
    if zeros > ones:
        return 0.0
    return None


def weighted_median(votes: Sequence[tuple[int, float]]) -> float:
    """Smallest reported value v with stake(report <= v) >= half the total."""
    if not votes:
        raise ValueError("no votes to take a median of")
    total = sum(stake for stake, _ in votes)
    acc = 0
    ordered = sorted(votes, key=lambda sv: sv[1])
    for stake, value in ordered:
        acc += stake
        if 2 * acc >= total:
            return value
    return ordered[-1][1]


def apportion(total: int, weights: Sequence[Fraction]) -> list[int]:
    """Split an integer amount by weights with no unit lost to rounding.

    Floor each ideal share, then hand the leftover units to the largest
    fractional remainders (index order breaks ties), so the parts always
    sum to exactly `total`.
    """
    if total == 0:
        return [0] * len(weights)
    denom = sum(weights)
    if denom <= 0:
        raise ValueError("weights must sum to a positive value")
    ideal = [Fraction(total) * w / denom for w in weights]
    parts = [int(x) for x in ideal]
    leftover = total - sum(parts)
    order = sorted(range(len(weights)), key=lambda i: (-(ideal[i] - parts[i]), i))
    for i in order[:leftover]:
        parts[i] += 1
    return parts


@dataclass(frozen=True)
class Resolution:
    outcomes: dict[str, float]  # decision id -> resolved value
    unresolvable: set[str]  # decisions below quorum or exactly tied
    distances: dict[str, Fraction]  # voter -> mean report distance
    stake_deltas: dict[str, int]  # voter -> net frozen-stake change, sums to 0


def resolve_votes(
    decisions: Sequence[Decision],
    votes: Mapping[str, VoteRecord],
    total_vtc: int,
    *,
    quorum: float = 0.5,
    severity: float = 1.0,
) -> Resolution:
    """Resolve every decision on a ballot and compute the stake reallocation.

    Per decision: reports are the revealed in-range values of staked voters.
    If their stake is under `quorum` of the whole VTC supply the decision is
    unresolvable (outcome 0.5, contributes nothing to slashing).  Otherwise
    the outcome is the weighted majority (binary) or weighted median
    (scalar), and every voter's distance for that decision is |report -
    outcome| / range, with a missing or out-of-range report counting as
    distance 1.

    Slashing: with D_i the voter's mean distance over the decisions that
    resolved, stake_i * D_i * severity is slashed (floored to base units)
    and the pooled amount is redistributed proportionally to
    stake_i * (1 - D_i) via largest-remainder rounding, so the deltas sum
    to exactly zero.
    """
    outcomes: dict[str, float] = {}
    unresolvable: set[str] = set()
    per_voter: dict[str, list[Fraction]] = {voter: [] for voter in votes}
    quorum_stake = Fraction(quorum) * total_vtc

    for decision in decisions:
        valid = []
        for voter, record in votes.items():
            if record.stake <= 0 or record.reveal is None:
                continue
            report = record.reveal.get(decision.decision_id)
            if report is not None and decision.kind.in_range(report):
                valid.append((record.stake, report))
        participating = sum(stake for stake, _ in valid)
        if not valid or participating < quorum_stake:
            outcomes[decision.decision_id] = 0.5
            unresolvable.add(decision.decision_id)
            continue
        if isinstance(decision.kind, Binary):
            outcome = weighted_binary_outcome(valid)
            if outcome is None:
                outcomes[decision.decision_id] = 0.5
                unresolvable.add(decision.decision_id)
                continue
        else:
            outcome = weighted_median(valid)
        outcomes[decision.decision_id] = outcome
        for voter, record in votes.items():
            report = None if record.reveal is None else record.reveal.get(decision.decision_id)
            if report is None or not decision.kind.in_range(report):
                per_voter[voter].append(Fraction(1))
            else:
                per_voter[voter].append(decision.kind.distance(report, outcome))

    voters = sorted(votes)
    deltas = {voter: 0 for voter in voters}
    resolved_count = len(decisions) - len(unresolvable)
    if resolved_count == 0:
        return Resolution(outcomes, unresolvable, {v: Fraction(0) for v in voters}, deltas)

    distances = {
        voter: sum(per_voter[voter], Fraction(0)) / resolved_count for voter in voters
    }
    sev = Fraction(severity)
    slashes = {
        voter: min(int(votes[voter].stake * distances[voter] * sev), votes[voter].stake)
        for voter in voters
    }
    pool = sum(slashes.values())
    weights = [votes[voter].stake * (1 - distances[voter]) for voter in voters]
    if pool > 0 and sum(weights) > 0:
        shares = apportion(pool, weights)
        for voter, share in zip(voters, shares):
            deltas[voter] = share - slashes[voter]
    return Resolution(outcomes, unresolvable, distances, deltas)


def evaluate_veto(period: int, window_blocks: Sequence[SideBlock], window: int) -> VetoOutcome:
    """Strictly more than half the window's blocks must flag the ballot."""
    if len(window_blocks) < window:
        raise WindowOpenError(
            f"veto window has {len(window_blocks)} of {window} blocks"
        )
    flagged = sum(1 for block in window_blocks[:window] if period in block.veto_flags)
    if 2 * flagged > window:
        return VetoOutcome.REVOTE
    return VetoOutcome.CONFIRMED
