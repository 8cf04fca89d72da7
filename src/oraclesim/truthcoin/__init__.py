"""Truthcoin's sidechain: a two-coin ledger, LMSR markets, commit/reveal
voting with stake redistribution, and the miner veto window.

Coin amounts are integer base units (10**8 per CSH or VTC) so conservation
checks are exact.  CSH is minted by peg-in and burned by peg-out; VTC supply
never changes, it only moves between holders through vote resolution.

The consensus rule is stake-weighted: binary outcomes by weighted majority,
scalar outcomes by weighted median.  Each voter is then slashed in
proportion to the distance between their report and the outcome, and the
slashed stake is redistributed to the remaining voters by accuracy weight
with largest-remainder rounding, so the VTC total is unchanged down to the
last base unit.

`TruthcoinSim` drives the ledger through the lifecycle of each decision:
open (trading) -> observable (the event happened) -> mature (collected into
a ballot) -> commit/reveal voting -> resolved -> waiting period -> miner
veto window -> confirmed (redeemable) or revote.

All CSH movements round in the market's favor (collect with ceil, pay with
floor) so a market's collateral always covers its redemptions.  A vetoed
ballot reverts outcomes only: stakes stay frozen and carry into the ballot
of the re-vote, where the voters must commit afresh.

The market maker's cost function stays in the submodule `lmsr`: it is pure
float math with no ledger in it, and the benchmark counts its calls under
`truthcoin.lmsr.cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from ..codec import pack_bytes, pack_f64, pack_u32, sha256
from . import lmsr

COIN = 10**8  # base units per CSH and per VTC


def _base_units(csh: float, rounding: Callable[[float], int]) -> int:
    """`csh` in base units, rounded by `rounding`; ValueError when not finite."""
    units = csh * COIN
    if not math.isfinite(units):
        raise ValueError(f"{csh} CSH has no amount in base units")
    return rounding(units)


class TruthcoinError(ValueError):
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
        if not (math.isfinite(self.xmin) and math.isfinite(self.xmax) and self.xmin < self.xmax):
            raise ValueError("scalar bounds must be finite and satisfy xmin < xmax")

    def in_range(self, report: float) -> bool:
        return self.xmin <= report <= self.xmax

    def distance(self, report: float, outcome: float) -> Fraction:
        span = Fraction(self.xmax) - Fraction(self.xmin)
        return abs(Fraction(report) - Fraction(outcome)) / span

    def payoff(self, outcome: float) -> float:
        # in Fraction, as `distance`: the float span overflows past the float range
        span = Fraction(self.xmax) - Fraction(self.xmin)
        return float((Fraction(outcome) - Fraction(self.xmin)) / span)


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
    parts = [pack_u32(len(reports))]
    for decision_id in sorted(reports):
        parts += (pack_bytes(decision_id.encode("utf-8")), pack_f64(reports[decision_id]))
    parts.append(pack_bytes(salt))
    return sha256(b"".join(parts))


# ----------------------------------------------------------------- side ledger


@dataclass
class SideLedger:
    csh: dict[str, int] = field(default_factory=dict)
    vtc: dict[str, int] = field(default_factory=dict)
    frozen_vtc: dict[str, int] = field(default_factory=dict)

    def credit_csh(self, address: str, amount: int) -> None:
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
        return Resolution(outcomes, unresolvable, deltas)

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
    return Resolution(outcomes, unresolvable, deltas)


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


# ------------------------------------------------------------------ simulation

WEEK_SECONDS = 7 * 24 * 3600
DEFAULT_QUORUM = 0.5
DEFAULT_SEVERITY = 1.0
DEFAULT_VETO_WINDOW = 100

_TRADABLE = (DecisionState.OPEN, DecisionState.OBSERVABLE)


class TruthcoinSim:
    """Single-threaded simulation of the two-coin prediction-market chain."""

    def __init__(
        self,
        vtc_allocation: dict[str, int],
        *,
        quorum: float = DEFAULT_QUORUM,
        severity: float = DEFAULT_SEVERITY,
        waiting_period: int = WEEK_SECONDS,
        veto_window: int = DEFAULT_VETO_WINDOW,
        now: int = 0,
    ) -> None:
        if any(amount < 0 for amount in vtc_allocation.values()):
            raise ValueError("VTC allocations must be nonnegative")
        if not 0 < quorum <= 1:
            raise ValueError("quorum must be in (0, 1]")
        if veto_window < 1:
            raise ValueError("veto window must be at least one block")
        if not (math.isfinite(severity) and severity >= 0):
            raise ValueError("severity must be finite and nonnegative")
        self.ledger = SideLedger(vtc=dict(vtc_allocation))
        self.quorum = quorum
        self.severity = severity
        self.waiting_period = waiting_period
        self.veto_window = veto_window
        self.now = now
        self.decisions: dict[str, Decision] = {}
        self.markets: dict[str, Market] = {}
        self.ballots: dict[int, Ballot] = {}
        self.side_blocks: list[SideBlock] = []

    # ------------------------------------------------------------- clock/peg

    def advance(self, seconds: int) -> None:
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds

    def peg_in(self, address: str, amount: int) -> None:
        """Mint CSH against coin locked on the host chain."""
        self.ledger.credit_csh(address, amount)

    def peg_out(self, address: str, amount: int) -> None:
        """Burn CSH, releasing the host-chain coin it was pegged to."""
        self.ledger.debit_csh(address, amount)

    def vtc_supply(self) -> int:
        return self.ledger.vtc_supply()

    def csh_supply(self) -> int:
        """All CSH in existence: balances plus market collateral.  An invariant
        probe for the books checks of `test_truthcoin.py`, `test_acceptance.py`
        and `test_harness.py`; the simulator itself never reads it."""
        return sum(self.ledger.csh.values()) + sum(m.collateral for m in self.markets.values())

    # -------------------------------------------------------------- decisions

    def add_decision(
        self, author: str, prompt: str, kind: DecisionKind, maturity_time: int
    ) -> Decision:
        if maturity_time <= self.now:
            raise PastMaturityError(f"maturity {maturity_time} is not after now {self.now}")
        decision_id = f"d-{len(self.decisions) + 1}"
        decision = Decision(decision_id, author, prompt, kind, maturity_time)
        self.decisions[decision_id] = decision
        return decision

    def mark_observable(self, decision_id: str) -> None:
        """Record that the decision's real-world event has occurred."""
        decision = self.decisions[decision_id]
        if decision.state is not DecisionState.OPEN:
            raise StateError(f"{decision_id} is {decision.state.value}, not open")
        decision.state = DecisionState.OBSERVABLE

    # ---------------------------------------------------------------- markets

    def add_market(
        self,
        author: str,
        decision_ids: tuple[str, ...] | list[str],
        b: float,
        fee_rate: float = 0.0,
    ) -> Market:
        if not decision_ids:
            raise ValueError("market needs at least one decision")
        if len(set(decision_ids)) < len(decision_ids):
            raise ValueError("market names a decision more than once")
        if not 0 <= fee_rate < 1:
            raise ValueError("fee rate must be in [0, 1)")
        for decision_id in decision_ids:
            decision = self.decisions[decision_id]
            if decision.state not in _TRADABLE:
                raise TradingClosedError(f"{decision_id} is already {decision.state.value}")
        states = 2 ** len(decision_ids)
        # author funds the maker's worst-case loss C(0) = b * ln(states)
        liquidity = _base_units(lmsr.cost([0.0] * states, b), math.ceil)
        self.ledger.debit_csh(author, liquidity)
        market_id = f"m-{len(self.markets) + 1}"
        market = Market(
            market_id=market_id,
            author=author,
            decision_ids=tuple(decision_ids),
            b=b,
            fee_rate=fee_rate,
            q=[0.0] * states,
            collateral=liquidity,
        )
        self.markets[market_id] = market
        return market

    def trade(self, market_id: str, trader: str, state: int, delta: float) -> int:
        """Buy (delta > 0) or sell (delta < 0) shares of one market state.

        Returns the trader's net CSH movement in base units: positive is
        paid in, negative is paid out.
        """
        market = self.markets[market_id]
        for decision_id in market.decision_ids:
            if self.decisions[decision_id].state not in _TRADABLE:
                raise TradingClosedError(f"{decision_id} is past trading")
        if not 0 <= state < len(market.q):
            raise IndexError(f"state {state} out of range")
        if delta == 0:
            raise ValueError("zero-share trade")
        held = market.shares_of(trader, state)
        if delta < 0 and held < -delta:
            raise InsufficientSharesError(f"{trader} holds {held}, sells {-delta}")
        raw = lmsr.charge(market.q, market.b, state, delta)
        if delta > 0:
            charge = _base_units(raw, math.ceil)
            fee = math.ceil(charge * market.fee_rate)
            self.ledger.debit_csh(trader, charge + fee)
            self.ledger.credit_csh(market.author, fee)
            market.collateral += charge
            moved = charge + fee
        else:
            refund = _base_units(-raw, math.floor)
            fee = math.floor(refund * market.fee_rate)
            market.collateral -= refund
            self.ledger.credit_csh(trader, refund - fee)
            self.ledger.credit_csh(market.author, fee)
            moved = -(refund - fee)
        market.q[state] += delta
        market.holdings.setdefault(trader, {})
        market.holdings[trader][state] = held + delta
        return moved

    # ---------------------------------------------------------------- voting

    def open_ballot(self) -> Ballot:
        """Collect every mature or re-vote decision into a new voting period."""
        mature = [
            d
            for d in self.decisions.values()
            if d.state in _TRADABLE and d.maturity_time <= self.now
        ]
        revote = [d for d in self.decisions.values() if d.state is DecisionState.REVOTE]
        if not mature and not revote:
            raise StateError("no decision is mature")
        period = len(self.ballots) + 1
        ballot = Ballot(
            period=period,
            decision_ids=tuple(sorted(d.decision_id for d in mature + revote)),
        )
        for decision in mature + revote:
            decision.state = DecisionState.MATURE
        # stakes from a vetoed ballot stay frozen and carry into the re-vote
        for old in self.ballots.values():
            if old.phase is BallotPhase.REVOTE and not old.reballoted:
                for voter, record in old.votes.items():
                    carried = ballot.votes.setdefault(voter, VoteRecord(stake=0))
                    carried.stake += record.stake
                old.reballoted = True
        self.ballots[period] = ballot
        return ballot

    def _ballot_in(self, period: int, phase: BallotPhase, error: type[TruthcoinError]) -> Ballot:
        """The ballot of `period`; raises `error` unless it is in `phase`."""
        ballot = self.ballots[period]
        if ballot.phase is not phase:
            raise error(f"ballot {period} is in {ballot.phase.value}")
        return ballot

    def commit_vote(self, voter: str, period: int, commitment: bytes, stake: int) -> None:
        ballot = self._ballot_in(period, BallotPhase.COMMIT, CommitClosedError)
        if len(commitment) != 32:
            raise ValueError("commitment must be 32 bytes")
        if stake < 0:
            raise ValueError("stake must be nonnegative")
        self.ledger.freeze_vtc(voter, stake)
        record = ballot.votes.setdefault(voter, VoteRecord(stake=0))
        record.stake += stake
        record.commitment = commitment

    def close_commit(self, period: int) -> None:
        self._ballot_in(period, BallotPhase.COMMIT, StateError).phase = BallotPhase.REVEAL

    def reveal_vote(
        self, voter: str, period: int, reports: dict[str, float], salt: bytes
    ) -> None:
        ballot = self._ballot_in(period, BallotPhase.REVEAL, RevealClosedError)
        record = ballot.votes.get(voter)
        if record is None or record.commitment is None:
            raise StateError(f"{voter} has no commitment on ballot {period}")
        unknown = set(reports) - set(ballot.decision_ids)
        if unknown:
            raise ValueError(f"reports for decisions not on the ballot: {sorted(unknown)}")
        if commitment_digest(reports, salt) != record.commitment:
            raise RevealMismatchError(f"{voter}'s reveal does not match the commitment")
        record.reveal = dict(reports)

    def close_reveal(self, period: int) -> None:
        self._ballot_in(period, BallotPhase.REVEAL, StateError).phase = BallotPhase.TALLY

    def resolve_ballot(self, period: int) -> dict[str, float]:
        ballot = self.ballots[period]
        if ballot.phase in (BallotPhase.COMMIT, BallotPhase.REVEAL):
            raise RevealOpenError(f"ballot {period} is still in {ballot.phase.value}")
        self._ballot_in(period, BallotPhase.TALLY, StateError)
        decisions = [self.decisions[did] for did in ballot.decision_ids]
        resolution = resolve_votes(
            decisions,
            ballot.votes,
            self.ledger.vtc_supply(),
            quorum=self.quorum,
            severity=self.severity,
        )
        self._apply_resolution(ballot, decisions, resolution)
        return dict(resolution.outcomes)

    def _apply_resolution(
        self, ballot: Ballot, decisions: list[Decision], resolution: Resolution
    ) -> None:
        for voter, delta in resolution.stake_deltas.items():
            record = ballot.votes[voter]
            record.stake += delta
            frozen = self.ledger.frozen_vtc.get(voter, 0) + delta
            self.ledger.frozen_vtc[voter] = frozen
        for decision in decisions:
            decision.outcome = resolution.outcomes[decision.decision_id]
            decision.unresolvable = decision.decision_id in resolution.unresolvable
            decision.state = DecisionState.RESOLVED
        ballot.phase = BallotPhase.RESOLVED
        ballot.resolved_time = self.now
        ballot.window_start = None

    # ------------------------------------------------------------------ veto

    def mine_side_block(self, miner_id: str, veto: frozenset[int] | set[int] = frozenset()) -> SideBlock:
        height = len(self.side_blocks) + 1
        block = SideBlock(height=height, miner_id=miner_id, veto_flags=frozenset(veto))
        self.side_blocks.append(block)
        # the veto window opens with the first block after the waiting period
        for ballot in self.ballots.values():
            if (
                ballot.phase is BallotPhase.RESOLVED
                and ballot.window_start is None
                and ballot.resolved_time is not None
                and self.now >= ballot.resolved_time + self.waiting_period
            ):
                ballot.window_start = height
        return block

    def veto_result(self, period: int) -> VetoOutcome:
        ballot = self.ballots[period]
        if ballot.phase is BallotPhase.CONFIRMED:
            return VetoOutcome.CONFIRMED
        if ballot.phase is BallotPhase.REVOTE:
            return VetoOutcome.REVOTE
        if ballot.phase is not BallotPhase.RESOLVED:
            raise StateError(f"ballot {period} is in {ballot.phase.value}")
        if ballot.window_start is None:
            raise WindowOpenError(f"ballot {period} is still in its waiting period")
        window_blocks = [b for b in self.side_blocks if b.height >= ballot.window_start]
        outcome = evaluate_veto(period, window_blocks, self.veto_window)
        if outcome is VetoOutcome.CONFIRMED:
            for decision_id in ballot.decision_ids:
                self.decisions[decision_id].state = DecisionState.CONFIRMED
            for voter, record in ballot.votes.items():
                self.ledger.unfreeze_vtc(voter, record.stake)
            ballot.phase = BallotPhase.CONFIRMED
        else:
            for decision_id in ballot.decision_ids:
                decision = self.decisions[decision_id]
                decision.state = DecisionState.REVOTE
                decision.outcome = None
                decision.unresolvable = False
            ballot.phase = BallotPhase.REVOTE
        return outcome

    # ------------------------------------------------------------- redemption

    def redeem(self, market_id: str, holder: str) -> int:
        """Pay out every share the holder has in a fully confirmed market."""
        market = self.markets[market_id]
        branch_payoff = []
        for decision_id in market.decision_ids:
            decision = self.decisions[decision_id]
            if decision.state is not DecisionState.CONFIRMED:
                raise NotConfirmedError(f"{decision_id} is {decision.state.value}")
            if decision.unresolvable:
                branch_payoff.append(0.5)
            else:
                branch_payoff.append(decision.kind.payoff(decision.outcome))
        holdings = market.holdings.pop(holder, {})
        value = math.fsum(
            shares * self._state_payoff(market, state, branch_payoff)
            for state, shares in holdings.items()
        )
        payout = _base_units(value, math.floor)
        if payout > market.collateral:
            raise TruthcoinError(f"market {market_id} collateral exhausted")
        market.collateral -= payout
        self.ledger.credit_csh(holder, payout)
        return payout

    @staticmethod
    def _state_payoff(market: Market, state: int, branch_payoff: list[float]) -> float:
        value = 1.0
        for position, payoff in enumerate(branch_payoff):
            value *= payoff if market.branch(state, position) else 1.0 - payoff
        return value
