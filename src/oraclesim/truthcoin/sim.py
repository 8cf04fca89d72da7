"""Phase machine driving the side ledger through the full market lifecycle.

Lifecycle per decision: open (trading) -> observable (the event happened) ->
mature (collected into a ballot) -> commit/reveal voting -> resolved ->
waiting period -> miner veto window -> confirmed (redeemable) or revote.

All CSH movements round in the market's favor (collect with ceil, pay with
floor) so a market's collateral always covers its redemptions.  A vetoed
ballot reverts outcomes only: stakes stay frozen and carry into the ballot
of the re-vote, where the voters must commit afresh.
"""

from __future__ import annotations

import math

from . import lmsr
from .ledger import (
    COIN,
    Ballot,
    BallotPhase,
    CommitClosedError,
    Decision,
    DecisionKind,
    DecisionState,
    InsufficientSharesError,
    Market,
    NotConfirmedError,
    PastMaturityError,
    Resolution,
    RevealClosedError,
    RevealMismatchError,
    RevealOpenError,
    SideBlock,
    SideLedger,
    StateError,
    TradingClosedError,
    TruthcoinError,
    VetoOutcome,
    VoteRecord,
    WindowOpenError,
    commitment_digest,
    evaluate_veto,
    resolve_votes,
)

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
        self.ledger.mint_csh(address, amount)

    def peg_out(self, address: str, amount: int) -> None:
        """Burn CSH, releasing the host-chain coin it was pegged to."""
        self.ledger.debit_csh(address, amount)

    def vtc_supply(self) -> int:
        return self.ledger.vtc_supply()

    def csh_supply(self) -> int:
        """All CSH in existence: balances plus market collateral."""
        return self.ledger.csh_held() + sum(m.collateral for m in self.markets.values())

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
        if not 0 <= fee_rate < 1:
            raise ValueError("fee rate must be in [0, 1)")
        for decision_id in decision_ids:
            decision = self.decisions[decision_id]
            if decision.state not in _TRADABLE:
                raise TradingClosedError(f"{decision_id} is already {decision.state.value}")
        states = 2 ** len(decision_ids)
        # author funds the maker's worst-case loss C(0) = b * ln(states)
        liquidity = math.ceil(lmsr.cost([0.0] * states, b) * COIN)
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
            charge = math.ceil(raw * COIN)
            fee = math.ceil(charge * market.fee_rate)
            self.ledger.debit_csh(trader, charge + fee)
            self.ledger.credit_csh(market.author, fee)
            market.collateral += charge
            moved = charge + fee
        else:
            refund = math.floor(-raw * COIN)
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

    def commit_vote(self, voter: str, period: int, commitment: bytes, stake: int) -> None:
        ballot = self.ballots[period]
        if ballot.phase is not BallotPhase.COMMIT:
            raise CommitClosedError(f"ballot {period} is in {ballot.phase.value}")
        if len(commitment) != 32:
            raise ValueError("commitment must be 32 bytes")
        if stake < 0:
            raise ValueError("stake must be nonnegative")
        self.ledger.freeze_vtc(voter, stake)
        record = ballot.votes.setdefault(voter, VoteRecord(stake=0))
        record.stake += stake
        record.commitment = commitment

    def close_commit(self, period: int) -> None:
        ballot = self.ballots[period]
        if ballot.phase is not BallotPhase.COMMIT:
            raise StateError(f"ballot {period} is in {ballot.phase.value}")
        ballot.phase = BallotPhase.REVEAL

    def reveal_vote(
        self, voter: str, period: int, reports: dict[str, float], salt: bytes
    ) -> None:
        ballot = self.ballots[period]
        if ballot.phase is not BallotPhase.REVEAL:
            raise RevealClosedError(f"ballot {period} is in {ballot.phase.value}")
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
        ballot = self.ballots[period]
        if ballot.phase is not BallotPhase.REVEAL:
            raise StateError(f"ballot {period} is in {ballot.phase.value}")
        ballot.phase = BallotPhase.TALLY

    def resolve_ballot(self, period: int) -> dict[str, float]:
        ballot = self.ballots[period]
        if ballot.phase in (BallotPhase.COMMIT, BallotPhase.REVEAL):
            raise RevealOpenError(f"ballot {period} is still in {ballot.phase.value}")
        if ballot.phase is not BallotPhase.TALLY:
            raise StateError(f"ballot {period} is in {ballot.phase.value}")
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
        ballot.outcomes = dict(resolution.outcomes)
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
        payout = int(value * COIN)
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
