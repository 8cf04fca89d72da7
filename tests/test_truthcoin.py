"""Prediction-market sidechain: LMSR math, vote consensus, veto, redemption."""

import math
import random
from fractions import Fraction

import pytest

from oraclesim.truthcoin import (
    COIN,
    BallotPhase,
    Binary,
    CommitClosedError,
    Decision,
    DecisionState,
    InsufficientCSHError,
    InsufficientSharesError,
    InsufficientVTCError,
    NotConfirmedError,
    PastMaturityError,
    RevealClosedError,
    RevealMismatchError,
    RevealOpenError,
    Scalar,
    SideBlock,
    StateError,
    TradingClosedError,
    TruthcoinSim,
    VetoOutcome,
    VoteRecord,
    WindowOpenError,
    apportion,
    commitment_digest,
    evaluate_veto,
    lmsr,
    resolve_votes,
    weighted_binary_outcome,
    weighted_median,
)

import test_formats as ref


def prices(q, b):
    """Instantaneous LMSR price of every state: a softmax of q/b, summing to 1."""
    if not b > 0:
        raise ValueError("liquidity parameter b must be positive")
    if not q:
        raise ValueError("market needs at least one outcome state")
    scaled = [qi / b for qi in q]
    top = max(scaled)
    weights = [math.exp(s - top) for s in scaled]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


# independently recomputed at 60-digit precision: 100 * (ln(e^0.1 + 1) - ln 2)
TEN_SHARE_CHARGE = 5.124947951362558
# ceil(100 * ln(2) * 10^8)
BINARY_LIQUIDITY_UNITS = 6_931_471_806


# ----------------------------------------------------------------- lmsr math


def test_ten_share_charge_matches_reference():
    got = lmsr.charge((0.0, 0.0), 100.0, 1, 10.0)
    assert got == pytest.approx(TEN_SHARE_CHARGE, rel=1e-12)
    direct = 100.0 * (math.log(math.exp(0.1) + 1.0) - math.log(2.0))
    assert got == pytest.approx(direct, abs=1e-12)


def test_empty_market_prices_are_even():
    assert prices((0.0, 0.0), 100.0) == (0.5, 0.5)
    assert prices((0.0, 0.0, 0.0, 0.0), 7.0)[2] == pytest.approx(0.25)


def test_prices_sum_to_one_everywhere():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        b = rng.uniform(0.5, 500.0)
        q = [rng.uniform(0.0, 1e6) for _ in range(n)]
        p = prices(q, b)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= x <= 1.0 for x in p)


def test_cost_never_decreases_as_quantities_grow():
    rng = random.Random(12)
    for _ in range(100):
        q = [rng.uniform(0.0, 50.0) for _ in range(3)]
        b = rng.uniform(1.0, 200.0)
        base = lmsr.cost(q, b)
        i = rng.randrange(3)
        grown = list(q)
        grown[i] += rng.uniform(0.1, 10.0)
        assert lmsr.cost(grown, b) >= base


def test_path_independence_of_total_cost():
    rng = random.Random(13)
    b = 75.0
    trades = [(rng.randrange(3), rng.uniform(0.5, 20.0)) for _ in range(30)]
    for order in (trades, sorted(trades), list(reversed(trades))):
        q = [0.0, 0.0, 0.0]
        total = 0.0
        for state, delta in order:
            total += lmsr.charge(q, b, state, delta)
            q[state] += delta
        net = [0.0, 0.0, 0.0]
        for state, delta in trades:
            net[state] += delta
        direct = lmsr.cost(net, b) - lmsr.cost([0.0, 0.0, 0.0], b)
        assert total == pytest.approx(direct, abs=1e-9)


def test_extreme_quantities_do_not_overflow():
    # naive exp(q/b) would overflow at q/b = 1e5
    c = lmsr.cost([1e7, 0.0], 100.0)
    assert math.isfinite(c)
    assert c == pytest.approx(1e7, rel=1e-9)
    p = prices([1e7, 0.0], 100.0)
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-12)


def test_lmsr_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lmsr.cost([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        lmsr.cost([0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        lmsr.cost([], 10.0)


# ------------------------------------------------------------ consensus math


def test_weighted_majority_and_tie():
    assert weighted_binary_outcome([(60, 1.0), (40, 0.0)]) == 1.0
    assert weighted_binary_outcome([(40, 1.0), (60, 0.0)]) == 0.0
    assert weighted_binary_outcome([(50, 1.0), (50, 0.0)]) is None
    assert weighted_binary_outcome([]) is None


def test_weighted_median_minimizes_weighted_distance():
    def l1(votes, v):
        return sum(Fraction(s) * abs(Fraction(r) - Fraction(v)) for s, r in votes)

    rng = random.Random(14)
    for _ in range(100):
        votes = [
            (rng.randint(1, 100), float(rng.randint(0, 20)))
            for _ in range(rng.randint(1, 7))
        ]
        got = weighted_median(votes)
        candidates = sorted({r for _, r in votes})
        best = min(l1(votes, c) for c in candidates)
        argmin = [c for c in candidates if l1(votes, c) == best]
        assert got == min(argmin)


def test_apportion_is_exact():
    assert apportion(100, [Fraction(1), Fraction(1), Fraction(1)]) == [34, 33, 33]
    assert apportion(10, [Fraction(3), Fraction(1)]) == [8, 2]
    assert apportion(0, [Fraction(5)]) == [0]
    rng = random.Random(15)
    for _ in range(100):
        total = rng.randint(0, 10**12)
        weights = [Fraction(rng.randint(0, 50)) for _ in range(rng.randint(1, 8))]
        if sum(weights) == 0:
            continue
        parts = apportion(total, weights)
        assert sum(parts) == total
        denom = sum(weights)
        for part, w in zip(parts, weights):
            ideal = Fraction(total) * w / denom
            assert abs(Fraction(part) - ideal) < 1


def _decision(kind=None):
    return Decision("d-1", "ann", "did it happen", kind or Binary(), 10)


def test_majority_slash_worked_example():
    votes = {
        "ann": VoteRecord(stake=60 * COIN, commitment=b"\0" * 32, reveal={"d-1": 1.0}),
        "bert": VoteRecord(stake=40 * COIN, commitment=b"\0" * 32, reveal={"d-1": 0.0}),
    }
    res = resolve_votes([_decision()], votes, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 1.0}
    assert not res.unresolvable
    # the whole minority stake moves to the majority, total unchanged
    assert res.stake_deltas == {"ann": 40 * COIN, "bert": -40 * COIN}
    assert sum(res.stake_deltas.values()) == 0


def test_identical_reports_slash_nothing():
    votes = {
        "ann": VoteRecord(stake=60 * COIN, commitment=b"\0" * 32, reveal={"d-1": 1.0}),
        "bert": VoteRecord(stake=40 * COIN, commitment=b"\0" * 32, reveal={"d-1": 1.0}),
    }
    res = resolve_votes([_decision()], votes, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 1.0}
    assert res.stake_deltas == {"ann": 0, "bert": 0}


def test_quorum_boundary():
    half = {"ann": VoteRecord(stake=50 * COIN, commitment=b"\0" * 32, reveal={"d-1": 0.0})}
    res = resolve_votes([_decision()], half, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 0.0}  # exactly 50% participates: resolves

    short = {
        "ann": VoteRecord(stake=50 * COIN - 1, commitment=b"\0" * 32, reveal={"d-1": 0.0})
    }
    res = resolve_votes([_decision()], short, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 0.5}
    assert res.unresolvable == {"d-1"}
    assert res.stake_deltas == {"ann": 0}


def test_exact_tie_is_unresolvable():
    votes = {
        "ann": VoteRecord(stake=50 * COIN, commitment=b"\0" * 32, reveal={"d-1": 1.0}),
        "bert": VoteRecord(stake=50 * COIN, commitment=b"\0" * 32, reveal={"d-1": 0.0}),
    }
    res = resolve_votes([_decision()], votes, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 0.5}
    assert res.unresolvable == {"d-1"}
    assert res.stake_deltas == {"ann": 0, "bert": 0}


def test_out_of_range_report_is_fully_slashed():
    votes = {
        "ann": VoteRecord(stake=60 * COIN, commitment=b"\0" * 32, reveal={"d-1": 1.0}),
        "bert": VoteRecord(stake=40 * COIN, commitment=b"\0" * 32, reveal={"d-1": 0.7}),
    }
    res = resolve_votes([_decision()], votes, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 1.0}  # 0.7 is not a binary report
    assert res.stake_deltas == {"ann": 40 * COIN, "bert": -40 * COIN}


def test_missing_reveal_is_fully_slashed():
    votes = {
        "ann": VoteRecord(stake=60 * COIN, commitment=b"\0" * 32, reveal={"d-1": 1.0}),
        "bert": VoteRecord(stake=40 * COIN, commitment=b"\0" * 32, reveal=None),
    }
    res = resolve_votes([_decision()], votes, total_vtc=100 * COIN)
    assert res.stake_deltas == {"ann": 40 * COIN, "bert": -40 * COIN}


def test_scalar_resolution_exact_redistribution():
    kind = Scalar(0.0, 100.0)
    votes = {
        "ann": VoteRecord(stake=30 * COIN, commitment=b"\0" * 32, reveal={"d-1": 10.0}),
        "bert": VoteRecord(stake=20 * COIN, commitment=b"\0" * 32, reveal={"d-1": 20.0}),
        "cara": VoteRecord(stake=50 * COIN, commitment=b"\0" * 32, reveal={"d-1": 15.0}),
    }
    res = resolve_votes([_decision(kind)], votes, total_vtc=100 * COIN)
    assert res.outcomes == {"d-1": 15.0}  # weighted median
    # hand-worked: distances 1/20, 1/20, 0; slashes 150e6 and 100e6; the
    # 250e6 pool splits 57:38:100 with the leftover unit on the largest
    # remainder (bert)
    assert res.stake_deltas == {
        "ann": 73_076_923 - 150_000_000,
        "bert": 48_717_949 - 100_000_000,
        "cara": 128_205_128,
    }
    assert sum(res.stake_deltas.values()) == 0


def test_majority_stake_dictates_binary_outcome():
    rng = random.Random(16)
    for _ in range(100):
        report = float(rng.randint(0, 1))
        votes = {"whale": VoteRecord(stake=51 * COIN, commitment=b"\0" * 32,
                                     reveal={"d-1": report})}
        budget = 49 * COIN
        for i in range(rng.randint(1, 4)):
            stake = rng.randint(0, budget)
            budget -= stake
            votes[f"v{i}"] = VoteRecord(
                stake=stake, commitment=b"\0" * 32,
                reveal={"d-1": float(rng.randint(0, 1))},
            )
        res = resolve_votes([_decision()], votes, total_vtc=100 * COIN)
        assert res.outcomes["d-1"] == report


def test_resolution_conserves_stake_exactly():
    rng = random.Random(17)
    for _ in range(60):
        kind = Scalar(-5.0, 5.0) if rng.random() < 0.5 else Binary()
        decisions = [Decision(f"d-{i}", "ann", "?", kind, 10) for i in range(rng.randint(1, 3))]
        votes = {}
        for i in range(rng.randint(1, 6)):
            reveal = None
            if rng.random() < 0.8:
                reveal = {}
                for d in decisions:
                    roll = rng.random()
                    if roll < 0.2:
                        continue  # skips this decision
                    if roll < 0.3:
                        reveal[d.decision_id] = 99.0  # out of range either way
                    elif isinstance(kind, Binary):
                        reveal[d.decision_id] = float(rng.randint(0, 1))
                    else:
                        reveal[d.decision_id] = rng.uniform(-5.0, 5.0)
            votes[f"v{i}"] = VoteRecord(
                stake=rng.randint(0, 30 * COIN), commitment=b"\0" * 32, reveal=reveal
            )
        total = sum(v.stake for v in votes.values()) + rng.randint(0, 10 * COIN)
        res = resolve_votes(decisions, votes, total_vtc=total)
        assert sum(res.stake_deltas.values()) == 0
        for voter, record in votes.items():
            assert record.stake + res.stake_deltas[voter] >= 0
        for d in decisions:
            if isinstance(kind, Scalar) and d.decision_id not in res.unresolvable:
                assert -5.0 <= res.outcomes[d.decision_id] <= 5.0


def test_commitment_digest_layout():
    reports = {"d-2": 1.0, "d-1": 0.5}
    salt = b"pepper"
    assert commitment_digest(reports, salt) == ref.commitment(reports, salt)
    # the reports go in sorted order, whatever the mapping's order
    assert commitment_digest({"d-1": 0.5, "d-2": 1.0}, salt) == commitment_digest(reports, salt)
    assert commitment_digest(reports, b"other") != commitment_digest(reports, salt)
    assert commitment_digest({"d-1": 0.5}, salt) != commitment_digest(reports, salt)


# ------------------------------------------------------------------ the veto


def _blocks(n, flagged, period=1):
    return [
        SideBlock(height=i + 1, miner_id="m1",
                  veto_flags=frozenset({period} if i < flagged else set()))
        for i in range(n)
    ]


def test_veto_needs_strict_majority():
    assert evaluate_veto(1, _blocks(100, 51), 100) is VetoOutcome.REVOTE
    assert evaluate_veto(1, _blocks(100, 50), 100) is VetoOutcome.CONFIRMED
    assert evaluate_veto(1, _blocks(100, 0), 100) is VetoOutcome.CONFIRMED
    with pytest.raises(WindowOpenError):
        evaluate_veto(1, _blocks(99, 99), 100)


def test_veto_ignores_blocks_past_the_window():
    blocks = _blocks(100, 50) + _blocks(30, 30)  # extra flagged blocks after
    assert evaluate_veto(1, blocks, 100) is VetoOutcome.CONFIRMED


# ------------------------------------------------------------ sim lifecycle


def make_sim(**kwargs):
    alloc = kwargs.pop("alloc", {"ann": 60 * COIN, "bert": 40 * COIN})
    kwargs.setdefault("waiting_period", 0)
    return TruthcoinSim(alloc, **kwargs)


def _vote(sim, period, voter, stake, reports, salt=b"s"):
    sim.commit_vote(voter, period, commitment_digest(reports, salt), stake)
    return reports, salt


def test_full_binary_lifecycle():
    sim = make_sim()
    sim.peg_in("trader", 100 * COIN)
    sim.peg_in("ann", 70 * COIN)
    csh_before = sim.csh_supply()
    vtc_before = sim.vtc_supply()

    decision = sim.add_decision("ann", "snow on new year", Binary(), maturity_time=100)
    market = sim.add_market("ann", [decision.decision_id], b=100.0)
    assert market.collateral == BINARY_LIQUIDITY_UNITS
    assert sim.ledger.csh.get("ann") == 70 * COIN - BINARY_LIQUIDITY_UNITS

    paid = sim.trade(market.market_id, "trader", 1, 10.0)
    assert paid == 512_494_796  # ceil of the reference charge in base units
    assert prices(market.q, market.b)[1] > 0.5

    sim.advance(200)
    ballot = sim.open_ballot()
    assert decision.state is DecisionState.MATURE
    with pytest.raises(TradingClosedError):
        sim.trade(market.market_id, "trader", 1, 1.0)

    reports = {decision.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 60 * COIN)
    sim.commit_vote("bert", ballot.period, commitment_digest(reports, b"b"), 40 * COIN)
    assert sim.ledger.vtc.get("ann") == 0
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.reveal_vote("bert", ballot.period, reports, b"b")
    sim.close_reveal(ballot.period)
    outcomes = sim.resolve_ballot(ballot.period)
    assert outcomes == {decision.decision_id: 1.0}
    assert decision.state is DecisionState.RESOLVED

    for _ in range(100):
        sim.mine_side_block("m1")
    assert sim.veto_result(ballot.period) is VetoOutcome.CONFIRMED
    assert decision.state is DecisionState.CONFIRMED
    assert sim.ledger.vtc == {"ann": 60 * COIN, "bert": 40 * COIN}
    assert sim.ledger.frozen_vtc == {"ann": 0, "bert": 0}

    payout = sim.redeem(market.market_id, "trader")
    assert payout == 10 * COIN  # winning shares pay one CSH each
    assert sim.csh_supply() == csh_before
    assert sim.vtc_supply() == vtc_before
    # the maker's collateral absorbed the payout and keeps the rest
    assert market.collateral == BINARY_LIQUIDITY_UNITS + 512_494_796 - 10 * COIN


def test_unresolvable_market_pays_half_per_share():
    sim = make_sim(alloc={"ann": 90 * COIN, "bert": 10 * COIN})
    sim.peg_in("ann", 80 * COIN)
    sim.peg_in("trader", 50 * COIN)
    decision = sim.add_decision("ann", "too confusing", Binary(), 10)
    market = sim.add_market("ann", [decision.decision_id], b=100.0)
    sim.trade(market.market_id, "trader", 0, 10.0)
    sim.trade(market.market_id, "trader", 1, 10.0)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    # 10 of 100 VTC participates: under the 50% quorum
    sim.commit_vote("bert", ballot.period, commitment_digest(reports, b"b"), 10 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("bert", ballot.period, reports, b"b")
    sim.close_reveal(ballot.period)
    assert sim.resolve_ballot(ballot.period) == {decision.decision_id: 0.5}
    assert decision.unresolvable
    for _ in range(100):
        sim.mine_side_block("m1")
    assert sim.veto_result(ballot.period) is VetoOutcome.CONFIRMED
    assert sim.redeem(market.market_id, "trader") == 10 * COIN  # 5 + 5 CSH
    assert sim.ledger.frozen_vtc.get("bert") == 0  # no slash below quorum


def test_scalar_market_redeems_normalized_value():
    sim = make_sim(alloc={"ann": 100 * COIN})
    sim.peg_in("ann", 200 * COIN)
    sim.peg_in("trader", 50 * COIN)
    decision = sim.add_decision("ann", "degrees at noon", Scalar(0.0, 40.0), 10)
    market = sim.add_market("ann", [decision.decision_id], b=50.0)
    sim.trade(market.market_id, "trader", 1, 8.0)  # long
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 30.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 100 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.close_reveal(ballot.period)
    assert sim.resolve_ballot(ballot.period) == {decision.decision_id: 30.0}
    for _ in range(100):
        sim.mine_side_block("m1")
    sim.veto_result(ballot.period)
    # 8 long shares at (30 - 0) / 40 of a CSH each
    assert sim.redeem(market.market_id, "trader") == 6 * COIN


def test_veto_boundary_and_revote_flow():
    sim = make_sim()
    decision = sim.add_decision("ann", "contested call", Binary(), 10)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 60 * COIN)
    sim.commit_vote("bert", ballot.period, commitment_digest(reports, b"b"), 40 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.reveal_vote("bert", ballot.period, reports, b"b")
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)
    vtc_total = sim.vtc_supply()

    # 51 of 100 window blocks veto: strict majority, outcome reverts
    for i in range(100):
        sim.mine_side_block("m1", veto={ballot.period} if i < 51 else set())
    assert sim.veto_result(ballot.period) is VetoOutcome.REVOTE
    assert decision.state is DecisionState.REVOTE
    assert decision.outcome is None
    # stakes stay frozen into the re-vote
    assert sim.ledger.frozen_vtc == {"ann": 60 * COIN, "bert": 40 * COIN}

    redo = sim.open_ballot()
    assert redo.decision_ids == (decision.decision_id,)
    assert redo.votes["ann"].stake == 60 * COIN  # carried, not re-frozen
    flipped = {decision.decision_id: 0.0}
    sim.commit_vote("ann", redo.period, commitment_digest(flipped, b"a2"), 0)
    sim.commit_vote("bert", redo.period, commitment_digest(flipped, b"b2"), 0)
    sim.close_commit(redo.period)
    sim.reveal_vote("ann", redo.period, flipped, b"a2")
    sim.reveal_vote("bert", redo.period, flipped, b"b2")
    sim.close_reveal(redo.period)
    assert sim.resolve_ballot(redo.period) == {decision.decision_id: 0.0}

    # exactly 50 vetoes is not a strict majority: confirmed
    for i in range(100):
        sim.mine_side_block("m1", veto={redo.period} if i < 50 else set())
    assert sim.veto_result(redo.period) is VetoOutcome.CONFIRMED
    assert decision.state is DecisionState.CONFIRMED
    assert decision.outcome == 0.0
    assert sim.ledger.vtc == {"ann": 60 * COIN, "bert": 40 * COIN}
    assert sim.vtc_supply() == vtc_total


def test_waiting_period_gates_the_window():
    sim = make_sim(waiting_period=3600)
    decision = sim.add_decision("ann", "gated", Binary(), 10)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 60 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)

    sim.mine_side_block("m1")  # mined during the wait: not a window block
    with pytest.raises(WindowOpenError):
        sim.veto_result(ballot.period)
    sim.advance(3600)
    for _ in range(99):
        sim.mine_side_block("m1")
    with pytest.raises(WindowOpenError):
        sim.veto_result(ballot.period)
    sim.mine_side_block("m1")
    assert sim.veto_result(ballot.period) is VetoOutcome.CONFIRMED


def test_commit_reveal_guards():
    sim = make_sim()
    decision = sim.add_decision("ann", "guards", Binary(), 10)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    digest = commitment_digest(reports, b"a")

    with pytest.raises(InsufficientVTCError):
        sim.commit_vote("ann", ballot.period, digest, 61 * COIN)
    with pytest.raises(ValueError):
        sim.commit_vote("ann", ballot.period, b"short", 1 * COIN)
    with pytest.raises(RevealClosedError):
        sim.reveal_vote("ann", ballot.period, reports, b"a")

    sim.commit_vote("ann", ballot.period, digest, 60 * COIN)
    sim.close_commit(ballot.period)
    with pytest.raises(CommitClosedError):
        sim.commit_vote("bert", ballot.period, digest, 1 * COIN)
    with pytest.raises(RevealMismatchError):
        sim.reveal_vote("ann", ballot.period, reports, b"wrong-salt")
    with pytest.raises(RevealMismatchError):
        sim.reveal_vote("ann", ballot.period, {decision.decision_id: 0.0}, b"a")
    with pytest.raises(StateError):
        sim.reveal_vote("bert", ballot.period, reports, b"b")  # never committed
    with pytest.raises(ValueError):
        sim.reveal_vote("ann", ballot.period, {"d-99": 1.0}, b"a")
    with pytest.raises(RevealOpenError):
        sim.resolve_ballot(ballot.period)

    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)
    with pytest.raises(StateError):
        sim.resolve_ballot(ballot.period)


def test_each_phase_guard_names_the_phase_the_ballot_is_in():
    sim = make_sim()
    decision = sim.add_decision("ann", "phases", Binary(), 10)
    sim.advance(20)
    period = sim.open_ballot().period
    reports = {decision.decision_id: 1.0}
    digest = commitment_digest(reports, b"a")

    def refused(error, phase, call, *args):
        with pytest.raises(error) as caught:
            call(*args)
        assert type(caught.value) is error and str(caught.value) == f"ballot 1 is in {phase}"

    refused(RevealClosedError, "commit", sim.reveal_vote, "ann", period, reports, b"a")
    refused(StateError, "commit", sim.close_reveal, period)
    sim.commit_vote("ann", period, digest, 60 * COIN)
    sim.close_commit(period)
    refused(CommitClosedError, "reveal", sim.commit_vote, "bert", period, digest, 1 * COIN)
    refused(StateError, "reveal", sim.close_commit, period)
    sim.reveal_vote("ann", period, reports, b"a")
    sim.close_reveal(period)
    refused(RevealClosedError, "tally", sim.reveal_vote, "ann", period, reports, b"a")
    sim.resolve_ballot(period)
    refused(StateError, "resolved", sim.resolve_ballot, period)


@pytest.mark.parametrize("severity", [-1.0, -math.inf, math.inf, math.nan])
def test_a_negative_or_non_finite_severity_is_refused(severity):
    with pytest.raises(ValueError, match="severity must be finite and nonnegative"):
        make_sim(severity=severity)
    assert make_sim(severity=0.0).severity == 0.0


def test_fuzzed_reveals_never_break_the_binding():
    sim = make_sim()
    decision = sim.add_decision("ann", "bound", Binary(), 10)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"true-salt"), 1 * COIN)
    sim.close_commit(ballot.period)
    rng = random.Random(18)
    for _ in range(50):
        fake = {decision.decision_id: float(rng.randint(0, 1))}
        salt = bytes(rng.randrange(256) for _ in range(8))
        if fake == reports and salt == b"true-salt":
            continue
        with pytest.raises(RevealMismatchError):
            sim.reveal_vote("ann", ballot.period, fake, salt)
    sim.reveal_vote("ann", ballot.period, reports, b"true-salt")


def test_market_guards():
    sim = make_sim()
    sim.peg_in("ann", 200 * COIN)
    sim.peg_in("poor", 1)
    with pytest.raises(PastMaturityError):
        sim.add_decision("ann", "yesterday", Binary(), 0)
    with pytest.raises(ValueError):
        Scalar(5.0, 5.0)
    with pytest.raises(KeyError):
        sim.add_market("ann", ["d-99"], b=100.0)

    decision = sim.add_decision("ann", "guarded", Binary(), 10)
    with pytest.raises(InsufficientCSHError):
        sim.add_market("poor", [decision.decision_id], b=100.0)
    market = sim.add_market("ann", [decision.decision_id], b=100.0)
    with pytest.raises(InsufficientCSHError):
        sim.trade(market.market_id, "poor", 1, 10.0)
    with pytest.raises(InsufficientSharesError):
        sim.trade(market.market_id, "ann", 1, -1.0)
    with pytest.raises(ValueError):
        sim.trade(market.market_id, "ann", 1, 0.0)
    with pytest.raises(IndexError):
        sim.trade(market.market_id, "ann", 5, 1.0)

    sim.advance(20)
    sim.open_ballot()
    with pytest.raises(TradingClosedError):
        sim.add_market("ann", [decision.decision_id], b=100.0)


@pytest.mark.parametrize(
    "xmin, xmax",
    [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan)],
    ids=["max_inf", "min_minus_inf", "both_inf", "min_nan", "max_nan"],
)
def test_a_scalar_bound_that_is_not_finite_is_refused(xmin, xmax):
    # an infinite span would reach Fraction(inf) in Scalar.distance at resolution
    with pytest.raises(ValueError, match="finite"):
        Scalar(xmin, xmax)


def test_a_market_naming_a_decision_twice_is_refused():
    """Two positions of one decision would make contradictory states, and
    each repeat doubles the state count."""
    sim = make_sim()
    sim.peg_in("ann", 200 * COIN)
    first = sim.add_decision("ann", "first", Binary(), 10).decision_id
    second = sim.add_decision("ann", "second", Binary(), 10).decision_id
    for ids in ([first, first], [first, second, first], [second] * 64):
        with pytest.raises(ValueError, match="more than once"):
            sim.add_market("ann", ids, b=1.0)
    assert sim.markets == {}
    assert sim.ledger.csh.get("ann") == 200 * COIN  # no liquidity was taken
    assert len(sim.add_market("ann", [first, second], b=1.0).q) == 4


def test_buy_then_sell_returns_the_stake_minus_rounding():
    sim = make_sim()
    sim.peg_in("ann", 100 * COIN)
    sim.peg_in("trader", 100 * COIN)
    decision = sim.add_decision("ann", "round trip", Binary(), 10)
    market = sim.add_market("ann", [decision.decision_id], b=100.0)
    before = sim.ledger.csh["trader"]
    paid = sim.trade(market.market_id, "trader", 1, 10.0)
    got = -sim.trade(market.market_id, "trader", 1, -10.0)
    # collect rounds up, pay out rounds down: the house keeps at most 2 units
    assert 0 <= paid - got <= 2
    assert before - sim.ledger.csh["trader"] == paid - got
    # float-level the round trip is an exact inverse
    assert lmsr.charge((0.0, 0.0), 100.0, 1, 10.0) == pytest.approx(
        -lmsr.charge((0.0, 10.0), 100.0, 1, -10.0), abs=1e-9
    )


def test_trade_fees_go_to_the_author():
    sim = make_sim()
    sim.peg_in("ann", 100 * COIN)
    sim.peg_in("trader", 100 * COIN)
    decision = sim.add_decision("ann", "with fees", Binary(), 10)
    market = sim.add_market("ann", [decision.decision_id], b=100.0, fee_rate=0.01)
    author_before = sim.ledger.csh["ann"]
    paid = sim.trade(market.market_id, "trader", 1, 10.0)
    fee = math.ceil(512_494_796 * 0.01)
    assert paid == 512_494_796 + fee
    assert sim.ledger.csh["ann"] == author_before + fee
    assert market.collateral == BINARY_LIQUIDITY_UNITS + 512_494_796
    with pytest.raises(ValueError):
        sim.add_market("ann", [decision.decision_id], b=10.0, fee_rate=1.0)


def test_redeem_needs_confirmation():
    sim = make_sim()
    sim.peg_in("ann", 100 * COIN)
    sim.peg_in("trader", 100 * COIN)
    decision = sim.add_decision("ann", "patience", Binary(), 10)
    market = sim.add_market("ann", [decision.decision_id], b=100.0)
    sim.trade(market.market_id, "trader", 1, 10.0)
    with pytest.raises(NotConfirmedError):
        sim.redeem(market.market_id, "trader")
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 60 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)
    with pytest.raises(NotConfirmedError):
        sim.redeem(market.market_id, "trader")  # resolved but veto window open


def test_observable_decisions_still_trade():
    sim = make_sim()
    sim.peg_in("ann", 100 * COIN)
    decision = sim.add_decision("ann", "event happened", Binary(), 1000)
    market = sim.add_market("ann", [decision.decision_id], b=100.0)
    sim.mark_observable(decision.decision_id)
    assert decision.state is DecisionState.OBSERVABLE
    sim.trade(market.market_id, "ann", 1, 1.0)
    with pytest.raises(StateError):
        sim.mark_observable(decision.decision_id)
    sim.advance(2000)
    ballot = sim.open_ballot()
    assert decision.decision_id in ballot.decision_ids


def test_combined_market_over_two_decisions():
    sim = make_sim(alloc={"ann": 100 * COIN})
    sim.peg_in("ann", 300 * COIN)
    sim.peg_in("trader", 100 * COIN)
    d1 = sim.add_decision("ann", "first", Binary(), 10)
    d2 = sim.add_decision("ann", "second", Binary(), 10)
    market = sim.add_market("ann", [d1.decision_id, d2.decision_id], b=100.0)
    assert len(market.q) == 4
    # state 3 = (yes, yes)
    sim.trade(market.market_id, "trader", 3, 10.0)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {d1.decision_id: 1.0, d2.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 100 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)
    for _ in range(100):
        sim.mine_side_block("m1")
    sim.veto_result(ballot.period)
    assert sim.redeem(market.market_id, "trader") == 10 * COIN


def test_randomized_trading_stays_solvent():
    rng = random.Random(19)
    for trial in range(10):
        sim = make_sim(alloc={"ann": 100 * COIN})
        sim.peg_in("ann", 1000 * COIN)
        traders = ["t1", "t2", "t3"]
        for t in traders:
            sim.peg_in(t, 1000 * COIN)
        csh_total = sim.csh_supply()
        decision = sim.add_decision("ann", f"trial {trial}", Binary(), 10)
        market = sim.add_market("ann", [decision.decision_id], b=rng.uniform(20.0, 150.0))
        for _ in range(40):
            t = rng.choice(traders)
            state = rng.randint(0, 1)
            held = market.shares_of(t, state)
            if held > 0 and rng.random() < 0.4:
                delta = -rng.uniform(0.0, held)
                if delta == 0:
                    continue
            else:
                delta = rng.uniform(0.1, 15.0)
            sim.trade(market.market_id, t, state, delta)
            quoted = prices(market.q, market.b)
            assert math.fsum(quoted) == pytest.approx(1.0, abs=1e-9)
        sim.advance(20)
        ballot = sim.open_ballot()
        reports = {decision.decision_id: float(rng.randint(0, 1))}
        sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 100 * COIN)
        sim.close_commit(ballot.period)
        sim.reveal_vote("ann", ballot.period, reports, b"a")
        sim.close_reveal(ballot.period)
        sim.resolve_ballot(ballot.period)
        for _ in range(100):
            sim.mine_side_block("m1")
        sim.veto_result(ballot.period)
        for t in traders:
            sim.redeem(market.market_id, t)
        assert market.collateral >= 0  # payouts never exceed what was collected
        assert sim.csh_supply() == csh_total  # CSH only moves, never appears


def test_peg_out_burns_what_exists():
    sim = make_sim()
    sim.peg_in("ann", 5 * COIN)
    sim.peg_out("ann", 2 * COIN)
    assert sim.csh_supply() == 3 * COIN
    with pytest.raises(InsufficientCSHError):
        sim.peg_out("ann", 4 * COIN)


def test_resolved_ballot_records_phase_votes_and_outcomes():
    sim = make_sim()
    decision = sim.add_decision("ann", "exported", Binary(), 10)
    sim.advance(20)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    sim.commit_vote("ann", ballot.period, commitment_digest(reports, b"a"), 60 * COIN)
    sim.close_commit(ballot.period)
    sim.reveal_vote("ann", ballot.period, reports, b"a")
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)
    resolved = sim.ballots[ballot.period]
    assert resolved.phase is BallotPhase.RESOLVED
    assert decision.outcome == 1.0
    assert resolved.votes["ann"].stake == 60 * COIN
    assert resolved.votes["ann"].reveal == reports
