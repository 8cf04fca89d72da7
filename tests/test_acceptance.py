"""Whole-library acceptance checks, one test per shipped guarantee.

Each test prints a single `criterion NN: PASS/FAIL` line (visible under
`pytest -s`); under plain pytest the test outcome carries the same signal.
Every fuzz loop is seeded, so each figure asserted here is reproducible.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from oraclesim.counterparty import (
    Bet,
    Broadcast,
    R_BALANCE,
    Send,
    compose_burn_tx,
    compose_message_tx,
    replay,
    state_digest,
    xcp_in_circulation,
)
from oraclesim import datafeed
from oraclesim.datafeed import Comparator, DataSource
from oraclesim.harness import Scenario, bundled_scenarios, run_scenario
from oraclesim.oraclize import (
    Condition,
    ContractState,
    OverlappingConditionsError,
    Oracle,
    ProofInvalidError,
    TooEarlyError as PollTooEarlyError,
    check_disjoint,
    co_sign_and_broadcast,
    conditions_overlap,
    poll_times,
)
from oraclesim.orisi import KeyLimitExceededError, SafeParams, compute_safe_params
from oraclesim.realitykeys import (
    MIN_OBJECTION_TIP,
    FactRegistry,
    Outcome,
    TipTooSmallError,
    WrongBranchError,
    demo_claim,
    demo_contract,
    demo_countersign,
    demo_setup,
)
from oraclesim.simchain import (
    DataCarrier,
    InvalidReason,
    KeyRegistry,
    MAX_MULTISIG_KEYS,
    Miner,
    MultiSig,
    NonStandardReason,
    PayToKey,
    POLICY_TEST2013,
    POLICY_V090,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    classify,
    sighash,
    sign,
    txid,
    validate_tx,
)
from oraclesim.truthcoin import (
    Binary,
    COIN,
    DecisionState,
    TruthcoinSim,
    VetoOutcome,
    commitment_digest,
    lmsr,
)
from test_realitykeys import SECRET_DESTROYED, SECRET_RELEASED, secret_status
from test_truthcoin import prices


class _Line:
    note = ""


@contextmanager
def criterion(number: int, summary: str):
    line = _Line()
    try:
        yield line
    except BaseException:
        print(f"criterion {number:02d}: FAIL {summary}")
        raise
    note = f" ({line.note})" if line.note else ""
    print(f"criterion {number:02d}: PASS {summary}{note}")


# ------------------------------------------------------------- criterion 1


def test_c01_safe_multisig_parameters():
    with criterion(1, "oracle-safe multisig parameters") as line:
        started = time.monotonic()
        assert compute_safe_params(4, 7) == SafeParams(
            m=4, n=7, threshold=8, total_keys=11, agent_keys=4
        )
        checked = rejected = 0
        for n in range(1, 15):
            for m in range(1, n + 1):
                total = 2 * n - m + 1
                if total > MAX_MULTISIG_KEYS:
                    with pytest.raises(KeyLimitExceededError):
                        compute_safe_params(m, n)
                    rejected += 1
                    continue
                params = compute_safe_params(m, n)
                assert params.threshold == n + 1
                assert params.total_keys == total
                assert params.agent_keys == n - m + 1
                # every oracle signing together still falls short of the
                # threshold; m oracles plus the agent's keys reach it exactly
                assert params.n < params.threshold
                assert m + params.agent_keys == params.threshold
                # the script template itself accepts the full key set
                dummies = tuple(bytes([i]) * 32 for i in range(params.total_keys))
                MultiSig(m=params.threshold, keys=dummies)
                checked += 1
        assert checked > 0 and rejected > 0
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        line.note = f"{checked} parameter sets, {rejected} oversize rejections, {elapsed:.2f}s"


# ------------------------------------------------------------- criterion 2


def test_c02_nonstandard_inclusion_delay():
    with criterion(2, "nonstandard txs wait for the compliant miner") as line:
        started = time.monotonic()
        reg = KeyRegistry()
        pair = reg.keygen(b"delay-probe")
        n_txs = 10_000
        genesis = tuple(
            TxOutput(value=100_000, lock=PayToKey(pair.pub)) for _ in range(n_txs)
        )
        # expiry must exceed any plausible wait: the geometric tail passes
        # 100 blocks with probability ~7e-4, which would bias the mean
        chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
        chain.mempool.expiry_blocks = 10**9
        gtxid = txid(chain.blocks[0].txs[0])
        miners = [
            Miner("compliant", 0.07, accepts_nonstandard=True),
            Miner("strict", 0.93, accepts_nonstandard=False),
        ]
        rng = Random(2)
        payload = bytes(60)  # over the 40-byte v0.9.0 cap: relayed, not mined
        total_delay = 0
        for i in range(n_txs):
            unsigned = Transaction(
                inputs=(TxInput(outpoint=(gtxid, i)),),
                outputs=(
                    TxOutput(value=0, lock=DataCarrier(payload)),
                    TxOutput(value=99_000, lock=PayToKey(pair.pub)),
                ),
            )
            tx = unsigned.with_witness(
                0, Witness(signatures=(sign(pair.secret, sighash(unsigned)),))
            )
            assert chain.submit(tx).accepted
            tid = txid(tx)
            waited = 0
            while tid not in chain.txs_by_id:
                chain.mine_next(miners, rng)
                waited += 1
            total_delay += waited
        elapsed = time.monotonic() - started
        mean = total_delay / n_txs
        assert 12.8 <= mean <= 15.8  # theoretical 1/0.07 = 14.29
        assert elapsed < 30.0
        line.note = f"mean delay {mean:.4f} blocks over {n_txs} txs, {elapsed:.1f}s"


# ------------------------------------------------------------- criterion 3


def test_c03_data_payload_era_boundaries():
    with criterion(3, "data payload caps are boundary-exact per era") as line:
        def carrier_tx(size: int) -> Transaction:
            return Transaction(
                inputs=(), outputs=(TxOutput(value=0, lock=DataCarrier(bytes(size))),)
            )

        for size in range(0, 121):
            t13 = classify(carrier_tx(size), POLICY_TEST2013)
            v90 = classify(carrier_tx(size), POLICY_V090)
            assert t13.standard is (size <= 80), size
            assert v90.standard is (size <= 40), size
            for decision in (t13, v90):
                if not decision.standard:
                    assert decision.reason is NonStandardReason.DATA_PAYLOAD_TOO_LARGE
        # the exact edges, stated once more without the loop arithmetic
        assert classify(carrier_tx(40), POLICY_TEST2013).standard
        assert classify(carrier_tx(40), POLICY_V090).standard
        assert classify(carrier_tx(41), POLICY_TEST2013).standard
        assert not classify(carrier_tx(41), POLICY_V090).standard
        assert classify(carrier_tx(80), POLICY_TEST2013).standard
        assert not classify(carrier_tx(81), POLICY_TEST2013).standard
        line.note = "sizes 0..120 against both eras"


# ------------------------------------------------------------- criterion 4


def test_c04_fact_key_release_and_losing_branch():
    with criterion(4, "one secret per fact; losing branch unspendable") as line:
        rng = Random(4)
        reg = KeyRegistry()
        series = [("v", t, rng.randint(0, 100)) for t in range(1, 1101)]
        sources = {"idx": DataSource("idx", series)}

        def scripted_review(fact, claimed):
            # sustains every third objection, modelling a successful appeal
            return claimed if int(fact.id.split("-")[1]) % 3 == 0 else None

        registry = FactRegistry(sources, reg, human_check=scripted_review)
        released_yes = released_no = corrected = 0
        for i in range(1000):
            horizon = rng.randint(1, 1000)
            ref = datafeed.Condition("idx", "v", rng.choice(list(Comparator)), rng.randint(0, 100))
            fact = registry.register_fact(
                f"q{i}", horizon, ref, now=0, objection_window=rng.randint(1, 50)
            )
            registry.post_result(fact.id, now=horizon)
            if rng.random() < 0.3:
                registry.object(
                    fact.id,
                    tip=MIN_OBJECTION_TIP + rng.randint(0, 10**6),
                    claimed=rng.choice([Outcome.YES, Outcome.NO]),
                    now=horizon,
                )
            secret = registry.finalize(fact.id, now=horizon + fact.objection_window)
            winner = fact.human_override or fact.posted_result
            assert fact.released_outcome is winner
            assert secret == fact.released_secret
            assert secret_status(registry, fact.id, winner) == SECRET_RELEASED
            assert secret_status(registry, fact.id, winner.other) == SECRET_DESTROYED
            released_yes += winner is Outcome.YES
            released_no += winner is Outcome.NO
            corrected += (
                fact.human_override is not None
                and fact.human_override is not fact.posted_result
            )
        assert released_yes > 0 and released_no > 0 and corrected > 0

        # objection tip boundary, exact to the satoshi
        assert MIN_OBJECTION_TIP == 1_000_000
        tip_fact = registry.register_fact(
            "tip boundary", 2000, datafeed.Condition("idx", "v", Comparator.GE, 50), now=1500
        )
        registry.post_result(tip_fact.id, now=2000)
        with pytest.raises(TipTooSmallError):
            registry.object(tip_fact.id, tip=999_999, claimed=Outcome.NO, now=2001)
        assert registry.object(tip_fact.id, tip=1_000_000, claimed=Outcome.NO, now=2001)

        # on-chain demo contract: enumerate everything the loser can sign
        reg2 = KeyRegistry()
        registry2 = FactRegistry(
            {"s": DataSource("s", [("v", 0, 5)])}, reg2, objection_window=10
        )
        fact = registry2.register_fact(
            "v >= 1", 100, datafeed.Condition("s", "v", Comparator.GE, 1), now=0
        )
        alice, bob = reg2.keygen(b"alice"), reg2.keygen(b"bob")
        alice_temp, bob_temp = reg2.keygen(b"alice-temp"), reg2.keygen(b"bob-temp")
        genesis = (
            TxOutput(value=600_000, lock=PayToKey(alice_temp.pub)),
            TxOutput(value=400_000, lock=PayToKey(bob_temp.pub)),
        )
        chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg2)
        gtxid = txid(chain.blocks[0].txs[0])
        contract = demo_contract(
            fact, alice.pub, bob.pub, (600_000, 400_000), ((gtxid, 0), (gtxid, 1))
        )
        partial = demo_setup(chain, contract, alice_temp)
        complete = demo_countersign(chain, contract, bob_temp, partial)
        assert chain.submit(complete).accepted
        miners = [Miner("m", 1.0, accepts_nonstandard=True)]
        chain.mine_next(miners, Random(40))

        registry2.post_result(fact.id, now=100)  # source reads 5, so YES
        released = registry2.finalize(fact.id, now=110)
        assert fact.released_outcome is Outcome.YES

        value = chain.utxo[contract.funding_outpoint].value
        drain = Transaction(
            inputs=(TxInput(outpoint=contract.funding_outpoint),),
            outputs=(TxOutput(value=value, lock=PayToKey(bob.pub)),),
        )
        digest = sighash(drain)
        # bob holds his own contract key plus the now-public YES secret;
        # neither branch pairs those two, so no combination clears the hash
        loser_secrets = (bob.secret, released)
        combos = [(a,) for a in loser_secrets]
        combos += [(a, b) for a in loser_secrets for b in loser_secrets]
        combos.append((bob.secret, released, bob.secret))
        tried = 0
        for secrets in combos:
            witness = Witness(
                signatures=tuple(sign(s, digest) for s in secrets),
                redeem=contract.redeem,
            )
            candidate = drain.with_witness(0, witness)
            verdict = validate_tx(candidate, chain.utxo, chain.height + 1, reg2)
            assert not verdict.ok and verdict.reason is InvalidReason.BAD_WITNESS
            assert not chain.submit(candidate).accepted
            tried += 1
        # wrong or missing redeem script fails before any signature counts
        for redeem in (None, MultiSig(m=1, keys=(bob.pub,))):
            witness = Witness(
                signatures=tuple(sign(s, digest) for s in loser_secrets), redeem=redeem
            )
            candidate = drain.with_witness(0, witness)
            assert not validate_tx(candidate, chain.utxo, chain.height + 1, reg2).ok
            tried += 1
        with pytest.raises(WrongBranchError):
            demo_claim(chain, registry2, contract, bob, bob.pub)

        claim = demo_claim(chain, registry2, contract, alice, alice.pub)
        assert chain.submit(claim).accepted
        chain.mine_next(miners, Random(41))
        assert chain.balance(alice.pub) == 1_000_000
        line.note = f"1000 resolutions, {corrected} overrides, {tried} spoof spends rejected"


# ------------------------------------------------------------- criterion 5


def test_c05_lmsr_invariants():
    with criterion(5, "LMSR prices sum to one; cost is path independent") as line:
        rng = Random(5)
        for _ in range(10_000):
            n = rng.randint(2, 4)
            b = rng.uniform(0.5, 150.0)
            steps = [
                (rng.randrange(n), rng.uniform(-2.0, 4.0))
                for _ in range(rng.randint(1, 6))
            ]
            q = [0.0] * n
            paid = 0.0
            for state, delta in steps:
                paid += lmsr.charge(q, b, state, delta)
                q[state] += delta
                assert abs(math.fsum(prices(q, b)) - 1.0) <= 1e-9
            # replay the same trades in reverse order: same net charge
            q2 = [0.0] * n
            paid2 = 0.0
            for state, delta in reversed(steps):
                paid2 += lmsr.charge(q2, b, state, delta)
                q2[state] += delta
            assert abs(paid - paid2) <= 1e-9
            assert abs(paid - (lmsr.cost(q, b) - lmsr.cost([0.0] * n, b))) <= 1e-9

        # worked example: 10 shares on one of two states at b=100 costs
        # 100 * ln((e^0.1 + 1) / 2), evaluated here from first principles
        expected = 5.124947951362558
        assert abs(100.0 * math.log((math.exp(0.1) + 1.0) / 2.0) - expected) < 1e-12
        got = lmsr.charge([0.0, 0.0], 100.0, 0, 10.0)
        assert abs(got - expected) / expected <= 1e-6
        line.note = f"10000 sequences, b=100 example charge {got:.12f}"


# ------------------------------------------------------------- criterion 6


def _veto_outcome_with(flags: int) -> VetoOutcome:
    sim = TruthcoinSim({"a": 100}, waiting_period=0, veto_window=100, now=0)
    decision = sim.add_decision("a", "boundary", Binary(), 1)
    sim.advance(1)
    ballot = sim.open_ballot()
    reports = {decision.decision_id: 1.0}
    salt = bytes(8)
    sim.commit_vote("a", ballot.period, commitment_digest(reports, salt), 100)
    sim.close_commit(ballot.period)
    sim.reveal_vote("a", ballot.period, reports, salt)
    sim.close_reveal(ballot.period)
    sim.resolve_ballot(ballot.period)
    for i in range(100):
        sim.mine_side_block("m", {ballot.period} if i < flags else set())
    outcome = sim.veto_result(ballot.period)
    assert sim.vtc_supply() == 100
    return outcome


def test_c06_truthcoin_conservation():
    with criterion(6, "VTC conserved through slashing, revotes, markets") as line:
        rng = Random(6)
        voters = [f"v{i}" for i in range(6)]
        sim = TruthcoinSim(
            {v: 1000 + 500 * i for i, v in enumerate(voters)},
            quorum=0.3,
            severity=0.8,
            waiting_period=60,
            veto_window=4,
            now=0,
        )
        vtc_total = sim.vtc_supply()
        assert vtc_total == 13_500
        for v in voters:
            sim.peg_in(v, 1000 * COIN)
        csh_total = 6 * 1000 * COIN

        truths: dict[str, float] = {}
        open_markets: list[str] = []
        resolutions = revotes = unrevealed_commits = 0

        def check_books() -> None:
            assert sim.vtc_supply() == vtc_total  # bit-exact, no tolerance
            assert sim.csh_supply() == csh_total
            assert all(m.collateral >= 0 for m in sim.markets.values())

        def run_period(flag_heavy: bool) -> VetoOutcome:
            nonlocal unrevealed_commits
            ballot = sim.open_ballot()
            revealers = []
            committed = 0
            for v in voters:
                if rng.random() < 0.15:
                    continue  # sits the period out entirely
                free = sim.ledger.vtc.get(v, 0)
                if free <= 0:
                    continue
                stake = rng.randint(1, free)
                reports = {
                    did: truths[did] if rng.random() < 0.8 else 1.0 - truths[did]
                    for did in ballot.decision_ids
                }
                salt = rng.getrandbits(64).to_bytes(8, "big")
                sim.commit_vote(
                    v, ballot.period, commitment_digest(reports, salt), stake
                )
                committed += 1
                if rng.random() < 0.9:
                    revealers.append((v, reports, salt))
            unrevealed_commits += committed - len(revealers)
            sim.close_commit(ballot.period)
            for v, reports, salt in revealers:
                sim.reveal_vote(v, ballot.period, reports, salt)
            sim.close_reveal(ballot.period)
            sim.resolve_ballot(ballot.period)
            check_books()
            sim.advance(60)
            flags = 3 if flag_heavy else rng.choice([0, 1])
            for i in range(sim.veto_window):
                sim.mine_side_block(
                    f"sb-{ballot.period}-{i}",
                    {ballot.period} if i < flags else set(),
                )
            outcome = sim.veto_result(ballot.period)
            check_books()
            return outcome

        def redeem_ready() -> None:
            kept = []
            for mid in open_markets:
                market = sim.markets[mid]
                confirmed = all(
                    sim.decisions[d].state is DecisionState.CONFIRMED
                    for d in market.decision_ids
                )
                if confirmed:
                    for holder in list(market.holdings):
                        sim.redeem(mid, holder)  # raises if collateral falls short
                    check_books()
                else:
                    kept.append(mid)
            open_markets[:] = kept

        for round_i in range(1000):
            maturity = sim.now + 1
            dids = []
            for j in range(rng.randint(1, 2)):
                decision = sim.add_decision(
                    rng.choice(voters), f"q-{round_i}-{j}", Binary(), maturity
                )
                truths[decision.decision_id] = rng.choice([0.0, 1.0])
                dids.append(decision.decision_id)
            market = sim.add_market(rng.choice(voters), tuple(dids), b=0.5)
            open_markets.append(market.market_id)
            for _ in range(rng.randint(1, 3)):
                sim.trade(
                    market.market_id,
                    rng.choice(voters),
                    rng.randrange(len(market.q)),
                    rng.uniform(0.1, 2.0),
                )
            check_books()
            sim.advance(2)
            for did in dids:
                sim.mark_observable(did)
            outcome = run_period(flag_heavy=rng.random() < 0.15)
            resolutions += 1
            if outcome is VetoOutcome.REVOTE:
                revotes += 1
            redeem_ready()

        # re-ballot whatever the last vetoes left behind, then settle up
        while any(
            d.state is not DecisionState.CONFIRMED for d in sim.decisions.values()
        ):
            sim.advance(2)
            run_period(flag_heavy=False)
            redeem_ready()
        assert not open_markets
        check_books()
        assert resolutions == 1000
        assert revotes >= 50 and unrevealed_commits > 0

        # veto boundary on a 100-block window: half confirms, half+1 revotes
        assert _veto_outcome_with(50) is VetoOutcome.CONFIRMED
        assert _veto_outcome_with(51) is VetoOutcome.REVOTE
        line.note = (
            f"{resolutions} resolutions, {revotes} revotes, "
            f"{unrevealed_commits} unrevealed commits slashed"
        )


# ------------------------------------------------------------- criterion 7


def test_c07_counterparty_replay_determinism():
    with criterion(7, "meta state replays identically and conserves XCP") as line:
        started = time.monotonic()
        rng = Random(7)
        reg = KeyRegistry()
        names = ("alice", "bob", "claire")
        pairs = {n: reg.keygen(n.encode()) for n in names}
        genesis = tuple(
            TxOutput(value=50_000_000, lock=PayToKey(pairs[n].pub))
            for n in names
            for _ in range(30)
        )
        chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
        chain.mempool.expiry_blocks = 10**9
        miners = [Miner("m", 1.0, accepts_nonstandard=True)]
        feed = pairs["alice"].pub.hex()
        next_ts = dict.fromkeys(names, 1000)
        # narrow pools so opposite bet sides actually collide and match
        targets = (3 * 10**9, 7 * 10**9)
        deadlines = (1200, 1500, 1900)
        wagers = ((100_000, 200_000), (250_000, 250_000))

        for _ in range(500):
            for _ in range(rng.randint(1, 3)):
                actor = rng.choice(names)
                pair = pairs[actor]
                op = rng.randrange(4)
                try:
                    if op == 0:
                        tx = compose_burn_tx(chain, pair, rng.randint(1, 500_000))
                    elif op == 1:
                        msg = Send(
                            asset="XCP",
                            qty=rng.randint(1, 2 * 10**9),
                            dest=pairs[rng.choice(names)].pub.hex(),
                        )
                        tx = compose_message_tx(chain, pair, msg)
                    elif op == 2:
                        ts = next_ts[actor]
                        next_ts[actor] += rng.randint(1, 50)
                        msg = Broadcast(
                            timestamp=ts,
                            value=rng.randint(0, 10**10),
                            fee_fraction=rng.randint(0, 10**6),
                            text="t",
                        )
                        tx = compose_message_tx(chain, pair, msg)
                    else:
                        wager, counter = rng.choice(wagers)
                        if rng.random() < 0.5:
                            wager, counter = counter, wager
                        msg = Bet(
                            feed=feed,
                            comparator=rng.choice((Comparator.GE, Comparator.LT)),
                            target=rng.choice(targets),
                            deadline=rng.choice(deadlines),
                            wager=wager,
                            counterwager=counter,
                            side=rng.randrange(2),
                        )
                        tx = compose_message_tx(chain, pair, msg)
                except ValueError:
                    continue  # this actor ran out of host coin
                chain.submit(tx)
            chain.mine_next(miners, rng)
            state = replay(chain)  # full fold at this height
            assert xcp_in_circulation(state) == state.issued

        final = replay(chain)
        again = replay(chain)
        assert state_digest(final) == state_digest(again)
        assert final.issued > 0 and len(final.log) > 300
        assert final.matches, "no bet ever matched"
        settled = [m for m in final.matches if m.settled]
        assert settled, "no match ever settled on a broadcast"
        naturally_overspent = [
            e
            for e in final.log
            if isinstance(e.message, Send) and not e.valid and e.reason == R_BALANCE
        ]
        assert naturally_overspent

        # a host-valid overspend that every replica must record as invalid
        chain2 = SimChain(
            policy=POLICY_V090,
            genesis=(TxOutput(value=5_000_000, lock=PayToKey(pairs["bob"].pub)),),
            keys=reg,
        )
        chain2.mempool.expiry_blocks = 10**9
        burn = compose_burn_tx(chain2, pairs["bob"], 1_000)  # issues 1,000,000 units
        assert chain2.submit(burn).accepted
        chain2.mine_next(miners, Random(70))
        over = compose_message_tx(
            chain2,
            pairs["bob"],
            Send(asset="XCP", qty=2_000_000, dest=pairs["alice"].pub.hex()),
        )
        assert chain2.submit(over).accepted  # the carrier spends real coin
        chain2.mine_next(miners, Random(71))
        assert txid(over) in chain2.txs_by_id
        state2 = replay(chain2)
        entry = state2.log[-1]
        assert isinstance(entry.message, Send)
        assert entry.valid is False and entry.reason == R_BALANCE
        assert state2.balance(pairs["bob"].pub.hex()) == 1_000_000
        assert state2.balance(pairs["alice"].pub.hex()) == 0
        elapsed = time.monotonic() - started
        line.note = (
            f"{len(final.log)} messages, {len(settled)} settled matches, "
            f"{len(naturally_overspent)} rejected sends, {elapsed:.1f}s"
        )


# ------------------------------------------------------------- criterion 8


_SAT = {
    Comparator.LT: lambda x, t: x < t,
    Comparator.LE: lambda x, t: x <= t,
    Comparator.EQ: lambda x, t: x == t,
    Comparator.GE: lambda x, t: x >= t,
    Comparator.GT: lambda x, t: x > t,
}


def _sampled_overlap(a: Condition, b: Condition) -> bool:
    # exact brute force: any nonempty intersection of threshold intervals
    # contains one of these five points, all evaluated in rationals
    ta, tb = Fraction(a.threshold), Fraction(b.threshold)
    points = {ta, tb, min(ta, tb) - 1, max(ta, tb) + 1, (ta + tb) / 2}
    return any(_SAT[a.comparator](p, ta) and _SAT[b.comparator](p, tb) for p in points)


def test_c08_oraclize_disjointness_and_proofshield():
    with criterion(8, "overlap detection exact; shield blocks bad proofs") as line:
        rng = Random(8)
        comparators = (
            Comparator.LT,
            Comparator.LE,
            Comparator.EQ,
            Comparator.GE,
            Comparator.GT,
        )
        bene = bytes(8)
        for trial in range(10_000):
            if trial % 2:
                thresholds = [rng.randint(-4, 4), rng.randint(-4, 4)]
            else:
                thresholds = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            a = Condition("s", "k", rng.choice(comparators), thresholds[0], bene)
            b = Condition("s", "k", rng.choice(comparators), thresholds[1], bene)
            expected = _sampled_overlap(a, b)
            assert conditions_overlap(a, b) is expected, (a, b)
            assert conditions_overlap(b, a) is expected
            if expected:
                with pytest.raises(OverlappingConditionsError):
                    check_disjoint([a, b])
            else:
                check_disjoint([a, b])

        # proof shield: random tampering anywhere on the data path never
        # settles a contract while the shield is on
        reg = KeyRegistry()
        alice, bob = reg.keygen(b"alice"), reg.keygen(b"bob")
        sources = {"wx": DataSource("wx", [("t", 0, 20)])}
        genesis = tuple(
            TxOutput(value=200_000, lock=PayToKey(pair.pub))
            for pair in (alice, bob)
            for _ in range(61)
        )
        chain = SimChain(policy=POLICY_V090, genesis=genesis, keys=reg)
        miners = [Miner("m", 1.0, accepts_nonstandard=True)]
        tamper_next = [False]

        def hook(proof):
            if tamper_next[0]:
                return replace(
                    proof, attestation=bytes(x ^ 0xFF for x in proof.attestation)
                )
            return proof

        shielded = Oracle(reg, sources, oracle_id="shielded")
        shielded.proof_hook = hook
        tampered = clean = 0
        for _ in range(60):
            contract = shielded.build_contract(
                chain,
                alice=alice,
                bob=bob,
                stakes=(200_000, 200_000),
                conditions=[Condition("wx", "t", Comparator.GE, 10, bob.pub)],
                default_beneficiary=alice.pub,
                start=0,
                end=7200,
                refund_locktime=100_000,
                poll_interval=3600,
                proofshield=True,
            )
            chain.mine_next(miners, rng)
            tamper_next[0] = rng.random() < 0.5
            if tamper_next[0]:
                with pytest.raises(ProofInvalidError):
                    shielded.poll(contract, 3600)
                assert contract.state is ContractState.ACTIVE
                tampered += 1
            else:
                settlement = shielded.poll(contract, 3600)
                assert settlement is not None and settlement.proof_ok is True
                clean += 1
        assert tampered > 0 and clean > 0
        signed = [r for r in shielded.audit if r.signed and r.kind == "condition"]
        assert signed and all(r.proof_ok is True for r in signed)
        assert all(r.verified_before_signing for r in signed)
        refused = [r for r in shielded.audit if r.kind == "refused"]
        assert len(refused) == tampered and not any(r.signed for r in refused)

        # without the shield the same tampering is signed straight through,
        # which is exactly the failure mode the flag exists to remove
        tamper_next[0] = True
        naive = Oracle(reg, sources, oracle_id="naive")
        naive.proof_hook = hook
        unshielded = naive.build_contract(
            chain,
            alice=alice,
            bob=bob,
            stakes=(200_000, 200_000),
            conditions=[Condition("wx", "t", Comparator.GE, 10, bob.pub)],
            default_beneficiary=alice.pub,
            start=0,
            end=7200,
            refund_locktime=100_000,
            poll_interval=3600,
            proofshield=False,
        )
        chain.mine_next(miners, rng)
        blind = naive.poll(unshielded, 3600)
        assert blind is not None and blind.proof_ok is False

        # city temperature contract, settled both ways
        reg3 = KeyRegistry()
        alice3, bob3 = reg3.keygen(b"alice"), reg3.keygen(b"bob")
        day = 24 * 3600
        rising = {
            "wu": DataSource(
                "wu", [("milan_temp", 0, 8), ("milan_temp", 7 * 3600, 12)]
            )
        }
        flat = {"wu": DataSource("wu", [("milan_temp", 0, 8)])}
        genesis3 = tuple(
            TxOutput(value=value, lock=PayToKey(pair.pub))
            for pair, value in (
                (alice3, 150_000_000),
                (bob3, 110_000_000),
                (alice3, 150_000_000),
                (bob3, 110_000_000),
            )
        )
        chain3 = SimChain(policy=POLICY_V090, genesis=genesis3, keys=reg3)

        def build(oracle):
            contract = oracle.build_contract(
                chain3,
                alice=alice3,
                bob=bob3,
                stakes=(150_000_000, 110_000_000),
                conditions=[Condition("wu", "milan_temp", Comparator.GE, 10, bob3.pub)],
                default_beneficiary=alice3.pub,
                start=0,
                end=day,
                refund_locktime=100_000,
                poll_interval=3600,
            )
            chain3.mine_next(miners, rng)
            assert len(poll_times(contract)) == 24  # hourly over one day
            return contract

        warm_oracle = Oracle(reg3, rising, oracle_id="warm")
        warm = build(warm_oracle)
        settlement = None
        polls_before_hit = 0
        for t in poll_times(warm):
            settlement = warm_oracle.poll(warm, t)
            if settlement is not None:
                break
            polls_before_hit += 1
        assert settlement is not None and polls_before_hit == 6
        assert settlement.observation.value == 12
        assert warm.state is ContractState.SETTLED_CONDITION
        co_sign_and_broadcast(chain3, settlement, bob3)
        chain3.mine_next(miners, rng)
        # bob keeps his change and collects the whole pot minus two fees
        assert chain3.balance(bob3.pub) == 110_000_000 + 259_998_000

        cold_oracle = Oracle(reg3, flat, oracle_id="cold")
        cold = build(cold_oracle)
        outcomes = [cold_oracle.poll(cold, t) for t in poll_times(cold)]
        assert len(outcomes) == 24 and all(o is None for o in outcomes)
        with pytest.raises(PollTooEarlyError):
            cold_oracle.settle_default(cold, day)
        fallback = cold_oracle.settle_default(cold, day + 3600)
        assert cold.state is ContractState.SETTLED_DEFAULT
        co_sign_and_broadcast(chain3, fallback, alice3)
        chain3.mine_next(miners, rng)
        # each agent funded both escrows and won exactly one of them
        assert chain3.balance(alice3.pub) == 259_998_000
        assert chain3.balance(bob3.pub) == 259_998_000
        line.note = (
            f"10000 condition pairs, {tampered} tampered polls refused, "
            "both temperature traces settled"
        )


# ------------------------------------------------------------- criterion 9


def test_c09_scenario_digest_reproducibility():
    with criterion(9, "every bundled scenario replays byte-identically") as line:
        paths = bundled_scenarios()
        assert paths
        for path in paths:
            first = run_scenario(Scenario.load(path))
            second = run_scenario(Scenario.load(path))
            assert first.log.encode() == second.log.encode(), path
            assert first.log.digest() == second.log.digest()
        line.note = f"{len(paths)} scenarios, two runs each"


# ------------------------------------------------------------ criterion 10


def test_c10_scenario_suite_exits_clean():
    with criterion(10, "bundled scenario suite exits 0 inside the budget") as line:
        started = time.monotonic()
        names = set()
        for path in bundled_scenarios():
            result = run_scenario(Scenario.load(path))
            assert result.exit_code == 0, (path, result.failures)
            assert result.passed and not result.failures
            names.add(result.scenario.name)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        assert len(names) >= 10
        for adversarial in (
            "orisi_theft",
            "truthcoin_capture",
            "counterparty_overspend",
            "oraclize_dead_oracle",
        ):
            assert adversarial in names
        line.note = f"{len(names)} scenarios in {elapsed:.1f}s"
