"""Scripted protocol scenarios: a JSON description in, a canonical event
log out.

The runner owns one simulated chain, one clock, and one RNG seeded from
the script, so two runs of the same file produce byte-identical logs.
Actions are scheduled by tick; the clock at tick t is
``start_time + t * tick_seconds`` and every protocol call that takes a
wall time receives it.  Blocks are mined after each tick's actions
(every ``mine_every`` ticks, or only via explicit ``mine`` actions when
``mine_every`` is null).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from random import Random
from typing import Any, Callable

from .. import counterparty, oraclize, orisi, realitykeys, will_oracle
from ..datafeed import Comparator, DataSource
from ..simchain import (
    POLICY_TEST2013,
    POLICY_V090,
    KeyPair,
    KeyRegistry,
    Miner,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    build_payment,
    sighash,
    sign,
    txid,
)
from ..truthcoin import Binary, Scalar, TruthcoinSim, commitment_digest
from .events import EventLog


class ParseError(Exception):
    """The scenario document is not a runnable script."""


class AssertionFailed(Exception):
    """A scripted post-condition did not hold at the end of the run."""


_COMPARATORS = {c.name.lower(): c for c in Comparator}

_CHECKS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparator(name: str) -> Comparator:
    try:
        return _COMPARATORS[name.lower()]
    except KeyError:
        raise ParseError(f"unknown comparator {name!r}") from None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    ticks: int
    tick_seconds: int
    start_time: int
    policy: str
    mine_every: int | None
    miners: tuple[dict, ...]
    actors: tuple[str, ...]
    genesis: tuple[dict, ...]
    sources: tuple[dict, ...]
    track_balances: tuple[str, ...]
    actions: tuple[dict, ...]
    assertions: tuple[dict, ...]

    @classmethod
    def from_dict(cls, doc: Any) -> "Scenario":
        if not isinstance(doc, dict):
            raise ParseError("scenario must be a JSON object")

        def need(key: str, kind: type) -> Any:
            value = doc.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ParseError(f"scenario.{key} must be a {kind.__name__}")
            return value

        name = need("name", str)
        seed = need("seed", int)
        ticks = need("ticks", int)
        if ticks < 1:
            raise ParseError("scenario.ticks must be at least 1")
        policy = doc.get("policy", "v090")
        if policy not in ("v090", "test2013"):
            raise ParseError(f"unknown policy {policy!r}")
        mine_every = doc.get("mine_every", 1)
        if mine_every is not None and (not isinstance(mine_every, int) or mine_every < 1):
            raise ParseError("scenario.mine_every must be null or a positive int")

        actions = tuple(doc.get("actions", []))
        for action in actions:
            if not isinstance(action, dict):
                raise ParseError("every action must be an object")
            op = action.get("op")
            if op not in _OPS:
                raise ParseError(f"unknown op {op!r}")
            tick = action.get("tick")
            if not isinstance(tick, int) or isinstance(tick, bool) or not 0 <= tick < ticks:
                raise ParseError(f"action {op!r} has tick {tick!r} outside 0..{ticks - 1}")

        assertions = tuple(doc.get("assertions", []))
        for check in assertions:
            if not isinstance(check, dict) or check.get("kind") not in (
                "balance",
                "count",
                "last_event",
            ):
                raise ParseError(f"unknown assertion {check!r}")
            if check.get("op", "==") not in _CHECKS:
                raise ParseError(f"unknown assertion op {check.get('op')!r}")

        return cls(
            name=name,
            seed=seed,
            ticks=ticks,
            tick_seconds=doc.get("tick_seconds", 3600),
            start_time=doc.get("start_time", 1_700_000_000),
            policy=policy,
            mine_every=mine_every,
            miners=tuple(doc.get("miners", [{"id": "m1", "hashrate": 1.0}])),
            actors=tuple(doc.get("actors", [])),
            genesis=tuple(doc.get("genesis", [])),
            sources=tuple(doc.get("sources", [])),
            track_balances=tuple(doc.get("track_balances", [])),
            actions=actions,
            assertions=assertions,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot load {path}: {exc}") from exc
        return cls.from_dict(doc)


@dataclass
class RunResult:
    scenario: Scenario
    log: EventLog
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


# ------------------------------------------------------------------ world


class World:
    """All mutable state one scenario run owns."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.rng = Random(scenario.seed)
        self.keys = KeyRegistry()
        self.actors: dict[str, KeyPair] = {
            name: self.keys.keygen(name.encode("utf-8")) for name in scenario.actors
        }
        genesis: list[TxOutput] = []
        for grant in scenario.genesis:
            pair = self.pair(grant["actor"])
            for _ in range(grant.get("coins", 1)):
                genesis.append(TxOutput(value=grant["value"], lock=PayToKey(pair.pub)))
        policy = POLICY_TEST2013 if scenario.policy == "test2013" else POLICY_V090
        self.chain = SimChain(policy=policy, genesis=tuple(genesis), keys=self.keys)
        self.miners = [
            Miner(
                miner_id=m["id"],
                hashrate=m.get("hashrate", 1.0),
                accepts_nonstandard=m.get("accepts_nonstandard", True),
            )
            for m in scenario.miners
        ]
        self.sources = {
            src["id"]: DataSource.from_json(src) for src in scenario.sources
        }
        self.log = EventLog()
        self.tick = 0
        self.now = scenario.start_time
        self.submit_tick: dict[bytes, int] = {}

        # protocol slots, created on first use
        self.wills: dict[str, will_oracle.WillContract] = {}
        self.will_servers: dict[str, will_oracle.OracleServer] = {}
        self.rk_registry: realitykeys.FactRegistry | None = None
        self.rk_facts: dict[str, str] = {}
        self.rk_temps: dict[str, tuple] = {}
        self.rk_contracts: dict[str, realitykeys.DemoContract] = {}
        self.orisi_contracts: dict[str, orisi.OrisiContract] = {}
        self.orisi_agents: dict[str, tuple[KeyPair, ...]] = {}
        self.orisi_nodes: dict[str, list[orisi.OracleNode]] = {}
        self.orisi_parties: dict[str, tuple[str, str]] = {}
        self.bus = orisi.MessageBus()
        self.tc: TruthcoinSim | None = None
        self.tc_decisions: dict[str, str] = {}
        self.tc_markets: dict[str, str] = {}
        self.tc_reveals: dict[tuple[int, str], tuple[dict[str, float], bytes]] = {}
        self.oz: oraclize.Oracle | None = None
        self.oz_contracts: dict[str, oraclize.ConditionalContract] = {}
        self.oz_settlements: dict[str, oraclize.SignedSettlement] = {}

    # --- helpers ---------------------------------------------------------

    def pair(self, name: str) -> KeyPair:
        try:
            return self.actors[name]
        except KeyError:
            raise ParseError(f"unknown actor {name!r}") from None

    def source(self, source_id: str) -> DataSource:
        try:
            return self.sources[source_id]
        except KeyError:
            raise ParseError(f"unknown source {source_id!r}") from None

    def emit(self, module: str, kind: str, **payload: Any) -> None:
        self.log.append(self.tick, module, kind, **payload)

    def submit(self, tx: Transaction, module: str) -> bool:
        result = self.chain.submit(tx)
        if result.accepted:
            self.submit_tick[result.txid] = self.tick
            self.emit(module, "tx_submitted", txid=result.txid.hex())
        else:
            self.emit(module, "tx_rejected", txid=result.txid.hex(), reason=result.reason)
        return result.accepted

    def mine(self) -> None:
        block = self.chain.mine_next(self.miners, self.rng)
        ids = [txid(tx) for tx in block.txs]
        delays = [self.tick - self.submit_tick[i] for i in ids if i in self.submit_tick]
        self.emit(
            "host",
            "block",
            height=block.height,
            miner=block.miner_id,
            txs=len(block.txs),
            delays=delays,
        )

    def names_by_pub(self) -> dict[str, str]:
        return {pair.pub.hex(): name for name, pair in self.actors.items()}


# ------------------------------------------------------------------- ops
# Each handler takes (world, action dict) and emits whatever it observed.


def _op_mine(w: World, a: dict) -> None:
    for _ in range(a.get("blocks", 1)):
        w.mine()


def _op_pay(w: World, a: dict) -> None:
    out = TxOutput(value=a["value"], lock=PayToKey(w.pair(a["to"]).pub))
    tx = build_payment(w.chain, w.pair(a["from"]), [out], fee=a.get("fee", 1000))
    w.submit(tx, "host")


# --- hash-committed will ---------------------------------------------


def _op_will_create(w: World, a: dict) -> None:
    oracle_name = a["oracle"]
    server = w.will_servers.get(oracle_name)
    if server is None:
        server = will_oracle.OracleServer(w.pair(oracle_name), w.source(a["source"]))
        w.will_servers[oracle_name] = server
    contract, funding = will_oracle.create_will(
        w.chain,
        creator=w.pair(a["creator"]),
        oracle_pub=server.pub,
        heir_pub=w.pair(a["heir"]).pub,
        expression=a["expression"],
        amount=a["amount"],
        fee=a.get("fee", 1000),
    )
    w.wills[a["id"]] = contract
    w.submit_tick[contract.funding_outpoint[0]] = w.tick
    w.emit("will", "created", id=a["id"], amount=contract.amount)


def _op_will_claim(w: World, a: dict) -> None:
    contract = w.wills[a["id"]]
    server = w.will_servers[a["oracle"]]
    heir = w.pair(a["heir"])
    fee = a.get("fee", 1000)
    partial = will_oracle.build_claim(w.chain, contract, heir, fee=fee)
    try:
        sig = server.sign_request(w.chain, a["expression"], partial, w.now)
    except will_oracle.WillError as exc:
        w.emit("will", "refused", id=a["id"], reason=type(exc).__name__)
        return
    tx = will_oracle.attach_signature(partial, 0, sig)
    accepted = w.submit(tx, "will")
    w.emit("will", "claimed", id=a["id"], accepted=accepted)


def _op_will_claim_alone(w: World, a: dict) -> None:
    contract = w.wills[a["id"]]
    partial = will_oracle.build_claim(w.chain, contract, w.pair(a["heir"]), fee=a.get("fee", 1000))
    accepted = w.submit(partial, "will")
    w.emit("will", "claim_alone", id=a["id"], accepted=accepted)


# --- fact registry with staged key release ----------------------------


def _op_rk_registry(w: World, a: dict) -> None:
    human = None
    if "human_agrees" in a:
        agrees = bool(a["human_agrees"])

        def human(fact, claimed):
            return claimed if agrees else None
    w.rk_registry = realitykeys.FactRegistry(
        sources=w.sources,
        keys=w.keys,
        objection_window=a.get("objection_window", realitykeys.DEFAULT_OBJECTION_WINDOW),
        min_tip=a.get("min_tip", realitykeys.MIN_OBJECTION_TIP),
        human_check=human,
    )
    w.emit("rk", "registry", min_tip=w.rk_registry.min_tip)


def _op_rk_fact(w: World, a: dict) -> None:
    ref = realitykeys.SourceRef(
        source_id=a["source"],
        key=a["key"],
        comparator=_comparator(a["comparator"]),
        threshold=a["threshold"],
    )
    fact = w.rk_registry.register_fact(
        question=a["question"],
        resolution_time=a["resolution_time"],
        source_ref=ref,
        now=w.now,
    )
    w.rk_facts[a["id"]] = fact.id
    w.emit("rk", "fact", id=a["id"], fact_id=fact.id)


def _op_rk_temps(w: World, a: dict) -> None:
    cid = a["id"]
    stakes = tuple(a["stakes"])
    temp_a = w.keys.keygen(f"rk-temp:{cid}:a".encode())
    temp_b = w.keys.keygen(f"rk-temp:{cid}:b".encode())
    outpoints = []
    for payer, temp, stake in ((a["alice"], temp_a, stakes[0]), (a["bob"], temp_b, stakes[1])):
        tx = build_payment(
            w.chain,
            w.pair(payer),
            [TxOutput(value=stake, lock=PayToKey(temp.pub))],
            fee=a.get("fee", 1000),
        )
        w.submit(tx, "rk")
        outpoints.append((txid(tx), 0))
    w.rk_temps[cid] = (temp_a, temp_b, tuple(outpoints), stakes, a["alice"], a["bob"])
    w.emit("rk", "temps_funded", id=cid)


def _op_rk_contract(w: World, a: dict) -> None:
    cid = a["id"]
    temp_a, temp_b, outpoints, stakes, alice, bob = w.rk_temps[cid]
    fact = w.rk_registry.facts[w.rk_facts[a["fact"]]]
    contract = realitykeys.demo_contract(
        fact, w.pair(alice).pub, w.pair(bob).pub, stakes, outpoints
    )
    fee = a.get("fee", 1000)
    partial = realitykeys.demo_setup(w.chain, contract, temp_a, fee=fee)
    complete = realitykeys.demo_countersign(w.chain, contract, temp_b, partial, fee=fee)
    accepted = w.submit(complete, "rk")
    w.rk_contracts[cid] = contract
    w.emit("rk", "funded", id=cid, accepted=accepted, escrow=sum(stakes) - fee)


def _op_rk_post(w: World, a: dict) -> None:
    fact = w.rk_registry.post_result(w.rk_facts[a["fact"]], now=w.now)
    w.emit("rk", "result", fact=a["fact"], outcome=fact.posted_result.value)


def _op_rk_object(w: World, a: dict) -> None:
    claimed = realitykeys.Outcome(a["claimed"])
    try:
        flipped = w.rk_registry.object(
            w.rk_facts[a["fact"]], tip=a["tip"], claimed=claimed, now=w.now
        )
    except realitykeys.RealityKeysError as exc:
        w.emit("rk", "objection", fact=a["fact"], accepted=False, reason=type(exc).__name__)
        return
    w.emit("rk", "objection", fact=a["fact"], accepted=True, flipped=flipped)


def _op_rk_finalize(w: World, a: dict) -> None:
    w.rk_registry.finalize(w.rk_facts[a["fact"]], now=w.now)
    fact = w.rk_registry.facts[w.rk_facts[a["fact"]]]
    w.emit("rk", "finalized", fact=a["fact"], outcome=fact.released_outcome.value)


def _op_rk_claim(w: World, a: dict) -> None:
    contract = w.rk_contracts[a["id"]]
    claimant = w.pair(a["claimant"])
    try:
        tx = realitykeys.demo_claim(
            w.chain,
            w.rk_registry,
            contract,
            claimant=claimant,
            dest_pub=claimant.pub,
            fee=a.get("fee", 1000),
        )
    except realitykeys.RealityKeysError as exc:
        w.emit("rk", "claimed", id=a["id"], claimant=a["claimant"], accepted=False,
               reason=type(exc).__name__)
        return
    accepted = w.submit(tx, "rk")
    w.emit("rk", "claimed", id=a["id"], claimant=a["claimant"], accepted=accepted)


# --- distributed oracle safe ------------------------------------------


def _op_orisi_propose(w: World, a: dict) -> None:
    cid = a["id"]
    oracle_names = list(a["oracles"])
    oracles = [(name, w.pair(name).pub) for name in oracle_names]
    condition = orisi.Condition(
        source_id=a["source"],
        key=a["key"],
        comparator=_comparator(a["comparator"]),
        threshold=a["threshold"],
        settle_time=a["settle_time"],
    )
    fees = orisi.OrisiFees(
        oracle_fee=a.get("oracle_fee", 1000),
        project_fee=a.get("project_fee", 1000),
        project_pub=w.pair(a["project"]).pub,
    )
    contract, agent_pairs = orisi.propose(
        w.chain,
        cid,
        alice=w.pair(a["alice"]),
        bob_pub=w.pair(a["bob"]).pub,
        oracles=oracles,
        m=a["m"],
        condition=condition,
        amount=a["amount"],
        fees=fees,
    )
    w.orisi_contracts[cid] = contract
    w.orisi_agents[cid] = agent_pairs
    w.orisi_parties[cid] = (a["alice"], a["bob"])
    w.orisi_nodes[cid] = [
        orisi.OracleNode(oracle_id=name, keypair=w.pair(name), source=w.source(a["source"]))
        for name in oracle_names
    ]
    w.emit(
        "orisi",
        "proposed",
        id=cid,
        threshold=contract.params.threshold,
        total_keys=contract.params.total_keys,
        agent_keys=contract.params.agent_keys,
    )


def _op_orisi_ack(w: World, a: dict) -> None:
    contract = w.orisi_contracts[a["id"]]
    for node in w.orisi_nodes[a["id"]]:
        node.ack(contract)
    w.emit("orisi", "acked", id=a["id"], acks=len(contract.acks))


def _op_orisi_activate(w: World, a: dict) -> None:
    contract = w.orisi_contracts[a["id"]]
    orisi.activate(w.chain, contract)
    w.submit_tick[contract.safe_outpoint[0]] = w.tick
    w.emit("orisi", "active", id=a["id"], amount=contract.amount)


def _op_orisi_poll(w: World, a: dict) -> None:
    contract = w.orisi_contracts[a["id"]]
    posted = 0
    for node in w.orisi_nodes[a["id"]]:
        if node.poll_and_sign(contract, w.bus, w.now) is not None:
            posted += 1
    applied = contract.apply_bus(w.bus, w.keys)
    ready = orisi.ready_draft(contract)
    w.emit(
        "orisi",
        "poll",
        id=a["id"],
        posted=posted,
        applied=applied,
        ready=ready.value if ready else None,
    )


def _op_orisi_finalize(w: World, a: dict) -> None:
    cid = a["id"]
    contract = w.orisi_contracts[cid]
    try:
        tx = orisi.finalize(w.chain, contract, w.orisi_agents[cid])
    except orisi.OrisiError as exc:
        w.emit("orisi", "settled", id=cid, accepted=False, reason=type(exc).__name__)
        return
    w.submit_tick[txid(tx)] = w.tick
    w.emit("orisi", "settled", id=cid, accepted=True, state=contract.state.value)


def _op_orisi_theft(w: World, a: dict) -> None:
    """All n oracles collude: their signatures alone stay below the
    n+1 threshold, so the spend must bounce."""
    cid = a["id"]
    contract = w.orisi_contracts[cid]
    loot = TxOutput(value=contract.amount - 1000, lock=PayToKey(w.pair(a["dest"]).pub))
    theft = Transaction(inputs=(TxInput(outpoint=contract.safe_outpoint),), outputs=(loot,))
    digest = sighash(theft)
    sigs = tuple(
        sign(w.pair(name).secret, digest) for name in sorted(contract.oracle_pubs)
    )
    theft = theft.with_witness(0, Witness(signatures=sigs))
    result = w.chain.submit(theft)
    w.emit("orisi", "theft", id=cid, accepted=result.accepted, signatures=len(sigs))


# --- sidechain voting and markets --------------------------------------


def _op_tc_init(w: World, a: dict) -> None:
    alloc = {name: int(v) for name, v in a["allocation"].items()}
    kwargs: dict[str, Any] = {"now": w.now}
    for key in ("quorum", "severity", "waiting_period", "veto_window"):
        if key in a:
            kwargs[key] = a[key]
    w.tc = TruthcoinSim(alloc, **kwargs)
    w.emit("tc", "init", vtc_supply=w.tc.vtc_supply())


def _op_tc_peg_in(w: World, a: dict) -> None:
    w.tc.peg_in(a["actor"], a["amount"])
    w.emit("tc", "peg_in", actor=a["actor"], amount=a["amount"])


def _op_tc_decision(w: World, a: dict) -> None:
    kind = Binary() if a.get("kind", "binary") == "binary" else Scalar(a["min"], a["max"])
    decision = w.tc.add_decision(a["author"], a["prompt"], kind, a["maturity_time"])
    w.tc_decisions[a["id"]] = decision.decision_id
    w.emit("tc", "decision", id=a["id"], decision_id=decision.decision_id)


def _op_tc_observe(w: World, a: dict) -> None:
    w.tc.mark_observable(w.tc_decisions[a["id"]])
    w.emit("tc", "observable", id=a["id"])


def _op_tc_market(w: World, a: dict) -> None:
    decision_ids = [w.tc_decisions[d] for d in a["decisions"]]
    market = w.tc.add_market(a["author"], decision_ids, a["b"], a.get("fee_rate", 0.0))
    w.tc_markets[a["id"]] = market.market_id
    w.emit("tc", "market", id=a["id"], states=len(market.q), collateral=market.collateral)


def _op_tc_trade(w: World, a: dict) -> None:
    paid = w.tc.trade(w.tc_markets[a["market"]], a["actor"], a["state"], a["shares"])
    w.emit("tc", "trade", market=a["market"], actor=a["actor"], state=a["state"], paid=paid)


def _op_tc_ballot(w: World, a: dict) -> None:
    ballot = w.tc.open_ballot()
    w.emit("tc", "ballot", period=ballot.period, decisions=len(ballot.decision_ids))


def _op_tc_commit(w: World, a: dict) -> None:
    period = a["period"]
    reports = {w.tc_decisions[d]: float(v) for d, v in a["reports"].items()}
    salt = a["salt"].encode("utf-8")
    w.tc.commit_vote(a["actor"], period, commitment_digest(reports, salt), a["stake"])
    w.tc_reveals[(period, a["actor"])] = (reports, salt)
    w.emit("tc", "commit", period=period, actor=a["actor"], stake=a["stake"])


def _op_tc_close_commit(w: World, a: dict) -> None:
    w.tc.close_commit(a["period"])
    w.emit("tc", "commit_closed", period=a["period"])


def _op_tc_reveal(w: World, a: dict) -> None:
    reports, salt = w.tc_reveals[(a["period"], a["actor"])]
    w.tc.reveal_vote(a["actor"], a["period"], reports, salt)
    w.emit("tc", "reveal", period=a["period"], actor=a["actor"])


def _op_tc_close_reveal(w: World, a: dict) -> None:
    w.tc.close_reveal(a["period"])
    w.emit("tc", "reveal_closed", period=a["period"])


def _op_tc_resolve(w: World, a: dict) -> None:
    period = a["period"]
    outcomes = w.tc.resolve_ballot(period)
    aliases = {did: alias for alias, did in w.tc_decisions.items()}
    for did in sorted(outcomes):
        decision = w.tc.decisions[did]
        w.emit(
            "tc",
            "outcome",
            period=period,
            decision=aliases.get(did, did),
            outcome=decision.outcome,
            unresolvable=decision.unresolvable,
        )
    for voter in sorted(w.tc.ballots[period].votes):
        record = w.tc.ballots[period].votes[voter]
        w.emit("tc", "stake", period=period, actor=voter, stake=record.stake)


def _op_tc_side_blocks(w: World, a: dict) -> None:
    veto = frozenset(a.get("veto_periods", []))
    flagged = a.get("flag_count", a["count"] if veto else 0)
    for i in range(a["count"]):
        w.tc.mine_side_block(a.get("miner", "side"), veto=veto if i < flagged else frozenset())
    w.emit("tc", "side_blocks", count=a["count"], flagged=flagged)


def _op_tc_veto(w: World, a: dict) -> None:
    outcome = w.tc.veto_result(a["period"])
    w.emit("tc", "veto", period=a["period"], outcome=outcome.value)


def _op_tc_redeem(w: World, a: dict) -> None:
    payout = w.tc.redeem(w.tc_markets[a["market"]], a["actor"])
    w.emit("tc", "redeem", market=a["market"], actor=a["actor"], payout=payout)


def _op_tc_snapshot(w: World, a: dict) -> None:
    for name in sorted(set(w.tc.ledger.csh) | set(w.tc.ledger.vtc) | set(w.tc.ledger.frozen_vtc)):
        w.emit(
            "tc",
            "account",
            actor=name,
            csh=w.tc.ledger.csh.get(name, 0),
            vtc=w.tc.ledger.vtc.get(name, 0),
            frozen=w.tc.ledger.frozen_vtc.get(name, 0),
        )


# --- embedded meta-protocol --------------------------------------------


def _op_xcp_burn(w: World, a: dict) -> None:
    tx = counterparty.compose_burn_tx(
        w.chain, w.pair(a["actor"]), a["sats"], fee=a.get("fee", 1000)
    )
    w.submit(tx, "cp")


def _op_xcp_send(w: World, a: dict) -> None:
    message = counterparty.Send(
        asset=counterparty.XCP, qty=a["qty"], dest=w.pair(a["to"]).pub.hex()
    )
    tx = counterparty.compose_message_tx(
        w.chain, w.pair(a["actor"]), message, fee=a.get("fee", 1000)
    )
    w.submit(tx, "cp")


def _op_xcp_broadcast(w: World, a: dict) -> None:
    message = counterparty.Broadcast(
        timestamp=a["timestamp"],
        value=a["value"],
        fee_fraction=a.get("fee_fraction", 0),
        text=a.get("text", ""),
    )
    tx = counterparty.compose_message_tx(
        w.chain, w.pair(a["actor"]), message, fee=a.get("fee", 1000)
    )
    w.submit(tx, "cp")


def _op_xcp_bet(w: World, a: dict) -> None:
    message = counterparty.Bet(
        feed=w.pair(a["feed"]).pub.hex(),
        comparator=_comparator(a["comparator"]),
        target=a["target"],
        deadline=a["deadline"],
        wager=a["wager"],
        counterwager=a["counterwager"],
        side=a["side"],
    )
    tx = counterparty.compose_message_tx(
        w.chain, w.pair(a["actor"]), message, fee=a.get("fee", 1000)
    )
    w.submit(tx, "cp")


def _op_xcp_replay(w: World, a: dict) -> None:
    state = counterparty.replay(w.chain)
    names = w.names_by_pub()
    for entry in state.log:
        w.emit(
            "cp",
            "message",
            txid=entry.txid.hex(),
            type=type(entry.message).__name__.lower(),
            valid=entry.valid,
            reason=entry.reason,
        )
    for address, asset in sorted(state.balances):
        w.emit(
            "cp",
            "balance",
            actor=names.get(address, address),
            asset=asset,
            qty=state.balances[(address, asset)],
        )
    w.emit(
        "cp",
        "replay",
        issued=state.issued,
        burned=state.burned,
        escrowed=state.escrowed(),
        digest=counterparty.state_digest(state).hex(),
    )


# --- polled conditional contracts ---------------------------------------


def _oz(w: World) -> oraclize.Oracle:
    if w.oz is None:
        w.oz = oraclize.Oracle(w.keys, w.sources)
    return w.oz


def _op_oz_contract(w: World, a: dict) -> None:
    oracle = _oz(w)
    conditions = tuple(
        oraclize.Condition(
            source_id=c["source"],
            key=c["key"],
            comparator=_comparator(c["comparator"]),
            threshold=c["threshold"],
            beneficiary=w.pair(c["beneficiary"]).pub,
        )
        for c in a["conditions"]
    )
    contract = oracle.build_contract(
        w.chain,
        alice=w.pair(a["alice"]),
        bob=w.pair(a["bob"]),
        stakes=tuple(a["stakes"]),
        conditions=conditions,
        default_beneficiary=w.pair(a["default"]).pub,
        start=a["start"],
        end=a["end"],
        refund_locktime=a["refund_locktime"],
        poll_interval=a.get("poll_interval", 3600),
        proofshield=a.get("proofshield", False),
        arbitrator=w.pair(a["arbitrator"]).pub if "arbitrator" in a else None,
        fee=a.get("fee", 1000),
    )
    w.oz_contracts[a["id"]] = contract
    w.submit_tick[contract.funding_outpoint[0]] = w.tick
    w.emit("oz", "contract", id=a["id"], escrow=contract.escrow_value)


def _op_oz_poll(w: World, a: dict) -> None:
    oracle = _oz(w)
    contract = w.oz_contracts[a["id"]]
    try:
        settlement = oracle.poll(contract, w.now, fee=a.get("fee", 1000))
    except oraclize.ProofInvalidError:
        w.emit("oz", "refused", id=a["id"])
        return
    if settlement is None:
        w.emit("oz", "poll", id=a["id"], settled=False)
        return
    w.oz_settlements[a["id"]] = settlement
    w.emit(
        "oz",
        "poll",
        id=a["id"],
        settled=True,
        condition=settlement.condition_index,
        proof_ok=settlement.proof_ok,
    )


def _op_oz_default(w: World, a: dict) -> None:
    oracle = _oz(w)
    contract = w.oz_contracts[a["id"]]
    w.oz_settlements[a["id"]] = oracle.settle_default(contract, w.now, fee=a.get("fee", 1000))
    w.emit("oz", "default", id=a["id"])


def _op_oz_cosign(w: World, a: dict) -> None:
    settlement = w.oz_settlements[a["id"]]
    tx = oraclize.co_sign_and_broadcast(w.chain, settlement, w.pair(a["agent"]))
    w.submit_tick[txid(tx)] = w.tick
    w.emit("oz", "cosigned", id=a["id"], agent=a["agent"])


def _op_oz_refund(w: World, a: dict) -> None:
    contract = w.oz_contracts[a["id"]]
    tx = oraclize.refund_expiry(w.chain, contract)
    w.submit_tick[txid(tx)] = w.tick
    w.emit("oz", "refund", id=a["id"])


def _op_oz_tamper(w: World, a: dict) -> None:
    oracle = _oz(w)
    if a.get("on", True):

        def hook(proof):
            return replace(proof, attestation=bytes(b ^ 0xFF for b in proof.attestation))

        oracle.proof_hook = hook
    else:
        oracle.proof_hook = None
    w.emit("oz", "tamper", on=a.get("on", True))


def _op_balances(w: World, a: dict) -> None:
    names = a.get("actors") or sorted(w.actors)
    balances = {name: w.chain.balance(w.pair(name).pub) for name in names}
    w.emit("host", "balances", balances=balances)


_OPS: dict[str, Callable[[World, dict], None]] = {
    "mine": _op_mine,
    "pay": _op_pay,
    "balances": _op_balances,
    "will_create": _op_will_create,
    "will_claim": _op_will_claim,
    "will_claim_alone": _op_will_claim_alone,
    "rk_registry": _op_rk_registry,
    "rk_fact": _op_rk_fact,
    "rk_temps": _op_rk_temps,
    "rk_contract": _op_rk_contract,
    "rk_post": _op_rk_post,
    "rk_object": _op_rk_object,
    "rk_finalize": _op_rk_finalize,
    "rk_claim": _op_rk_claim,
    "orisi_propose": _op_orisi_propose,
    "orisi_ack": _op_orisi_ack,
    "orisi_activate": _op_orisi_activate,
    "orisi_poll": _op_orisi_poll,
    "orisi_finalize": _op_orisi_finalize,
    "orisi_theft": _op_orisi_theft,
    "tc_init": _op_tc_init,
    "tc_peg_in": _op_tc_peg_in,
    "tc_decision": _op_tc_decision,
    "tc_observe": _op_tc_observe,
    "tc_market": _op_tc_market,
    "tc_trade": _op_tc_trade,
    "tc_ballot": _op_tc_ballot,
    "tc_commit": _op_tc_commit,
    "tc_close_commit": _op_tc_close_commit,
    "tc_reveal": _op_tc_reveal,
    "tc_close_reveal": _op_tc_close_reveal,
    "tc_resolve": _op_tc_resolve,
    "tc_side_blocks": _op_tc_side_blocks,
    "tc_veto": _op_tc_veto,
    "tc_redeem": _op_tc_redeem,
    "tc_snapshot": _op_tc_snapshot,
    "xcp_burn": _op_xcp_burn,
    "xcp_send": _op_xcp_send,
    "xcp_broadcast": _op_xcp_broadcast,
    "xcp_bet": _op_xcp_bet,
    "xcp_replay": _op_xcp_replay,
    "oz_contract": _op_oz_contract,
    "oz_poll": _op_oz_poll,
    "oz_default": _op_oz_default,
    "oz_cosign": _op_oz_cosign,
    "oz_refund": _op_oz_refund,
    "oz_tamper": _op_oz_tamper,
}


# ------------------------------------------------------------- assertions


def _check_balance(world: World, check: dict) -> str | None:
    actual = world.chain.balance(world.pair(check["actor"]).pub)
    op = _CHECKS[check.get("op", "==")]
    if op(actual, check["value"]):
        return None
    return (
        f"balance[{check['actor']}] = {actual}, "
        f"wanted {check.get('op', '==')} {check['value']}"
    )


def _select(world: World, check: dict) -> list:
    module, _, kind = check["event"].partition("/")
    where = check.get("where")
    events = [
        e
        for e in world.log.events
        if e.module == module
        and e.kind == kind
        and (not where or all(e.payload.get(k) == v for k, v in where.items()))
    ]
    return events


def _check_count(world: World, check: dict) -> str | None:
    actual = len(_select(world, check))
    op = _CHECKS[check.get("op", "==")]
    if op(actual, check["value"]):
        return None
    return (
        f"count[{check['event']}] = {actual}, "
        f"wanted {check.get('op', '==')} {check['value']}"
    )


def _check_last_event(world: World, check: dict) -> str | None:
    events = _select(world, check)
    if not events:
        return f"no {check['event']} event matched {check.get('where', {})}"
    payload = events[-1].payload
    field_name = check["field"]
    if field_name not in payload:
        return f"last {check['event']} event has no field {field_name!r}"
    actual = payload[field_name]
    op = _CHECKS[check.get("op", "==")]
    if op(actual, check["value"]):
        return None
    return (
        f"last {check['event']}.{field_name} = {actual!r}, "
        f"wanted {check.get('op', '==')} {check['value']!r}"
    )


_ASSERTS = {"balance": _check_balance, "count": _check_count, "last_event": _check_last_event}


# -------------------------------------------------------------------- run


def run_scenario(
    source: Scenario | dict | str | Path, seed_override: int | None = None
) -> RunResult:
    """Execute one scenario start to finish and check its assertions.

    Failed assertions are collected into ``RunResult.failures`` rather
    than raised, so callers can report all of them; ``ParseError`` still
    raises because a malformed script has no meaningful result.
    """
    if isinstance(source, Scenario):
        scenario = source
    elif isinstance(source, dict):
        scenario = Scenario.from_dict(source)
    else:
        scenario = Scenario.load(source)
    if seed_override is not None:
        scenario = Scenario.from_dict(
            {**_scenario_dict(scenario), "seed": seed_override}
        )

    world = World(scenario)
    by_tick: dict[int, list[dict]] = {}
    for action in scenario.actions:
        by_tick.setdefault(action["tick"], []).append(action)

    world.emit("run", "start", name=scenario.name, seed=scenario.seed)
    for tick in range(scenario.ticks):
        world.tick = tick
        world.now = scenario.start_time + tick * scenario.tick_seconds
        if world.tc is not None and world.now > world.tc.now:
            world.tc.advance(world.now - world.tc.now)
        for action in by_tick.get(tick, ()):
            _OPS[action["op"]](world, action)
        if scenario.mine_every is not None and (tick + 1) % scenario.mine_every == 0:
            world.mine()
        if scenario.track_balances:
            world.emit(
                "host",
                "balances",
                balances={
                    name: world.chain.balance(world.pair(name).pub)
                    for name in scenario.track_balances
                },
            )
    world.emit("run", "end", ticks=scenario.ticks, height=world.chain.height)

    failures = []
    for check in scenario.assertions:
        message = _ASSERTS[check["kind"]](world, check)
        if message is not None:
            failures.append(message)
    return RunResult(scenario=scenario, log=world.log, failures=failures)


def _scenario_dict(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "seed": scenario.seed,
        "ticks": scenario.ticks,
        "tick_seconds": scenario.tick_seconds,
        "start_time": scenario.start_time,
        "policy": scenario.policy,
        "mine_every": scenario.mine_every,
        "miners": list(scenario.miners),
        "actors": list(scenario.actors),
        "genesis": list(scenario.genesis),
        "sources": list(scenario.sources),
        "track_balances": list(scenario.track_balances),
        "actions": list(scenario.actions),
        "assertions": list(scenario.assertions),
    }


def bundled_scenarios() -> list[Path]:
    """The demonstration scripts shipped inside the package."""
    root = resources.files("oraclesim").joinpath("scenarios")
    return sorted(Path(str(entry)) for entry in root.iterdir() if entry.name.endswith(".json"))
