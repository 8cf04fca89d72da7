"""Scripted protocol scenarios: a JSON description in, a canonical event
log out.

The runner owns one simulated chain, one clock, and one RNG seeded from
the script, so two runs of the same file produce byte-identical logs.
Actions are scheduled by tick; the clock at tick t is
``start_time + t * tick_seconds`` and every protocol call that takes a
wall time receives it.  Blocks are mined after each tick's actions
(every ``mine_every`` ticks, or only via explicit ``mine`` actions when
``mine_every`` is null).

Each JSON object is declared by the parameters of the callable that takes
it: ``Scenario``, an ``_op_*`` handler or a ``_check_*`` function. One
converter per declared type is built from those annotations when the module
is imported, so binding a document only looks up keys and checks types.
"""

from __future__ import annotations

import json
import operator
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, reduce
from importlib import resources
from inspect import formatannotation, signature
from itertools import repeat
from pathlib import Path
from random import Random
from types import UnionType
from typing import Annotated, Any, Callable, Literal, NamedTuple, Union
from typing import get_args, get_origin, get_type_hints

from .. import counterparty, oraclize, orisi, realitykeys, truthcoin, will_oracle
from ..datafeed import Comparator, Condition, DataSource, FeedValue, NoDataError, query
from ..simchain import (
    KeyPair,
    KeyRegistry,
    Miner,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    POLICIES,
    add_signature,
    build_payment,
    check_miners,
    sign_input,
    txid,
)
from .events import EventLog


class ParseError(Exception):
    """The scenario document is not a runnable script."""


_FEE = 1000  # satoshi; what every op that builds a transaction pays unless told otherwise

CheckOp = Literal["==", "!=", "<", "<=", ">", ">="]
_CHECKS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ----------------------------------------------------------------- binder
# One converter per annotation, built when the module is imported; binding
# raises ParseError(": <reason>"), each enclosing object or list prefixes
# its step (".field" or "[index]"), and from_dict "scenario".

_NONE = type(None)
_JSON = (str, int, float, bool, _NONE, list, dict)
# Exact types: a bool is not an int, but a float field takes an int as it is.
_SCALARS = {str: (str,), int: (int,), float: (int, float), bool: (bool,), _NONE: (_NONE,)}
_SCALARS[Any] = _JSON


# A field's rule rides on its annotation: an int that a transaction or a
# message carries fits its codec width (FORMATS.md), and a name is one that
# the document declares under ``actors`` or ``sources``.
U8 = Annotated[int, "u8", range(2**8)]
U16 = Annotated[int, "u16", range(2**16)]
U32 = Annotated[int, "u32", range(2**32)]
U64 = Annotated[int, "u64", range(2**64)]
I64 = Annotated[int, "i64", range(-(2**63), 2**63)]
Actor = Annotated[str, "actor"]
SourceId = Annotated[str, "source"]

# The names the document being bound declares, by kind; a kind whose raw list
# is malformed is missing, so that the list's own refusal is the one raised.
# Only from_dict sets it, so binding a name outside from_dict raises LookupError.
_DECLARED: ContextVar[dict[str, frozenset[str]]] = ContextVar("_DECLARED")


def _plain(annotation: Any) -> Any:
    """``annotation`` without its rules, as a refusal names it."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Annotated:
        return args[0]
    plain = tuple(map(_plain, args))
    if plain == args:
        return annotation
    return reduce(operator.or_, plain) if origin in (Union, UnionType) else origin[plain]


class _Converter(dict):
    """How one annotation binds a JSON value: ``self[type(value)]`` binds a value
    of that type (None: as it is); a type the annotation does not take raises."""

    def __init__(self, expected: Any, each: dict[type, Callable | None]) -> None:
        super().__init__(each)
        self.refusal = f": expected {formatannotation(_plain(expected))}, got "

    def __missing__(self, kind: type) -> Any:
        if object in self:  # one function binds values of every type
            return self[object]
        raise ParseError(self.refusal + kind.__name__)


def _item(step: str | int, converter: _Converter, value: Any) -> Any:
    try:
        convert = converter[type(value)]
        return value if convert is None else convert(value)
    except ParseError as exc:
        raise ParseError(f"[{step}]{exc}" if type(step) is int else f".{step}{exc}") from None


def _fields(fn: Callable, make: Callable, skip: int = 0, **extra: Any) -> Callable[[dict], Any]:
    """Binds a JSON object to keyword arguments, ``fn``'s parameters after
    ``skip`` and ``extra``, and returns ``make(args)``."""
    params = list(signature(fn).parameters.values())[skip:]
    hints = {**get_type_hints(fn, include_extras=True), **extra}
    names = [p.name for p in params] + list(extra)
    fields = {n.removesuffix("_"): (n, _converter(hints[n])) for n in names}
    optional = {p.name.removesuffix("_") for p in params if p.default is not p.empty}
    required = fields.keys() - optional

    def bind(value: dict) -> Any:
        args = {}
        for key, item in value.items():
            if key not in fields:
                raise ParseError(f": unknown field {key!r}")
            name, converter = fields[key]
            args[name] = _item(key, converter, item)
        if not required <= value.keys():
            raise ParseError(f": missing field {min(required - value.keys())!r}")
        try:
            return make(args)
        except ValueError as exc:
            raise ParseError(f": {exc}") from None

    return bind


@cache
def _converter(annotation: Any) -> _Converter:
    """Scalars as they are, enum members by name in any case, the rest anew."""
    if annotation in _SCALARS:
        return _Converter(annotation, dict.fromkeys(_SCALARS[annotation]))
    if annotation in (Action, Check):
        tag, binders = _TAGGED[annotation]

        def tagged(value: dict) -> Any:
            name = value.get(tag)
            if type(name) is str and name in binders:
                return binders[name](value)
            raise ParseError(f".{tag}: unknown {tag} {name!r}")

        return _Converter(dict, {dict: tagged})
    origin, args = get_origin(annotation), get_args(annotation)
    if origin in (Union, UnionType):  # a JSON type binds with the first member taking it
        first: dict[type, Callable | None] = {}
        for member in map(_converter, args):
            first = {**member, **first}
        return _Converter(annotation, first)
    if origin is Annotated:  # the base type's converter, then the rule
        base, rule, *fits = args  # a codec width and the values it holds, or a kind of name

        def check(value: Any) -> Any:
            allowed = fits[0] if fits else _DECLARED.get().get(rule)
            if allowed is None or value in allowed:
                return value
            reason = f"{value} does not fit {rule}" if fits else f"unknown {rule} {value!r}"
            raise ParseError(f": {reason}")

        return _Converter(base, dict.fromkeys(_converter(base), check))
    if origin is Literal or isinstance(annotation, type) and issubclass(annotation, Enum):
        members = dict(zip(args, args)) if args else annotation.__members__
        named = {name.lower(): member for name, member in members.items()}

        def choice(value: Any) -> Any:
            if type(value) is str and value.lower() in named:
                return named[value.lower()]
            raise ParseError(f": expected one of {', '.join(named)}, got {value!r}")

        return _Converter(annotation, dict.fromkeys((*_JSON, object), choice))
    if origin is dict:  # JSON object keys are strings
        each = _converter(args[1])
        return _Converter(annotation, {dict: lambda v: {k: _item(k, each, v[k]) for k in v}})
    if origin in (list, tuple):
        variadic = origin is list or args[-1] is Ellipsis
        items = [_converter(a) for a in (args[:1] if variadic else args)]

        def sequence(value: list) -> list | tuple:
            if not variadic and len(value) != len(items):
                raise ParseError(f": expected {len(items)} items, got {len(value)}")
            each = zip(value, repeat(items[0]) if variadic else items)
            out = [_item(i, converter, v) for i, (v, converter) in enumerate(each)]
            return out if origin is list else tuple(out)

        return _Converter(annotation, {list: sequence})
    build = _OBJECTS[annotation]
    return _Converter(dict, {dict: _fields(build, lambda args: build(**args))})


# --------------------------------------------------------------- document


class Grant(NamedTuple):
    """``coins`` genesis outputs of ``value`` satoshi each, paid to ``actor``."""

    actor: Actor
    value: U64
    coins: U16 = 1


class Action(NamedTuple):
    """``_OPS[op](world, **args)``, run at ``tick``."""

    tick: int
    op: str
    args: dict[str, Any]


def _conditions(action: Action) -> list[Condition]:
    """The feed conditions that an ``rk_fact``, ``orisi_propose`` or
    ``oz_contract`` action registers; building one applies its kind rule."""
    if action.op == "oz_contract":
        found = [vars(c) for c in action.args["conditions"]]
    elif action.op in ("rk_fact", "orisi_propose"):
        found = [action.args]
    else:
        return []
    return [Condition(f["source"], f["key"], f["comparator"], f["threshold"]) for f in found]


class Check(NamedTuple):
    """``_ASSERTS[kind](world, **args)``, checked after the run."""

    kind: str
    args: dict[str, Any]


class _Entry(NamedTuple):
    key: str
    time: int
    value: FeedValue


def _miner(id_: str, hashrate: float = 1.0, accepts_nonstandard: bool = True) -> Miner:
    return Miner(id_, hashrate, accepts_nonstandard)


def _source(id_: str, entries: tuple[_Entry, ...] = (), ssl: bool = True) -> DataSource:
    return DataSource(id_, entries, ssl=ssl)


@dataclass(frozen=True)
class Scenario:
    """A checked scenario document; the fields are its top-level keys."""

    name: str
    seed: int
    ticks: int
    tick_seconds: int = 3600
    start_time: int = 1_700_000_000
    policy: Literal[tuple(POLICIES)] = "v090"
    mine_every: int | None = 1
    miners: tuple[Miner, ...] = (Miner("m1", 1.0),)
    actors: tuple[str, ...] = ()
    genesis: tuple[Grant, ...] = ()
    sources: tuple[DataSource, ...] = ()
    track_balances: tuple[Actor, ...] = ()
    actions: tuple[Action, ...] = ()
    assertions: tuple[Check, ...] = ()

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError("ticks must be at least 1")
        if self.mine_every is not None and self.mine_every < 1:
            raise ValueError("mine_every must be null or at least 1")
        check_miners(self.miners)
        for i, name in enumerate(self.actors):
            if not name:  # key derivation takes no empty seed
                raise ValueError(f"actors[{i}] is empty")
        coins = 0
        for i, grant in enumerate(self.genesis):
            coins += grant.coins
            if coins > 0xFFFF:  # the u16 output count of the one genesis transaction
                raise ValueError(f"genesis[{i}]: the genesis transaction holds at most "
                                 "65535 outputs")
        for i, action in enumerate(self.actions):
            if not 0 <= action.tick < self.ticks:
                raise ValueError(f"actions[{i}].tick {action.tick} is outside 0..{self.ticks - 1}")
        for what, names in (("actor", self.actors), ("source", [s.id for s in self.sources])):
            if len(set(names)) < len(names):
                repeated = next(n for i, n in enumerate(names) if n in names[:i])
                raise ValueError(f"{what} {repeated!r} is declared twice")
        sources = {s.id: s for s in self.sources}
        for i, action in enumerate(self.actions):
            try:
                for condition in _conditions(action):
                    source = condition.source_in(sources)
                    if action.op == "rk_fact":  # rk_post reads the key at resolution_time
                        query(source, condition.key, action.args["resolution_time"])
            except (ValueError, NoDataError) as exc:
                raise ValueError(f"actions[{i}]: {exc}") from None

    @classmethod
    def from_dict(cls, doc: Any) -> "Scenario":
        """Check every object of ``doc`` against its declaration; the
        ParseError names the first object and field that does not fit."""
        declared = _DECLARED.set(_declared(doc))
        try:
            return _SCENARIO[type(doc)](doc)
        except ParseError as exc:
            raise ParseError(f"scenario{exc}") from None
        finally:
            _DECLARED.reset(declared)

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        # ValueError covers bad JSON and bytes that are not UTF-8, and
        # RecursionError a document nested deeper than the decoder recurses
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ParseError(f"cannot load {path}: {exc}") from exc
        return cls.from_dict(doc)


def _declared(doc: Any) -> dict[str, frozenset[str]]:
    """The actor names and source ids a raw document declares, for each kind
    whose list is well formed."""
    doc = doc if type(doc) is dict else {}
    sources = doc.get("sources", [])
    lists = {"actor": doc.get("actors", []),
             "source": type(sources) is list and [type(s) is dict and s.get("id") for s in sources]}
    return {kind: frozenset(names) for kind, names in lists.items()
            if type(names) is list and all(type(n) is str for n in names)}


@dataclass
class RunResult:
    scenario: Scenario
    log: EventLog
    world: World  # the state the run ended in, for reading
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
            pair = self.actors[grant.actor]
            for _ in range(grant.coins):
                genesis.append(TxOutput(value=grant.value, lock=PayToKey(pair.pub)))
        policy = POLICIES[scenario.policy]
        self.chain = SimChain(policy=policy, genesis=tuple(genesis), keys=self.keys)
        self.sources = {src.id: src for src in scenario.sources}
        self.log = EventLog()
        self.tick = 0
        self.now = scenario.start_time
        self.submit_tick: dict[bytes, int] = {}  # each mempool entry's txid: tick it arrived

        # protocol slots, created on first use
        self.wills: dict[str, will_oracle.WillContract] = {}
        self.will_servers: dict[str, will_oracle.OracleServer] = {}
        self._rk_registry: realitykeys.FactRegistry | None = None
        self.rk_facts: dict[str, str] = {}
        self.rk_temps: dict[str, tuple] = {}
        self.rk_contracts: dict[str, realitykeys.DemoContract] = {}
        self.orisi_contracts: dict[str, orisi.OrisiContract] = {}
        self.orisi_agents: dict[str, tuple[KeyPair, ...]] = {}
        self.orisi_nodes: dict[str, list[orisi.OracleNode]] = {}
        self.bus = orisi.MessageBus()
        self._tc: truthcoin.TruthcoinSim | None = None
        self.tc_decisions: dict[str, str] = {}
        self.tc_markets: dict[str, str] = {}
        self.tc_reveals: dict[tuple[int, str], tuple[dict[str, float], bytes]] = {}
        self.oz: oraclize.Oracle | None = None
        self.oz_contracts: dict[str, oraclize.ConditionalContract] = {}
        self.oz_settlements: dict[str, oraclize.Settlement] = {}

    # --- helpers ---------------------------------------------------------

    @property
    def rk_registry(self) -> realitykeys.FactRegistry:
        if self._rk_registry is None:  # refuses an op before rk_registry, or after it refused
            raise LookupError("no fact registry: rk_registry has not run")
        return self._rk_registry

    @property
    def tc(self) -> truthcoin.TruthcoinSim:
        if self._tc is None:
            raise LookupError("no sidechain: tc_init has not run")
        return self._tc

    def emit(self, module: str, kind: str, **payload: Any) -> None:
        self.log.append(self.tick, module, kind, **payload)

    def submit(self, tx: Transaction, module: str) -> bool:
        result = self.chain.submit(tx)
        if result.accepted:
            self.emit(module, "tx_submitted", txid=result.txid.hex())
        else:
            self.emit(module, "tx_rejected", txid=result.txid.hex(), reason=result.reason)
        return result.accepted

    def stamp(self) -> None:
        """Stamp this tick on the mempool entries that arrived since the last
        stamp; the pool keeps arrival order, so they are its newest."""
        for tid in reversed(self.chain.mempool.entries):
            if tid in self.submit_tick:
                break
            self.submit_tick[tid] = self.tick

    def mine(self) -> None:
        block = self.chain.mine_next(self.scenario.miners, self.rng)
        delays = [self.tick - self.submit_tick[txid(tx)] for tx in block.txs]
        # keep the stamps of what stays pooled, so an expired tx sent again is stamped anew
        self.submit_tick = {tid: self.submit_tick[tid] for tid in self.chain.mempool.entries}
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
# Each handler takes the world and its action's fields, and emits what it saw.


def _op_mine(w: World, blocks: U64 = 1) -> None:
    for _ in range(blocks):
        w.mine()


def _op_pay(w: World, from_: Actor, to: Actor, value: U64, fee: U64 = _FEE) -> None:
    out = TxOutput(value=value, lock=PayToKey(w.actors[to].pub))
    tx = build_payment(w.chain, w.actors[from_], [out], fee=fee)
    w.submit(tx, "host")


# --- hash-committed will ---------------------------------------------


def _op_will_create(
    w: World, id_: str, creator: Actor, oracle: Actor, heir: Actor, source: SourceId,
    expression: str, amount: U64, fee: U64 = _FEE,
) -> None:
    server = w.will_servers.get(oracle)
    if server is None:
        server = will_oracle.OracleServer(w.actors[oracle], w.sources[source])
        w.will_servers[oracle] = server
    contract, funding = will_oracle.create_will(
        w.chain,
        creator=w.actors[creator],
        oracle_pub=server.pub,
        heir_pub=w.actors[heir].pub,
        expression=expression,
        amount=amount,
        fee=fee,
    )
    w.wills[id_] = contract
    w.emit("will", "created", id=id_, amount=contract.amount)


def _op_will_claim(
    w: World, id_: str, oracle: str, heir: Actor, expression: str, fee: U64 = _FEE
) -> None:
    contract = w.wills[id_]
    server = w.will_servers[oracle]
    partial = will_oracle.build_claim(w.chain, contract, w.actors[heir], fee=fee)
    try:
        sig = server.sign_request(w.chain, expression, partial, w.now)
    except will_oracle.WillError as exc:
        w.emit("will", "refused", id=id_, reason=type(exc).__name__)
        return
    tx = add_signature(partial, 0, sig)
    accepted = w.submit(tx, "will")
    w.emit("will", "claimed", id=id_, accepted=accepted)


def _op_will_claim_alone(w: World, id_: str, heir: Actor, fee: U64 = _FEE) -> None:
    contract = w.wills[id_]
    partial = will_oracle.build_claim(w.chain, contract, w.actors[heir], fee=fee)
    accepted = w.submit(partial, "will")
    w.emit("will", "claim_alone", id=id_, accepted=accepted)


# --- fact registry with staged key release ----------------------------


def _op_rk_registry(
    w: World, objection_window: int = realitykeys.DEFAULT_OBJECTION_WINDOW,
    min_tip: int = realitykeys.MIN_OBJECTION_TIP, human_agrees: bool | None = None,
) -> None:
    def human(fact, claimed):
        return claimed if human_agrees else None

    w._rk_registry = realitykeys.FactRegistry(
        sources=w.sources,
        keys=w.keys,
        objection_window=objection_window,
        min_tip=min_tip,
        human_check=None if human_agrees is None else human,
    )
    w.emit("rk", "registry", min_tip=w.rk_registry.min_tip)


def _op_rk_fact(
    w: World, id_: str, question: str, resolution_time: int, source: str, key: str,
    comparator: Comparator, threshold: FeedValue,
) -> None:
    fact = w.rk_registry.register_fact(
        question=question,
        resolution_time=resolution_time,
        condition=Condition(source, key, comparator, threshold),
        now=w.now,
    )
    w.rk_facts[id_] = fact.id
    w.emit("rk", "fact", id=id_, fact_id=fact.id)


def _op_rk_temps(
    w: World, id_: str, alice: Actor, bob: Actor, stakes: tuple[U64, U64], fee: U64 = _FEE
) -> None:
    temp_a = w.keys.keygen(f"rk-temp:{id_}:a".encode())
    temp_b = w.keys.keygen(f"rk-temp:{id_}:b".encode())
    outpoints = []
    for payer, temp, stake in ((alice, temp_a, stakes[0]), (bob, temp_b, stakes[1])):
        tx = build_payment(
            w.chain,
            w.actors[payer],
            [TxOutput(value=stake, lock=PayToKey(temp.pub))],
            fee=fee,
        )
        w.submit(tx, "rk")
        outpoints.append((txid(tx), 0))
    w.rk_temps[id_] = (temp_a, temp_b, tuple(outpoints), stakes, alice, bob)
    w.emit("rk", "temps_funded", id=id_)


def _op_rk_contract(w: World, id_: str, fact: str, fee: U64 = _FEE) -> None:
    temp_a, temp_b, outpoints, stakes, alice, bob = w.rk_temps[id_]
    registered = w.rk_registry.facts[w.rk_facts[fact]]
    contract = realitykeys.demo_contract(
        registered, w.actors[alice].pub, w.actors[bob].pub, stakes, outpoints
    )
    partial = realitykeys.demo_setup(w.chain, contract, temp_a, fee=fee)
    complete = realitykeys.demo_countersign(w.chain, contract, temp_b, partial, fee=fee)
    accepted = w.submit(complete, "rk")
    w.rk_contracts[id_] = contract
    w.emit("rk", "funded", id=id_, accepted=accepted, escrow=sum(stakes) - fee)


def _op_rk_post(w: World, fact: str) -> None:
    posted = w.rk_registry.post_result(w.rk_facts[fact], now=w.now)
    w.emit("rk", "result", fact=fact, outcome=posted.posted_result.value)


def _op_rk_object(w: World, fact: str, tip: int, claimed: realitykeys.Outcome) -> None:
    try:
        w.rk_registry.object(w.rk_facts[fact], tip=tip, claimed=claimed, now=w.now)
    except realitykeys.RealityKeysError as exc:
        w.emit("rk", "objection", fact=fact, accepted=False, reason=type(exc).__name__)
        return
    registered = w.rk_registry.facts[w.rk_facts[fact]]
    flipped = registered.human_override not in (None, registered.posted_result)
    w.emit("rk", "objection", fact=fact, accepted=True, flipped=flipped)


def _op_rk_finalize(w: World, fact: str) -> None:
    w.rk_registry.finalize(w.rk_facts[fact], now=w.now)
    released = w.rk_registry.facts[w.rk_facts[fact]].released_outcome
    w.emit("rk", "finalized", fact=fact, outcome=released.value)


def _op_rk_claim(w: World, id_: str, claimant: Actor, fee: U64 = _FEE) -> None:
    contract = w.rk_contracts[id_]
    pair = w.actors[claimant]
    tx = realitykeys.demo_claim(
        w.chain,
        w.rk_registry,
        contract,
        claimant=pair,
        dest_pub=pair.pub,
        fee=fee,
    )
    accepted = w.submit(tx, "rk")
    w.emit("rk", "claimed", id=id_, claimant=claimant, accepted=accepted)


# --- distributed oracle safe ------------------------------------------


def _op_orisi_propose(
    w: World, id_: str, alice: Actor, bob: Actor, oracles: list[Actor], m: int,
    source: SourceId, key: str, comparator: Comparator, threshold: FeedValue, settle_time: int,
    amount: U64, project: Actor, oracle_fee: U64 = _FEE, project_fee: U64 = _FEE,
) -> None:
    condition = orisi.Condition(
        source_id=source,
        key=key,
        comparator=comparator,
        threshold=threshold,
        settle_time=settle_time,
    )
    fees = orisi.OrisiFees(
        oracle_fee=oracle_fee,
        project_fee=project_fee,
        project_pub=w.actors[project].pub,
    )
    contract, agent_pairs = orisi.propose(
        w.chain,
        id_,
        alice=w.actors[alice],
        bob_pub=w.actors[bob].pub,
        oracles=[(name, w.actors[name].pub) for name in oracles],
        m=m,
        condition=condition,
        amount=amount,
        fees=fees,
    )
    w.orisi_contracts[id_] = contract
    w.orisi_agents[id_] = agent_pairs
    w.orisi_nodes[id_] = [
        orisi.OracleNode(oracle_id=name, keypair=w.actors[name], source=w.sources[source])
        for name in oracles
    ]
    w.emit(
        "orisi",
        "proposed",
        id=id_,
        threshold=contract.params.threshold,
        total_keys=contract.params.total_keys,
        agent_keys=contract.params.agent_keys,
    )


def _op_orisi_ack(w: World, id_: str) -> None:
    contract = w.orisi_contracts[id_]
    for node in w.orisi_nodes[id_]:
        node.ack(contract)
    w.emit("orisi", "acked", id=id_, acks=len(contract.acks))


def _op_orisi_activate(w: World, id_: str) -> None:
    contract = w.orisi_contracts[id_]
    orisi.activate(w.chain, contract)
    w.emit("orisi", "active", id=id_, amount=contract.amount)


def _op_orisi_poll(w: World, id_: str) -> None:
    contract = w.orisi_contracts[id_]
    posted = 0
    for node in w.orisi_nodes[id_]:
        if node.poll_and_sign(contract, w.bus, w.now) is not None:
            posted += 1
    applied = contract.apply_bus(w.bus, w.keys)
    ready = orisi.ready_draft(contract)
    w.emit(
        "orisi",
        "poll",
        id=id_,
        posted=posted,
        applied=applied,
        ready=ready.value if ready else None,
    )


def _op_orisi_finalize(w: World, id_: str) -> None:
    contract = w.orisi_contracts[id_]
    orisi.finalize(w.chain, contract, w.orisi_agents[id_])
    w.emit("orisi", "settled", id=id_, accepted=True, state=contract.state.value)


def _op_orisi_theft(w: World, id_: str, dest: Actor) -> None:
    """All n oracles collude: their signatures alone stay below the
    n+1 threshold, so the spend must bounce."""
    contract = w.orisi_contracts[id_]
    loot = TxOutput(value=contract.amount - _FEE, lock=PayToKey(w.actors[dest].pub))
    theft = Transaction(inputs=(TxInput(outpoint=contract.safe_outpoint),), outputs=(loot,))
    colluders = [w.actors[name] for name in sorted(contract.oracle_pubs)]
    result = w.chain.submit(sign_input(theft, 0, *colluders))
    w.emit("orisi", "theft", id=id_, accepted=result.accepted, signatures=len(colluders))


# --- sidechain voting and markets --------------------------------------


def _op_tc_init(
    w: World, allocation: dict[str, int], quorum: float = truthcoin.DEFAULT_QUORUM,
    severity: float = truthcoin.DEFAULT_SEVERITY, waiting_period: int = truthcoin.WEEK_SECONDS,
    veto_window: int = truthcoin.DEFAULT_VETO_WINDOW,
) -> None:
    w._tc = truthcoin.TruthcoinSim(allocation, now=w.now, quorum=quorum, severity=severity,
                                   waiting_period=waiting_period, veto_window=veto_window)
    w.emit("tc", "init", vtc_supply=w.tc.vtc_supply())


def _op_tc_peg_in(w: World, actor: str, amount: int) -> None:
    w.tc.peg_in(actor, amount)
    w.emit("tc", "peg_in", actor=actor, amount=amount)


def _op_tc_peg_out(w: World, actor: str, amount: int) -> None:
    w.tc.peg_out(actor, amount)
    w.emit("tc", "peg_out", actor=actor, amount=amount)


def _op_tc_decision(
    w: World, id_: str, author: str, prompt: str, maturity_time: int,
    kind: Literal["binary", "scalar"] = "binary", min_: float = 0.0, max_: float = 1.0,
) -> None:
    shape = truthcoin.Binary() if kind == "binary" else truthcoin.Scalar(min_, max_)
    decision = w.tc.add_decision(author, prompt, shape, maturity_time)
    w.tc_decisions[id_] = decision.decision_id
    w.emit("tc", "decision", id=id_, decision_id=decision.decision_id)


def _op_tc_observe(w: World, id_: str) -> None:
    w.tc.mark_observable(w.tc_decisions[id_])
    w.emit("tc", "observable", id=id_)


def _op_tc_market(
    w: World, id_: str, author: str, decisions: list[str], b: float, fee_rate: float = 0.0
) -> None:
    market = w.tc.add_market(author, [w.tc_decisions[d] for d in decisions], b, fee_rate)
    w.tc_markets[id_] = market.market_id
    w.emit("tc", "market", id=id_, states=len(market.q), collateral=market.collateral)


def _op_tc_trade(w: World, market: str, actor: str, state: int, shares: float) -> None:
    paid = w.tc.trade(w.tc_markets[market], actor, state, shares)
    w.emit("tc", "trade", market=market, actor=actor, state=state, paid=paid)


def _op_tc_ballot(w: World) -> None:
    ballot = w.tc.open_ballot()
    w.emit("tc", "ballot", period=ballot.period, decisions=len(ballot.decision_ids))


def _op_tc_commit(
    w: World, period: int, actor: str, reports: dict[str, float], salt: str, stake: int
) -> None:
    by_id = {w.tc_decisions[d]: float(v) for d, v in reports.items()}
    salt_bytes = salt.encode("utf-8")
    w.tc.commit_vote(actor, period, truthcoin.commitment_digest(by_id, salt_bytes), stake)
    w.tc_reveals[(period, actor)] = (by_id, salt_bytes)
    w.emit("tc", "commit", period=period, actor=actor, stake=stake)


def _op_tc_close_commit(w: World, period: int) -> None:
    w.tc.close_commit(period)
    w.emit("tc", "commit_closed", period=period)


def _op_tc_reveal(w: World, period: int, actor: str) -> None:
    reports, salt = w.tc_reveals[(period, actor)]
    w.tc.reveal_vote(actor, period, reports, salt)
    w.emit("tc", "reveal", period=period, actor=actor)


def _op_tc_close_reveal(w: World, period: int) -> None:
    w.tc.close_reveal(period)
    w.emit("tc", "reveal_closed", period=period)


def _op_tc_resolve(w: World, period: int) -> None:
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


def _op_tc_side_blocks(
    w: World, count: int, veto_periods: tuple[int, ...] = (), flag_count: int | None = None,
    miner: str = "side",
) -> None:
    veto = frozenset(veto_periods)
    flagged = (count if veto else 0) if flag_count is None else flag_count
    for i in range(count):
        w.tc.mine_side_block(miner, veto=veto if i < flagged else frozenset())
    w.emit("tc", "side_blocks", count=count, flagged=flagged)


def _op_tc_veto(w: World, period: int) -> None:
    outcome = w.tc.veto_result(period)
    w.emit("tc", "veto", period=period, outcome=outcome.value)


def _op_tc_redeem(w: World, market: str, actor: str) -> None:
    payout = w.tc.redeem(w.tc_markets[market], actor)
    w.emit("tc", "redeem", market=market, actor=actor, payout=payout)


def _op_tc_snapshot(w: World) -> None:
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


def _op_xcp_burn(w: World, actor: Actor, sats: U64, fee: U64 = _FEE) -> None:
    tx = counterparty.compose_burn_tx(w.chain, w.actors[actor], sats, fee=fee)
    w.submit(tx, "cp")


def _op_xcp_send(w: World, actor: Actor, to: Actor, qty: U64, fee: U64 = _FEE) -> None:
    message = counterparty.Send(asset=counterparty.XCP, qty=qty, dest=w.actors[to].pub.hex())
    tx = counterparty.compose_message_tx(w.chain, w.actors[actor], message, fee=fee)
    w.submit(tx, "cp")


def _op_xcp_broadcast(
    w: World, actor: Actor, timestamp: U64, value: I64, fee_fraction: U32 = 0, text: str = "",
    fee: U64 = _FEE,
) -> None:
    message = counterparty.Broadcast(
        timestamp=timestamp,
        value=value,
        fee_fraction=fee_fraction,
        text=text,
    )
    tx = counterparty.compose_message_tx(w.chain, w.actors[actor], message, fee=fee)
    w.submit(tx, "cp")


def _op_xcp_bet(
    w: World, actor: Actor, feed: Actor, comparator: Comparator, target: I64, deadline: U64,
    wager: U64, counterwager: U64, side: U8, fee: U64 = _FEE,
) -> None:
    message = counterparty.Bet(
        feed=w.actors[feed].pub.hex(),
        comparator=comparator,
        target=target,
        deadline=deadline,
        wager=wager,
        counterwager=counterwager,
        side=side,
    )
    tx = counterparty.compose_message_tx(w.chain, w.actors[actor], message, fee=fee)
    w.submit(tx, "cp")


def _op_xcp_replay(w: World) -> None:
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


@dataclass(frozen=True)
class _Condition:  # an oraclize.Condition naming its beneficiary
    source: SourceId
    key: str
    comparator: Comparator
    threshold: FeedValue
    beneficiary: Actor

    def __post_init__(self) -> None:
        oraclize.check_comparator(self.comparator)


def _oz(w: World) -> oraclize.Oracle:
    if w.oz is None:
        w.oz = oraclize.Oracle(w.keys, w.sources)
    return w.oz


def _op_oz_contract(
    w: World, id_: str, alice: Actor, bob: Actor, stakes: tuple[U64, U64],
    conditions: list[_Condition], default: Actor, start: int, end: int, refund_locktime: U64,
    poll_interval: int = oraclize.DEFAULT_POLL_INTERVAL, proofshield: bool = False,
    arbitrator: Actor | None = None, fee: U64 = _FEE,
) -> None:
    oracle = _oz(w)
    contract = oracle.build_contract(
        w.chain,
        alice=w.actors[alice],
        bob=w.actors[bob],
        stakes=stakes,
        conditions=tuple(
            oraclize.Condition(
                c.source, c.key, c.comparator, c.threshold, w.actors[c.beneficiary].pub
            )
            for c in conditions
        ),
        default_beneficiary=w.actors[default].pub,
        start=start,
        end=end,
        refund_locktime=refund_locktime,
        poll_interval=poll_interval,
        proofshield=proofshield,
        arbitrator=None if arbitrator is None else w.actors[arbitrator],
        fee=fee,
    )
    w.oz_contracts[id_] = contract
    w.emit("oz", "contract", id=id_, escrow=contract.escrow_value)


def _op_oz_poll(w: World, id_: str, fee: U64 = _FEE) -> None:
    oracle = _oz(w)
    contract = w.oz_contracts[id_]
    try:
        settlement = oracle.poll(contract, w.now, fee=fee)
    except oraclize.ProofInvalidError:
        w.emit("oz", "refused", id=id_)
        return
    if settlement is None:
        w.emit("oz", "poll", id=id_, settled=False)
        return
    w.oz_settlements[id_] = settlement
    w.emit(
        "oz",
        "poll",
        id=id_,
        settled=True,
        condition=settlement.condition_index,
        proof_ok=settlement.proof_ok,
    )


def _op_oz_default(w: World, id_: str, fee: U64 = _FEE) -> None:
    oracle = _oz(w)
    contract = w.oz_contracts[id_]
    w.oz_settlements[id_] = oracle.settle_default(contract, w.now, fee=fee)
    w.emit("oz", "default", id=id_)


def _op_oz_arbitrate(
    w: World, id_: str, arbitrator: Actor, condition: int | None, fee: U64 = _FEE
) -> None:
    contract = w.oz_contracts[id_]
    w.oz_settlements[id_] = oraclize.arbitrate(contract, w.actors[arbitrator], condition, fee=fee)
    w.emit("oz", "arbitrated", id=id_, condition=condition)


def _op_oz_cosign(w: World, id_: str, agent: Actor) -> None:
    settlement = w.oz_settlements[id_]
    oraclize.co_sign_and_broadcast(w.chain, settlement, w.actors[agent])
    w.emit("oz", "cosigned", id=id_, agent=agent)


def _op_oz_refund(w: World, id_: str) -> None:
    contract = w.oz_contracts[id_]
    oraclize.refund_expiry(w.chain, contract)
    w.emit("oz", "refund", id=id_)


def _op_oz_tamper(w: World, on: bool = True) -> None:
    oracle = _oz(w)
    if on:

        def hook(proof):
            return replace(proof, attestation=bytes(b ^ 0xFF for b in proof.attestation))

        oracle.proof_hook = hook
    else:
        oracle.proof_hook = None
    w.emit("oz", "tamper", on=on)


def _op_balances(w: World, actors: list[Actor] | None = None) -> None:
    names = actors or sorted(w.actors)
    balances = {name: w.chain.balance(w.actors[name].pub) for name in names}
    w.emit("host", "balances", balances=balances)


# Every ``_op_<name>`` above handles the op "<name>".
_OPS = {name[4:]: fn for name, fn in globals().items() if name.startswith("_op_")}


# ------------------------------------------------------------- assertions


def _verdict(label: str, actual: Any, op: CheckOp, value: Any) -> str | None:
    try:
        held = _CHECKS[op](actual, value)
    except TypeError:  # values that do not order, such as a bool and a str
        held = False
    return None if held else f"{label} = {actual!r}, wanted {op} {value!r}"


def _check_balance(w: World, actor: Actor, value: int, op: CheckOp = "==") -> str | None:
    return _verdict(f"balance[{actor}]", w.chain.balance(w.actors[actor].pub), op, value)


def _check_count(
    w: World, event: str, value: int, where: dict[str, Any] | None = None, op: CheckOp = "=="
) -> str | None:
    return _verdict(f"count[{event}]", len(w.log.matching(event, where)), op, value)


def _check_last_event(
    w: World, event: str, field_: str, value: Any, where: dict[str, Any] | None = None,
    op: CheckOp = "==",
) -> str | None:
    events = w.log.matching(event, where)
    if not events:
        return f"no {event} event matched {where or {}}"
    if field_ not in events[-1].payload:
        return f"last {event} event has no field {field_!r}"
    return _verdict(f"last {event}.{field_}", events[-1].payload[field_], op, value)


# Every ``_check_<kind>`` above checks the assertion kind "<kind>".
_ASSERTS = {name[7:]: fn for name, fn in globals().items() if name.startswith("_check_")}

# Each object type and the callable whose parameters declare it.
_OBJECTS = {t: t for t in (Scenario, Grant, _Entry, _Condition)}
_OBJECTS.update({Miner: _miner, DataSource: _source})


def _new_action(args: dict[str, Any]) -> Action:
    return Action(args.pop("tick"), args.pop("op"), args)


def _new_check(args: dict[str, Any]) -> Check:
    return Check(args.pop("kind"), args)


# Each tagged type: its tag field, and a binder per tag value.
_TAGGED = {
    Action: ("op", {op: _fields(fn, _new_action, 1, op=str, tick=int) for op, fn in _OPS.items()}),
    Check: ("kind", {kind: _fields(fn, _new_check, 1, kind=str) for kind, fn in _ASSERTS.items()}),
}
_SCENARIO = _converter(Scenario)  # builds every converter a document reaches


# -------------------------------------------------------------------- run

# What a protocol refuses an op with: a ValueError (each module's error base,
# a bad argument, a refused broadcast) or a missing id or datum (LookupError:
# KeyError, NoDataError). Anything else is a harness bug.
_REFUSALS = (ValueError, LookupError)


def run_scenario(
    source: Scenario | dict | str | Path, seed_override: int | None = None
) -> RunResult:
    """Execute one scenario start to finish and check its assertions.

    An op refused with one of ``_REFUSALS`` logs ``run/refused`` and the run
    goes on. Failed assertions are collected into ``RunResult.failures``
    rather than raised, so callers can report all of them; ``ParseError``
    still raises because a malformed script has no meaningful result.
    """
    if isinstance(source, Scenario):
        scenario = source
    elif isinstance(source, dict):
        scenario = Scenario.from_dict(source)
    else:
        scenario = Scenario.load(source)
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)

    world = World(scenario)
    by_tick: dict[int, list[Action]] = {}
    for action in scenario.actions:
        by_tick.setdefault(action.tick, []).append(action)

    world.emit("run", "start", name=scenario.name, seed=scenario.seed)
    for tick in range(scenario.ticks):
        world.tick = tick
        world.now = scenario.start_time + tick * scenario.tick_seconds
        if world._tc is not None and world.now > world.tc.now:
            world.tc.advance(world.now - world.tc.now)
        for action in by_tick.get(tick, ()):
            try:
                _OPS[action.op](world, **action.args)
            except _REFUSALS as exc:  # what the op did before it refused stays done
                world.emit("run", "refused", op=action.op, reason=type(exc).__name__)
            world.stamp()
        if scenario.mine_every is not None and (tick + 1) % scenario.mine_every == 0:
            world.mine()
        if scenario.track_balances:
            _op_balances(world, scenario.track_balances)
    world.emit("run", "end", ticks=scenario.ticks, height=world.chain.height)

    failures = []
    for check in scenario.assertions:
        message = _ASSERTS[check.kind](world, **check.args)
        if message is not None:
            failures.append(message)
    return RunResult(scenario=scenario, log=world.log, world=world, failures=failures)


def bundled_scenarios() -> list[Path]:
    """The demonstration scripts shipped inside the package."""
    root = resources.files("oraclesim").joinpath("scenarios")
    return sorted(Path(str(entry)) for entry in root.iterdir() if entry.name.endswith(".json"))
