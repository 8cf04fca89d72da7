"""The four benchmark workloads: input generators, measured units, checks.

Every workload turns the workload seed into inputs during set-up, then runs
*units* of work at two sizes, N (``scale=1``) and 2N (``scale=2``).  A unit
is a sequence of *steps*; each step is timed on its own and checked on its
own, and a unit ends with an ``output`` string (a digest or tip hash) that
must be identical every time the same unit is run with the same seed.

The program under test is driven only through its public entry points:
``harness.run_scenario`` (suite, pay_ledger) and the ``simchain`` and
``counterparty`` APIs (relay_backlog, xcp_follow).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

from oraclesim import counterparty
from oraclesim.datafeed import Comparator
from oraclesim.harness import Scenario, bundled_scenarios, run_scenario
from oraclesim.simchain import (
    POLICY_V090,
    DataCarrier,
    KeyRegistry,
    Miner,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    classify,
    sighash,
    sign,
    txid,
)

PINNED_DIGESTS = Path(__file__).with_name("suite_digests.json")


@dataclass
class Unit:
    """What one run of a unit measured and produced."""

    step_s: list[float] = field(default_factory=list)
    blocks: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    output: str = ""

    @property
    def seconds(self) -> float:
        return sum(self.step_s)

    def step(self, tracer, fn, *args):
        """Time one step; it fails if it raises or returns ok=False."""
        t0 = perf_counter()
        tracer.begin_step()
        try:
            ok, value = fn(*args)
        except Exception as exc:  # a failed step is counted, not fatal
            ok, value = False, None
            self.errors.append(f"{type(exc).__name__}: {exc}")
        tracer.end_step()
        self.step_s.append(perf_counter() - t0)
        self.failed += not ok
        return value


class _NoTracer:
    """Stand-in used by untraced runs: marks nothing, installs nothing."""

    def begin_step(self) -> None:
        pass

    def end_step(self) -> None:
        pass


NO_TRACER = _NoTracer()


def _log_height(result) -> int:
    end = result.log.events[-1]
    return end.payload["height"] if (end.module, end.kind) == ("run", "end") else 0


# ------------------------------------------------------------------ suite


class Suite:
    """The 12 bundled scenarios; a unit is `scale` passes, in seeded order."""

    name = "suite"
    N = 1  # passes per unit at size N

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))
        docs = [
            (path.name, json.loads(path.read_text(encoding="utf-8")))
            for path in bundled_scenarios()
        ]
        Random(f"suite:{self.seed}").shuffle(docs)
        return docs, pinned

    def unit(self, inputs, scale: int, tracer=NO_TRACER) -> Unit:
        docs, pinned = inputs
        unit = Unit()

        def scenario_step(name, doc):
            result = run_scenario(Scenario.from_dict(doc))
            digest = result.log.digest()
            unit.blocks += _log_height(result)
            return result.passed and digest.hex() == pinned["scenarios"].get(name), digest

        for _ in range(self.N * scale):
            digests = {name: unit.step(tracer, scenario_step, name, doc) for name, doc in docs}
            if None in digests.values():
                unit.output = ""
                continue
            combined = hashlib.sha256(b"".join(digests[k] for k in sorted(digests))).hexdigest()
            unit.failed += combined != pinned["combined"]
            unit.output = combined
        return unit


# -------------------------------------------------------------- pay_ledger


PAY_ACTORS = 20
PAY_COINS = 4
PAY_COIN_VALUE = 1_000_000


def pay_ledger_doc(seed: int, ticks: int) -> dict:
    """A pay-every-tick scenario with its expected final balances asserted.

    Values stay far below every sender's balance: an unfunded ``pay`` would
    raise InsufficientFundsError out of run_scenario.
    """
    rng = Random(f"pay_ledger:{seed}")
    names = [f"a{i:02d}" for i in range(PAY_ACTORS)]
    balance = dict.fromkeys(names, PAY_COINS * PAY_COIN_VALUE)
    actions = []
    for tick in range(ticks):
        sender, receiver = rng.sample(names, 2)
        value = rng.randint(1, 10_000)
        fee = rng.randint(0, 2_000)
        if balance[sender] < value + fee:
            raise ValueError(f"generator would overdraw {sender} at tick {tick}")
        balance[sender] -= value + fee
        balance[receiver] += value
        actions.append(
            {"tick": tick, "op": "pay", "from": sender, "to": receiver, "value": value, "fee": fee}
        )
    return {
        "name": f"pay_ledger_{seed}_{ticks}",
        "seed": seed,
        "ticks": ticks,
        "mine_every": 1,
        "actors": names,
        "genesis": [{"actor": n, "coins": PAY_COINS, "value": PAY_COIN_VALUE} for n in names],
        "track_balances": names,
        "actions": actions,
        "assertions": [
            {"kind": "balance", "actor": n, "value": balance[n]} for n in names
        ],
    }


def _pay_supply_ok(doc: dict, result) -> bool:
    """Host supply (every actor's balance) equals genesis minus fees."""
    genesis = sum(g["coins"] * g["value"] for g in doc["genesis"])
    fees = sum(a["fee"] for a in doc["actions"])
    last = next(e for e in reversed(result.log.events) if e.kind == "balances")
    return sum(last.payload["balances"].values()) == genesis - fees


class PayLedger:
    """Synthetic pay-every-tick scenario at N and 2N ticks via run_scenario."""

    name = "pay_ledger"
    N = 150  # ticks at size N

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return {scale: pay_ledger_doc(self.seed, self.N * scale) for scale in (1, 2)}

    def unit(self, inputs, scale: int, tracer=NO_TRACER) -> Unit:
        doc = inputs[scale]
        unit = Unit()

        def scenario_step():
            result = run_scenario(Scenario.from_dict(doc))
            unit.output = result.log.digest().hex()
            unit.blocks = _log_height(result)
            return result.passed and _pay_supply_ok(doc, result), None

        unit.step(tracer, scenario_step)
        return unit


# ----------------------------------------------------------- relay_backlog


RELAY_STANDARD_PER_BLOCK = 6
RELAY_DATA_PER_BLOCK = 4
RELAY_COIN_VALUE = 100_000
RELAY_PAYLOAD = 60  # bytes: relayed under v0.9.0 but over its 40-byte cap


@dataclass
class RelayInputs:
    keys: KeyRegistry
    genesis: tuple[TxOutput, ...]
    blocks: list[tuple[Transaction, ...]]
    nonstandard: set[int]  # id() of every presigned nonstandard tx
    fee: dict[int, int]  # id(tx) -> fee


def relay_inputs(seed: int, blocks: int) -> RelayInputs:
    """Presigned traffic: each tx spends its own genesis coin, so none conflict."""
    rng = Random(f"relay_backlog:{seed}")
    keys = KeyRegistry()
    payer = keys.keygen(b"relay-payer")
    payees = [keys.keygen(f"relay-payee-{i}".encode()).pub for i in range(8)]
    per_block = RELAY_STANDARD_PER_BLOCK + RELAY_DATA_PER_BLOCK
    genesis = tuple(
        TxOutput(value=RELAY_COIN_VALUE, lock=PayToKey(payer.pub))
        for _ in range(blocks * per_block)
    )
    genesis_id = txid(Transaction(inputs=(), outputs=genesis))
    out = RelayInputs(keys, genesis, [], set(), {})
    coin = 0
    for _ in range(blocks):
        kinds = [False] * RELAY_STANDARD_PER_BLOCK + [True] * RELAY_DATA_PER_BLOCK
        rng.shuffle(kinds)
        txs = []
        for data in kinds:
            fee = rng.randint(200, 5_000)
            pay = TxOutput(value=RELAY_COIN_VALUE - fee, lock=PayToKey(rng.choice(payees)))
            outputs = (TxOutput(value=0, lock=DataCarrier(rng.randbytes(RELAY_PAYLOAD))), pay)
            unsigned = Transaction(
                inputs=(TxInput(outpoint=(genesis_id, coin)),),
                outputs=outputs if data else (pay,),
            )
            tx = unsigned.with_witness(
                0, Witness(signatures=(sign(payer.secret, sighash(unsigned)),))
            )
            coin += 1
            if not classify(tx, POLICY_V090):
                out.nonstandard.add(id(tx))
            out.fee[id(tx)] = fee
            txs.append(tx)
        out.blocks.append(tuple(txs))
    return out


RELAY_MINERS = [
    Miner("compliant", 0.07, accepts_nonstandard=True),
    Miner("strict", 0.93, accepts_nonstandard=False),
]


class EvenDraws(Random):
    """Miner draws spread evenly over [0, 1) from a seeded start.

    Independent draws give the 7% miner anywhere from ~4.5% to ~9.5% of 300
    blocks depending on the seed, and that count sets the mempool depth and
    the latency tail.  An additive golden-ratio sequence gives it its share
    of every run of blocks, at seed-dependent heights.
    """

    STEP = 0.6180339887498949

    def __init__(self, start: float) -> None:
        super().__init__(0)
        self.x = start

    def random(self) -> float:
        self.x = (self.x + self.STEP) % 1.0
        return self.x


class RelayBacklog:
    """v0.9.0 relay: presigned payments and data carriers, 7%/93% miners."""

    name = "relay_backlog"
    N = 300  # blocks at size N

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return relay_inputs(self.seed, 2 * self.N)

    def unit(self, inputs: RelayInputs, scale: int, tracer=NO_TRACER) -> Unit:
        unit = Unit()
        chain = SimChain(policy=POLICY_V090, genesis=inputs.genesis, keys=inputs.keys)
        rng = EvenDraws(Random(f"relay_backlog:mining:{self.seed}").random())
        confirmed_fees = 0

        def block_step(txs):
            nonlocal confirmed_fees
            accepted = all([chain.submit(tx).accepted for tx in txs])
            block = chain.mine_next(RELAY_MINERS, rng)
            confirmed_fees += sum(inputs.fee[id(tx)] for tx in block.txs)
            unit.blocks += 1
            starved = block.miner_id == "strict" and any(
                id(tx) in inputs.nonstandard for tx in block.txs
            )
            return accepted and not starved, None

        for txs in inputs.blocks[: self.N * scale]:
            unit.step(tracer, block_step, txs)
        if chain.supply() != sum(o.value for o in inputs.genesis) - confirmed_fees:
            unit.failed += 1
            unit.errors.append("host supply is not genesis minus confirmed fees")
        unit.output = chain.tip_hash.hex()
        return unit


# -------------------------------------------------------------- xcp_follow


XCP_ACTORS = ("alice", "bob", "claire")


@dataclass
class XcpInputs:
    keys: KeyRegistry
    pairs: dict
    genesis: tuple[TxOutput, ...]
    blocks: list[list[tuple[str, counterparty.MetaMessage]]]


def xcp_inputs(seed: int, blocks: int) -> XcpInputs:
    """Traffic shaped like acceptance test c07, one message per actor per block
    so that no two submissions in a block select the same coins."""
    rng = Random(f"xcp_follow:{seed}")
    keys = KeyRegistry()
    pairs = {n: keys.keygen(n.encode()) for n in XCP_ACTORS}
    genesis = tuple(
        TxOutput(value=50_000_000, lock=PayToKey(pairs[n].pub)) for n in XCP_ACTORS for _ in range(30)
    )
    feed = pairs["alice"].pub.hex()
    next_ts = dict.fromkeys(XCP_ACTORS, 1000)
    targets = (3 * 10**9, 7 * 10**9)
    deadlines = (1200, 1500, 1900)
    wagers = ((100_000, 200_000), (250_000, 250_000))
    # every 3 blocks carry 1, 2 and 3 messages, and every 4 messages hold one
    # of each kind, so that all seeds ask for the same amount of work
    sizes, kinds, plan = [], [], []
    for _ in range(blocks):
        if not sizes:
            sizes = rng.sample((1, 2, 3), 3)
        msgs = []
        for actor in rng.sample(XCP_ACTORS, sizes.pop()):
            if not kinds:
                kinds = rng.sample(range(4), 4)
            op = kinds.pop()
            if op == 0:
                msg = counterparty.Burn(btc_qty=rng.randint(1, 500_000))
            elif op == 1:
                msg = counterparty.Send(
                    asset=counterparty.XCP,
                    qty=rng.randint(1, 2 * 10**9),
                    dest=pairs[rng.choice(XCP_ACTORS)].pub.hex(),
                )
            elif op == 2:
                ts = next_ts[actor]
                next_ts[actor] += rng.randint(1, 50)
                msg = counterparty.Broadcast(
                    timestamp=ts,
                    value=rng.randint(0, 10**10),
                    fee_fraction=rng.randint(0, 10**6),
                    text="t",
                )
            else:
                wager, counter = rng.choice(wagers)
                if rng.random() < 0.5:
                    wager, counter = counter, wager
                msg = counterparty.Bet(
                    feed=feed,
                    comparator=rng.choice((Comparator.GE, Comparator.LT)),
                    target=rng.choice(targets),
                    deadline=rng.choice(deadlines),
                    wager=wager,
                    counterwager=counter,
                    side=rng.randrange(2),
                )
            msgs.append((actor, msg))
        plan.append(msgs)
    return XcpInputs(keys, pairs, genesis, plan)


XCP_MINERS = [Miner("m", 1.0, accepts_nonstandard=True)]


class XcpFollow:
    """A counterparty replica re-folding the chain after every block."""

    name = "xcp_follow"
    N = 60  # blocks at size N

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        return xcp_inputs(self.seed, 2 * self.N)

    def unit(self, inputs: XcpInputs, scale: int, tracer=NO_TRACER) -> Unit:
        unit = Unit()
        chain = SimChain(policy=POLICY_V090, genesis=inputs.genesis, keys=inputs.keys)
        rng = Random(f"xcp_follow:mining:{self.seed}")

        def block_step(msgs):
            accepted = True
            for actor, msg in msgs:
                pair = inputs.pairs[actor]
                if isinstance(msg, counterparty.Burn):
                    tx = counterparty.compose_burn_tx(chain, pair, msg.btc_qty)
                else:
                    tx = counterparty.compose_message_tx(chain, pair, msg)
                accepted = chain.submit(tx).accepted and accepted
            block = chain.mine_next(XCP_MINERS, rng)
            unit.blocks += 1
            state = counterparty.replay(chain)
            conserved = counterparty.xcp_in_circulation(state) == state.issued
            return accepted and len(block.txs) == len(msgs) and conserved, state

        state = None
        for msgs in inputs.blocks[: self.N * scale]:
            state = unit.step(tracer, block_step, msgs)
        unit.output = counterparty.state_digest(state).hex() if state is not None else ""
        return unit


WORKLOADS = {w.name: w for w in (Suite, PayLedger, RelayBacklog, XcpFollow)}
