"""Fact registry issuing yes/no key pairs with selective key release.

A registered fact publishes two pubkeys. After the resolution time the
registry posts the automated result from its data source and opens a paid
objection window; a sufficient tip triggers a scripted human check whose
decision overrides automation. Finalizing releases the winning secret and
destroys the losing one: after that point no registry API can produce it.

The demo contract is the two-party stake: a P2SH whose redeem script is
(alice AND yes-key) OR (bob AND no-key), funded from both parties' purpose
made temporary addresses in a single co-signed transaction that each party
reconstructs before signing, comparing the blank-witness digests they sign.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .codec import sha256
from .datafeed import Condition, DataSource, query
from .simchain import (
    Either,
    KeyPair,
    MultiSig,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    p2sh_lock,
    sighash,
    sign_input,
    spend,
    txid,
)

DEFAULT_OBJECTION_WINDOW = 86_400  # seconds
MIN_OBJECTION_TIP = 1_000_000  # satoshi (10 mBTC)


class RealityKeysError(ValueError):
    """Base for fact registry and demo contract failures."""


class PastResolutionError(RealityKeysError):
    pass


class UnknownSourceError(RealityKeysError):
    """A fact names a source, or a key of it, that the registry cannot read."""


class TooEarlyError(RealityKeysError):
    pass


class TipTooSmallError(RealityKeysError):
    pass


class WindowClosedError(RealityKeysError):
    pass


class StateError(RealityKeysError):
    pass


class NotFinalizedError(RealityKeysError):
    pass


class WrongBranchError(RealityKeysError):
    pass


class ReconstructionMismatchError(RealityKeysError):
    pass


class Outcome(enum.Enum):
    YES = "yes"
    NO = "no"

    @property
    def other(self) -> "Outcome":
        return Outcome.NO if self is Outcome.YES else Outcome.YES


class FactState(enum.Enum):
    REGISTERED = "registered"
    RESULT_POSTED = "result_posted"
    FINALIZED = "finalized"


@dataclass
class Fact:
    id: str
    question: str
    resolution_time: int
    condition: Condition
    yes_pub: bytes
    no_pub: bytes
    objection_window: int
    state: FactState = FactState.REGISTERED
    posted_result: Outcome | None = None
    objection_deadline: int | None = None
    human_override: Outcome | None = None
    released_outcome: Outcome | None = None
    released_secret: bytes | None = None


class FactRegistry:
    """Issues facts, posts results, arbitrates objections, releases keys.

    `human_check(fact, claimed)` is an optional scripted hook consulted on
    each accepted objection; returning an Outcome records an override.
    Fact key pairs are registered with the simulation key registry so their
    signatures verify on-chain; the losing secret is dropped from this
    registry's own store at finalization and no API returns it afterwards.
    """

    def __init__(
        self,
        sources: dict[str, DataSource],
        keys,
        objection_window: int = DEFAULT_OBJECTION_WINDOW,
        min_tip: int = MIN_OBJECTION_TIP,
        human_check=None,
    ) -> None:
        self.sources = sources
        self.keys = keys
        self.objection_window = objection_window
        self.min_tip = min_tip
        self.human_check = human_check
        self.facts: dict[str, Fact] = {}
        self.tips_collected = 0
        self._secrets: dict[str, dict[Outcome, bytes]] = {}
        self._next_id = 1

    # --- registration and lifecycle -------------------------------------

    def register_fact(
        self,
        question: str,
        resolution_time: int,
        condition: Condition,
        now: int,
        objection_window: int | None = None,
    ) -> Fact:
        if resolution_time <= now:
            raise PastResolutionError(f"resolution {resolution_time} not after now {now}")
        try:
            condition.source_in(self.sources)
        except ValueError as exc:
            raise UnknownSourceError(str(exc)) from None
        fact_id = f"rk-{self._next_id}"
        self._next_id += 1
        yes_pair = self.keys.keygen(f"fact:{fact_id}:yes".encode())
        no_pair = self.keys.keygen(f"fact:{fact_id}:no".encode())
        fact = Fact(
            id=fact_id,
            question=question,
            resolution_time=resolution_time,
            condition=condition,
            yes_pub=yes_pair.pub,
            no_pub=no_pair.pub,
            objection_window=self.objection_window if objection_window is None else objection_window,
        )
        self.facts[fact_id] = fact
        self._secrets[fact_id] = {Outcome.YES: yes_pair.secret, Outcome.NO: no_pair.secret}
        return fact

    def post_result(self, fact_id: str, now: int) -> Fact:
        fact = self.facts[fact_id]
        if fact.state is not FactState.REGISTERED:
            raise StateError(f"{fact_id} already has a posted result")
        if now < fact.resolution_time:
            raise TooEarlyError(f"{fact_id} resolves at {fact.resolution_time}")
        cond = fact.condition
        obs = query(self.sources[cond.source_id], cond.key, fact.resolution_time)
        outcome = Outcome.YES if cond.holds(obs.value) else Outcome.NO
        fact.posted_result = outcome
        fact.state = FactState.RESULT_POSTED
        fact.objection_deadline = now + fact.objection_window
        return fact

    def object(self, fact_id: str, tip: int, claimed: Outcome, now: int) -> bool:
        fact = self.facts[fact_id]
        if fact.state is not FactState.RESULT_POSTED:
            raise StateError(f"{fact_id} has no result open to objection")
        if now >= fact.objection_deadline:
            raise WindowClosedError(f"{fact_id} objection window closed")
        if tip < self.min_tip:
            raise TipTooSmallError(f"tip {tip} below {self.min_tip}")
        self.tips_collected += tip
        if self.human_check is not None:
            decision = self.human_check(fact, claimed)
            if decision is not None:
                fact.human_override = decision
        return True

    def finalize(self, fact_id: str, now: int) -> bytes:
        fact = self.facts[fact_id]
        if fact.state is FactState.FINALIZED:
            return fact.released_secret
        if fact.state is not FactState.RESULT_POSTED:
            raise StateError(f"{fact_id} has no result to finalize")
        if now < fact.objection_deadline:
            raise TooEarlyError(f"{fact_id} objection window open until {fact.objection_deadline}")
        winner = fact.human_override or fact.posted_result
        store = self._secrets[fact_id]
        released = store.pop(winner)
        store.pop(winner.other, None)  # destroyed: no API returns it again
        fact.released_outcome = winner
        fact.released_secret = released
        fact.state = FactState.FINALIZED
        return released


# --- demo contract ----------------------------------------------------------


def demo_redeem(fact: Fact, alice_pub: bytes, bob_pub: bytes) -> Either:
    return Either(
        left=MultiSig(m=2, keys=(alice_pub, fact.yes_pub)),
        right=MultiSig(m=2, keys=(bob_pub, fact.no_pub)),
    )


@dataclass
class DemoContract:
    fact_id: str
    alice_pub: bytes
    bob_pub: bytes
    stakes: tuple[int, int]
    temp_outpoints: tuple[tuple[bytes, int], tuple[bytes, int]]
    redeem: Either
    funding_outpoint: tuple[bytes, int] | None = None


def demo_contract(
    fact: Fact,
    alice_pub: bytes,
    bob_pub: bytes,
    stakes: tuple[int, int],
    temp_outpoints: tuple[tuple[bytes, int], tuple[bytes, int]],
) -> DemoContract:
    return DemoContract(
        fact_id=fact.id,
        alice_pub=alice_pub,
        bob_pub=bob_pub,
        stakes=stakes,
        temp_outpoints=temp_outpoints,
        redeem=demo_redeem(fact, alice_pub, bob_pub),
    )


def _setup_unsigned(chain: SimChain, contract: DemoContract, fee: int) -> Transaction:
    for outpoint, stake in zip(contract.temp_outpoints, contract.stakes):
        out = chain.utxo.get(outpoint)
        if out is None or out.value != stake:
            raise StateError(f"temp address not funded with the agreed stake: {outpoint}")
    total = sum(contract.stakes) - fee
    return Transaction(
        inputs=tuple(TxInput(outpoint=op) for op in contract.temp_outpoints),
        outputs=(TxOutput(value=total, lock=p2sh_lock(contract.redeem)),),
    )


def demo_setup(
    chain: SimChain, contract: DemoContract, alice_temp: KeyPair, fee: int = 0
) -> Transaction:
    """Alice's half: build the joint funding spend and sign her input."""
    unsigned = _setup_unsigned(chain, contract, fee)
    return sign_input(unsigned, 0, alice_temp)


def demo_countersign(
    chain: SimChain, contract: DemoContract, bob_temp: KeyPair, partial: Transaction, fee: int = 0
) -> Transaction:
    """Bob rebuilds the spend and signs his rebuild only if the partner's
    transaction, recomputed from its parts, has the same blank-witness digest."""
    rebuilt = _setup_unsigned(chain, contract, fee)
    agreed = Transaction(partial.inputs, partial.outputs, partial.locktime)  # memo-free copy
    if sighash(agreed) != sighash(rebuilt):
        raise ReconstructionMismatchError("partner's transaction differs from the rebuilt one")
    complete = sign_input(rebuilt.with_witness(0, partial.inputs[0].witness), 1, bob_temp)
    contract.funding_outpoint = (txid(complete), 0)
    return complete


def demo_claim(
    chain: SimChain,
    registry: FactRegistry,
    contract: DemoContract,
    claimant: KeyPair,
    dest_pub: bytes,
    fee: int = 0,
) -> Transaction:
    """Winner's spend of the P2SH using their key plus the released secret."""
    fact = registry.facts[contract.fact_id]
    if fact.state is not FactState.FINALIZED:
        raise NotFinalizedError(f"{fact.id} not finalized")
    branch_owner = {Outcome.YES: contract.alice_pub, Outcome.NO: contract.bob_pub}
    if branch_owner[fact.released_outcome] != claimant.pub:
        raise WrongBranchError(f"released key is for {fact.released_outcome.value}")
    if contract.funding_outpoint is None:
        raise StateError("contract was never funded")

    value = chain.utxo[contract.funding_outpoint].value - fee
    claim = TxOutput(value=value, lock=PayToKey(dest_pub))
    released = KeyPair(secret=fact.released_secret, pub=sha256(fact.released_secret))
    return spend(contract.funding_outpoint, (claim,), claimant, released, redeem=contract.redeem)

