"""Polled conditional contracts with an oracle co-signer and proof audit.

Two agents escrow funds behind a 2-of-3 multisig shared with an oracle.
The oracle checks each contract's conditions against fixture data sources
on a fixed schedule; the first satisfied condition yields a settlement
paying that condition's beneficiary, carrying the triggering observation
and an authenticity proof.  With the proof shield on the oracle refuses
to sign anything whose proof fails verification; with it off it signs
regardless and the audit record is marked failed.  If no condition holds
within the timeframe the oracle co-signs a payment to the default
beneficiary, and a refund draft pre-signed by both agents with a locktime
lets them recover the escrow without the oracle at all.

An arbitrated variant puts a fourth party's key in the oracle's multisig
slot; that contract is resolved by the arbitrator's scripted decision
rather than by polling.  A scenario settles it with ``oz_arbitrate``,
which signs that decision, then ``oz_cosign``, which adds an agent's
signature and broadcasts it.

Conditions on the same (source, key) must be pairwise disjoint so at most
one can fire on any value; conditions on different keys can be true at
once, and the earliest poll resolves ties by list order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from . import datafeed
from .datafeed import (
    AuthenticityProof,
    Comparator,
    DataSource,
    Observation,
    kind,
    make_proof,
    query,
    verify_proof,
)
from .simchain import (
    KeyPair,
    MultiSig,
    PayToKey,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    add_signature,
    select_coins,
    sighash,
    sign_input,
    spend,
    txid,
)

DEFAULT_POLL_INTERVAL = 3600  # seconds


class OraclizeError(ValueError):
    """Base for conditional-contract failures."""


class OverlappingConditionsError(OraclizeError):
    """Two conditions on the same source key can hold at once."""


class NonSSLSourceError(OraclizeError):
    """Only encrypted sources are accepted."""


class EmptyTimeframeError(OraclizeError):
    pass


class ProofInvalidError(OraclizeError):
    """Shielded oracle refused to sign over a proof that fails to verify."""


class TooEarlyError(OraclizeError):
    pass


class AlreadySettledError(OraclizeError):
    pass


class ArbitrationRequiredError(OraclizeError):
    """Polling cannot resolve a contract whose co-signer is the arbitrator."""


# ------------------------------------------------------------- conditions

@dataclass(frozen=True)
class Condition(datafeed.Condition):
    beneficiary: bytes

    def __post_init__(self) -> None:
        super().__post_init__()  # no ordering on events and labels
        check_comparator(self.comparator)


def check_comparator(comparator: Comparator) -> None:
    """Raise ValueError on ``ne``: disjointness is decided over one interval
    per condition, and ``ne`` holds on two."""
    if comparator is Comparator.NE:
        raise ValueError("conditions take <, <=, =, >= or >")


_NEG = float("-inf")
_POS = float("inf")


def _interval(cmp: Comparator, t) -> tuple[float, bool, float, bool]:
    """Satisfying set over the number line: (lo, lo closed, hi, hi closed)."""
    if cmp is Comparator.LT:
        return (_NEG, False, t, False)
    if cmp is Comparator.LE:
        return (_NEG, False, t, True)
    if cmp is Comparator.EQ:
        return (t, True, t, True)
    if cmp is Comparator.GE:
        return (t, True, _POS, False)
    return (t, False, _POS, False)


def _contains(iv: tuple, x) -> bool:
    lo, lo_closed, hi, hi_closed = iv
    return (x > lo or (x == lo and lo_closed)) and (x < hi or (x == hi and hi_closed))


def conditions_overlap(a: Condition, b: Condition) -> bool:
    """Whether some feed value satisfies both conditions.

    Decided by interval intersection for number thresholds; event and
    label conditions are points, and distinct kinds never meet because
    feed values are typed.  Only comparisons are used, so the answer is
    exact for float thresholds too.
    """
    if (a.source_id, a.key) != (b.source_id, b.key):
        return False
    ka, kb = kind(a.threshold), kind(b.threshold)
    if ka != kb:
        return False
    if ka != "number":
        return a.threshold == b.threshold
    ia, ib = _interval(a.comparator, a.threshold), _interval(b.comparator, b.threshold)
    lo = max(ia[0], ib[0])
    hi = min(ia[2], ib[2])
    if lo > hi:
        return False
    if lo < hi:
        return True  # the reals are dense: an open gap still has points
    return _contains(ia, lo) and _contains(ib, lo)


def check_disjoint(conditions) -> None:
    conditions = list(conditions)
    for i, a in enumerate(conditions):
        for b in conditions[i + 1 :]:
            if conditions_overlap(a, b):
                raise OverlappingConditionsError(
                    f"conditions on {a.source_id}/{a.key} can hold at once"
                )


# -------------------------------------------------------------- contracts


class ContractState(enum.Enum):
    ACTIVE = "active"
    SETTLED_CONDITION = "settled_condition"
    SETTLED_DEFAULT = "settled_default"
    REFUNDED = "refunded"


@dataclass
class ConditionalContract:
    contract_id: str
    third_pub: bytes  # the oracle, or the arbitrator in the carol variant
    arbitrated: bool
    conditions: tuple[Condition, ...]
    default_beneficiary: bytes
    start: int
    end: int
    poll_interval: int
    proofshield: bool
    funding_outpoint: tuple[bytes, int]
    escrow_value: int
    refund_draft: Transaction
    state: ContractState = ContractState.ACTIVE
    settled_condition: int | None = None


def poll_times(contract: ConditionalContract) -> range:
    """Scheduled checks: one interval after start, then every interval
    until the end of the window (inclusive when it divides evenly)."""
    return range(
        contract.start + contract.poll_interval, contract.end + 1, contract.poll_interval
    )


@dataclass(frozen=True)
class Settlement:
    """One signing decision: a signed escrow payout, or a shielded refusal."""

    contract_id: str
    tx: Transaction | None  # None on a refusal
    condition_index: int | None  # None on the default path
    time: int | None  # None on an arbitrated decision
    kind: str  # "condition" | "default" | "refused" | "arbitrated"
    observation: Observation | None
    proof: AuthenticityProof | None
    proof_ok: bool | None
    verified_before_signing: bool

    @property
    def signed(self) -> bool:
        return self.tx is not None


def _settle(
    contract: ConditionalContract, key: KeyPair, fee: int, decision: Settlement
) -> Settlement:
    """Sign the escrow spend to the decided beneficiary (the default one when
    no condition is named) and settle the contract."""
    index = decision.condition_index
    beneficiary = (
        contract.default_beneficiary if index is None else contract.conditions[index].beneficiary
    )
    # a fee over the escrow raises before anything settles
    payout = TxOutput(value=contract.escrow_value - fee, lock=PayToKey(beneficiary))
    tx = spend(contract.funding_outpoint, (payout,), key)
    contract.state = (
        ContractState.SETTLED_DEFAULT if index is None else ContractState.SETTLED_CONDITION
    )
    contract.settled_condition = index
    return replace(decision, tx=tx)


class Oracle:
    """Scheduled co-signer: builds contracts, polls sources, signs payouts.

    `proof_hook`, when set, rewrites each proof between fetch and the
    pre-signature check; adversarial fixtures set it to model tampering
    anywhere along the data path.  Every signing decision lands in
    `audit`, including refusals.
    """

    def __init__(
        self, keys, sources: dict[str, DataSource], oracle_id: str = "oraclize"
    ) -> None:
        self.id = oracle_id
        self.pair: KeyPair = keys.keygen(f"oracle:{oracle_id}".encode())
        self.sources = sources
        self.proof_hook = None
        self.audit: list[Settlement] = []
        self._next_id = 1

    # --- construction ----------------------------------------------------

    def build_contract(
        self,
        chain: SimChain,
        *,
        alice: KeyPair,
        bob: KeyPair,
        stakes: tuple[int, int],
        conditions,
        default_beneficiary: bytes,
        start: int,
        end: int,
        refund_locktime: int,
        poll_interval: int = DEFAULT_POLL_INTERVAL,
        proofshield: bool = False,
        arbitrator: KeyPair | None = None,
        fee: int = 1000,
    ) -> ConditionalContract:
        """Escrow both stakes behind the 2-of-3 lock and pre-sign the refund.

        The refund draft spends the escrow back to the agents (split pro
        rata, fees from the pot) and carries the locktime, so it only
        becomes minable if the oracle goes dark past that height.  The
        funding is broadcast last, so a refused contract broadcasts nothing.
        """
        if sum(stakes) == 0:
            raise ValueError("the stakes total zero")
        if end <= start:
            raise EmptyTimeframeError(f"window [{start}, {end}] has no duration")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        conditions = tuple(conditions)
        for condition in conditions:
            source = condition.source_in(self.sources)
            if not source.ssl:
                raise NonSSLSourceError(f"{source.id} is not encrypted")
        check_disjoint(conditions)

        third = arbitrator.pub if arbitrator is not None else self.pair.pub
        lock = MultiSig(m=2, keys=(alice.pub, bob.pub, third))
        escrow_value = sum(stakes) - fee

        coins_a, total_a = select_coins(chain, alice.pub, stakes[0])
        coins_b, total_b = select_coins(chain, bob.pub, stakes[1])
        outputs = [TxOutput(value=escrow_value, lock=lock)]
        if total_a > stakes[0]:
            outputs.append(TxOutput(value=total_a - stakes[0], lock=PayToKey(alice.pub)))
        if total_b > stakes[1]:
            outputs.append(TxOutput(value=total_b - stakes[1], lock=PayToKey(bob.pub)))
        funding = Transaction(
            inputs=tuple(TxInput(outpoint=op) for op in (*coins_a, *coins_b)),
            outputs=tuple(outputs),
        )
        for index in range(len(funding.inputs)):
            funding = sign_input(funding, index, alice if index < len(coins_a) else bob)
        funding_outpoint = (txid(funding), 0)

        refund_value = escrow_value - fee
        alice_share = refund_value * stakes[0] // sum(stakes)
        shares = (
            TxOutput(value=alice_share, lock=PayToKey(alice.pub)),
            TxOutput(value=refund_value - alice_share, lock=PayToKey(bob.pub)),
        )
        refund = spend(funding_outpoint, shares, alice, bob, locktime=refund_locktime)

        chain.broadcast(funding, "funding")
        contract_id = f"oc-{self._next_id}"
        self._next_id += 1
        return ConditionalContract(
            contract_id=contract_id,
            third_pub=third,
            arbitrated=arbitrator is not None,
            conditions=conditions,
            default_beneficiary=default_beneficiary,
            start=start,
            end=end,
            poll_interval=poll_interval,
            proofshield=proofshield,
            funding_outpoint=funding_outpoint,
            escrow_value=escrow_value,
            refund_draft=refund,
        )

    # --- scheduled resolution ---------------------------------------------

    def poll(
        self, contract: ConditionalContract, now: int, fee: int = 1000
    ) -> Settlement | None:
        """One scheduled check; first satisfied condition wins, list order
        breaking ties.  Returns the oracle-signed settlement, or None."""
        if contract.arbitrated:
            raise ArbitrationRequiredError(contract.contract_id)
        if contract.state is not ContractState.ACTIVE:
            raise AlreadySettledError(contract.contract_id)
        if now not in poll_times(contract):
            raise ValueError(
                f"poll at {now} is off the schedule: every {contract.poll_interval}"
                f" after {contract.start}, up to {contract.end}"
            )

        for index, condition in enumerate(contract.conditions):
            source = self.sources[condition.source_id]
            observation = query(source, condition.key, now)
            if not condition.holds(observation.value):
                continue
            proof = make_proof(source, condition.key, now, self.id)
            if self.proof_hook is not None:
                proof = self.proof_hook(proof)
            proof_ok = verify_proof(proof, observation)
            decision = Settlement(
                contract.contract_id, None, index, now, "condition",
                observation, proof, proof_ok, contract.proofshield,
            )
            if contract.proofshield and not proof_ok:
                self.audit.append(replace(decision, kind="refused"))
                raise ProofInvalidError(f"{contract.contract_id}: proof failed verification")
            self.audit.append(_settle(contract, self.pair, fee, decision))
            return self.audit[-1]
        return None

    def settle_default(
        self, contract: ConditionalContract, now: int, fee: int = 1000
    ) -> Settlement:
        """After the window, co-sign the payout to the default beneficiary."""
        if contract.arbitrated:
            raise ArbitrationRequiredError(contract.contract_id)
        if contract.state is not ContractState.ACTIVE:
            raise AlreadySettledError(contract.contract_id)
        if now <= contract.end:
            raise TooEarlyError(f"window open until {contract.end}")
        decision = Settlement(
            contract.contract_id, None, None, now, "default", None, None, None, contract.proofshield
        )
        self.audit.append(_settle(contract, self.pair, fee, decision))
        return self.audit[-1]


# ---------------------------------------------------- agent-side operations


def co_sign_and_broadcast(chain: SimChain, settlement: Settlement, agent: KeyPair) -> Transaction:
    """Second signature over the oracle's settlement, then broadcast.

    The escrow script only counts keys; it cannot see which beneficiary
    the agents meant, so any two of the three holders can move the funds.
    Raises ProofInvalidError for a shielded refusal, which holds no
    transaction to co-sign.
    """
    if settlement.tx is None:
        raise ProofInvalidError(f"{settlement.contract_id}: the oracle refused to sign")
    tx = add_signature(settlement.tx, 0, agent.sign(sighash(settlement.tx)))
    chain.broadcast(tx, "settlement")
    return tx


def refund_expiry(chain: SimChain, contract: ConditionalContract) -> Transaction:
    """Broadcast the agents' pre-signed refund once its locktime has passed.

    Needs nothing from the oracle: this is the recovery path for a dead
    co-signer."""
    if contract.state is not ContractState.ACTIVE:
        raise AlreadySettledError(contract.contract_id)
    locktime = contract.refund_draft.locktime
    if chain.height + 1 < locktime:
        raise TooEarlyError(f"refund minable at height {locktime}, next is {chain.height + 1}")
    chain.broadcast(contract.refund_draft, "refund")
    contract.state = ContractState.REFUNDED
    return contract.refund_draft


def arbitrate(
    contract: ConditionalContract,
    arbitrator: KeyPair,
    condition_index: int | None,
    fee: int = 1000,
) -> Settlement:
    """The fourth party's scripted decision on an arbitrated contract:
    a condition's beneficiary, or the default when given None."""
    if not contract.arbitrated:
        raise OraclizeError(f"{contract.contract_id} is oracle-resolved")
    if arbitrator.pub != contract.third_pub:
        raise OraclizeError(f"{contract.contract_id} names another arbitrator")
    if contract.state is not ContractState.ACTIVE:
        raise AlreadySettledError(contract.contract_id)
    if condition_index is not None and not 0 <= condition_index < len(contract.conditions):
        raise OraclizeError(f"{contract.contract_id} has no condition {condition_index}")
    decision = Settlement(
        contract.contract_id, None, condition_index, None, "arbitrated", None, None, None, False
    )
    return _settle(contract, arbitrator, fee, decision)
