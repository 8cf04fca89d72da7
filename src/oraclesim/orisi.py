"""Multi-oracle "safe" contracts with padding keys and a PoW message bus.

An m-of-n oracle agreement is projected onto a single multisig: threshold
n+1 out of 2n-m+1 keys, of which n belong to oracles and n-m+1 are padding
keys held by the draft's beneficiary. Oracles alone hold n < n+1 keys and
can never move funds; any m honest oracles plus the beneficiary's padding
keys meet the threshold exactly. Oracles watch a datafeed condition and
broadcast partial signatures for one of two pre-drafted settlements (pay
Bob when true, refund Alice when settled false) over a spam-resistant
message bus that requires a hash proof-of-work on every message.

A bus message clears difficulty d (0..256) when H(bytes payload || u64
nonce) has at least d leading zero bits; minting returns the smallest such
nonce from 0 up (FORMATS.md), a rule the tests pin because nonces never
reach the event log. Hashing the payload prefix once and copying that state
per nonce is an implementation detail, not a format change.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

from .codec import Reader, pack_bytes, pack_u64
from . import datafeed
from .datafeed import DataSource, NoDataError, query
from .simchain import (
    MAX_MULTISIG_KEYS,
    BadWitnessError,
    KeyPair,
    KeyRegistry,
    MultiSig,
    PayToKey,
    Signature,
    SimChain,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    build_payment,
    serialize_signature,
    sighash,
    sign,
    signature_from_reader,
    txid,
)

DEFAULT_BUS_DIFFICULTY = 8  # leading zero bits
MAX_BUS_DIFFICULTY = 256  # a SHA-256 digest has no more zero bits to lead with


class OrisiError(Exception):
    """Base for safe-contract failures."""


class BadQuorumError(OrisiError):
    pass


class KeyLimitExceededError(OrisiError):
    pass


class NotAllAckedError(OrisiError):
    pass


class VerificationFailedError(OrisiError):
    pass


class QuorumNotReachedError(OrisiError):
    pass


class StateError(OrisiError):
    pass


@dataclass(frozen=True)
class SafeParams:
    m: int
    n: int
    threshold: int
    total_keys: int
    agent_keys: int


def compute_safe_params(m: int, n: int) -> SafeParams:
    """Project m-of-n oracle agreement onto (n+1)-of-(2n-m+1) keys."""
    if not 1 <= m <= n:
        raise BadQuorumError(f"need 1 <= m <= n, got m={m}, n={n}")
    total = 2 * n - m + 1
    if total > MAX_MULTISIG_KEYS:
        raise KeyLimitExceededError(f"{total} keys exceed the {MAX_MULTISIG_KEYS}-key script cap")
    return SafeParams(m=m, n=n, threshold=n + 1, total_keys=total, agent_keys=n - m + 1)


# --- message bus -------------------------------------------------------------

@dataclass(frozen=True)
class BusMessage:
    payload: bytes
    nonce: int
    difficulty: int


def _payload_hash(payload: bytes):
    """SHA-256 state after `bytes payload`: the prefix every nonce's digest shares."""
    return hashlib.sha256(pack_bytes(payload))


def _pow_bound(difficulty: int) -> bytes:
    """The largest digest with `difficulty` leading zero bits, 2**(256-d) - 1
    as 32 big-endian bytes: a digest clears iff `digest <= bound`."""
    if not 0 <= difficulty <= MAX_BUS_DIFFICULTY:
        raise ValueError(f"bus difficulty must be 0..{MAX_BUS_DIFFICULTY}, got {difficulty}")
    return ((1 << (MAX_BUS_DIFFICULTY - difficulty)) - 1).to_bytes(32, "big")


def check_pow(message: BusMessage) -> bool:
    """True when the nonce clears the stated difficulty; a difficulty
    outside 0..256 or a nonce outside the u64 range never does."""
    if not 0 <= message.nonce < 1 << 64:
        return False
    try:
        bound = _pow_bound(message.difficulty)
    except ValueError:
        return False
    h = _payload_hash(message.payload)
    h.update(pack_u64(message.nonce))
    return h.digest() <= bound


def mint_message(payload: bytes, difficulty: int = DEFAULT_BUS_DIFFICULTY) -> BusMessage:
    """Grind the smallest nonce whose digest clears the difficulty."""
    bound = _pow_bound(difficulty)
    prefix = _payload_hash(payload)
    pack = pack_u64  # the u64 nonce that ends every message digest
    nonce = 0
    while True:
        h = prefix.copy()
        h.update(pack(nonce))
        if h.digest() <= bound:
            return BusMessage(payload=payload, nonce=nonce, difficulty=difficulty)
        nonce += 1


class MessageBus:
    """Ordered in-memory message queue; spam is rejected at the PoW gate."""

    def __init__(self) -> None:
        self.pending: list[BusMessage] = []
        self.dropped = 0

    def post(self, message: BusMessage) -> bool:
        if message.difficulty < DEFAULT_BUS_DIFFICULTY or not check_pow(message):
            self.dropped += 1
            return False
        self.pending.append(message)
        return True

    def drain(self) -> list[BusMessage]:
        out, self.pending = self.pending, []
        return out


# --- contract ----------------------------------------------------------------


class DraftKind(enum.Enum):
    UNLOCK = "unlock"  # pays Bob: condition came true
    REFUND = "refund"  # pays Alice: condition settled false


class ContractState(enum.Enum):
    PROPOSED = "proposed"
    ACKED = "acked"
    ACTIVE = "active"
    SETTLED = "settled"
    REFUNDED = "refunded"


@dataclass(frozen=True)
class Condition(datafeed.Condition):
    settle_time: int  # after this, a false reading refunds Alice


@dataclass(frozen=True)
class OrisiFees:
    oracle_fee: int
    project_fee: int
    project_pub: bytes


@dataclass
class OrisiContract:
    contract_id: str
    params: SafeParams
    oracle_pubs: dict[str, bytes]  # oracle_id -> pub
    agent_pubs: tuple[bytes, ...]
    condition: Condition
    amount: int
    fees: OrisiFees
    safe_lock: MultiSig
    funding_tx: Transaction
    unlock_tx: Transaction
    refund_tx: Transaction
    state: ContractState = ContractState.PROPOSED
    acks: set = dataclass_field(default_factory=set)
    signatures: dict = dataclass_field(
        default_factory=lambda: {DraftKind.UNLOCK: {}, DraftKind.REFUND: {}}
    )

    @property
    def safe_outpoint(self) -> tuple[bytes, int]:
        return (txid(self.funding_tx), 0)

    def draft(self, kind: DraftKind) -> Transaction:
        return self.unlock_tx if kind is DraftKind.UNLOCK else self.refund_tx

    def record_signature(self, kind: DraftKind, oracle_id: str, sig: Signature, keys: KeyRegistry) -> bool:
        """Accept a partial signature if it is the named oracle's valid
        signature over the draft's digest; anything else is ignored."""
        pub = self.oracle_pubs.get(oracle_id)
        if pub is None or sig.signer_pub != pub:
            return False
        digest = sighash(self.draft(kind))
        if not keys.verify(sig, pub, digest):
            return False
        self.signatures[kind][oracle_id] = sig
        return True

    def apply_bus(self, bus: MessageBus, keys: KeyRegistry) -> int:
        """Drain the bus and record every valid partial signature."""
        applied = 0
        for message in bus.drain():
            try:
                contract_id, oracle_id, kind, sig = decode_bus_payload(message.payload)
            except ValueError:
                continue
            if contract_id != self.contract_id:
                continue
            if self.record_signature(kind, oracle_id, sig, keys):
                applied += 1
        return applied


def encode_bus_payload(contract_id: str, oracle_id: str, kind: DraftKind, sig: Signature) -> bytes:
    code = b"\x01" if kind is DraftKind.UNLOCK else b"\x02"
    return (
        pack_bytes(contract_id.encode("utf-8")) + pack_bytes(oracle_id.encode("utf-8"))
        + code + serialize_signature(sig)
    )


def decode_bus_payload(payload: bytes) -> tuple[str, str, DraftKind, Signature]:
    r = Reader(payload)
    contract_id = r.string()
    oracle_id = r.string()
    code = r.u8()
    if code not in (1, 2):
        raise ValueError(f"unknown draft code {code}")
    kind = DraftKind.UNLOCK if code == 1 else DraftKind.REFUND
    sig = signature_from_reader(r)
    r.expect_done()
    return contract_id, oracle_id, kind, sig


def _settlement_outputs(
    beneficiary_pub: bytes, oracle_pubs: dict[str, bytes], amount: int, fees: OrisiFees
) -> tuple[TxOutput, ...]:
    total_fees = fees.oracle_fee * len(oracle_pubs) + fees.project_fee
    if amount <= total_fees:
        raise ValueError(f"amount {amount} cannot cover {total_fees} in fees")
    outs = [TxOutput(value=amount - total_fees, lock=PayToKey(beneficiary_pub))]
    for oracle_id in sorted(oracle_pubs):
        outs.append(TxOutput(value=fees.oracle_fee, lock=PayToKey(oracle_pubs[oracle_id])))
    outs.append(TxOutput(value=fees.project_fee, lock=PayToKey(fees.project_pub)))
    return tuple(outs)


def propose(
    chain: SimChain,
    contract_id: str,
    alice: KeyPair,
    bob_pub: bytes,
    oracles: Sequence[tuple[str, bytes]],
    m: int,
    condition: Condition,
    amount: int,
    fees: OrisiFees,
) -> tuple[OrisiContract, tuple[KeyPair, ...]]:
    """Draft the safe, its funding, and both settlements. Nothing is
    broadcast yet; the returned padding key pairs are held by the parties."""
    if amount <= 0:
        raise ValueError("amount must be positive")
    params = compute_safe_params(m, len(oracles))
    oracle_pubs = {oracle_id: pub for oracle_id, pub in oracles}
    if len(oracle_pubs) != len(oracles):
        raise ValueError("duplicate oracle ids")

    agent_pairs = tuple(
        chain.keys.keygen(f"orisi:{contract_id}:agent:{i}".encode())
        for i in range(params.agent_keys)
    )
    key_slots = tuple(oracle_pubs[oid] for oid in sorted(oracle_pubs))
    key_slots += tuple(p.pub for p in agent_pairs)
    safe_lock = MultiSig(m=params.threshold, keys=key_slots)

    funding = build_payment(chain, alice, [TxOutput(value=amount, lock=safe_lock)])
    safe_outpoint = (txid(funding), 0)

    def settlement(beneficiary_pub: bytes) -> Transaction:
        return Transaction(
            inputs=(TxInput(outpoint=safe_outpoint),),
            outputs=_settlement_outputs(beneficiary_pub, oracle_pubs, amount, fees),
        )

    contract = OrisiContract(
        contract_id=contract_id,
        params=params,
        oracle_pubs=oracle_pubs,
        agent_pubs=tuple(p.pub for p in agent_pairs),
        condition=condition,
        amount=amount,
        fees=fees,
        safe_lock=safe_lock,
        funding_tx=funding,
        unlock_tx=settlement(bob_pub),
        refund_tx=settlement(alice.pub),
    )
    return contract, agent_pairs


def activate(chain: SimChain, contract: OrisiContract) -> None:
    """Broadcast Alice's funding once every oracle has acknowledged."""
    if contract.state not in (ContractState.PROPOSED, ContractState.ACKED):
        raise StateError(f"cannot activate from {contract.state.value}")
    missing = set(contract.oracle_pubs) - contract.acks
    if missing:
        raise NotAllAckedError(f"missing acks: {sorted(missing)}")
    chain.broadcast(contract.funding_tx, "funding")
    contract.state = ContractState.ACTIVE


@dataclass
class OracleNode:
    """Independent verifier: acks contracts it can serve, then polls its
    feed and broadcasts partial signatures over the bus."""

    oracle_id: str
    keypair: KeyPair
    source: DataSource

    def ack(self, contract: OrisiContract) -> None:
        pub = contract.oracle_pubs.get(self.oracle_id)
        if pub != self.keypair.pub:
            raise VerificationFailedError(f"{self.oracle_id}: not listed in the contract")
        try:
            contract.condition.source_in({self.source.id: self.source})
        except ValueError as exc:
            raise VerificationFailedError(f"{self.oracle_id}: cannot evaluate: {exc}") from None
        safe_outpoint = contract.safe_outpoint
        funding_out = contract.funding_tx.outputs[0]
        if funding_out.lock != contract.safe_lock or funding_out.value != contract.amount:
            raise VerificationFailedError(f"{self.oracle_id}: funding does not build the safe")
        if pub not in contract.safe_lock.keys:
            raise VerificationFailedError(f"{self.oracle_id}: key missing from the safe")
        for kind in DraftKind:
            draft = contract.draft(kind)
            if tuple(i.outpoint for i in draft.inputs) != (safe_outpoint,):
                raise VerificationFailedError(f"{self.oracle_id}: draft does not spend the safe")
            fee_paid = any(
                out.value == contract.fees.oracle_fee
                and isinstance(out.lock, PayToKey)
                and out.lock.pub == pub
                for out in draft.outputs
            )
            if not fee_paid:
                raise VerificationFailedError(f"{self.oracle_id}: draft omits my fee")
        contract.acks.add(self.oracle_id)
        if contract.acks == set(contract.oracle_pubs) and contract.state is ContractState.PROPOSED:
            contract.state = ContractState.ACKED

    def evaluate(self, contract: OrisiContract, now: int) -> DraftKind | None:
        cond = contract.condition
        try:
            obs = query(self.source, cond.key, now)
        except NoDataError:
            return None
        if cond.holds(obs.value):
            return DraftKind.UNLOCK
        if now >= cond.settle_time:
            return DraftKind.REFUND
        return None

    def poll_and_sign(
        self, contract: OrisiContract, bus: MessageBus, now: int
    ) -> BusMessage | None:
        """One poll: evaluate the condition and broadcast a partial
        signature when it is decided. Returns the posted message."""
        if contract.state is not ContractState.ACTIVE:
            return None
        kind = self.evaluate(contract, now)
        if kind is None:
            return None
        if self.oracle_id in contract.signatures[kind]:
            return None
        sig = sign(self.keypair.secret, sighash(contract.draft(kind)))
        payload = encode_bus_payload(contract.contract_id, self.oracle_id, kind, sig)
        message = mint_message(payload)
        return message if bus.post(message) else None


def ready_draft(contract: OrisiContract) -> DraftKind | None:
    """The draft holding at least m partial signatures, if any."""
    for kind in (DraftKind.UNLOCK, DraftKind.REFUND):
        if len(contract.signatures[kind]) >= contract.params.m:
            return kind
    return None


def finalize(
    chain: SimChain, contract: OrisiContract, beneficiary_keys: Sequence[KeyPair]
) -> Transaction:
    """Combine the `ready_draft`'s m oracle signatures with the beneficiary's
    padding keys, reaching the n+1 threshold, and broadcast the settlement."""
    if contract.state is not ContractState.ACTIVE:
        raise StateError(f"cannot finalize from {contract.state.value}")
    kind = ready_draft(contract)
    if kind is None:
        raise QuorumNotReachedError("no draft holds m partial signatures")
    collected = contract.signatures[kind]
    held = {p.pub for p in beneficiary_keys}
    # stricter than the chain, where oracle signatures past m can stand in for padding keys
    if not set(contract.agent_pubs) <= held:
        raise BadWitnessError("beneficiary does not hold the padding keys")

    draft = contract.draft(kind)
    digest = sighash(draft)
    sigs = [collected[oid] for oid in sorted(collected)]
    sigs += [sign(p.secret, digest) for p in beneficiary_keys if p.pub in set(contract.agent_pubs)]
    settled = draft.with_witness(0, Witness(signatures=tuple(sigs)))

    chain.broadcast(settled, "settlement")
    contract.state = ContractState.SETTLED if kind is DraftKind.UNLOCK else ContractState.REFUNDED
    return settled
