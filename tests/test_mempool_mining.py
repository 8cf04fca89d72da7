"""Relay pool behaviour and hashrate-weighted block production."""

from random import Random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from oraclesim.simchain import (
    REASON_CONFLICT,
    REASON_DUPLICATE,
    REASON_INVALID,
    BadWitnessError,
    DataCarrier,
    Either,
    InsufficientFundsError,
    InvalidReason,
    KeyRegistry,
    MempoolEntry,
    Miner,
    NoMinersError,
    PayToKey,
    POLICY_TEST2013,
    RejectedError,
    SimChain,
    SubmitResult,
    Transaction,
    TxInput,
    TxOutput,
    ValidationResult,
    _satisfies,
    block_hash,
    build_payment,
    classify,
    select_coins,
    serialize_tx,
    sighash,
    sign_input,
    tx_size,
    txid,
    validate_tx,
)

ALL_COMPLIANT = [Miner("big", 0.93, accepts_nonstandard=False), Miner("small", 0.07)]
SOLO = [Miner("solo", 1.0)]


def make_chain(expiry_blocks=100, coins=10):
    reg = KeyRegistry()
    alice = reg.keygen(b"alice")
    bob = reg.keygen(b"bob")
    allocation = [TxOutput(value=50_000, lock=PayToKey(alice.pub)) for _ in range(coins)]
    allocation += [TxOutput(value=50_000, lock=PayToKey(bob.pub)) for _ in range(coins)]
    chain = SimChain(policy=POLICY_TEST2013, genesis=allocation, keys=reg)
    chain.mempool.expiry_blocks = expiry_blocks
    return chain, alice, bob


def pay(chain, sender, recipient_pub, value, fee=100):
    return build_payment(chain, sender, [TxOutput(value=value, lock=PayToKey(recipient_pub))], fee=fee)


def nonstandard_pay(chain, sender, value, fee=100):
    big = DataCarrier(bytes(POLICY_TEST2013.max_data_payload + 1))
    return build_payment(chain, sender, [TxOutput(value=value, lock=big)], fee=fee)


def test_submit_tags_standardness():
    chain, alice, bob = make_chain()
    ok = chain.submit(pay(chain, alice, bob.pub, 1_000))
    assert ok.accepted and ok.standard.standard
    ns = chain.submit(nonstandard_pay(chain, bob, 0))
    assert ns.accepted and not ns.standard.standard


def test_admission_shares_verdicts_and_keeps_immutable_records():
    chain, alice, bob = make_chain(coins=1)
    tx = pay(chain, alice, bob.pub, 1_000, fee=250)
    verdict = chain.validate(tx)
    assert (verdict.ok, verdict.reason, verdict.fee) == (True, None, 250)
    empty = Transaction(inputs=(), outputs=())
    assert validate_tx(empty, chain.utxo, 1, chain.keys) is chain.validate(empty)
    assert not chain.validate(empty).ok and chain.validate(empty).fee is None
    other = pay(chain, bob, alice.pub, 5)
    assert classify(tx, POLICY_TEST2013) is classify(other, POLICY_TEST2013)
    assert classify(nonstandard_pay(chain, alice, 0), POLICY_TEST2013) is classify(
        nonstandard_pay(chain, bob, 0), POLICY_TEST2013
    )

    accepted, duplicate = chain.submit(tx), chain.submit(tx)
    assert (accepted.accepted, duplicate.accepted) == (True, False)
    entry = chain.mempool.entries[accepted.txid]
    assert (entry.fee, entry.rank) == (250, (-250 / entry.size, 0))
    for record, field in (
        (verdict, "ok"), (accepted, "accepted"), (entry, "fee"), (accepted.standard, "standard")
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_submit_rejects_duplicate_conflict_and_invalid():
    chain, alice, bob = make_chain(coins=1)
    tx = pay(chain, alice, bob.pub, 1_000)
    assert chain.submit(tx).accepted
    dup = chain.submit(tx)
    assert (dup.accepted, dup.reason) == (False, "duplicate")

    rival = pay(chain, alice, bob.pub, 2_000)  # same single coin, so same outpoint
    conflict = chain.submit(rival)
    assert (conflict.accepted, conflict.reason) == (False, "conflict")

    chain.mine_next(SOLO, Random(1))
    respend = chain.submit(tx)
    assert respend.reason == "invalid"
    assert respend.invalid_reason is InvalidReason.MISSING_INPUT


def test_broadcast_names_why_the_chain_refused():
    chain, alice, bob = make_chain(coins=1)

    def refuse(tx, why):
        with pytest.raises(RejectedError, match=f"^payment rejected: {why}$") as raised:
            chain.broadcast(tx, "payment")
        assert isinstance(raised.value, BadWitnessError) is (why == "bad_witness")

    tx = pay(chain, alice, bob.pub, 1_000)
    assert chain.broadcast(tx, "payment").accepted
    refuse(tx, "duplicate")
    refuse(pay(chain, alice, bob.pub, 2_000), "conflict")
    chain.mine_next(SOLO, Random(1))
    refuse(tx, "missing_input")
    bob_coin = chain.utxos_for(bob.pub)[0][0]
    spend = Transaction(inputs=(TxInput(bob_coin),), outputs=(TxOutput(100, PayToKey(alice.pub)),))
    refuse(sign_input(spend, 0, alice), "bad_witness")  # bob's coin, alice's signature
    late = Transaction(spend.inputs, spend.outputs, locktime=chain.height + 5)
    refuse(sign_input(late, 0, bob), "premature")
    assert len(chain.mempool.entries) == 0


def test_input_less_tx_is_refused_so_no_txid_is_mined_twice():
    chain, _, _ = make_chain()
    empty = Transaction(inputs=(), outputs=(TxOutput(value=0, lock=DataCarrier(b"x")),))
    assert validate_tx(empty, chain.utxo, 1, chain.keys).reason is InvalidReason.NO_INPUTS
    for height in (1, 2, 3):
        refused = chain.submit(empty)
        assert (refused.accepted, refused.invalid_reason) == (False, InvalidReason.NO_INPUTS)
        assert chain.mine_next(SOLO, Random(height)).txs == ()
    assert txid(empty) not in chain.txs_by_id


def test_mining_moves_value_and_burns_fees():
    chain, alice, bob = make_chain()
    supply_before = chain.supply()
    bob_before = chain.balance(bob.pub)
    chain.submit(pay(chain, alice, bob.pub, 7_000, fee=250))
    block = chain.mine_next(SOLO, Random(3))
    assert [b.height for b in chain.blocks] == [0, 1]
    assert block.parent == block_hash(chain.blocks[0])
    assert chain.balance(bob.pub) == bob_before + 7_000
    assert chain.supply() == supply_before - 250
    assert len(chain.mempool.entries) == 0


def test_winner_frequencies_track_hashrate():
    chain, _, _ = make_chain()
    rng = Random(12345)
    miners = [Miner("a", 0.7), Miner("b", 0.2), Miner("c", 0.1)]
    wins = {"a": 0, "b": 0, "c": 0}
    for _ in range(5000):
        wins[chain.mine_next(miners, rng).miner_id] += 1
    assert abs(wins["a"] / 5000 - 0.7) < 0.02
    assert abs(wins["b"] / 5000 - 0.2) < 0.02
    assert abs(wins["c"] / 5000 - 0.1) < 0.01


def test_compliant_miners_skip_nonstandard():
    chain, alice, _ = make_chain()
    res = chain.submit(nonstandard_pay(chain, alice, 0))
    assert res.accepted
    compliant_only = [Miner("strict", 1.0, accepts_nonstandard=False)]
    for _ in range(20):
        block = chain.mine_next(compliant_only, Random(9))
        assert block.txs == ()
    assert res.txid in chain.mempool.entries

    block = chain.mine_next([Miner("loose", 1.0)], Random(9))
    assert [t for t in block.txs] and res.txid not in chain.mempool.entries


def test_mempool_expiry_drops_stale_txs():
    chain, alice, _ = make_chain(expiry_blocks=5)
    strict = [Miner("strict", 1.0, accepts_nonstandard=False)]
    rng = Random(2)
    big = DataCarrier(bytes(POLICY_TEST2013.max_data_payload + 1))
    coins = iter(chain.utxos_for(alice.pub))
    arrived = {}  # txid -> arrival height
    # two arrive together and expire in one block; the later two each expire
    # alone, while an entry behind them is still young
    for arrival in (0, 0, 1, 3):
        while chain.height < arrival:
            chain.mine_next(strict, rng)
        outpoint, _ = next(coins)
        unsigned = Transaction(inputs=(TxInput(outpoint),), outputs=(TxOutput(0, big),))
        res = chain.submit(sign_input(unsigned, 0, alice))
        assert res.accepted and not res.standard
        arrived[res.txid] = arrival
    pools = []
    while chain.height < 9:
        chain.mine_next(strict, rng)
        assert set(chain.mempool.entries) == {
            tid for tid, arrival in arrived.items() if chain.height - arrival < 5
        }
        pools.append(len(chain.mempool.entries))
    assert pools == [4, 2, 1, 1, 0, 0]  # at heights 4..9


def test_blocks_fill_by_fee_rate():
    chain, alice, bob = make_chain()
    low = chain.submit(pay(chain, alice, bob.pub, 1_000, fee=10))
    high = chain.submit(pay(chain, bob, alice.pub, 1_000, fee=5_000))
    block = chain.mine_next(SOLO, Random(4))
    ids = [t for t in block.txs]
    assert len(ids) == 2
    from oraclesim.simchain import txid

    assert txid(block.txs[0]) == high.txid
    assert txid(block.txs[1]) == low.txid


def test_block_size_budget_limits_inclusion():
    chain, alice, bob = make_chain()
    first = chain.submit(pay(chain, alice, bob.pub, 1_000, fee=900))
    second = chain.submit(pay(chain, bob, alice.pub, 1_000, fee=800))
    entry_size = chain.mempool.entries[first.txid].size
    tiny = [Miner("tiny", 1.0, block_size_budget=entry_size)]
    block = chain.mine_next(tiny, Random(5))
    assert len(block.txs) == 1
    assert second.txid in chain.mempool.entries


def test_mining_requires_miners_and_unit_hashrate():
    chain, _, _ = make_chain()
    with pytest.raises(NoMinersError):
        chain.mine_next([], Random(1))
    with pytest.raises(ValueError):
        chain.mine_next([Miner("a", 0.5)], Random(1))


def test_identical_seeds_rebuild_identical_chains():
    def run():
        chain, alice, bob = make_chain()
        rng = Random(777)
        for i in range(10):
            if i % 3 == 0:
                chain.submit(pay(chain, alice, bob.pub, 500 + i, fee=50))
            chain.mine_next(ALL_COMPLIANT, rng)
        return [block_hash(b) for b in chain.blocks]

    assert run() == run()


def test_nonstandard_inclusion_waits_for_minority_miner():
    chain, alice, _ = make_chain()
    res = chain.submit(nonstandard_pay(chain, alice, 0))
    rng = Random(31)
    delay = 0
    while res.txid in chain.mempool.entries:
        block = chain.mine_next(ALL_COMPLIANT, rng)
        delay += 1
        assert delay < 200
    assert block.miner_id == "small"


# ------------------------------------------- mined blocks, checked by brute force

RELAY_OWNERS = 3
owner_index = st.integers(0, RELAY_OWNERS - 1)
MINER_SETS = {
    "strict": [Miner("strict", 1.0, accepts_nonstandard=False)],
    "loose": SOLO,
    "mixed": ALL_COMPLIANT,
    "tiny": [Miner("tiny", 1.0, block_size_budget=400)],
}


def reference_validate(tx, utxo_set, height, keys):
    """`validate_tx` written plainly: a list and a set for every duplicate
    check, a generator for the output sum, and each verdict built by the
    named tuple's constructor."""
    if not tx.inputs:
        return ValidationResult(False, InvalidReason.NO_INPUTS)
    if tx.locktime > height:
        return ValidationResult(False, InvalidReason.PREMATURE)

    outpoints = [txin.outpoint for txin in tx.inputs]
    if len(set(outpoints)) != len(outpoints):
        return ValidationResult(False, InvalidReason.DOUBLE_SPEND)

    total_in = 0
    digest = sighash(tx)
    for txin in tx.inputs:
        source = utxo_set.get(txin.outpoint)
        if source is None:
            return ValidationResult(False, InvalidReason.MISSING_INPUT)
        failure = _satisfies(source.lock, txin.witness, digest, keys)
        if failure is not None:
            return ValidationResult(False, failure)
        total_in += source.value

    total_out = sum(o.value for o in tx.outputs)
    if total_out > total_in:
        return ValidationResult(False, InvalidReason.OVERSPEND)
    return ValidationResult(True, None, total_in - total_out)


def reference_admission(chain, tx):
    """What `chain.submit(tx)` gives, taken the plain way and without
    touching the pool: the result and the entry it adds, or None."""
    pool = chain.mempool
    tid = txid(tx)
    if tid in pool.entries:
        return SubmitResult(tid, False, reason=REASON_DUPLICATE), None
    for txin in tx.inputs:
        if txin.outpoint in pool._claimed:
            return SubmitResult(tid, False, reason=REASON_CONFLICT), None
    verdict = reference_validate(tx, chain.utxo, chain.height + 1, chain.keys)
    if not verdict.ok:
        return SubmitResult(tid, False, reason=REASON_INVALID, invalid_reason=verdict.reason), None
    decision = classify(tx, chain.policy)
    fee, size, seq = verdict.fee, tx_size(tx), pool._next_seq
    entry = MempoolEntry(tx, fee, size, chain.height, decision, (-(fee / size), seq))
    return SubmitResult(tid, True, decision), entry


class RelayTraffic(RuleBasedStateMachine):
    """Random relay traffic, mined with no validation at mining time.

    Payments (some with a future locktime, some nonstandard, some into a
    two-key `Either`), spends of those `Either` coins, rival spends of one
    coin, transactions naming a coin twice, overspends and
    re-sent confirmed transactions go through `submit`, each admission
    checked against `reference_admission`; mining by strict, loose, mixed
    and small-budget miners confirms some and lets the rest expire.  Every
    mined block must validate tx by tx against the UTXO set before it, with
    the block's earlier spends applied, and must hold what a greedy fill of
    the pool before it takes.  Fees, arrival order and expiry are checked
    against what the machine itself recorded and the UTXO set.
    """

    def __init__(self):
        super().__init__()
        reg = KeyRegistry()
        self.pairs = [reg.keygen(b"relay-%d" % i) for i in range(RELAY_OWNERS)]
        self.owner_of = {pair.pub: pair for pair in self.pairs}
        genesis = [
            TxOutput(value=20_000, lock=PayToKey(pair.pub))
            for pair in self.pairs
            for _ in range(3)
        ]
        self.chain = SimChain(policy=POLICY_TEST2013, genesis=genesis, keys=reg)
        self.chain.mempool.expiry_blocks = 4
        self.arrived = {}  # txid -> (height, order) of its latest accepted submit
        self.accepted = 0

    def submit(self, tx):
        """Submit `tx`, checking the result and the new entry, field by field,
        against the reference admission."""
        expected, entry = reference_admission(self.chain, tx)
        depth = len(self.chain.mempool.entries)
        result = self.chain.submit(tx)
        assert type(result) is SubmitResult
        assert result._asdict() == expected._asdict()
        if entry is None:
            assert len(self.chain.mempool.entries) == depth
            return
        kept = self.chain.mempool.entries[result.txid]
        assert type(kept) is MempoolEntry
        assert kept._asdict() == entry._asdict()
        self.arrived[result.txid] = (self.chain.height, self.accepted)
        self.accepted += 1

    def pay_to(self, sender, lock, value, fee):
        try:
            tx = build_payment(
                self.chain, self.pairs[sender], [TxOutput(value=value, lock=lock)], fee=fee
            )
        except InsufficientFundsError:
            return
        self.submit(tx)

    def signed(self, sender, outpoints, outputs, locktime=0):
        """A transaction spending `outpoints`, every input signed by `sender`."""
        tx = Transaction(tuple(TxInput(op) for op in outpoints), tuple(outputs), locktime)
        for index in range(len(outpoints)):
            tx = sign_input(tx, index, self.pairs[sender])
        return tx

    @rule(
        sender=owner_index,
        recipient=owner_index,
        value=st.integers(0, 30_000),
        fee=st.integers(0, 500),
        delay=st.integers(0, 3),
        nonstandard=st.booleans(),
    )
    def pay(self, sender, recipient, value, fee, delay, nonstandard):
        # coin selection takes the first coins, so a second payment from one
        # sender conflicts; a locktime past the next height is premature
        lock = DataCarrier(bytes(81)) if nonstandard else PayToKey(self.pairs[recipient].pub)
        change = PayToKey(self.pairs[sender].pub)
        try:
            coins, gathered = select_coins(self.chain, change.pub, value + fee)
        except InsufficientFundsError:
            return
        outputs = [TxOutput(value, lock)]
        if gathered > value + fee:
            outputs.append(TxOutput(gathered - value - fee, change))
        self.submit(self.signed(sender, coins, outputs, locktime=self.chain.height + delay))

    @rule(sender=owner_index, other=owner_index, value=st.integers(0, 15_000))
    def lock(self, sender, other, value):
        lock = Either(PayToKey(self.pairs[sender].pub), PayToKey(self.pairs[other].pub))
        self.pay_to(sender, lock, value, fee=100)

    @rule(pick=st.integers(0, 50), right=st.booleans(), fee=st.integers(0, 500))
    def unlock(self, pick, right, fee):
        """Spend an `Either` coin, signed by the owner of one branch."""
        locked = sorted(
            (op, out) for op, out in self.chain.utxo.items() if isinstance(out.lock, Either)
        )
        if not locked:
            return
        op, out = locked[pick % len(locked)]
        owner = self.owner_of[(out.lock.right if right else out.lock.left).pub]
        unsigned = Transaction(
            inputs=(TxInput(outpoint=op),),
            outputs=(TxOutput(value=max(out.value - fee, 0), lock=PayToKey(owner.pub)),),
        )
        self.submit(sign_input(unsigned, 0, owner))

    @rule(sender=owner_index)
    def double_spend(self, sender):
        coins = self.chain.utxos_for(self.pairs[sender].pub)
        if coins:
            (first, out), *_ = coins
            lock = PayToKey(self.pairs[sender].pub)
            self.submit(self.signed(sender, [first, first], [TxOutput(out.value, lock)]))

    @rule(pick=st.integers(0, 50))
    def resend_confirmed(self, pick):
        confirmed = [tx for block in self.chain.blocks[1:] for tx in block.txs]
        if confirmed:
            self.submit(confirmed[pick % len(confirmed)])

    @rule(sender=owner_index, extra=st.integers(1, 1_000))
    def overspend(self, sender, extra):
        coins = self.chain.utxos_for(self.pairs[sender].pub)
        if coins:
            (op, out), *_ = coins
            lock = PayToKey(self.pairs[sender].pub)
            unsigned = Transaction((TxInput(op),), (TxOutput(out.value + extra, lock),))
            self.submit(sign_input(unsigned, 0, self.pairs[sender]))

    def reference_fee(self, tx):
        return sum(self.chain.utxo[i.outpoint].value for i in tx.inputs) - sum(
            o.value for o in tx.outputs
        )

    @rule(miners=st.sampled_from(sorted(MINER_SETS)), seed=st.integers(0, 2**16))
    def mine(self, miners, seed):
        view = dict(self.chain.utxo)
        pool = [entry.tx for entry in self.chain.mempool.entries.values()]
        fees = {txid(tx): self.reference_fee(tx) for tx in pool}
        block = self.chain.mine_next(MINER_SETS[miners], Random(seed))

        # a greedy fill by fee rate, earlier arrival on ties, under the budget
        winner = next(m for m in MINER_SETS[miners] if m.miner_id == block.miner_id)
        offered = [
            tx for tx in pool if winner.accepts_nonstandard or classify(tx, self.chain.policy)
        ]
        size = {txid(tx): len(serialize_tx(tx)) for tx in offered}

        def rank(tx):
            tid = txid(tx)
            return -(fees[tid] / size[tid]), self.arrived[tid][1]

        reference, used = [], 0
        for tx in sorted(offered, key=rank):
            if used + size[txid(tx)] <= winner.block_size_budget:
                reference.append(tx)
                used += size[txid(tx)]
        assert list(block.txs) == reference

        mined = {txid(tx) for tx in block.txs}
        for tx in pool:
            if txid(tx) not in mined and txid(tx) not in self.chain.mempool.entries:
                assert block.height - self.arrived[txid(tx)][0] >= self.chain.mempool.expiry_blocks
        for tx in block.txs:
            assert validate_tx(tx, view, block.height, self.chain.keys).ok, tx
            for txin in tx.inputs:
                del view[txin.outpoint]
            for index, out in enumerate(tx.outputs):
                view[(txid(tx), index)] = out
        assert view == self.chain.utxo

    @invariant()
    def pool_entries_are_valid_at_the_next_height(self):
        for entry in self.chain.mempool.entries.values():
            assert self.chain.validate(entry.tx).ok, entry

    @invariant()
    def pool_fees_are_inputs_minus_outputs(self):
        for entry in self.chain.mempool.entries.values():
            fee = self.reference_fee(entry.tx)
            assert entry.fee == self.chain.validate(entry.tx).fee == fee >= 0, entry

    @invariant()
    def pool_holds_no_expired_entry(self):
        height, expiry = self.chain.height, self.chain.mempool.expiry_blocks
        for tid, entry in self.chain.mempool.entries.items():
            assert (entry.arrival_height, entry.rank[1]) == self.arrived[tid]
            assert height - entry.arrival_height < expiry, entry

    @invariant()
    def pool_claims_exactly_the_inputs_of_its_entries(self):
        pool = self.chain.mempool
        spent = {txin.outpoint for entry in pool.entries.values() for txin in entry.tx.inputs}
        assert pool._claimed == spent


RelayTraffic.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_mined_blocks_validate_against_the_utxo_set_before_them = RelayTraffic.TestCase
