"""The traced benchmark reads call counts by function name: each name it
declares must still name a function of the program."""

import enum
import importlib
import inspect
import json
import pkgutil
import types
from pathlib import Path
from random import Random

import pytest

from oraclesim import simchain, truthcoin

ROOT = Path(__file__).resolve().parents[1]


def _layertrace():
    """`perfbench/layertrace.py` as a module, read without writing bytecode beside it."""
    path = ROOT / "perfbench" / "layertrace.py"
    module = types.ModuleType("layertrace")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_call_count_names_a_function_the_tracer_finds():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    counted = [m["name"].removesuffix(".calls") for m in declared if m["name"].endswith(".calls")]
    assert "counterparty.decode_payload" in counted
    found = {name for name, _, _ in _layertrace().discover()}
    assert [name for name in counted if name not in found] == []


def _function(owner, attr):
    """The plain function a discovered (owner, attribute) binds."""
    member = vars(owner)[attr]
    return member.__func__ if isinstance(member, (classmethod, staticmethod)) else member


def test_the_tracer_finds_each_function_under_one_name():
    """A submodule left bound beside its package's names would be walked
    again, so each of its functions would be counted under two names."""
    found = _layertrace().discover()
    names = [name for name, _, _ in found]
    assert len(names) == len(set(names))
    functions = [_function(owner, attr) for _, owner, attr in found]
    assert len(functions) == len({id(f) for f in functions})


@pytest.mark.parametrize(
    "layer, sample",
    [
        pytest.param(truthcoin, {"cost", "resolve_votes", "TruthcoinSim.trade", "SideLedger.credit_csh"},
                     id=truthcoin.__name__),
        pytest.param(simchain, {"select_coins", "check_miners", "SimChain.utxos_for", "Mempool.submit"},
                     id=simchain.__name__),
    ],
)
def test_the_tracer_finds_every_public_function_and_method(layer, sample):
    """A public function defined anywhere in the layer is traced, and so is
    each public method of its classes that are no exception or enum; a
    module with no ``__path__`` has no submodules to walk."""
    found = {id(_function(owner, attr)) for _, owner, attr in _layertrace().discover()}
    modules = [layer] + [importlib.import_module(f"{layer.__name__}.{m.name}")
                         for m in pkgutil.iter_modules(getattr(layer, "__path__", []))]
    expected = []
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                expected.append((name, obj))
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                expected += [
                    (f"{name}.{attr}", _function(obj, attr))
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                    and (inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)))
                ]
    assert sample <= dict(expected).keys()
    assert [name for name, f in expected if id(f) not in found] == []


def test_the_tracer_sees_every_host_chain_call_of_one_relayed_block():
    """One warm payment submitted and mined: each traced host-chain call on
    the relay path is counted once, and `txid` once for admission, once for
    the block's UTXO update and once for the pool's clean-up."""
    keys = simchain.KeyRegistry()
    alice, bob = keys.keygen(b"alice"), keys.keygen(b"bob")
    chain = simchain.SimChain(
        genesis=(simchain.TxOutput(5_000, simchain.PayToKey(alice.pub)),), keys=keys
    )
    tx = simchain.build_payment(
        chain, alice, [simchain.TxOutput(1_000, simchain.PayToKey(bob.pub))], fee=100
    )
    simchain.txid(tx)  # warm, as a presigned relay transaction is after its first block
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        assert chain.submit(tx).accepted
        block = chain.mine_next([simchain.Miner("solo", 1.0)], Random(0))
    finally:
        tracer.uninstall()
    assert block.txs == (tx,)
    calls, _ = tracer.summarize()
    counted = {name: n for name, n in calls.items() if name.startswith("simchain.") and n}
    once = [
        "Mempool.submit", "SimChain.submit", "SimChain.validate", "validate_tx",
        "KeyRegistry.verify", "classify", "tx_size", "sighash", "check_miners",
        "mine_next", "SimChain.mine_next", "Mempool.candidates", "Mempool.on_block",
        "block_hash",
    ]
    assert counted == {"simchain.txid": 3} | {f"simchain.{name}": 1 for name in once}
