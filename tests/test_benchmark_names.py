"""The traced benchmark reads call counts by function name: each name it
declares must still name a function of the program."""

import json
import types
from pathlib import Path

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
