"""Reach census of `src/oraclesim`: the lines the system runs, and the lines
only the tests run.

Run it from anywhere, with no options (stdlib only; pytest and hypothesis
for the tier-1 leg):

    python3 mutation/reach.py

Two legs run, each in a child process of its own under a `sys.settrace`
line collector that records only frames of files under `src/oraclesim`:

- system: the bundled scenarios through `oraclesim run`, then `verify`,
  `metrics`, `orisi-params`, `decode-payload` and `classify-tx` on what
  CI's installed-package step gives them, then one unit of each
  `perfbench/workloads.py` workload, untraced and under the benchmark's
  layer tracer, as CI's benchmark smoke test runs them;
- tier-1: the tier-1 suite through `pytest.main`, about 3x slower than
  untraced (~90 s on a 2-vCPU VM), with hypothesis deadlines off so that
  the tracer's cost fails no property.

Executable lines are those of the compiled code objects (`co_lines`).  For
each module the report names, grouped by the innermost function or class
that holds them, the lines tier-1 does not reach and the lines that tier-1
reaches and the system does not.  A function marked "(whole)" under "only
tests reach" is a helper that nothing but the tests calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oraclesim"
_LEG = "ORACLESIM_REACH_LEG"  # set in a child: the leg it runs
_OUT = "ORACLESIM_REACH_OUT"  # set in a child: the file it writes its lines to


# ------------------------------------------------------------ line collector


def _collect(run) -> dict[str, set[int]]:
    """The lines of `PACKAGE` that `run()` executes, per file."""
    prefix = str(PACKAGE) + os.sep
    reached: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


# ---------------------------------------------------------------- the legs


def _cli(*argv: str) -> int:
    from oraclesim.harness.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def _system_leg() -> None:
    """What CI's installed-package step and the benchmark run."""
    from oraclesim.counterparty import Send, encode_message
    from oraclesim.harness import bundled_scenarios
    from oraclesim.simchain import DataCarrier, Transaction, TxOutput, serialize_tx

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        paths = bundled_scenarios()
        for path in paths:
            _cli("run", str(path), "--out", str(out / "logs"))
        first = paths[0]
        _cli("run", str(first), "--out", str(out / "again"))
        log = f"{first.stem}.log.jsonl"
        _cli("verify", str(out / "logs" / log), str(out / "again" / log))
        _cli("metrics", str(out / "logs" / log), str(out / "metrics.csv"))
        for name, line in (
            ("noactor", '{"kind":"stake","module":"tc","payload":{"stake":5},"tick":0}'),
            ("negative", '{"kind":"tx_submitted","module":"x","payload":{},"tick":-1}'),
        ):
            (out / f"{name}.log").write_text(line + "\n", encoding="utf-8")
            _cli("metrics", str(out / f"{name}.log"), str(out / f"{name}.csv"))
        decision = {"tick": 0, "op": "tc_decision", "author": "v1", "maturity_time": 1700007200}
        doc = {"name": "tc_refusals", "seed": 1, "ticks": 1, "actors": [], "actions": [
            {"tick": 0, "op": "tc_init", "allocation": {"v1": 1000}},
            {"tick": 0, "op": "tc_peg_in", "actor": "v1", "amount": 1000000000},
            dict(decision, id="d1", prompt="binary", kind="binary"),
            {"tick": 0, "op": "tc_market", "id": "m1", "author": "v1", "decisions": ["d1", "d1"],
             "b": 1.0},
            dict(decision, id="d2", prompt="scalar", kind="scalar", max=math.inf),
        ], "assertions": [
            {"kind": "count", "event": "run/refused", "where": {"reason": "ValueError"},
             "value": 2},
        ]}
        (out / "tc_refusals.json").write_text(json.dumps(doc), encoding="utf-8")
        _cli("run", str(out / "tc_refusals.json"), "--out", str(out / "refusals"))
    _cli("orisi-params", "2", "3")
    key = bytes([0x11]) * 32
    _cli("decode-payload", encode_message(Send("XCP", 5, "bob"), key).hex(), key.hex())
    carrier = serialize_tx(Transaction((), (TxOutput(0, DataCarrier(bytes(60))),))).hex()
    for era in ("v090", "test2013"):
        _cli("classify-tx", carrier, "--era", era)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from layertrace import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    for workload in WORKLOADS.values():
        bench = workload(1)
        inputs = bench.setup()
        # untraced, as the timed runs; then as `--trace 1`, whose hooks read results
        units = [bench.unit(inputs, 1)]
        tracer.install()
        try:
            units.append(bench.unit(inputs, 1, tracer))
        finally:
            tracer.uninstall()
        for unit in units:
            if unit.failed:
                raise SystemExit(f"{workload.name}: {unit.failed} failed steps {unit.errors}")


def _tier1_leg() -> None:
    import pytest
    from hypothesis import settings

    settings.register_profile("reach", deadline=None)
    settings.load_profile("reach")
    os.chdir(ROOT)
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"])


_LEGS = {"system": _system_leg, "tier1": _tier1_leg}


def _run_leg(name: str) -> dict[str, set[int]]:
    """Run one leg in a child process; its reached lines per file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        env = dict(os.environ, **{_LEG: name, _OUT: str(out)})
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, __file__], env=env, cwd=ROOT, capture_output=True, text=True
        )
        summary = child.stdout.strip().splitlines()[-1:] or [child.stderr.strip()[-400:]]
        print(f"{name} leg: exit {child.returncode}; {summary[0]}", file=sys.stderr)
        if not out.exists():
            raise SystemExit(f"{name} leg wrote no census:\n{child.stderr}")
        return {path: set(lines) for path, lines in json.loads(out.read_text()).items()}


# ----------------------------------------------------------------- report


def _executable(path: Path) -> dict[int, str]:
    """Each executable line of `path`, mapped to the innermost function or
    class whose body holds it.  A `def`, `class` or decorator line runs in
    the enclosing scope, and a comprehension or lambda belongs to the
    function it is written in, so a function none of whose lines is reached
    is a function nothing calls."""
    owner: dict[int, str] = {}

    def walk(code, name: str) -> None:
        for _, _, line in code.co_lines():
            if line is not None and line not in owner:
                owner[line] = name
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                inner = name if const.co_name.startswith("<") else const.co_qualname
                walk(const, inner)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return owner


def _spans(lines: list[int]) -> str:
    spans, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            spans.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(spans)


def _by_owner(lines: set[int], owner: dict[int, str]) -> list[str]:
    grouped: defaultdict[str, list[int]] = defaultdict(list)
    for line in sorted(lines):
        grouped[owner[line]].append(line)
    size = Counter(owner.values())
    return [
        f"    {name}{' (whole)' if len(held) == size[name] else ''}: {_spans(held)}"
        for name, held in grouped.items()
    ]


def report(system: dict[str, set[int]], tier1: dict[str, set[int]]) -> None:
    totals = [0, 0, 0]
    for path in sorted(PACKAGE.rglob("*.py")):
        owner = _executable(path)
        lines = set(owner)
        missed = lines - tier1.get(str(path), set())
        only_tests = (lines & tier1.get(str(path), set())) - system.get(str(path), set())
        for i, count in enumerate((len(lines), len(missed), len(only_tests))):
            totals[i] += count
        name = path.relative_to(PACKAGE.parent).as_posix()
        print(f"{name}: {len(lines)} lines, tier-1 misses {len(missed)}, "
              f"only tests reach {len(only_tests)}")
        for title, held in (("tier-1 misses", missed), ("only tests reach", only_tests)):
            if held:
                print(f"  {title}:")
                print("\n".join(_by_owner(held, owner)))
    print(f"total: {totals[0]} lines, tier-1 misses {totals[1]}, only tests reach {totals[2]}")


def main() -> None:
    leg = os.environ.get(_LEG)
    if leg is not None:
        reached = _collect(_LEGS[leg])
        Path(os.environ[_OUT]).write_text(
            json.dumps({path: sorted(lines) for path, lines in reached.items()})
        )
        return
    report(_run_leg("system"), _run_leg("tier1"))


if __name__ == "__main__":
    main()
