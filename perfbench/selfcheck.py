"""Fast self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

Checks, on small sizes and two seeds, that:
- every generator makes identical inputs from one seed and different
  inputs from another;
- a unit's output is the same untraced and traced;
- two traced runs with one seed give identical call counts and counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

# small sizes keep the check fast; the measured sizes are the class defaults
SMALL = {"suite": 1, "pay_ledger": 40, "relay_backlog": 40, "xcp_follow": 12}
SEEDS = (0, 1)


def fingerprint(name: str, inputs) -> str:
    """Digest of a workload's generated inputs, independent of object ids."""
    from oraclesim.simchain import serialize_tx

    h = hashlib.sha256()
    if name == "suite":
        docs, pinned = inputs
        h.update(json.dumps([docs, pinned], sort_keys=True).encode())
    elif name == "pay_ledger":
        h.update(json.dumps(inputs, sort_keys=True).encode())
    elif name == "relay_backlog":
        h.update(repr(inputs.genesis).encode())
        for txs in inputs.blocks:
            for tx in txs:
                h.update(serialize_tx(tx))
                h.update(b"N" if id(tx) in inputs.nonstandard else b"S")
                h.update(inputs.fee[id(tx)].to_bytes(8, "big"))
    else:
        h.update(repr((inputs.genesis, inputs.blocks)).encode())
    return h.hexdigest()


def traced_counts(workload, inputs) -> tuple[dict, dict, list[str]]:
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outputs = [workload.unit(inputs, scale, tracer).output for scale in (1, 2)]
    finally:
        tracer.uninstall()
    calls, _ = tracer.summarize()
    return calls, dict(tracer.counts), outputs


def main() -> int:
    run._import_program()
    from workloads import WORKLOADS

    problems = []
    for name, cls in WORKLOADS.items():
        prints = {}
        for seed in SEEDS:
            first, again = cls(seed), cls(seed)
            first.N = again.N = SMALL[name]
            inputs = first.setup()
            prints[seed] = fingerprint(name, inputs)
            if fingerprint(name, again.setup()) != prints[seed]:
                problems.append(f"{name}: seed {seed} made different inputs twice")
            plain = [first.unit(inputs, scale) for scale in (1, 2)]
            if any(u.failed for u in plain):
                problems.append(f"{name}: seed {seed} failed {[u.errors for u in plain]}")
            calls_a, counts_a, outputs_a = traced_counts(first, inputs)
            calls_b, counts_b, outputs_b = traced_counts(again, again.setup())
            if outputs_a != [u.output for u in plain] or outputs_b != outputs_a:
                problems.append(f"{name}: seed {seed} traced outputs differ from untraced")
            if calls_a != calls_b or counts_a != counts_b:
                problems.append(f"{name}: seed {seed} call counts differ between two runs")
        if prints[SEEDS[0]] == prints[SEEDS[1]]:
            problems.append(f"{name}: seeds {SEEDS} made identical inputs")
        print(f"{name}: checked seeds {SEEDS}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
