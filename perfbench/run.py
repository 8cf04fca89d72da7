"""Run one oraclesim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric named in ``BENCHMARK.json``; with ``--trace 1`` it
holds every per-layer metric named there.  Lines before it are a readable
table of everything measured, including metrics not in the JSON and the raw
wall-clock figures, and the full record is written to ``.perfbench_out/``.

Times are host seconds scaled to a fixed reference host speed (see
hostspeed.py); the raw figures carry a ``raw.`` prefix.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REF_RATE, HostSpeed, reference_rate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # set-up runs at least this often; setup_s is the median
SETUP_MIN_SECONDS = 0.3  # ...and until this much time has gone
SETUP_MAX_REPEATS = 50
CONTEXT_KERNEL_S = 0.25  # reference kernel run before and after, as context


def _import_program():
    """Import oraclesim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "oraclesim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no oraclesim sources under {src}")
    sys.path.insert(0, str(src))
    import oraclesim

    if Path(oraclesim.__file__).resolve().parent != (src / "oraclesim").resolve():
        raise SystemExit(f"perfbench: imported oraclesim from {oraclesim.__file__}")


def _timed(fn):
    t0 = perf_counter()
    result = fn()
    return result, perf_counter() - t0


def timed_setup(workload, speed: HostSpeed):
    """Median scaled and raw set-up seconds over repeated set-ups, and inputs."""
    scaled, raw = [], []
    start = perf_counter()
    while len(raw) < SETUP_REPEATS or (
        perf_counter() - start < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPEATS
    ):
        (inputs, seconds), factor = speed.run(_timed, workload.setup)
        raw.append(seconds)
        scaled.append(seconds * factor)
    return statistics.median(scaled), statistics.median(raw), inputs, len(raw)


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _run_pairs(seconds: float, run_pair) -> list:
    """Call run_pair with the sizes in alternating order until time is up."""
    results = []
    deadline = perf_counter() + seconds
    order = (1, 2)
    while True:
        results.append(run_pair(order))
        order = order[::-1]
        if perf_counter() >= deadline:
            return results


def _end_to_end(small: list, large: list) -> dict[str, float]:
    """Metrics from (unit, factor) pairs measured at sizes N and 2N."""
    steps = [s * f for unit, f in small for s in unit.step_s]
    median_small = statistics.median(unit.seconds * f for unit, f in small)
    median_large = statistics.median(unit.seconds * f for unit, f in large)
    return {
        "blocks_per_s": statistics.median(unit.blocks / (unit.seconds * f) for unit, f in small),
        "step_ms.p50": 1e3 * _percentile(steps, 50),
        "step_ms.p90": 1e3 * _percentile(steps, 90),
        "growth_exp": math.log2(median_large / median_small),
    }


def _checked(units: list, groups: list[list]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors); a group of units must agree on its output."""
    attempted = sum(len(u.step_s) for u in units)
    failed = sum(u.failed for u in units)
    errors = [e for u in units for e in u.errors]
    for group in groups:
        if len({u.output for u in group}) != 1:
            failed += 1
            errors.append("one seed gave different outputs across repeated units")
    return attempted, failed, errors


def measure(workload, inputs, seconds: float, speed: HostSpeed):
    """Untraced run: end-to-end metrics plus attempted/failed step counts."""

    def run_pair(order):
        return {scale: speed.run(workload.unit, inputs, scale) for scale in order}

    pairs = _run_pairs(seconds, run_pair)
    small = [p[1] for p in pairs]
    large = [p[2] for p in pairs]
    units = [u for u, _ in small + large]
    attempted, failed, errors = _checked(units, [[u for u, _ in small], [u for u, _ in large]])
    metrics = _end_to_end(small, large)
    raw = _end_to_end([(u, 1.0) for u, _ in small], [(u, 1.0) for u, _ in large])
    metrics.update({f"raw.{name}": value for name, value in raw.items()})
    metrics["error_rate"] = failed / attempted
    samples = {"pairs": len(pairs), "steps_at_N": sum(len(u.step_s) for u, _ in small)}
    outputs = {"N": small[0][0].output, "2N": large[0][0].output}
    return metrics, attempted, failed, errors, samples, outputs


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure_traced(workload, inputs, seconds: float, speed: HostSpeed, spans_path: Path):
    """Traced run: per-layer metrics from untraced/traced unit pairs.

    Each repetition runs the N and 2N units untraced, then again traced, and
    checks that both give the same outputs.  Counts must repeat exactly in
    every repetition; times are medians over the repetitions.
    """
    from layertrace import Tracer, layer_of

    tracer = Tracer()

    def run_pair(order):
        plain = {scale: speed.run(workload.unit, inputs, scale) for scale in order}
        tracer.reset()
        tracer.install()
        try:
            traced = {scale: speed.run(workload.unit, inputs, scale, tracer) for scale in order}
        finally:
            tracer.uninstall()
        calls, self_s = tracer.summarize()
        if not reps:
            tracer.write_spans(spans_path)
        factor = statistics.mean(f for _, f in traced.values())
        reps.append({
            "plain": plain,
            "traced": traced,
            "calls": calls,
            "counts": dict(tracer.counts),
            "self_s": {name: s * factor for name, s in self_s.items()},
            "plain_s": sum(u.seconds * f for u, f in plain.values()),
            "traced_s": sum(u.seconds * f for u, f in traced.values()),
        })

    reps: list[dict] = []
    _run_pairs(seconds, run_pair)
    units = [u for rep in reps for group in ("plain", "traced") for u, _ in rep[group].values()]
    attempted, failed, errors = _checked(
        units, [[rep[g][s][0] for rep in reps for g in ("plain", "traced")] for s in (1, 2)]
    )
    first = reps[0]
    for rep in reps[1:]:
        if rep["calls"] != first["calls"] or rep["counts"] != first["counts"]:
            failed += 1
            errors.append("call counts differ between repetitions of one seed")

    calls, counts = first["calls"], first["counts"]
    self_s = {name: statistics.median(rep["self_s"][name] for rep in reps) for name in calls}
    traced_s = statistics.median(rep["traced_s"] for rep in reps)
    plain_s = statistics.median(rep["plain_s"] for rep in reps)

    metrics: dict[str, float] = {}
    layers: dict[str, float] = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + self_s[name]
    for layer, layer_s in layers.items():
        metrics[f"{layer}.self_s"] = layer_s
        metrics[f"{layer}.self_share"] = layer_s / traced_s
    metrics.update(
        {
            "simchain.SimChain.utxos_for.scanned": counts.get("simchain.SimChain.utxos_for.scanned", 0),
            "simchain.validate_tx.ok_ratio": _ratio(
                counts.get("simchain.validate_tx.ok", 0), calls["simchain.validate_tx"]
            ),
            "simchain.mempool.accept_ratio": _ratio(
                counts.get("simchain.mempool.accepted", 0), calls["simchain.Mempool.submit"]
            ),
            "simchain.mempool.depth_mean": _ratio(
                counts.get("simchain.mempool.depth_sum", 0),
                counts.get("simchain.mempool.depth_samples", 0),
            ),
            "simchain.mempool.depth_max": counts.get("simchain.mempool.depth_max", 0),
            "simchain.mine_next.include_ratio": _ratio(
                counts.get("simchain.mine_next.included", 0),
                counts.get("simchain.mine_next.offered", 0),
            ),
            "counterparty.replay.blocks": counts.get("counterparty.replay.blocks", 0),
            "orisi.mint_message.hashes": counts.get("orisi.mint_message.hashes", 0),
            "trace.overhead_ratio": traced_s / plain_s,
        }
    )
    samples = {"repetitions": len(reps), "spans_per_repetition": len(tracer.spans)}
    outputs = {"N": first["traced"][1][0].output, "2N": first["traced"][2][0].output}
    return metrics, attempted, failed, errors, samples, outputs


def run_all(args, names) -> int:
    """Each workload in its own process, so that peak_rss_mb is its own.

    Prints each workload's table, then one JSON object of all results.
    """
    results, code = {}, 0
    for name in names:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}", *lines[:-1], sep="\n")
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    ref_before = reference_rate(CONTEXT_KERNEL_S)
    speed = HostSpeed()
    setup_s, raw_setup_s, inputs, setup_runs = timed_setup(workload, speed)
    if args.trace:
        spans_path = OUT / f"{stem}.spans.csv"
        measured = measure_traced(workload, inputs, args.seconds, speed, spans_path)
        wanted = spec["per_layer"]
    else:
        measured = measure(workload, inputs, args.seconds, speed)
        wanted = spec["end_to_end"]
    metrics, attempted, failed, errors, samples, outputs = measured
    metrics["setup_s"] = setup_s
    metrics["raw.setup_s"] = raw_setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_after = reference_rate(CONTEXT_KERNEL_S)
    samples["setup_runs"] = setup_runs

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        unit = units.get(name.removeprefix("raw."), "")
        print(f"{name:<52} {metrics[name]:>16.6g} {unit}")
    print(f"samples: {json.dumps(samples, sort_keys=True)}")
    print(f"outputs: {json.dumps(outputs, sort_keys=True)}")
    print(
        f"reference kernel (context): {ref_before:.0f} rounds/s before, "
        f"{ref_after:.0f} rounds/s after; times are scaled to {REF_RATE:.0f} rounds/s"
    )
    for error in errors[:10]:
        print(f"error: {error}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "samples": samples,
        "outputs": outputs,
        "errors": errors[:100],
        "context": {
            "reference_rate_before": ref_before,
            "reference_rate_after": ref_after,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "attempted": attempted,
        "failed": failed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
