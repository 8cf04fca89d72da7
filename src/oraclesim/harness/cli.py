"""Command-line front end: run scenario scripts, compare the logs they
produce, and poke at the wire formats without writing a test."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..counterparty import decode_payload, message_json
from ..orisi import OrisiError, compute_safe_params
from ..simchain import POLICIES, classify, deserialize_tx
from .events import EventLog, LogFormatError, first_difference
from .metrics import export_metrics
from .scenario import ParseError, run_scenario


class _Inaccessible(Exception):
    """A file that cannot be read or written at all."""


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        result = run_scenario(args.scenario, seed_override=args.seed)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    log_path = out_dir / f"{result.scenario.name}.log.jsonl"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result.log.write(log_path)
    except OSError as exc:
        raise _Inaccessible(f"cannot write {log_path}: {exc}") from None
    print(f"{len(result.log.events)} events -> {log_path}")
    print(f"digest {result.log.digest().hex()}")
    for failure in result.failures:
        print(f"FAIL {failure}")
    print("PASS" if result.passed else f"{len(result.failures)} assertion(s) failed")
    return result.exit_code


def _read_log(path: str) -> EventLog:
    try:
        return EventLog.read(path)
    except OSError as exc:
        raise _Inaccessible(f"cannot read {path}: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    paths = (args.log_a, args.log_b)
    logs = [_read_log(path) for path in paths]
    index = first_difference(*logs)
    if index is None:
        print("identical")
        return 0
    # the logs that have line `index`: both, or only the longer one
    sides = [(path, log) for path, log in zip(paths, logs) if index < len(log.events)]
    if len(sides) == 2:
        print(f"logs differ at line {index + 1}")
    else:
        print(f"logs differ: {sides[0][0]} is longer, from line {index + 1}")
    for path, log in sides:
        event = log.events[index]
        print(f"{path}: tick {event.tick} {event.module}/{event.kind}: {log.line(index)}")
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    log = _read_log(args.log)
    try:
        rows = export_metrics(log, args.out)
    except OSError as exc:
        raise _Inaccessible(f"cannot write {args.out}: {exc}") from None
    print(f"{rows} rows -> {args.out}")
    return 0


def _cmd_orisi_params(args: argparse.Namespace) -> int:
    try:
        params = compute_safe_params(args.m, args.n)
    except OrisiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(dataclasses.asdict(params), sort_keys=True))
    return 0


def _cmd_decode_payload(args: argparse.Namespace) -> int:
    try:
        message = decode_payload(bytes.fromhex(args.payload), bytes.fromhex(args.key_txid))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(message_json(message), sort_keys=True))
    return 0


def _cmd_classify_tx(args: argparse.Namespace) -> int:
    try:
        tx = deserialize_tx(bytes.fromhex(args.tx))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    decision = classify(tx, POLICIES[args.era])
    doc = {"standard": decision.standard}
    if decision.reason is not None:
        doc["reason"] = decision.reason.value
    print(json.dumps(doc, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclesim", description="oracle protocol scenario runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario script")
    p_run.add_argument("scenario", help="path to a scenario .json file")
    p_run.add_argument("--seed", type=int, default=None, help="override the script seed")
    p_run.add_argument("--out", default=".", help="directory for the event log")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify", help="compare two event logs byte for byte; name the first line that differs"
    )
    p_verify.add_argument("log_a")
    p_verify.add_argument("log_b")
    p_verify.set_defaults(func=_cmd_verify)

    p_metrics = sub.add_parser("metrics", help="summarize an event log as per-tick CSV")
    p_metrics.add_argument("log")
    p_metrics.add_argument("out", help="output .csv path")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_params = sub.add_parser("orisi-params", help="multisig shape for m-of-n oracle agreement")
    p_params.add_argument("m", type=int)
    p_params.add_argument("n", type=int)
    p_params.set_defaults(func=_cmd_orisi_params)

    p_decode = sub.add_parser("decode-payload", help="decode an embedded meta-protocol payload")
    p_decode.add_argument("payload", help="hex payload bytes")
    p_decode.add_argument("key_txid", help="hex txid of the carrier's first input")
    p_decode.set_defaults(func=_cmd_decode_payload)

    p_classify = sub.add_parser("classify-tx", help="standardness of a serialized transaction")
    p_classify.add_argument("tx", help="hex canonical transaction bytes")
    p_classify.add_argument("--era", choices=POLICIES, default="v090")
    p_classify.set_defaults(func=_cmd_classify_tx)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LogFormatError, _Inaccessible) as exc:  # from `run`, `verify` and `metrics`
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
