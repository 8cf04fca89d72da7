"""Per-tick CSV summary of an event log.

One data row per scenario tick: traffic counters, the running mean of
block-inclusion delays, and carry-forward columns for every tracked
host balance and every voter stake the log mentions.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .events import EventLog, LogFormatError


# The payload fields the table reads, by event, and the JSON type of each;
# each item of a list or an object is an integer, and `true` is no integer.
_READS = {
    ("run", "end"): {"ticks": int},
    ("host", "balances"): {"balances": dict},
    ("host", "block"): {"txs": int, "delays": list},
    ("tc", "stake"): {"actor": str, "stake": int},
}
_WHAT = {int: "an integer", str: "a string", list: "a list of integers", dict: "an object of integers"}


def _fits(value, kind: type) -> bool:
    items = value.values() if type(value) is dict else value if type(value) is list else ()
    return type(value) is kind and all(type(item) is int for item in items)


def export_metrics(log: EventLog, out_path: str | Path) -> int:
    """Write the per-tick table; returns the number of data rows.  A negative
    tick, or a payload field it reads that is missing or of another type,
    raises LogFormatError naming its line, before the file is opened."""
    ticks = 0
    balance_actors: set[str] = set()
    stake_actors: set[str] = set()
    by_tick: dict[int, list] = {}
    for number, event in enumerate(log.events, 1):
        if event.tick < 0:  # a run never writes one, and no row would hold it
            raise LogFormatError(f"line {number}: tick {event.tick} is negative")
        ticks = max(ticks, event.tick + 1)
        by_tick.setdefault(event.tick, []).append(event)
        name = (event.module, event.kind)
        for key, kind in _READS.get(name, {}).items():
            if not _fits(event.payload.get(key), kind):
                where = f"line {number}: {event.module}/{event.kind} payload {key!r}"
                raise LogFormatError(f"{where} missing or not {_WHAT[kind]}")
        if name == ("run", "end"):
            ticks = max(ticks, event.payload["ticks"])
        elif name == ("host", "balances"):
            balance_actors.update(event.payload["balances"])
        elif name == ("tc", "stake"):
            stake_actors.add(event.payload["actor"])

    bal_cols = sorted(balance_actors)
    stake_cols = sorted(stake_actors)
    header = ["tick", "events", "submitted", "confirmed", "mean_delay"]
    header += [f"bal_{name}" for name in bal_cols]
    header += [f"stake_{name}" for name in stake_cols]

    balances: dict[str, int] = {}
    stakes: dict[str, int] = {}
    # running sum and count of every inclusion delay so far; the delays are
    # ints, so the sum is exact and the mean is what the whole history gives
    delay_sum = 0
    delay_count = 0

    with Path(out_path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for tick in range(ticks):
            events = by_tick.get(tick, [])
            submitted = 0
            confirmed = 0
            for event in events:
                if event.kind == "tx_submitted":
                    submitted += 1
                elif event.module == "host" and event.kind == "block":
                    confirmed += event.payload["txs"]
                    delays = event.payload["delays"]
                    delay_sum += sum(delays)
                    delay_count += len(delays)
                elif event.module == "host" and event.kind == "balances":
                    balances.update(event.payload["balances"])
                elif event.module == "tc" and event.kind == "stake":
                    stakes[event.payload["actor"]] = event.payload["stake"]
            mean_delay = f"{delay_sum / delay_count:.4f}" if delay_count else ""
            row = [tick, len(events), submitted, confirmed, mean_delay]
            row += [balances.get(name, "") for name in bal_cols]
            row += [stakes.get(name, "") for name in stake_cols]
            writer.writerow(row)
    return ticks
