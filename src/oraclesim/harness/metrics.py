"""Per-tick CSV summary of an event log.

One data row per scenario tick: traffic counters, the running mean of
block-inclusion delays, and carry-forward columns for every tracked
host balance and every voter stake the log mentions.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .events import EventLog


def export_metrics(log: EventLog, out_path: str | Path) -> int:
    """Write the per-tick table; returns the number of data rows."""
    ticks = 0
    balance_actors: set[str] = set()
    stake_actors: set[str] = set()
    for event in log.events:
        ticks = max(ticks, event.tick + 1)
        if event.module == "run" and event.kind == "end":
            ticks = max(ticks, event.payload.get("ticks", 0))
        elif event.module == "host" and event.kind == "balances":
            balance_actors.update(event.payload.get("balances", {}))
        elif event.module == "tc" and event.kind == "stake":
            stake_actors.add(event.payload["actor"])

    bal_cols = sorted(balance_actors)
    stake_cols = sorted(stake_actors)
    header = ["tick", "events", "submitted", "confirmed", "mean_delay"]
    header += [f"bal_{name}" for name in bal_cols]
    header += [f"stake_{name}" for name in stake_cols]

    by_tick: dict[int, list] = {}
    for event in log.events:
        by_tick.setdefault(event.tick, []).append(event)

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
                    confirmed += event.payload.get("txs", 0)
                    delays = event.payload.get("delays", [])
                    delay_sum += sum(delays)
                    delay_count += len(delays)
                elif event.module == "host" and event.kind == "balances":
                    balances.update(event.payload.get("balances", {}))
                elif event.module == "tc" and event.kind == "stake":
                    stakes[event.payload["actor"]] = event.payload["stake"]
            mean_delay = f"{delay_sum / delay_count:.4f}" if delay_count else ""
            row = [tick, len(events), submitted, confirmed, mean_delay]
            row += [balances.get(name, "") for name in bal_cols]
            row += [stakes.get(name, "") for name in stake_cols]
            writer.writerow(row)
    return ticks
