"""Scenario runner binding the host chain, datafeeds, and protocol modules.

A scenario file describes a deterministic run: seeded mining, a fixture
corpus, scripted actor actions on a tick clock, and terminal assertions.
Running one produces a line-delimited JSON event log whose digest is the
unit of comparison: same scenario, same seed, same bytes.
"""

from .events import Event, EventLog, LogFormatError, verify_replay
from .metrics import export_metrics
from .scenario import (
    ParseError,
    RunResult,
    Scenario,
    bundled_scenarios,
    run_scenario,
)

__all__ = [
    "Event",
    "EventLog",
    "LogFormatError",
    "ParseError",
    "RunResult",
    "Scenario",
    "bundled_scenarios",
    "export_metrics",
    "run_scenario",
    "verify_replay",
]
