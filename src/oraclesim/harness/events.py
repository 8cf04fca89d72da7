"""Append-only event log with a canonical byte encoding.

One event per line: canonical JSON (sorted keys, no spaces), UTF-8, one
trailing newline per line. The digest is the hash of exactly those bytes,
so two logs compare equal iff their files are byte-identical.

`EventLog.append(tick, module, kind, payload)` is the one way to add an
event, reading included: it takes the payload dict as it is, without
packing it again, and builds the event positionally. A line is fixed when
its event is appended: the log encodes each event once, then, and later
changes to the payload or its objects do not reach it.
The encoder is built once, when the module is imported: the payload goes
through the C JSON encoder, and the four-key envelope around it is written
directly, in its sorted key order.

Reading is the inverse of `encode` and accepts nothing else: every line
must be the canonical encoding of an event, or `LogFormatError` names it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path
from typing import NamedTuple

from ..codec import sha256


class LogFormatError(ValueError):
    """The bytes are not a log that `EventLog.encode` writes."""


class Event(NamedTuple):
    tick: int
    module: str
    kind: str
    payload: dict


# The canonical settings: sorted keys, no spaces, ASCII escapes, NaN allowed.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The C encoder that `_ENCODER.encode` would build for every line, built once.
# It keeps no circular-reference markers: a shared table would keep the entries
# of a call that failed, so a circular payload raises RecursionError, not ValueError.
_encode_payload = c_make_encoder(
    None, _ENCODER.default, _esc, _ENCODER.indent, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)

# Each event field and the JSON type that `read` requires of it.
_FIELDS = (("tick", int), ("module", str), ("kind", str), ("payload", dict))


def _encode(event: Event) -> str:
    """``_ENCODER.encode`` of the event's fields as one object, written with
    its keys already in order; a non-int tick or a non-str module or kind
    raises TypeError."""
    payload = "".join(_encode_payload(event.payload, 0))
    return (
        f'{{"kind":{_esc(event.kind)},"module":{_esc(event.module)},'
        f'"payload":{payload},"tick":{int.__repr__(event.tick)}}}'
    )


@dataclass
class EventLog:
    # filled only by `append`, so every event has its line
    events: list[Event] = field(default_factory=list, init=False)
    _lines: list[str] = field(default_factory=list, init=False, repr=False, compare=False)

    def append(self, tick: int, module: str, kind: str, payload: dict) -> Event:
        """Add the event and its line; the event holds ``payload`` itself."""
        event = Event(tick, module, kind, payload)
        line = _encode(event)  # rejects non-serializable payloads at the source
        self.events.append(event)
        self._lines.append(line)
        return event

    def line(self, index: int) -> str:
        """The encoded line of event `index`, without its newline."""
        return self._lines[index]

    def encode(self) -> bytes:
        return "".join(line + "\n" for line in self._lines).encode("utf-8")

    def digest(self) -> bytes:
        return sha256(self.encode())

    def write(self, path) -> None:
        Path(path).write_bytes(self.encode())

    @classmethod
    def read(cls, path) -> "EventLog":
        try:
            return cls.decode(Path(path).read_bytes())
        except LogFormatError as exc:
            raise LogFormatError(f"{path}: {exc}") from None

    @classmethod
    def decode(cls, data: bytes) -> "EventLog":
        """The log whose `encode()` is exactly `data`; LogFormatError if none is."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"not UTF-8: {exc}") from None
        *lines, tail = text.split("\n")
        if tail:
            raise LogFormatError(f"line {len(lines) + 1}: no trailing newline")
        log = cls()
        for number, line in enumerate(lines, 1):
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError):
                raise LogFormatError(f"line {number}: not JSON") from None
            if not isinstance(doc, dict):
                raise LogFormatError(f"line {number}: not a JSON object")
            for name, kind in _FIELDS:
                if not isinstance(doc.get(name), kind) or isinstance(doc[name], bool):
                    raise LogFormatError(f"line {number}: {name!r} missing or not {kind.__name__}")
            log.append(doc["tick"], doc["module"], doc["kind"], doc["payload"])
            if log._lines[-1] != line:
                raise LogFormatError(f"line {number}: not the canonical encoding of its event")
        return log

    def matching(self, event: str, where: dict | None = None) -> list[Event]:
        """The events named ``event``, as "module/kind", in log order, whose
        payload holds every item of ``where``."""
        module, _, kind = event.partition("/")
        return [
            e
            for e in self.events
            if e.module == module
            and e.kind == kind
            and (not where or all(e.payload.get(k) == v for k, v in where.items()))
        ]


def first_difference(log_a: EventLog, log_b: EventLog) -> int | None:
    """The 0-based index of the first line the two logs do not share, which
    is the shorter log's length when it is a prefix of the other; None when
    the logs are identical."""
    for index, (a, b) in enumerate(zip(log_a._lines, log_b._lines)):
        if a != b:
            return index
    if len(log_a._lines) == len(log_b._lines):
        return None
    return min(len(log_a._lines), len(log_b._lines))
