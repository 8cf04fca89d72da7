"""Fixture-backed data sources with digest proofs.

A source is a time series per key with carry-forward reads: a query at
time t returns the latest entry at or before t. A proof binds a query,
the response digest, the source, and an attestor into one recomputable
attestation digest. Values are typed (bool, int, float, string) and are
encoded with a one-letter type prefix so that, say, the number 1 and the
string "1" never collide.

Comparison is typed the same way. A value's kind is an event (bool), a
number (int or float) or a label (str), and a comparator holds only
between values of one kind: `compare` never raises, and the number 1
neither equals nor differs from the event True. A `Condition` (source,
key, comparator, threshold) is the test each oracle module signs on. Only
numbers order, so a condition refuses `lt`, `le`, `gt` and `ge` on an
event or label threshold when it is built, and `Condition.source_in`
refuses, when it is registered, a source or key that no source carries.
"""

from __future__ import annotations

import enum
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .codec import pack_bytes, pack_u64, sha256

FeedValue = Union[bool, int, float, str]


class NoDataError(LookupError):
    """No entry at or before the queried time for that key."""


def encode_value(value: FeedValue) -> bytes:
    """Canonical typed encoding; bool checked first since bool <: int."""
    if isinstance(value, bool):
        return b"b:true" if value else b"b:false"
    if isinstance(value, int):
        return b"i:%d" % value
    if isinstance(value, float):
        return b"f:" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    raise TypeError(f"unsupported feed value type: {type(value).__name__}")


@dataclass(frozen=True)
class Observation:
    source_id: str
    key: str
    time: int
    value: FeedValue


@dataclass(frozen=True)
class AuthenticityProof:
    key: str
    time: int
    response_digest: bytes
    source_id: str
    attestor_id: str
    attestation: bytes


def _attestation(key: str, time: int, response_digest: bytes, source_id: str, attestor_id: str) -> bytes:
    return sha256(
        pack_bytes(key.encode("utf-8")) + pack_u64(time) + response_digest
        + pack_bytes(source_id.encode("utf-8")) + pack_bytes(attestor_id.encode("utf-8"))
    )


class DataSource:
    """Deterministic fixture source. Read-only after construction."""

    def __init__(
        self,
        source_id: str,
        entries: Iterable[tuple[str, int, FeedValue]],
        ssl: bool = True,
    ) -> None:
        self.id = source_id
        self.ssl = ssl
        by_key: dict[str, list[tuple[int, FeedValue]]] = {}
        for key, time, value in entries:
            by_key.setdefault(key, []).append((int(time), value))
        for series in by_key.values():
            series.sort(key=lambda e: e[0])
            times = [t for t, _ in series]
            if len(set(times)) != len(times):
                raise ValueError(f"duplicate entry times in source {source_id!r}")
        self._series = by_key
        self._times = {key: [t for t, _ in series] for key, series in by_key.items()}

    def keys(self) -> list[str]:
        return sorted(self._series)


def query(source: DataSource, key: str, time: int) -> Observation:
    """Latest entry at or before `time`, carry-forward; NoDataError if none."""
    times = source._times.get(key)
    if not times:
        raise NoDataError(f"{source.id}: no series for key {key!r}")
    idx = bisect_right(times, time) - 1
    if idx < 0:
        raise NoDataError(f"{source.id}: no entry for {key!r} at or before t={time}")
    entry_time, value = source._series[key][idx]
    return Observation(source_id=source.id, key=key, time=entry_time, value=value)


def make_proof(source: DataSource, key: str, time: int, attestor_id: str) -> AuthenticityProof:
    obs = query(source, key, time)
    response_digest = sha256(encode_value(obs.value))
    return AuthenticityProof(
        key=key,
        time=time,
        response_digest=response_digest,
        source_id=source.id,
        attestor_id=attestor_id,
        attestation=_attestation(key, time, response_digest, source.id, attestor_id),
    )


def verify_proof(proof: AuthenticityProof, obs: Observation) -> bool:
    if proof.source_id != obs.source_id or proof.key != obs.key:
        return False
    if sha256(encode_value(obs.value)) != proof.response_digest:
        return False
    recomputed = _attestation(
        proof.key, proof.time, proof.response_digest, proof.source_id, proof.attestor_id
    )
    return recomputed == proof.attestation


class Comparator(enum.IntEnum):
    """Threshold comparators shared by bet and condition vocabularies."""

    EQ = 1
    NE = 2
    LT = 3
    LE = 4
    GT = 5
    GE = 6


_ORDERING = frozenset({Comparator.LT, Comparator.LE, Comparator.GT, Comparator.GE})

_COMPARE = {
    Comparator.EQ: operator.eq,
    Comparator.NE: operator.ne,
    Comparator.LT: operator.lt,
    Comparator.LE: operator.le,
    Comparator.GT: operator.gt,
    Comparator.GE: operator.ge,
}


def kind(value: FeedValue) -> str:
    """"event", "number" or "label"; bool is checked before int, its subclass."""
    if isinstance(value, bool):
        return "event"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "label"
    raise TypeError(f"unsupported feed value type: {type(value).__name__}")


def compare(cmp: Comparator, value: FeedValue, target: FeedValue) -> bool:
    """Apply a comparator; values of different kinds satisfy none."""
    return kind(value) == kind(target) and _COMPARE[cmp](value, target)


@dataclass(frozen=True)
class Condition:
    """Whether a source key's value stands in `comparator` to `threshold`."""

    source_id: str
    key: str
    comparator: Comparator
    threshold: FeedValue

    def __post_init__(self) -> None:
        if self.comparator in _ORDERING and kind(self.threshold) != "number":
            raise ValueError("event and label conditions take eq or ne, not an ordering")

    def holds(self, value: FeedValue) -> bool:
        return compare(self.comparator, value, self.threshold)

    def source_in(self, sources: Mapping[str, DataSource]) -> DataSource:
        """The source among ``sources`` that this condition reads;
        ValueError if there is none or it carries no series for the key."""
        source = sources.get(self.source_id)
        if source is None:
            raise ValueError(f"unknown source {self.source_id!r}")
        if self.key not in source.keys():
            raise ValueError(f"source {self.source_id!r} has no key {self.key!r}")
        return source
