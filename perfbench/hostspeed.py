"""Host speed, measured by a fixed stdlib reference kernel.

The shared hosts this benchmark runs on switch between speed phases that
differ by up to ~2x and last from seconds to minutes, with CPU time
inflating as much as wall time.  Within one phase, the simulator and the
reference kernel slow down by nearly the same factor.  So every measured
unit is bracketed by short kernel slices, and its host seconds are scaled to
a host on which the kernel runs at exactly `REF_RATE` rounds per second.
The raw wall-clock figures are kept next to the scaled ones.

Hashing-heavy and scan-heavy code do not slow down alike, so a kernel round
does both, in about equal time: hashing small buffers into fresh frozen
objects, and a filtered scan over a table of frozen objects.  On 40 s tests
this halved the leftover drift of `pay_ledger` (a scan-bound workload)
against a hashing-only kernel and changed the others little.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
from dataclasses import dataclass
from time import perf_counter

REF_RATE = 5_000.0  # kernel rounds per second of the host scaled times refer to
SLICE_S = 0.02  # length of one kernel slice between measured units


@dataclass(frozen=True)
class _Entry:
    key: bytes
    value: int


@dataclass(frozen=True)
class _Lock:
    owner: bytes


@dataclass(frozen=True)
class _Coin:
    value: int
    lock: _Lock


_OWNERS = [hashlib.sha256(bytes([i])).digest() for i in range(40)]
_COINS = {
    (hashlib.sha256(struct.pack(">I", i)).digest(), i % 3): _Coin(i, _Lock(_OWNERS[i % 40]))
    for i in range(1000)
}


def _round(digest: bytes) -> bytes:
    """One kernel round: hashes into frozen objects, a dict, a sort and JSON;
    then the coins of one owner picked out of a 1000-entry table."""
    entries = []
    for i in range(40):
        digest = hashlib.sha256(digest + struct.pack(">Q", i)).digest()
        entries.append(_Entry(digest[:8], i))
    index = {e.key: e for e in entries}
    entries.sort(key=lambda e: e.key)
    packed = b"".join(e.key + struct.pack(">I", e.value) for e in entries if e.key in index)
    json.dumps({"n": len(packed), "h": digest.hex()}, sort_keys=True, separators=(",", ":"))
    owner = _OWNERS[digest[0] % len(_OWNERS)]
    found = [
        (outpoint, coin)
        for outpoint, coin in _COINS.items()
        if isinstance(coin.lock, _Lock) and coin.lock.owner == owner
    ]
    found.sort(key=lambda item: item[0])
    return digest


def reference_rate(seconds: float = SLICE_S) -> float:
    """Kernel rounds per second over at least `seconds` of wall time."""
    digest, rounds, start = b"perfbench", 0, perf_counter()
    while True:
        digest = _round(digest)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return rounds / elapsed


class HostSpeed:
    """Runs measured work between kernel slices and reports its scale factor."""

    def __init__(self) -> None:
        self.rate = reference_rate()

    def run(self, fn, *args):
        """(fn's result, factor): host seconds x factor = seconds at REF_RATE."""
        before = self.rate
        gc.collect()  # garbage left by earlier work is not collected inside fn
        result = fn(*args)
        self.rate = reference_rate()
        return result, (before + self.rate) / (2 * REF_RATE)
