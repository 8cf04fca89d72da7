"""Lock script templates.

The script engine is a closed set of templates covering every construction
the protocol modules need: pay-to-key, M-of-N multisig (15-key cap), P2SH,
unspendable data carriers, height timelocks, and a two-branch disjunction
used for hash-committed contract redeems.  MultiSig carries an optional
32-byte commitment — the "two signatures plus committed hash" template —
which is inert for spending (the committed hash is published for off-chain
checks, not enforced on-chain) but changes the script's identity and
standardness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..codec import Reader, Writer, pack_u8, pack_u32, pack_u64, sha256

MAX_MULTISIG_KEYS = 15
MAX_LOCK_DEPTH = 16  # nested TimeLocked/Either levels a lock may have

_TAG_PAY_TO_KEY = 1
_TAG_MULTISIG = 2
_TAG_SCRIPT_HASH = 3
_TAG_DATA_CARRIER = 4
_TAG_TIME_LOCKED = 5
_TAG_EITHER = 6


@dataclass(frozen=True, slots=True)
class PayToKey:
    pub: bytes

    def __post_init__(self) -> None:
        # written raw with no length, so only a 32-byte key parses back
        if len(self.pub) != 32:
            raise ValueError("pay-to-key pub must be 32 bytes")


@dataclass(frozen=True, slots=True)
class MultiSig:
    m: int
    keys: tuple[bytes, ...]
    commitment: bytes | None = None  # published hash, not a spend condition

    def __post_init__(self) -> None:
        if not 1 <= self.m <= len(self.keys):
            raise ValueError(f"multisig requires 1 <= m <= n, got {self.m} of {len(self.keys)}")
        if len(self.keys) > MAX_MULTISIG_KEYS:
            raise ValueError(f"multisig capped at {MAX_MULTISIG_KEYS} keys, got {len(self.keys)}")
        # keys are written raw with no length, so only fixed-size keys parse back
        if any(len(k) != 32 for k in self.keys):
            raise ValueError("multisig keys must be 32 bytes")
        if self.commitment is not None and len(self.commitment) != 32:
            raise ValueError("commitment must be 32 bytes")


@dataclass(frozen=True, slots=True)
class ScriptHash:
    h: bytes  # sha256 of the serialized redeem script

    def __post_init__(self) -> None:
        if len(self.h) != 32:  # written raw, as PayToKey's pub
            raise ValueError("script hash must be 32 bytes")


@dataclass(frozen=True, slots=True)
class DataCarrier:
    payload: bytes


def _nest(lock, *inner) -> None:
    """Record `lock` as one level above its deepest inner lock; ValueError
    past MAX_LOCK_DEPTH levels, the limit the decoder enforces too."""
    depth = 1 + max(getattr(i, "_depth", 0) for i in inner)
    if depth > MAX_LOCK_DEPTH:
        raise ValueError(f"lock script nested deeper than {MAX_LOCK_DEPTH} levels")
    object.__setattr__(lock, "_depth", depth)


@dataclass(frozen=True, slots=True)
class TimeLocked:
    inner: "LockScript"
    unlock_height: int
    _depth: int | None = field(default=None, init=False, repr=False, compare=False)  # set by _nest

    def __post_init__(self) -> None:
        _nest(self, self.inner)


@dataclass(frozen=True, slots=True)
class Either:
    left: "LockScript"
    right: "LockScript"
    _depth: int | None = field(default=None, init=False, repr=False, compare=False)  # set by _nest

    def __post_init__(self) -> None:
        _nest(self, self.left, self.right)


LockScript = Union[PayToKey, MultiSig, ScriptHash, DataCarrier, TimeLocked, Either]


def write_lock(w: Writer, lock: LockScript) -> None:
    put = w.put
    if isinstance(lock, PayToKey):
        put(pack_u8(_TAG_PAY_TO_KEY))
        put(lock.pub)
    elif isinstance(lock, MultiSig):
        put(pack_u8(_TAG_MULTISIG))
        put(pack_u8(lock.m))
        put(pack_u8(len(lock.keys)))
        for k in lock.keys:
            put(k)
        if lock.commitment is None:
            put(pack_u8(0))
        else:
            put(pack_u8(1))
            put(lock.commitment)
    elif isinstance(lock, ScriptHash):
        put(pack_u8(_TAG_SCRIPT_HASH))
        put(lock.h)
    elif isinstance(lock, DataCarrier):
        put(pack_u8(_TAG_DATA_CARRIER))
        put(pack_u32(len(lock.payload)))
        put(lock.payload)
    elif isinstance(lock, TimeLocked):
        put(pack_u8(_TAG_TIME_LOCKED))
        put(pack_u64(lock.unlock_height))
        write_lock(w, lock.inner)
    elif isinstance(lock, Either):
        put(pack_u8(_TAG_EITHER))
        write_lock(w, lock.left)
        write_lock(w, lock.right)
    else:
        raise TypeError(f"not a lock script: {lock!r}")


def lock_from_reader(r: Reader) -> LockScript:
    """One lock script; ValueError past MAX_LOCK_DEPTH nested levels."""
    return _lock_at_depth(r, 0)


def _lock_at_depth(r: Reader, depth: int) -> LockScript:
    if depth > MAX_LOCK_DEPTH:
        raise ValueError(f"lock script nested deeper than {MAX_LOCK_DEPTH} levels")
    tag = r.u8()
    if tag == _TAG_PAY_TO_KEY:
        return PayToKey(pub=r.raw(32))
    if tag == _TAG_MULTISIG:
        m = r.u8()
        n = r.u8()
        keys = tuple(r.raw(32) for _ in range(n))
        commitment = r.raw(32) if r.flag() else None
        return MultiSig(m=m, keys=keys, commitment=commitment)
    if tag == _TAG_SCRIPT_HASH:
        return ScriptHash(h=r.raw(32))
    if tag == _TAG_DATA_CARRIER:
        return DataCarrier(payload=r.bytes())
    if tag == _TAG_TIME_LOCKED:
        unlock_height = r.u64()
        return TimeLocked(inner=_lock_at_depth(r, depth + 1), unlock_height=unlock_height)
    if tag == _TAG_EITHER:
        return Either(left=_lock_at_depth(r, depth + 1), right=_lock_at_depth(r, depth + 1))
    raise ValueError(f"unknown lock script tag {tag}")


def serialize_lock(lock: LockScript) -> bytes:
    w = Writer()
    write_lock(w, lock)
    return w.getvalue()


def deserialize_lock(data: bytes) -> LockScript:
    r = Reader(data)
    lock = lock_from_reader(r)
    r.expect_done()
    return lock


def script_digest(lock: LockScript) -> bytes:
    return sha256(serialize_lock(lock))


def p2sh_lock(redeem: LockScript) -> ScriptHash:
    """Wrap a redeem script into a pay-to-script-hash output lock."""
    return ScriptHash(h=script_digest(redeem))
