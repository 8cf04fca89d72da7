"""Canonical byte layout primitives shared by every wire format.

All integers are fixed-width little-endian, byte strings are u32
length-prefixed, and lists are u16/u32 count-prefixed.  FORMATS.md documents
the resulting layouts; keeping every encoder on these helpers is what makes
transaction ids bit-exact across implementations.
"""

from __future__ import annotations

import hashlib
import struct


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# One precompiled little-endian struct per fixed width; `struct.pack` would
# look its format up again on every call.
_U8, _U16, _U32, _U64, _I64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q", "<q"))
_F64 = struct.Struct("<d")  # IEEE-754 binary64; bit-exact across platforms
pack_u8, pack_u16, pack_u32, pack_u64, pack_i64, pack_f64 = (
    s.pack for s in (_U8, _U16, _U32, _U64, _I64, _F64)
)


class Writer:
    """Accumulates a canonical byte string.

    `put` appends bytes that are already encoded, as they are and without
    chaining, such as a signature's wire form.  The host-chain encoders
    (`simchain.serialize_tx`, `serialize_lock`) take no Writer: they join
    the packers' output into bytes and return them.
    """

    def __init__(self) -> None:
        self._parts: list[bytes] = []
        self.put = self._parts.append

    def u8(self, v: int) -> "Writer":
        self.put(pack_u8(v))
        return self

    def u16(self, v: int) -> "Writer":
        self.put(pack_u16(v))
        return self

    def u32(self, v: int) -> "Writer":
        self.put(pack_u32(v))
        return self

    def u64(self, v: int) -> "Writer":
        self.put(pack_u64(v))
        return self

    def i64(self, v: int) -> "Writer":
        self.put(pack_i64(v))
        return self

    def f64(self, v: float) -> "Writer":
        self.put(pack_f64(v))
        return self

    def raw(self, b: bytes) -> "Writer":
        self.put(bytes(b))
        return self

    def bytes(self, b: bytes) -> "Writer":
        # u32 length prefix, then the raw bytes
        self.put(pack_u32(len(b)))
        self.put(bytes(b))
        return self

    def string(self, s: str) -> "Writer":
        return self.bytes(s.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class TruncatedError(ValueError):
    """Ran out of bytes while decoding."""


class Reader:
    """Consumes a canonical byte string; raises TruncatedError on underrun."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _advance(self, n: int) -> int:
        """The offset of the next `n` bytes, which are consumed."""
        pos = self._pos
        if pos + n > len(self._data):
            raise TruncatedError(
                f"need {n} bytes at offset {pos}, have {len(self._data) - pos}"
            )
        self._pos = pos + n
        return pos

    def _take(self, n: int) -> bytes:
        pos = self._advance(n)
        return self._data[pos : pos + n]

    # each number is read by its precompiled struct at the current offset,
    # without slicing its bytes out first
    def u8(self) -> int:
        return _U8.unpack_from(self._data, self._advance(1))[0]

    def flag(self) -> bool:
        # a presence flag is exactly 0 or 1, so one value has one encoding
        value = self.u8()
        if value > 1:
            raise ValueError(f"flag byte {value} at offset {self._pos - 1} is not 0 or 1")
        return value == 1

    def u16(self) -> int:
        return _U16.unpack_from(self._data, self._advance(2))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self._data, self._advance(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self._data, self._advance(8))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self._data, self._advance(8))[0]

    def f64(self) -> float:
        return _F64.unpack_from(self._data, self._advance(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def bytes(self) -> bytes:
        return self._take(self.u32())

    def string(self) -> str:
        return self.bytes().decode("utf-8")

    def done(self) -> bool:
        return self._pos == len(self._data)

    def expect_done(self) -> None:
        if not self.done():
            raise ValueError(f"{len(self._data) - self._pos} trailing bytes after decode")
