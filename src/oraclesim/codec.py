"""Canonical byte layout primitives shared by every wire format.

All integers are fixed-width little-endian, byte strings are u32
length-prefixed, and lists are u16/u32 count-prefixed.  FORMATS.md documents
the resulting layouts.  Every encoder returns bytes: it joins the output of
the `pack_*` packers and of `pack_bytes`, the one encoder of the `bytes`
primitive (a `string` is `pack_bytes` of its UTF-8 encoding).  `Reader`
reads them back.
"""

from __future__ import annotations

import hashlib
import struct


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# One precompiled little-endian struct per fixed width; `struct.pack` would
# look its format up again on every call.
_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))
pack_u16, pack_u32, pack_u64 = _U16.pack, _U32.pack, _U64.pack
pack_f64 = struct.Struct("<d").pack  # IEEE-754 binary64; bit-exact across platforms


def pack_bytes(b: bytes) -> bytes:
    """The `bytes` primitive: a u32 length prefix, then the bytes."""
    return pack_u32(len(b)) + b


class TruncatedError(ValueError):
    """Ran out of bytes while decoding any layout, Counterparty message bodies
    included: "need N bytes at offset X, have Y"."""


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

    def raw(self, n: int) -> bytes:
        pos = self._advance(n)
        return self._data[pos : pos + n]

    def bytes(self) -> bytes:
        return self.raw(self.u32())

    def string(self) -> str:
        return self.bytes().decode("utf-8")

    def expect_done(self) -> None:
        if self._pos != len(self._data):
            raise ValueError(f"{len(self._data) - self._pos} trailing bytes after decode")
