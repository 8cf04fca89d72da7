"""Canonical byte primitives: one fixed little-endian layout per width.

Each vector is checked against the reference of FORMATS.md's primitives,
and against the codec's packer and `Reader` method for the widths that
have one.
"""

import struct
import sys

import pytest

from oraclesim import codec
from oraclesim.codec import Reader, TruncatedError

import test_formats as ref

# (width, value, bytes): 0, the largest value, and one value whose bytes
# differ from their reverse, so a big-endian packer would fail it
VECTORS = [
    ("u8", 0, b"\x00"),
    ("u8", 0xFF, b"\xff"),
    ("u16", 0, b"\x00\x00"),
    ("u16", 0xFFFF, b"\xff\xff"),
    ("u16", 0x1234, b"\x34\x12"),
    ("u32", 0, b"\x00" * 4),
    ("u32", 2**32 - 1, b"\xff" * 4),
    ("u32", 0x01020304, b"\x04\x03\x02\x01"),
    ("u64", 0, b"\x00" * 8),
    ("u64", 2**64 - 1, b"\xff" * 8),
    ("u64", 0x0102030405060708, b"\x08\x07\x06\x05\x04\x03\x02\x01"),
    ("i64", 0, b"\x00" * 8),
    ("i64", 2**63 - 1, b"\xff" * 7 + b"\x7f"),
    ("i64", -(2**63), b"\x00" * 7 + b"\x80"),
    ("i64", -2, b"\xfe" + b"\xff" * 7),
    ("f64", 0.0, b"\x00" * 8),
    ("f64", sys.float_info.max, b"\xff" * 6 + b"\xef\x7f"),
    ("f64", 1.0, b"\x00" * 6 + b"\xf0\x3f"),
]
# the codec's packers and the widths Reader reads: a u8 is written as its
# one byte, no layout outside the counterparty body table holds an i64,
# and no layout decodes an f64
PACKERS = {
    "u16": codec.pack_u16, "u32": codec.pack_u32, "u64": codec.pack_u64, "f64": codec.pack_f64,
}
READ_WIDTHS = ("u8", "u16", "u32", "u64")


@pytest.mark.parametrize("width, value, expected", VECTORS)
def test_each_width_writes_its_little_endian_bytes(width, value, expected):
    assert ref.primitive(width, value) == expected
    if width in PACKERS:
        assert PACKERS[width](value) == expected
    if width in READ_WIDTHS:
        assert getattr(Reader(expected), width)() == value


@pytest.mark.parametrize("width, value, expected", [v for v in VECTORS if v[0] in READ_WIDTHS])
def test_a_read_starts_at_the_offset_and_a_short_one_names_it(width, value, expected):
    size = len(expected)
    r = Reader(b"\x07" + expected + expected[:-1])
    assert r.u8() == 7
    assert getattr(r, width)() == value
    message = f"need {size} bytes at offset {1 + size}, have {size - 1}"
    for _ in range(2):  # a short read consumes nothing
        with pytest.raises(TruncatedError) as raised:
            getattr(r, width)()
        assert str(raised.value) == message


@pytest.mark.parametrize(
    "width, value",
    [
        ("u8", 256), ("u8", -1), ("u16", 2**16), ("u16", -1), ("u32", 2**32), ("u32", -1),
        ("u64", 2**64), ("u64", -1), ("i64", 2**63), ("i64", -(2**63) - 1), ("f64", 2**1024),
    ],
)
def test_an_out_of_range_value_raises(width, value):
    # the reference refuses it too, so it cannot agree with a packer that wraps
    with pytest.raises((struct.error, OverflowError)):
        ref.primitive(width, value)
    if width in PACKERS:
        with pytest.raises((struct.error, OverflowError)):
            PACKERS[width](value)


def test_pack_bytes_prefixes_the_byte_count():
    assert codec.pack_bytes(b"") == b"\x00\x00\x00\x00"
    assert codec.pack_bytes(b"ab") == b"\x02\x00\x00\x00ab"
    # a string's prefix counts its UTF-8 bytes, not its characters
    assert codec.pack_bytes("é".encode("utf-8")) == b"\x02\x00\x00\x00\xc3\xa9"
    r = Reader(b"\x02\x00\x00\x00\xc3\xa9" + b"\x00\x00\x00\x00")
    assert (r.string(), r.bytes()) == ("é", b"")
    r.expect_done()
