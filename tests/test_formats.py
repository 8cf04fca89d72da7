"""One executable reference per byte layout in FORMATS.md.

Each reference below is written from FORMATS.md's prose alone, with `struct`
and `hashlib` and no helper of `oraclesim`, so that an encoder and its
reference agree only when both follow the document.  A reference reads the
fields of the record it is given by name, as the document names them.

Every section of FORMATS.md that defines a layout names its references on a
`Reference:` line, and `test_every_layout_section_names_a_reference_that_exists`
holds the document and this module together.  The other test modules import
the references from here; the properties here check the encoders that no
other module checks against one.
"""

import hashlib
import json
import math
import re
import struct
import sys
from pathlib import Path

from hypothesis import example, given, strategies as st

from oraclesim import codec, datafeed, orisi, simchain, truthcoin
from oraclesim.harness.events import EventLog

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


# --------------------------------------------------------- Codec primitives

_WIDTHS = {"u8": "<B", "u16": "<H", "u32": "<I", "u64": "<Q", "i64": "<q", "f64": "<d"}


def primitive(width: str, value) -> bytes:
    """`u8` to `u64`, `i64` and `f64`: fixed width, little-endian."""
    return struct.pack(_WIDTHS[width], value)


def bytes_field(data: bytes) -> bytes:
    """`bytes`: a `u32` length prefix, then the bytes."""
    return struct.pack("<I", len(data)) + data


def string_field(text: str) -> bytes:
    """`string`: the UTF-8 encoding framed as `bytes`."""
    return bytes_field(text.encode("utf-8"))


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# ----------------------------------------------------- Keys and signatures


def keypair(seed_material: bytes) -> tuple[bytes, bytes]:
    """(secret, pub): `secret = H("key:" || seed_material)`, `pub = H(secret)`."""
    secret = _h(b"key:" + seed_material)
    return secret, _h(secret)


def signature_tag(secret: bytes, digest_signed: bytes) -> bytes:
    return _h(secret + digest_signed)


def signature(sig) -> bytes:
    """Three raw 32-byte fields: signer_pub, digest_signed, tag."""
    return sig.signer_pub + sig.digest_signed + sig.tag


# ------------------------------------------------------------- Lock scripts


def lock_script(lock) -> bytes:
    """One tag byte selects the template, then the template's fields."""
    kind = type(lock).__name__
    if kind == "PayToKey":
        return b"\x01" + lock.pub
    if kind == "MultiSig":
        out = struct.pack("<BBB", 2, lock.m, len(lock.keys)) + b"".join(lock.keys)
        return out + (b"\x00" if lock.commitment is None else b"\x01" + lock.commitment)
    if kind == "ScriptHash":
        return b"\x03" + lock.h
    if kind == "DataCarrier":
        return b"\x04" + struct.pack("<I", len(lock.payload)) + lock.payload
    if kind == "TimeLocked":
        return b"\x05" + struct.pack("<Q", lock.unlock_height) + lock_script(lock.inner)
    assert kind == "Either", kind
    return b"\x06" + lock_script(lock.left) + lock_script(lock.right)


# ------------------------------------------------------------- Transactions


def witness(wit) -> bytes:
    out = struct.pack("<H", len(wit.signatures)) + b"".join(map(signature, wit.signatures))
    out += b"\x00" if wit.redeem is None else b"\x01" + lock_script(wit.redeem)
    if wit.expr_preimage is None:
        return out + b"\x00"
    return out + b"\x01" + struct.pack("<I", len(wit.expr_preimage)) + wit.expr_preimage


def transaction(tx, blank: bool = False) -> bytes:
    """The transaction layout; with `blank`, every witness is the 4 bytes
    of `Witness()`, as in the sighash preimage."""
    out = struct.pack("<H", len(tx.inputs))
    for txin in tx.inputs:
        prev, index = txin.outpoint
        wit = b"\x00\x00\x00\x00" if blank else witness(txin.witness)
        out += prev + struct.pack("<I", index) + wit
    out += struct.pack("<H", len(tx.outputs))
    for txout in tx.outputs:
        out += struct.pack("<Q", txout.value) + lock_script(txout.lock)
    return out + struct.pack("<Q", tx.locktime)


def txid(tx) -> bytes:
    return _h(transaction(tx))


def sighash(tx) -> bytes:
    return _h(transaction(tx, blank=True))


# ------------------------------------------------------------------- Blocks


def block_hash(block) -> bytes:
    """H(u64 height, string miner_id, raw parent_hash, u32 n_txs, each tx)."""
    header = struct.pack("<Q", block.height) + string_field(block.miner_id) + block.parent
    return _h(header + struct.pack("<I", len(block.txs)) + b"".join(map(transaction, block.txs)))


# -------------------------------------- Datafeed observations and proofs


def feed_value(value) -> bytes:
    """The kind prefix, then the value as text; bool is checked before int."""
    if isinstance(value, bool):
        return b"b:true" if value else b"b:false"
    if isinstance(value, int):
        return b"i:" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f:" + repr(value).encode("ascii")
    return b"s:" + value.encode("utf-8")


def response_digest(value) -> bytes:
    return _h(feed_value(value))


def attestation(key: str, time: int, response: bytes, source_id: str, attestor_id: str) -> bytes:
    return _h(
        string_field(key) + struct.pack("<Q", time) + response
        + string_field(source_id) + string_field(attestor_id)
    )


# ------------------------------------------------------- Oracle message bus


def message_digest(payload: bytes, nonce: int) -> bytes:
    return _h(bytes_field(payload) + struct.pack("<Q", nonce))


BUS_KINDS = {"unlock": 1, "refund": 2}


def bus_payload(contract_id: str, oracle_id: str, kind: str, sig) -> bytes:
    """string contract_id, string oracle_id, u8 kind, then the signature."""
    return (
        string_field(contract_id) + string_field(oracle_id)
        + struct.pack("<B", BUS_KINDS[kind]) + signature(sig)
    )


# ------------------------------------------------------- Voting commitments


def commitment(reports: dict, salt: bytes) -> bytes:
    out = struct.pack("<I", len(reports))
    for decision_id in sorted(reports):
        out += string_field(decision_id) + struct.pack("<d", reports[decision_id])
    return _h(out + bytes_field(salt))


# ---------------------------------------------- Embedded-consensus payloads

MAGIC = b"CNTRPRTY"
# the message table: each kind's tag, then its fields and their primitives
MESSAGE_BODIES = {
    "Send": (1, (("asset", "string"), ("qty", "u64"), ("dest", "string"))),
    "Broadcast": (
        2, (("timestamp", "u64"), ("value", "i64"), ("fee_fraction", "u32"), ("text", "string")),
    ),
    "Bet": (3, (
        ("feed", "string"), ("comparator", "u8"), ("target", "i64"), ("deadline", "u64"),
        ("wager", "u64"), ("counterwager", "u64"), ("side", "u8"),
    )),
    "Burn": (4, (("btc_qty", "u64"),)),
}
COMPARATOR_CODES = range(1, 7)  # EQ, NE, LT, LE, GT, GE


def _xor(data: bytes, key: bytes) -> bytes:
    return bytes(b ^ key[i % len(key)] for i, b in enumerate(data))


def consensus_payload(message, key: bytes) -> bytes:
    """XOR(magic || u8 tag || fields, key repeated)."""
    tag, fields = MESSAGE_BODIES[type(message).__name__]
    body = struct.pack("<B", tag)
    for name, kind in fields:
        value = getattr(message, name)
        body += string_field(value) if kind == "string" else primitive(kind, value)
    return _xor(MAGIC + body, key)


def decode_consensus_payload(payload: bytes, key: bytes) -> tuple[str, dict]:
    """The message kind's name and its fields; ValueError for bytes that
    the document gives no message: a wrong magic, an unknown tag or
    comparator code, a short field, text that is not UTF-8, or bytes left
    over."""
    plain = _xor(payload, key)
    if plain[: len(MAGIC)] != MAGIC:
        raise ValueError("no magic")
    pos = len(MAGIC)

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(plain):
            raise ValueError("short field")
        pos += size
        return plain[pos - size : pos]

    (tag,) = take(1)
    for kind_name, (kind_tag, fields) in MESSAGE_BODIES.items():
        if kind_tag == tag:
            break
    else:
        raise ValueError(f"unknown tag {tag}")
    values = {}
    for name, kind in fields:
        if kind == "string":
            (size,) = struct.unpack("<I", take(4))
            values[name] = take(size).decode("utf-8")
        else:
            width = struct.calcsize(_WIDTHS[kind])
            (values[name],) = struct.unpack(_WIDTHS[kind], take(width))
    if pos != len(plain):
        raise ValueError("trailing bytes")
    if kind_name == "Bet" and values["comparator"] not in COMPARATOR_CODES:
        raise ValueError("unknown comparator code")
    return kind_name, values


# --------------------------------------------------------------- Event logs


def event_line(tick: int, module: str, kind: str, payload: dict) -> str:
    """One line, without its newline: the canonical JSON of the event."""
    doc = {"tick": tick, "module": module, "kind": kind, "payload": payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def log_digest(lines: list[str]) -> bytes:
    """H of the UTF-8 log file: each line, then one `\\n`."""
    return _h("".join(line + "\n" for line in lines).encode("utf-8"))


# -------------------------------------------------- the document's references

_NAMED = re.compile(r"`test_formats\.(\w+)`")
# The sections that define no byte layout; every other section names its
# references, so a section added without one fails here until it does.
NO_LAYOUT = {"Scenario files", "Metrics CSV"}  # a JSON document and a CSV export


def _sections() -> dict[str, str]:
    """FORMATS.md's `## ` sections, title to text."""
    parts = re.split(r"^## (.+)$", FORMATS.read_text(encoding="utf-8"), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _references(text: str) -> list[str]:
    """The names in the section's `Reference:` paragraph."""
    paragraph = re.search(r"^Reference:.*?(?:\n\n|\Z)", text, flags=re.M | re.S)
    return _NAMED.findall(paragraph.group()) if paragraph else []


def test_every_layout_section_names_a_reference_that_exists():
    named = {title: _references(text) for title, text in _sections().items()}
    assert NO_LAYOUT <= named.keys()
    assert [title for title, names in named.items() if title not in NO_LAYOUT and not names] == []
    ours = {
        name for name, value in globals().items()
        if callable(value) and getattr(value, "__module__", None) == __name__
        and not name.startswith(("_", "test_"))
    }
    every_name = {name for names in named.values() for name in names}
    assert every_name - ours == set()  # each named reference is defined here
    assert ours - every_name == set()  # and each reference here is named there


# ------------------------------------------------- encoders against references


def _edges(lo: int, hi: int):
    """Integers of one width, its ends and their neighbours included."""
    return st.sampled_from((lo, lo + 1, hi - 1, hi)) | st.integers(lo, hi)


_U16, _U32, _U64 = _edges(0, 2**16 - 1), _edges(0, 2**32 - 1), _edges(0, 2**64 - 1)
_F64 = st.sampled_from(
    (0.0, -0.0, 5e-324, sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan)
) | st.floats()
_TEXT = st.sampled_from(("", "é", "mïner☃", "\U0001f600")) | st.text(max_size=20)
_B32 = st.binary(min_size=32, max_size=32)
_SIGNATURES = st.builds(simchain.Signature, _B32, _B32, _B32)
# A drawn byte string is never empty, and each empty one is an explicit
# example instead: hypothesis keys its cache by the values drawn, and b""
# hashes as 0 and "" do, so a lookup may compare b"" with 0 or "", which
# `-bb` makes an error.
_BYTES = st.binary(min_size=1, max_size=64)


@given(
    u16=_U16, u32=_U32, u64=_U64, f64=_F64,
    data=st.sampled_from((b"", b"\x00", bytes(range(256)))) | _BYTES,
    text=_TEXT,
)
def test_the_codec_packers_are_the_primitives(u16, u32, u64, f64, data, text):
    assert codec.pack_u16(u16) == primitive("u16", u16)
    assert codec.pack_u32(u32) == primitive("u32", u32)
    assert codec.pack_u64(u64) == primitive("u64", u64)
    assert codec.pack_f64(f64) == primitive("f64", f64)
    assert codec.pack_bytes(data) == bytes_field(data)
    assert codec.pack_bytes(text.encode("utf-8")) == string_field(text)


@given(seed=_BYTES, digest=_B32)
def test_keys_and_signatures_match_the_reference(seed, digest):
    pair = simchain.derive_pair(seed)
    assert (pair.secret, pair.pub) == keypair(seed)
    sig = simchain.sign(pair.secret, digest)
    assert (sig.signer_pub, sig.digest_signed, sig.tag) == (
        pair.pub, digest, signature_tag(pair.secret, digest)
    )
    assert simchain.serialize_signature(sig) == signature(sig)


@given(height=_U64, miner_id=_TEXT, parent=_B32)
def test_block_hash_matches_the_reference(height, miner_id, parent):
    block = simchain.Block(height=height, miner_id=miner_id, txs=(), parent=parent)
    assert simchain.block_hash(block) == block_hash(block)


_FEED_VALUES = st.booleans() | _edges(-(2**63), 2**64 - 1) | _F64 | _TEXT


@given(source_id=_TEXT, key=_TEXT, time=_U64, value=_FEED_VALUES, attestor_id=_TEXT)
@example("", "", 0, "", "")
def test_observations_and_proofs_match_the_reference(source_id, key, time, value, attestor_id):
    assert datafeed.encode_value(value) == feed_value(value)
    source = datafeed.DataSource(source_id, [(key, time, value)])
    proof = datafeed.make_proof(source, key, time, attestor_id)
    assert proof.response_digest == response_digest(value)
    assert proof.attestation == attestation(
        key, time, response_digest(value), source_id, attestor_id
    )


@given(payload=_BYTES, nonce=_U64)
@example(b"", 0)
@example(b"", 2**64 - 1)
def test_the_bus_digest_matches_the_reference(payload, nonce):
    digest = message_digest(payload, nonce)
    zeros = 256 - int.from_bytes(digest, "big").bit_length()
    # the digest clears exactly as many leading zero bits as the reference's
    assert orisi.check_pow(orisi.BusMessage(payload, nonce, zeros))
    assert not orisi.check_pow(orisi.BusMessage(payload, nonce, zeros + 1))


@given(contract_id=_TEXT, oracle_id=_TEXT, kind=st.sampled_from(orisi.DraftKind), sig=_SIGNATURES)
def test_the_bus_payload_matches_the_reference(contract_id, oracle_id, kind, sig):
    payload = orisi.encode_bus_payload(contract_id, oracle_id, kind, sig)
    assert payload == bus_payload(contract_id, oracle_id, kind.value, sig)
    assert orisi.decode_bus_payload(payload) == (contract_id, oracle_id, kind, sig)


@given(reports=st.dictionaries(_TEXT, _F64, max_size=5), salt=_BYTES)
@example({}, b"")
@example({"": 0.0, "é": -0.0, "\U0001f600": math.nan}, b"")
def test_the_vote_commitment_matches_the_reference(reports, salt):
    assert truthcoin.commitment_digest(reports, salt) == commitment(reports, salt)


def test_event_logs_match_the_reference():
    log = EventLog()
    events = [
        (0, "run", "start", {}),
        (1, "m", "k", {"text": "mïner☃", "n": -1, "x": 1.5, "big": 2**70, "nested": [{"b": 1}]}),
        (2, "m", "k", {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "none": None}),
    ]
    for tick, module, kind, payload in events:
        log.append(tick, module, kind, payload)
    lines = [event_line(*event) for event in events]
    assert log.encode() == "".join(line + "\n" for line in lines).encode("utf-8")
    assert log.digest() == log_digest(lines)
