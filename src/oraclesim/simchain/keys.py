"""Simulation-grade keypairs and signatures.

A pubkey is the SHA-256 digest of its secret; a signature over a digest is
SHA-256(secret || digest).  Verification recomputes the tag from the secret
held in a per-simulation registry, standing in for asymmetric verification.
The scheme gives the two properties the protocols actually need — only the
secret holder can sign, and a revealed secret lets anyone sign (Reality
Keys key release) — without real cryptography.  The registry is instanced
per simulation; nothing is process-global.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import Reader, Writer, sha256


class InvalidSeedError(ValueError):
    """keygen was given an empty seed."""


@dataclass(frozen=True, slots=True)
class KeyPair:
    secret: bytes  # 32 bytes
    pub: bytes  # 32 bytes, sha256(secret)


@dataclass(frozen=True, slots=True)
class Signature:
    signer_pub: bytes
    digest_signed: bytes
    tag: bytes  # sha256(secret || digest_signed)


def write_signature(w: Writer, sig: Signature) -> None:
    """The 96-byte wire form: signer pub, digest signed, tag."""
    put = w.put
    put(sig.signer_pub)
    put(sig.digest_signed)
    put(sig.tag)


def signature_from_reader(r: Reader) -> Signature:
    return Signature(signer_pub=r.raw(32), digest_signed=r.raw(32), tag=r.raw(32))


def derive_pair(seed_material: bytes) -> KeyPair:
    """Deterministic keypair from seed material. Same seed, same pair."""
    if not seed_material:
        raise InvalidSeedError("seed material must be nonempty")
    secret = sha256(b"key:" + seed_material)
    return KeyPair(secret=secret, pub=sha256(secret))


def sign(secret: bytes, digest: bytes) -> Signature:
    """Sign a 32-byte digest with a secret. Needs no registry."""
    if len(digest) != 32:
        raise ValueError("digest must be 32 bytes")
    return Signature(signer_pub=sha256(secret), digest_signed=digest, tag=sha256(secret + digest))


class KeyRegistry:
    """Per-simulation pub-to-secret map backing signature verification."""

    def __init__(self) -> None:
        self._secrets: dict[bytes, bytes] = {}

    def keygen(self, seed_material: bytes) -> KeyPair:
        pair = derive_pair(seed_material)
        self._secrets[pair.pub] = pair.secret
        return pair

    def verify(self, sig: Signature, pub: bytes, digest: bytes) -> bool:
        """False for a pub this registry never issued."""
        secret = self._secrets.get(pub)
        if secret is None or sig.signer_pub != pub or sig.digest_signed != digest:
            return False
        return sig.tag == sha256(secret + digest)
