"""Deterministic cryptography substrate.

The paper's implementation uses secp256k1/ECDSA via Geth.  Cryptographic
hardness is irrelevant to the protocol logic being reproduced — only the
*interface* matters: sign, verify, derive an address from a public key, and
a non-trivial CPU cost for verification (which the congestion model charges
separately).  We therefore implement keyed-hash (HMAC-SHA256) signatures:
deterministic, collision-resistant in practice for tests, and fast.
"""

from repro.crypto.hashing import sha256, hash_items
from repro.crypto.keys import (
    KeyPair,
    PrivateKey,
    PublicKey,
    Signature,
    derive_address,
    generate_keypair,
    recover_check,
    sign,
    verify,
)
from repro.crypto.merkle import MerkleTree, merkle_root

__all__ = [
    "KeyPair",
    "MerkleTree",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "derive_address",
    "generate_keypair",
    "hash_items",
    "merkle_root",
    "recover_check",
    "sha256",
    "sign",
    "verify",
]
