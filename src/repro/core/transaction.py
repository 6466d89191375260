"""Transactions: native transfers, contract deployments, contract calls.

A transaction carries the fields the paper's validity definition needs
(§IV-D): a signature (check i), a bounded encoded size (check ii), a nonce
(check iii), a gas budget priced in the native token (check iv) and a
transferred amount (check v).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Mapping

from repro import params
from repro.crypto import (
    KeyPair,
    PublicKey,
    Signature,
    hash_items,
    sign as crypto_sign,
)

_tx_counter = itertools.count()


class TxType(Enum):
    """The three transaction kinds of §II-A."""

    TRANSFER = "transfer"
    DEPLOY = "deploy"
    INVOKE = "invoke"


@dataclass(frozen=True, eq=False)
class Transaction:
    """A signed client write request.

    ``payload`` holds type-specific data: the contract bytecode for DEPLOY,
    or ``{"contract", "function", "args"}`` for INVOKE.  ``padding`` inflates
    the encoded size to model realistic byte footprints (and to build
    oversized transactions in tests).

    The fields are frozen, so everything derived from them — signing
    payload, hash, sizes, a positive signature verdict — is computed at
    most once per object and kept on it (DESIGN.md, "Derived values live
    on the immutable object").  A copy with any field changed is a new
    object with empty memos.
    """

    tx_type: TxType
    sender: str
    receiver: str
    amount: int
    nonce: int
    gas_limit: int
    gas_price: int
    payload: Mapping[str, Any] = field(default_factory=dict)
    public_key: PublicKey | None = None
    signature: Signature | None = None
    padding: int = 0
    #: client-side creation timestamp (simulated seconds); used by DIABLO
    created_at: float = 0.0
    #: unique id to disambiguate otherwise-identical txs in tests
    uid: int = field(default_factory=lambda: next(_tx_counter))

    def __post_init__(self) -> None:
        # Memo slots, created for every instance in one fixed order so the
        # instance dicts keep sharing one key table (a lazily added key per
        # derived value un-shares them: +9 % peak RSS on an 18k-tx run).
        memo = self.__dict__
        memo["_signing_payload"] = None
        memo["_encoded_size"] = None
        memo["_data_size"] = None
        #: set by ``core.validation.check_signature`` on a positive verdict
        memo["sig_verified"] = False

    # -- identity ----------------------------------------------------------
    # Equality and hashing follow the transaction hash (the network-level
    # identity), so sets/dicts of transactions deduplicate like the pool.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.tx_hash == other.tx_hash

    def __hash__(self) -> int:
        return hash(self.tx_hash)

    def signing_payload(self) -> bytes:
        """Canonical bytes covered by the signature (everything but sig)."""
        payload = self._signing_payload
        if payload is not None:
            return payload
        items: list[object] = [
            self.tx_type.value,
            self.sender,
            self.receiver,
            self.amount,
            self.nonce,
            self.gas_limit,
            self.gas_price,
            self.padding,
        ]
        for key in sorted(self.payload):
            items.append(key)
            value = self.payload[key]
            items.append(value if isinstance(value, (bytes, str, int)) else repr(value))
        payload = self.__dict__["_signing_payload"] = hash_items(items)
        return payload

    @cached_property
    def tx_hash(self) -> bytes:
        """Transaction id — hash of the signed payload plus signature."""
        sig = self.signature.tag if self.signature else b""
        return hash_items([self.signing_payload(), sig])

    # -- size & fees --------------------------------------------------------

    def encoded_size(self) -> int:
        """Approximate wire size in bytes.

        Base envelope (~110 bytes like an Ethereum transfer) + payload
        + signature + explicit padding.
        """
        size = self._encoded_size
        if size is None:
            size = 110 + self.data_size()
            if self.signature is not None:
                size += self.signature.encoded_size()
            self.__dict__["_encoded_size"] = size
        return size

    def data_size(self) -> int:
        """Bytes of user data (payload + padding) — the intrinsic-gas base.

        Excludes the fixed envelope and signature, mirroring Ethereum
        charging calldata bytes only (a bare transfer pays exactly G_TX).
        """
        size = self._data_size
        if size is None:
            size = self.padding
            for key, value in self.payload.items():
                size += len(key)
                if isinstance(value, (bytes, str)):
                    size += len(value)
                else:
                    size += len(repr(value))
            self.__dict__["_data_size"] = size
        return size

    def max_cost(self) -> int:
        """Worst-case debit: transferred amount plus full gas budget."""
        return self.amount + self.gas_limit * self.gas_price

    def fee_cap(self) -> int:
        return self.gas_limit * self.gas_price

    # -- signing ------------------------------------------------------------

    def signed_by(self, keypair: KeyPair) -> "Transaction":
        """Return a copy signed by ``keypair`` (sender must match)."""
        payload = self.signing_payload()
        sig = crypto_sign(keypair.private, payload)
        signed = Transaction(
            tx_type=self.tx_type,
            sender=self.sender,
            receiver=self.receiver,
            amount=self.amount,
            nonce=self.nonce,
            gas_limit=self.gas_limit,
            gas_price=self.gas_price,
            payload=self.payload,
            public_key=keypair.public,
            signature=sig,
            padding=self.padding,
            created_at=self.created_at,
            uid=self.uid,
        )
        # Same signed fields, same payload: the copy need not re-hash it.
        signed.__dict__["_signing_payload"] = payload
        return signed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.tx_type.value}, {self.sender[:8]}→"
            f"{self.receiver[:8]}, amount={self.amount}, nonce={self.nonce})"
        )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_transfer(
    keypair: KeyPair,
    receiver: str,
    amount: int,
    nonce: int,
    *,
    gas_limit: int = params.TRANSFER_GAS,
    gas_price: int = 1,
    created_at: float = 0.0,
    padding: int = 0,
) -> Transaction:
    """A signed native-payment transaction."""
    return Transaction(
        tx_type=TxType.TRANSFER,
        sender=keypair.address,
        receiver=receiver,
        amount=amount,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=gas_price,
        created_at=created_at,
        padding=padding,
    ).signed_by(keypair)


def make_deploy(
    keypair: KeyPair,
    bytecode: bytes,
    nonce: int,
    *,
    gas_limit: int = 1_000_000,
    gas_price: int = 1,
    created_at: float = 0.0,
) -> Transaction:
    """A signed smart-contract deployment transaction."""
    return Transaction(
        tx_type=TxType.DEPLOY,
        sender=keypair.address,
        receiver="",
        amount=0,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=gas_price,
        payload={"bytecode": bytecode},
        created_at=created_at,
    ).signed_by(keypair)


def make_invoke(
    keypair: KeyPair,
    contract: str,
    function: str,
    args: tuple,
    nonce: int,
    *,
    amount: int = 0,
    gas_limit: int = 200_000,
    gas_price: int = 1,
    created_at: float = 0.0,
) -> Transaction:
    """A signed smart-contract invocation transaction."""
    return Transaction(
        tx_type=TxType.INVOKE,
        sender=keypair.address,
        receiver=contract,
        amount=amount,
        nonce=nonce,
        gas_limit=gas_limit,
        gas_price=gas_price,
        payload={"contract": contract, "function": function, "args": tuple(args)},
        created_at=created_at,
    ).signed_by(keypair)
