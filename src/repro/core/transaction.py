"""Transactions: native transfers and contract calls.

A transaction carries the fields the paper's validity definition needs
(§IV-D): a signature (check i), a bounded encoded size (check ii), a nonce
(check iii), a gas budget priced in the native token (check iv) and a
transferred amount (check v).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

#: Exclusive upper bound on ``amount``, ``nonce``, ``gas_limit``,
#: ``gas_price`` and ``padding``: an unsigned 64-bit word, Ethereum's
#: range for a nonce and a gas limit (EIP-2681).  Genesis balances are
#: 10**15, so no honest transaction comes near it.
FIELD_CAP = 2**64


def fields_in_range(*values: Any) -> bool:
    """True when each value is an ``int`` (a ``bool`` is not) in
    ``[0, FIELD_CAP)``.

    Validation compares a balance against ``gas_limit * gas_price +
    amount`` and prices ``padding`` as data; a negative term passes those
    tests while moving value the wrong way, so both validation passes
    check this first.
    """
    for value in values:
        if type(value) is not int or not 0 <= value < FIELD_CAP:
            return False
    return True


class TxType(Enum):
    """Two of §II-A's three transaction kinds: contract deployment is not
    modelled, because every contract is installed at genesis."""

    TRANSFER = "transfer"
    INVOKE = "invoke"


@dataclass(frozen=True, eq=False, init=False)
class Transaction:
    """A signed client write request.

    ``payload`` holds ``{"contract", "function", "args"}`` for INVOKE and
    is empty for a transfer.  ``padding`` inflates the encoded size to
    model realistic byte footprints (and to build oversized transactions
    in tests).

    The fields are frozen, so everything derived from them — signing
    payload, hash, sizes, a positive signature verdict — is computed at
    most once per object and kept on it (DESIGN.md, "Derived values live
    on the immutable object").  A copy with any field changed is a new
    object with empty memos.
    """

    # Defaults are those of ``__init__``.
    tx_type: TxType
    sender: str
    receiver: str
    amount: int
    nonce: int
    gas_limit: int
    gas_price: int
    payload: Mapping[str, Any]
    public_key: PublicKey | None
    signature: Signature | None
    padding: int
    #: client-side creation timestamp (simulated seconds); used by DIABLO
    created_at: float
    #: unique id to disambiguate otherwise-identical txs in tests
    uid: int

    def __init__(
        self, tx_type: TxType, sender: str, receiver: str, amount: int, nonce: int,
        gas_limit: int, gas_price: int, payload: Mapping[str, Any] | None = None,
        public_key: PublicKey | None = None, signature: Signature | None = None,
        padding: int = 0, created_at: float = 0.0, uid: int | None = None,
    ) -> None:
        # Fields, then memo slots, written in one fixed order so instance
        # dicts share one key table (a lazily added key per derived value
        # un-shares them: +9 % peak RSS on an 18k-tx run); a generated
        # frozen ``__init__`` took 4.0 µs against 1.5 µs here.
        d = self.__dict__
        d["tx_type"] = tx_type
        d["sender"] = sender
        d["receiver"] = receiver
        d["amount"] = amount
        d["nonce"] = nonce
        d["gas_limit"] = gas_limit
        d["gas_price"] = gas_price
        d["payload"] = {} if payload is None else payload
        d["public_key"] = public_key
        d["signature"] = signature
        d["padding"] = padding
        d["created_at"] = created_at
        d["uid"] = next(_tx_counter) if uid is None else uid
        d["_signing_payload"] = None
        d["_encoded_size"] = None
        d["_data_size"] = None
        d["_intrinsic_gas"] = None
        #: set by ``core.validation.check_signature`` on a positive verdict
        d["sig_verified"] = False
        #: :func:`fields_in_range` of the frozen fields, computed here so
        #: validation reads an attribute instead of calling a method
        d["fields_ok"] = fields_in_range(amount, nonce, gas_limit, gas_price, padding)

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

    def intrinsic_gas(self) -> int:
        """Gas charged before any execution: G_TX, plus G_TXDATA_BYTE per
        byte of :meth:`data_size`."""
        gas = self._intrinsic_gas
        if gas is None:
            gas = self.__dict__["_intrinsic_gas"] = _intrinsic_gas(self.data_size())
        return gas

    def max_cost(self) -> int:
        """Worst-case debit: transferred amount plus full gas budget."""
        return self.amount + self.gas_limit * self.gas_price

    def fee_cap(self) -> int:
        return self.gas_limit * self.gas_price

    # -- signing ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.tx_type.value}, {self.sender[:8]}→"
            f"{self.receiver[:8]}, amount={self.amount}, nonce={self.nonce})"
        )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _signed(keypair: KeyPair, tx: Transaction) -> Transaction:
    """Sign ``tx``, just built by the caller, in place: the one path to a
    signed transaction, so each is constructed once.  The signature is the
    only field written after ``__init__``, before the object escapes and
    before anything that depends on it is derived (the payload does not)."""
    tx.__dict__["signature"] = crypto_sign(keypair.private, tx.signing_payload())
    return tx


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
    return _signed(keypair, Transaction(
        TxType.TRANSFER, keypair.address, receiver, amount, nonce, gas_limit,
        gas_price, {}, keypair.public, None, padding, created_at,
    ))


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
    return _signed(keypair, Transaction(
        TxType.INVOKE, keypair.address, contract, amount, nonce, gas_limit, gas_price,
        {"contract": contract, "function": function, "args": tuple(args)},
        keypair.public, None, 0, created_at,
    ))


# Bound after ``Transaction`` exists: repro.vm's package import reaches
# repro.vm.executor, which imports this module's names back.
from repro.vm.gas import intrinsic_gas as _intrinsic_gas  # noqa: E402
