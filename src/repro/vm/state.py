"""World state: accounts, balances, nonces, contract code and storage.

The state supports cheap snapshot/revert (journaling) so a failed
transaction rolls back completely — the mechanism behind the paper's
"invalid transactions throw an error without transitioning state".
"""

from __future__ import annotations

import copy as _copymod
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.crypto.hashing import hash_items
from repro.errors import UnknownSender


def _clone_value(value: Any) -> Any:
    """Deep-copy a storage value unless it is immutable.

    Storage holds arbitrary Python values; sharing a mutable value (list,
    dict) between two states lets an in-place mutation in one leak into
    the other, which corrupts ``WorldState.copy()`` clones.
    """
    if value is None or isinstance(value, (int, float, str, bytes, bool)):
        return value
    return _copymod.deepcopy(value)


@dataclass
class Account:
    """One account: externally owned (code is None) or contract."""

    address: str
    balance: int = 0
    nonce: int = 0
    code: bytes | None = None
    #: native contract name when this account hosts a built-in contract
    native: str | None = None

    @property
    def is_contract(self) -> bool:
        return self.code is not None or self.native is not None


class WorldState:
    """Mutable account/storage map with journaled snapshots.

    Journaling records undo entries; ``snapshot()`` returns a journal
    length and ``revert(snap)`` unwinds back to it.  This is O(writes)
    per revert and O(1) per snapshot — the same strategy Geth uses.
    """

    def __init__(self) -> None:
        self._accounts: dict[str, Account] = {}
        # storage[(contract_address, key)] = value
        self._storage: dict[tuple[str, str], Any] = {}
        self._journal: list[Callable[[], None]] = []

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> int:
        """Opaque marker for the current state (journal length)."""
        return len(self._journal)

    def revert(self, snap: int) -> None:
        """Undo every mutation recorded after ``snap``."""
        while len(self._journal) > snap:
            self._journal.pop()()

    def commit(self) -> None:
        """Drop undo history (mutations become permanent)."""
        self._journal.clear()

    # -- accounts -----------------------------------------------------------

    def account_exists(self, address: str) -> bool:
        return address in self._accounts

    def get_account(self, address: str) -> Account:
        try:
            return self._accounts[address]
        except KeyError:
            raise UnknownSender(f"no account {address!r}") from None

    def get_or_create(self, address: str) -> Account:
        if address not in self._accounts:
            account = Account(address=address)
            self._accounts[address] = account
            self._journal.append(lambda: self._accounts.pop(address, None))
        return self._accounts[address]

    def create_account(
        self,
        address: str,
        balance: int = 0,
        *,
        code: bytes | None = None,
        native: str | None = None,
    ) -> Account:
        account = self.get_or_create(address)
        self.set_balance(address, balance)
        if code is not None or native is not None:
            prev_code, prev_native = account.code, account.native
            account.code, account.native = code, native

            def undo(acc=account, c=prev_code, nat=prev_native) -> None:
                acc.code, acc.native = c, nat

            self._journal.append(undo)
        return account

    def balance_of(self, address: str) -> int:
        account = self._accounts.get(address)
        return account.balance if account else 0

    def nonce_of(self, address: str) -> int:
        account = self._accounts.get(address)
        return account.nonce if account else 0

    def set_balance(self, address: str, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative balance {value} for {address!r}")
        account = self.get_or_create(address)
        prev = account.balance
        account.balance = value
        self._journal.append(lambda acc=account, p=prev: setattr(acc, "balance", p))

    def add_balance(self, address: str, delta: int) -> None:
        self.set_balance(address, self.balance_of(address) + delta)

    def sub_balance(self, address: str, delta: int) -> None:
        self.set_balance(address, self.balance_of(address) - delta)

    def bump_nonce(self, address: str) -> None:
        account = self.get_or_create(address)
        prev = account.nonce
        account.nonce = prev + 1
        self._journal.append(lambda acc=account, p=prev: setattr(acc, "nonce", p))

    # -- storage ------------------------------------------------------------

    def storage_get(self, contract: str, key: str, default: Any = None) -> Any:
        return self._storage.get((contract, key), default)

    def storage_set(self, contract: str, key: str, value: Any) -> None:
        slot = (contract, key)
        had, prev = (slot in self._storage), self._storage.get(slot)

        def undo() -> None:
            if had:
                self._storage[slot] = prev
            else:
                self._storage.pop(slot, None)

        self._storage[slot] = value
        self._journal.append(undo)

    def storage_items(self, contract: str) -> Iterator[tuple[str, Any]]:
        for (addr, key), value in self._storage.items():
            if addr == contract:
                yield key, value

    # -- digests ------------------------------------------------------------

    def state_root(self) -> bytes:
        """Deterministic digest of the full state (order-independent).

        Computed by hashing the sorted account and storage entries;
        two validators that executed the same block sequence produce the
        same root (tested as the safety corollary of §II-C).
        """
        items: list[object] = []
        for address in sorted(self._accounts):
            account = self._accounts[address]
            items.extend([address, account.balance, account.nonce,
                          account.code or b"", account.native or ""])
        for (addr, key) in sorted(self._storage, key=lambda s: (s[0], s[1])):
            items.extend([addr, key, repr(self._storage[(addr, key)])])
        return hash_items(items)

    def copy(self) -> "WorldState":
        """Independent copy: accounts re-created, storage values deep-copied.

        Mutable storage values (lists/dicts) must not be shared between
        clones — one clone mutating a stored value in place would otherwise
        leak the mutation into every other clone of the same state.
        """
        clone = WorldState()
        for address, account in self._accounts.items():
            clone._accounts[address] = Account(
                address=address,
                balance=account.balance,
                nonce=account.nonce,
                code=account.code,
                native=account.native,
            )
        clone._storage = {
            slot: _clone_value(value) for slot, value in self._storage.items()
        }
        return clone

    def __len__(self) -> int:
        return len(self._accounts)
