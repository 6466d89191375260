"""World state: accounts, balances, nonces, contract code and storage.

The state supports cheap snapshot/revert (journaling) so a failed
transaction rolls back completely — the mechanism behind the paper's
"invalid transactions throw an error without transitioning state".
"""

from __future__ import annotations

import copy as _copymod
from dataclasses import dataclass
from typing import Any, Iterator

from repro.crypto.hashing import hash_items
from repro.errors import UnknownSender


#: journal marker for "the key was not there": undoing an entry whose
#: previous value is ``_ABSENT`` removes the key
_ABSENT = object()


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

    Every write appends one undo entry ``(target, key, previous)`` to the
    journal: ``target`` is the account (``key`` names its field) or one of
    the two maps (``key`` is the address or storage slot, and ``previous``
    may be ``_ABSENT``).  ``snapshot()`` returns the journal length and
    ``revert(snap)`` unwinds back to it: O(writes) per revert, O(1) per
    snapshot — the same strategy Geth uses.  Snapshots nest, and a caller
    may revert any span of work it has not committed (a whole batch of
    transactions, say).

    The journal lives until ``commit()``.  The commit loop
    (:meth:`repro.core.blockchain.Blockchain.commit_superblock`) commits
    after every transaction, because nothing reverts across transactions:
    the journal then holds one transaction's entries at most, and they die
    young instead of being promoted into the collector's oldest generation.
    """

    def __init__(self) -> None:
        self._accounts: dict[str, Account] = {}
        # storage[(contract_address, key)] = value
        self._storage: dict[tuple[str, str], Any] = {}
        self._journal: list[tuple[Any, Any, Any]] = []

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> int:
        """Opaque marker for the current state (journal length)."""
        return len(self._journal)

    def revert(self, snap: int) -> None:
        """Undo every mutation recorded after ``snap``."""
        journal = self._journal
        while len(journal) > snap:
            target, key, previous = journal.pop()
            if type(target) is dict:
                if previous is _ABSENT:
                    target.pop(key, None)
                else:
                    target[key] = previous
            else:
                setattr(target, key, previous)

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
        account = self._accounts.get(address)
        if account is None:
            account = self._accounts[address] = Account(address=address)
            self._journal.append((self._accounts, address, _ABSENT))
        return account

    def create_account(
        self,
        address: str,
        balance: int | None = None,
        *,
        code: bytes | None = None,
        native: str | None = None,
    ) -> Account:
        """Create ``address`` (or reuse it) and install ``code``/``native``.

        ``balance=None`` keeps whatever the address already holds (0 for a
        new account): value sent to an address before a contract is
        deployed there stays with the contract.
        """
        account = self.get_or_create(address)
        if balance is not None:
            self.set_balance(address, balance)
        if code is not None or native is not None:
            self._journal.append((account, "code", account.code))
            self._journal.append((account, "native", account.native))
            account.code, account.native = code, native
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
        self._journal.append((account, "balance", account.balance))
        account.balance = value

    def add_balance(self, address: str, delta: int) -> None:
        self.set_balance(address, self.balance_of(address) + delta)

    def sub_balance(self, address: str, delta: int) -> None:
        self.set_balance(address, self.balance_of(address) - delta)

    def bump_nonce(self, address: str) -> None:
        account = self.get_or_create(address)
        self._journal.append((account, "nonce", account.nonce))
        account.nonce += 1

    # -- storage ------------------------------------------------------------

    def storage_get(self, contract: str, key: str, default: Any = None) -> Any:
        return self._storage.get((contract, key), default)

    def storage_set(self, contract: str, key: str, value: Any) -> None:
        slot = (contract, key)
        storage = self._storage
        self._journal.append((storage, slot, storage.get(slot, _ABSENT)))
        storage[slot] = value

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
