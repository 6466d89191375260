"""World state: accounts, balances, storage, journaled snapshot/revert."""

import copy

import pytest
from hypothesis import example, given, strategies as st

from repro.vm.state import _ABSENT, Account, WorldState


def _copy(ws: WorldState) -> WorldState:
    """The reference clone: accounts re-created and every mutable storage
    value deep-copied, so no in-place mutation leaks between the two."""
    clone = WorldState()
    for address, account in ws.accounts.items():
        clone._accounts[address] = Account(
            address=address, balance=account.balance,
            nonce=account.nonce, native=account.native,
        )
    for slot, value in ws._storage.items():
        if not (value is None or isinstance(value, (int, float, str, bytes, bool))):
            value = copy.deepcopy(value)
        clone._storage[slot] = value
    return clone


class TestAccounts:
    def test_missing_account_is_absent(self):
        assert "deadbeef" not in WorldState().accounts

    def test_balance_of_missing_is_zero(self):
        assert WorldState().balance_of("deadbeef") == 0

    def test_create_and_read(self):
        ws = WorldState()
        ws.create_account("a1", 100)
        assert ws.balance_of("a1") == 100
        assert ws.nonce_of("a1") == 0

    def test_negative_balance_rejected(self):
        ws = WorldState()
        ws.create_account("a1", 5)
        with pytest.raises(ValueError):
            ws.sub_balance("a1", 10)

    def test_add_sub_balance(self):
        ws = WorldState()
        ws.create_account("a1", 100)
        ws.add_balance("a1", 50)
        ws.sub_balance("a1", 30)
        assert ws.balance_of("a1") == 120

    def test_bump_nonce(self):
        ws = WorldState()
        ws.create_account("a1", 0)
        ws.bump_nonce("a1")
        ws.bump_nonce("a1")
        assert ws.nonce_of("a1") == 2

    def test_contract_account(self):
        ws = WorldState()
        ws.create_account("c2", native="exchange")
        assert ws.accounts["c2"].native == "exchange"
        ws.create_account("e1", 10)
        assert ws.accounts["e1"].native is None


class TestSnapshots:
    def test_revert_balance(self):
        ws = WorldState()
        ws.create_account("a1", 100)
        snap = ws.snapshot()
        ws.set_balance("a1", 7)
        ws.revert(snap)
        assert ws.balance_of("a1") == 100

    def test_revert_account_creation(self):
        ws = WorldState()
        snap = ws.snapshot()
        ws.create_account("a1", 100)
        ws.revert(snap)
        assert "a1" not in ws._accounts

    def test_revert_nonce(self):
        ws = WorldState()
        ws.create_account("a1", 0)
        snap = ws.snapshot()
        ws.bump_nonce("a1")
        ws.revert(snap)
        assert ws.nonce_of("a1") == 0

    def test_revert_storage_write_and_overwrite(self):
        ws = WorldState()
        ws.storage_set("c", "k", 1)
        snap = ws.snapshot()
        ws.storage_set("c", "k", 2)
        ws.storage_set("c", "fresh", 9)
        ws.revert(snap)
        assert ws.storage_get("c", "k") == 1
        assert ws.storage_get("c", "fresh") is None

    def test_nested_snapshots(self):
        ws = WorldState()
        ws.create_account("a", 10)
        s1 = ws.snapshot()
        ws.set_balance("a", 20)
        s2 = ws.snapshot()
        ws.set_balance("a", 30)
        ws.revert(s2)
        assert ws.balance_of("a") == 20
        ws.revert(s1)
        assert ws.balance_of("a") == 10

    def test_commit_clears_journal(self):
        ws = WorldState()
        ws.create_account("a", 10)
        ws.commit()
        snap = ws.snapshot()
        assert snap == 0
        ws.set_balance("a", 99)
        ws.revert(snap)
        assert ws.balance_of("a") == 10


class TestStateRoot:
    def test_same_history_same_root(self):
        a, b = WorldState(), WorldState()
        for ws in (a, b):
            ws.create_account("x", 5)
            ws.storage_set("c", "k", "v")
        assert a.state_root() == b.state_root()

    def test_root_insensitive_to_insertion_order(self):
        a, b = WorldState(), WorldState()
        a.create_account("x", 1)
        a.create_account("y", 2)
        b.create_account("y", 2)
        b.create_account("x", 1)
        assert a.state_root() == b.state_root()

    def test_root_changes_with_balance(self):
        a = WorldState()
        a.create_account("x", 1)
        r1 = a.state_root()
        a.set_balance("x", 2)
        assert a.state_root() != r1

    def test_copy_is_independent(self):
        ws = WorldState()
        ws.create_account("x", 1)
        clone = _copy(ws)
        clone.set_balance("x", 99)
        assert ws.balance_of("x") == 1
        assert clone.balance_of("x") == 99

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=20,
        )
    )
    def test_property_revert_restores_root(self, writes):
        ws = WorldState()
        ws.create_account("a", 100)
        ws.create_account("b", 100)
        ws.create_account("c", 100)
        ws.commit()
        root = ws.state_root()
        snap = ws.snapshot()
        for addr, value in writes:
            ws.set_balance(addr, value)
            ws.storage_set("contract", addr, value)
        ws.revert(snap)
        assert ws.state_root() == root


ADDRESSES = ("a", "b", "c")
KEYS = ("k1", "k2")
_MISSING = object()

_journal_ops = st.one_of(
    st.tuples(
        st.just("create"),
        st.sampled_from(ADDRESSES),
        st.none() | st.integers(min_value=0, max_value=50),
        st.none() | st.sampled_from(["exchange", "rpm"]),
    ),
    st.tuples(
        st.just("balance"),
        st.sampled_from(ADDRESSES),
        st.integers(min_value=0, max_value=50),
    ),
    st.tuples(st.just("nonce"), st.sampled_from(ADDRESSES)),
    st.tuples(
        st.just("store"),
        st.sampled_from(ADDRESSES),
        st.sampled_from(KEYS),
        st.none() | st.integers(min_value=0, max_value=3),
    ),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("revert")),
)


def _membership(ws: WorldState) -> tuple:
    accounts = tuple(a for a in ADDRESSES if a in ws._accounts)
    slots = tuple(
        (c, k) for c in ADDRESSES for k in KEYS
        if ws.storage_get(c, k, _MISSING) is not _MISSING
    )
    return accounts, slots


class TestJournalProperty:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ADDRESSES),
                st.sampled_from(KEYS),
                st.none() | st.integers(min_value=0, max_value=3),
            ),
            max_size=4,
        ),
        st.lists(_journal_ops, max_size=40),
    )
    def test_revert_restores_the_copy_taken_at_the_snapshot(self, base, ops):
        """Any interleaving of writes and nested snapshots: ``revert(s)``
        restores exactly the state ``_copy()`` saw at ``s`` — root, accounts
        and storage slots, a ``None`` stored into an absent slot included."""
        ws = WorldState()
        for contract, key, value in base:
            ws.storage_set(contract, key, value)
        ws.commit()
        open_snapshots = [(ws.snapshot(), _copy(ws))]

        def revert_last():
            snap, saved = open_snapshots.pop()
            ws.revert(snap)
            assert ws.state_root() == saved.state_root()
            assert _membership(ws) == _membership(saved)

        for op, *args in ops:
            if op == "create":
                address, balance, native = args
                ws.create_account(address, balance, native=native)
            elif op == "balance":
                ws.set_balance(*args)
            elif op == "nonce":
                ws.bump_nonce(*args)
            elif op == "store":
                ws.storage_set(*args)
            elif op == "snapshot":
                open_snapshots.append((ws.snapshot(), _copy(ws)))
            elif open_snapshots:
                revert_last()
        while open_snapshots:
            revert_last()


class _ThreeFrameState(WorldState):
    """Reference writers: each composes ``balance_of`` / ``get_or_create``
    / ``set_balance`` the way the one-frame writers must behave."""

    def set_balance(self, address, value):
        if value < 0:
            raise ValueError(f"negative balance {value} for {address!r}")
        account = self.get_or_create(address)
        self._journal.append((account, "balance", account.balance))
        account.balance = value

    def add_balance(self, address, delta):
        self.set_balance(address, self.balance_of(address) + delta)

    def sub_balance(self, address, delta):
        self.set_balance(address, self.balance_of(address) - delta)

    def bump_nonce(self, address):
        account = self.get_or_create(address)
        self._journal.append((account, "nonce", account.nonce))
        account.nonce += 1

    def spend(self, address, delta):
        self.sub_balance(address, delta)
        self.bump_nonce(address)


def _journal_view(ws: WorldState) -> list:
    """The journal with each target named instead of by identity."""
    view = []
    for target, key, previous in ws._journal:
        if target is ws._accounts:
            name = "accounts"
        elif target is ws._storage:
            name = "storage"
        else:
            name = ("account", target.address)
        view.append((name, key, "absent" if previous is _ABSENT else previous))
    return view


def _accounts_view(ws: WorldState) -> dict:
    return {
        a.address: (a.balance, a.nonce, a.native)
        for a in ws._accounts.values()
    }


#: (op, address, amount); address and amount are ignored where unused
_write_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["set", "add", "sub", "spend", "nonce", "snapshot", "revert", "commit"]
        ),
        st.sampled_from(ADDRESSES),
        st.integers(min_value=-5, max_value=5) | st.integers(min_value=0, max_value=40),
    ),
    max_size=50,
)


class TestOneFrameWriters:
    @given(
        st.dictionaries(
            st.sampled_from(ADDRESSES), st.integers(min_value=0, max_value=30),
            max_size=2,
        ),
        _write_ops,
    )
    # Each writer's ValueError on an address with no account, which must
    # create nothing and journal nothing.
    @example({}, [("add", "c", -3), ("sub", "c", 2), ("set", "c", -1)])
    @example({"a": 4}, [("sub", "a", 5), ("add", "a", -5), ("nonce", "b", 0)])
    def test_writers_match_the_three_frame_composition(self, funded, ops):
        """Same journal entries in the same order, same accounts, the same
        ``ValueError`` cases (no account created, no entry written) and
        the same state after ``revert``."""
        states = (WorldState(), _ThreeFrameState())
        for ws in states:
            for address, balance in funded.items():
                ws.create_account(address, balance)
            ws.commit()
        snapshots = []
        for op, address, amount in ops:
            if op == "snapshot":
                snapshots.append(states[0].snapshot())
                assert states[1].snapshot() == snapshots[-1]
            elif op == "revert":
                snap = snapshots.pop() if snapshots else 0
                for ws in states:
                    ws.revert(snap)
            elif op == "commit":
                snapshots.clear()
                for ws in states:
                    ws.commit()
            else:
                outcomes = []
                for ws in states:
                    before = (len(ws), ws.snapshot())
                    write = {
                        "set": ws.set_balance, "add": ws.add_balance,
                        "sub": ws.sub_balance, "spend": ws.spend,
                        "nonce": lambda a, _: ws.bump_nonce(a),
                    }[op]
                    try:
                        write(address, amount)
                        outcomes.append(None)
                    except ValueError as exc:
                        assert (len(ws), ws.snapshot()) == before
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
            assert _journal_view(states[0]) == _journal_view(states[1])
            assert _accounts_view(states[0]) == _accounts_view(states[1])
        for ws in states:
            ws.revert(0)
        assert _accounts_view(states[0]) == _accounts_view(states[1])
        assert states[0].state_root() == states[1].state_root()


class TestCopyIsolation:
    def test_copy_deep_copies_mutable_storage_values(self):
        ws = WorldState()
        ws.create_account("a", 100)
        ws.storage_set("contract", "holders", ["alice"])
        ws.storage_set("contract", "meta", {"open": True})
        ws.commit()
        clone = _copy(ws)
        ws.storage_get("contract", "holders").append("mallory")
        ws.storage_get("contract", "meta")["open"] = False
        assert clone.storage_get("contract", "holders") == ["alice"]
        assert clone.storage_get("contract", "meta") == {"open": True}

    def test_copy_shares_nothing_back(self):
        ws = WorldState()
        ws.storage_set("contract", "xs", [1, 2])
        ws.commit()
        clone = _copy(ws)
        clone.storage_get("contract", "xs").append(3)
        assert ws.storage_get("contract", "xs") == [1, 2]
