"""World state: accounts, balances, storage, journaled snapshot/revert."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import UnknownSender
from repro.vm.state import WorldState


class TestAccounts:
    def test_missing_account_raises(self):
        with pytest.raises(UnknownSender):
            WorldState().get_account("deadbeef")

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
        ws.create_account("c1", code=b"\x00")
        assert ws.get_account("c1").is_contract
        ws.create_account("c2", native="exchange")
        assert ws.get_account("c2").is_contract
        ws.create_account("e1", 10)
        assert not ws.get_account("e1").is_contract


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
        assert not ws.account_exists("a1")

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
        clone = ws.copy()
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
        st.none() | st.sampled_from([b"", b"\x01"]),
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
    accounts = tuple(a for a in ADDRESSES if ws.account_exists(a))
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
        restores exactly the state ``copy()`` saw at ``s`` — root, accounts
        and storage slots, a ``None`` stored into an absent slot included."""
        ws = WorldState()
        for contract, key, value in base:
            ws.storage_set(contract, key, value)
        ws.commit()
        open_snapshots = [(ws.snapshot(), ws.copy())]

        def revert_last():
            snap, saved = open_snapshots.pop()
            ws.revert(snap)
            assert ws.state_root() == saved.state_root()
            assert _membership(ws) == _membership(saved)

        for op, *args in ops:
            if op == "create":
                address, balance, code, native = args
                ws.create_account(address, balance, code=code, native=native)
            elif op == "balance":
                ws.set_balance(*args)
            elif op == "nonce":
                ws.bump_nonce(*args)
            elif op == "store":
                ws.storage_set(*args)
            elif op == "snapshot":
                open_snapshots.append((ws.snapshot(), ws.copy()))
            elif open_snapshots:
                revert_last()
        while open_snapshots:
            revert_last()


class TestCopyIsolation:
    def test_copy_deep_copies_mutable_storage_values(self):
        ws = WorldState()
        ws.create_account("a", 100)
        ws.storage_set("contract", "holders", ["alice"])
        ws.storage_set("contract", "meta", {"open": True})
        ws.commit()
        clone = ws.copy()
        ws.storage_get("contract", "holders").append("mallory")
        ws.storage_get("contract", "meta")["open"] = False
        assert clone.storage_get("contract", "holders") == ["alice"]
        assert clone.storage_get("contract", "meta") == {"open": True}

    def test_copy_shares_nothing_back(self):
        ws = WorldState()
        ws.storage_set("contract", "xs", [1, 2])
        ws.commit()
        clone = ws.copy()
        clone.storage_get("contract", "xs").append(3)
        assert ws.storage_get("contract", "xs") == [1, 2]
