"""Conflict analysis: access sets, conflict graph, parallel scheduling."""

import pytest
from hypothesis import given, strategies as st

from repro.core.transaction import make_invoke, make_transfer
from repro.crypto.keys import generate_keypair
from repro.vm.conflicts import (
    access_set,
    analyze_block,
    blocks_are_conflict_serialized,
    conflict_graph,
    parallel_commit_time_s,
)
from repro.vm.executor import native_address_for

KPS = [generate_keypair(600 + i) for i in range(6)]
EXCHANGE = native_address_for("exchange")


def transfer(i, j, nonce=0):
    return make_transfer(KPS[i], KPS[j].address, 1, nonce=nonce)


def trade(i, symbol, nonce=0):
    return make_invoke(KPS[i], EXCHANGE, "trade", (symbol, 100, 1, "buy"), nonce=nonce)


class TestAccessSets:
    def test_transfer_touches_both_accounts(self):
        acc = access_set(transfer(0, 1))
        assert f"acct:{KPS[0].address}" in acc.writes  # sender debits (r/w)
        assert f"acct:{KPS[1].address}" in acc.commutes  # receiver credit

    def test_same_sender_conflicts(self):
        a = access_set(transfer(0, 1))
        b = access_set(transfer(0, 2))
        assert a.conflicts_with(b)

    def test_disjoint_transfers_do_not_conflict(self):
        a = access_set(transfer(0, 1))
        b = access_set(transfer(2, 3))
        assert not a.conflicts_with(b)

    def test_shared_receiver_commutes(self):
        """Two credits to the same receiver are commutative deltas — no
        conflict (Block-STM-style), unlike a write/read overlap."""
        a = access_set(transfer(0, 2))
        b = access_set(transfer(1, 2))
        assert not a.conflicts_with(b)

    def test_credit_vs_spend_conflicts(self):
        """A credit to an account conflicts with that account SPENDING
        (the spender reads and writes its own balance)."""
        credit = access_set(transfer(0, 2))
        spend = access_set(transfer(2, 3))
        assert credit.conflicts_with(spend)

    def test_same_symbol_trades_conflict(self):
        assert access_set(trade(0, "AAPL")).conflicts_with(access_set(trade(1, "AAPL")))

    def test_different_symbol_trades_do_not_conflict(self):
        assert not access_set(trade(0, "AAPL")).conflicts_with(
            access_set(trade(1, "GOOG"))
        )

    def test_readonly_call_vs_writer_conflicts(self):
        reader = make_invoke(KPS[0], EXCHANGE, "last_price", ("AAPL",), nonce=0)
        writer = trade(1, "AAPL")
        assert access_set(reader).conflicts_with(access_set(writer))

    def test_two_readers_do_not_conflict(self):
        r1 = make_invoke(KPS[0], EXCHANGE, "last_price", ("AAPL",), nonce=0)
        r2 = make_invoke(KPS[1], EXCHANGE, "volume", ("AAPL",), nonce=0)
        assert not access_set(r1).conflicts_with(access_set(r2))


class TestAnalysis:
    def test_conflict_graph_edges(self):
        txs = [transfer(0, 1), transfer(0, 2), transfer(3, 4)]
        graph = conflict_graph(txs)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(1, 2)

    def test_independent_txs_one_group(self):
        report = analyze_block([transfer(0, 1), transfer(2, 3), transfer(4, 5)])
        assert report.parallel_depth == 1
        assert report.speedup == 3.0
        assert report.conflict_count == 0

    def test_fully_serial_chain(self):
        txs = [transfer(0, 1, nonce=i) for i in range(4)]
        report = analyze_block(txs)
        assert report.parallel_depth == 4
        assert report.speedup == 1.0

    def test_schedule_respects_order(self):
        """A tx lands in a group strictly after conflicting predecessors."""
        txs = [transfer(0, 1), transfer(2, 3), transfer(1, 2)]
        report = analyze_block(txs)
        group_of = {i: g for g, members in enumerate(report.groups) for i in members}
        assert group_of[2] > group_of[0]
        assert group_of[2] > group_of[1]

    def test_empty_block(self):
        report = analyze_block([])
        assert report.tx_count == 0
        assert report.speedup == 1.0

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ), max_size=15))
    def test_property_schedule_covers_all(self, pairs):
        txs = [transfer(a, b if b != a else (a + 1) % 6) for a, b in pairs]
        assert blocks_are_conflict_serialized(txs)

    @given(st.lists(st.sampled_from(["AAPL", "GOOG", "MSFT"]), min_size=1, max_size=12))
    def test_property_groups_internally_conflict_free(self, symbols):
        txs = [trade(i % 6, sym, nonce=i // 6) for i, sym in enumerate(symbols)]
        report = analyze_block(txs)
        graph = conflict_graph(txs)
        for group in report.groups:
            for a in group:
                for b in group:
                    if a != b:
                        assert not graph.has_edge(a, b)


class TestDeployAccessSet:
    def test_deploy_writes_created_account(self):
        from repro.core.transaction import make_deploy
        from repro.vm.executor import contract_address_for

        tx = make_deploy(KPS[0], b"\x01\x02", nonce=3)
        created = contract_address_for(KPS[0].address, 3)
        acc = access_set(tx)
        assert f"acct:{created}" in acc.writes
        assert f"store:{created}" in acc.writes

    def test_deploy_conflicts_with_transfer_to_created_address(self):
        from repro.core.transaction import make_deploy, make_transfer
        from repro.vm.executor import contract_address_for

        deploy = make_deploy(KPS[0], b"\x01", nonce=0)
        created = contract_address_for(KPS[0].address, 0)
        credit = make_transfer(KPS[1], created, 5, nonce=0)
        assert access_set(deploy).conflicts_with(access_set(credit))

    def test_deploy_conflicts_with_invoke_of_created_contract(self):
        from repro.core.transaction import make_deploy, make_invoke
        from repro.vm.executor import contract_address_for

        deploy = make_deploy(KPS[0], b"\x01", nonce=0)
        created = contract_address_for(KPS[0].address, 0)
        call = make_invoke(KPS[1], created, "trade", ("AAPL", 1, 1), nonce=0)
        assert access_set(deploy).conflicts_with(access_set(call))

    def test_distinct_deploys_stay_parallel(self):
        from repro.core.transaction import make_deploy

        a = access_set(make_deploy(KPS[0], b"\x01", nonce=0))
        b = access_set(make_deploy(KPS[1], b"\x02", nonce=0))
        assert not a.conflicts_with(b)


class TestScopeHierarchy:
    def test_coarse_invoke_conflicts_with_fine_scope(self):
        # An unscoped call owns the whole contract store; a per-symbol
        # trade must order against it even though the keys differ.
        coarse = make_invoke(KPS[0], EXCHANGE, "init", (), nonce=0)
        fine = trade(1, "AAPL")
        assert access_set(coarse).conflicts_with(access_set(fine))

    def test_fine_scopes_stay_parallel(self):
        assert not access_set(trade(0, "AAPL")).conflicts_with(
            access_set(trade(1, "MSFT"))
        )


class TestOpaqueFunctions:
    def test_complete_ride_is_opaque(self):
        mobility = native_address_for("mobility")
        tx = make_invoke(KPS[0], mobility, "complete_ride", (1,), nonce=0)
        acc = access_set(tx)
        assert acc.opaque
        # opaque conflicts even with an otherwise-disjoint transfer
        assert acc.conflicts_with(access_set(transfer(1, 2)))

    def test_unknown_function_is_opaque(self):
        tx = make_invoke(KPS[0], EXCHANGE, "mystery_fn", (), nonce=0)
        assert access_set(tx).opaque

    def test_known_functions_are_not_opaque(self):
        assert not access_set(trade(0, "AAPL")).opaque

    def test_opaque_serializes_whole_block(self):
        mobility = native_address_for("mobility")
        txs = [
            transfer(0, 1),
            make_invoke(KPS[2], mobility, "complete_ride", (1,), nonce=0),
            transfer(3, 4),
        ]
        report = analyze_block(txs)
        assert report.parallel_depth == 3


class TestCoinbaseCommute:
    def test_coinbase_sender_serializes(self):
        coinbase = KPS[0].address
        txs = [transfer(0, 1), transfer(2, 3)]
        assert analyze_block(txs).parallel_depth == 1
        assert analyze_block(txs, coinbase=coinbase).parallel_depth == 2

    def test_plain_transfers_unaffected_by_foreign_coinbase(self):
        txs = [transfer(0, 1), transfer(2, 3)]
        assert analyze_block(txs, coinbase="f" * 40).parallel_depth == 1


class TestScheduleVerification:
    def test_derived_schedule_verifies(self):
        txs = [transfer(0, 1), transfer(0, 2, nonce=1), transfer(2, 3)]
        assert blocks_are_conflict_serialized(txs)

    def test_corrupted_schedule_fails(self):
        # 0 and 1 share a sender (conflict); putting them in one group —
        # or swapping their group order — must be rejected.
        txs = [transfer(0, 1), transfer(0, 2, nonce=1), transfer(2, 3)]
        assert not blocks_are_conflict_serialized(txs, [[0, 1, 2]])
        assert not blocks_are_conflict_serialized(txs, [[1, 2], [0]])

    def test_incomplete_or_duplicated_cover_fails(self):
        txs = [transfer(0, 1), transfer(2, 3)]
        assert not blocks_are_conflict_serialized(txs, [[0]])
        assert not blocks_are_conflict_serialized(txs, [[0, 1], [1]])

    def test_valid_alternative_schedule_verifies(self):
        # Spreading independent txs over extra groups is legal, just slow.
        txs = [transfer(0, 1), transfer(2, 3)]
        assert blocks_are_conflict_serialized(txs, [[0], [1]])


class TestUnitCostTiming:
    """``parallel_commit_time_s``: ceil(len(group)/workers)/exec_rate per group."""

    @staticmethod
    def disjoint():
        # six senders crediting one outside account: a single group
        return [make_transfer(kp, "aa" * 20, 1, nonce=0) for kp in KPS]

    def test_disjoint_batch_is_one_round(self):
        txs = self.disjoint()
        assert parallel_commit_time_s(txs, workers=8, exec_rate=1000.0) == (
            pytest.approx(1 / 1000.0)
        )

    def test_same_sender_chain_gets_no_headroom(self):
        txs = [transfer(0, 1, nonce=i) for i in range(5)]
        assert parallel_commit_time_s(txs, workers=8, exec_rate=1000.0) == (
            pytest.approx(5 / 1000.0)
        )

    def test_worker_count_bounds_the_gain(self):
        txs = self.disjoint()
        assert parallel_commit_time_s(txs, workers=2, exec_rate=1000.0) == (
            pytest.approx(3 / 1000.0)
        )
