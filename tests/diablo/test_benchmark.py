"""DIABLO harness: schedules, submitters, metric collection, reports."""

import numpy as np
import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.diablo.benchmark import BenchmarkResult, DiabloBenchmark
from repro.diablo.client import (
    LoadSchedule,
    RoundRobinSubmitter,
    SingleNodeSubmitter,
)
from repro.diablo.report import format_results_table, format_table1
from repro.net.topology import single_region_topology
from repro.workloads import constant_trace
from repro.workloads.synthetic import factory_balances, transfer_request_factory


def quick_deployment(factory, n=4):
    return Deployment(
        protocol=params.ProtocolParams(n=n),
        topology=single_region_topology(n),
        extra_balances=factory_balances(factory),
    )


class TestLoadSchedule:
    def test_from_trace(self):
        factory = transfer_request_factory(clients=4)
        schedule = LoadSchedule.from_trace(constant_trace(5, 3), factory)
        assert len(schedule) == 15
        assert schedule.duration_s <= 3.0
        times = [t for t, _ in schedule.entries]
        assert times == sorted(times)

    def test_from_transactions(self):
        factory = transfer_request_factory(clients=2)
        txs = [factory(i, 0.1 * i) for i in range(4)]
        schedule = LoadSchedule.from_transactions(txs, name="x")
        assert len(schedule) == 4
        assert schedule.entries[3][0] == pytest.approx(0.3)


class TestSubmitters:
    def test_round_robin_sender_affinity(self):
        factory = transfer_request_factory(clients=4)
        deployment = quick_deployment(factory)
        schedule = LoadSchedule.from_trace(constant_trace(8, 2), factory)
        RoundRobinSubmitter().submit_all(deployment, schedule)
        deployment.run_until(1.0)
        # each sender's txs went to exactly one validator's pool
        sender_pools = {}
        for v in deployment.validators:
            for tx in v.pool.take_batch(100):
                sender_pools.setdefault(tx.sender, set()).add(v.node_id)
        assert all(len(pools) == 1 for pools in sender_pools.values())

    def test_single_node_submitter(self):
        factory = transfer_request_factory(clients=2)
        deployment = quick_deployment(factory)
        schedule = LoadSchedule.from_trace(constant_trace(4, 2), factory)
        SingleNodeSubmitter(target=1).submit_all(deployment, schedule)
        deployment.run_until(0.5)
        assert len(deployment.validators[1].pool) > 0
        assert len(deployment.validators[0].pool) == 0


class TestBenchmark:
    def test_full_run_commits_everything(self):
        factory = transfer_request_factory(clients=8)
        deployment = quick_deployment(factory)
        schedule = LoadSchedule.from_trace(constant_trace(20, 2), factory)
        bench = DiabloBenchmark(deployment)
        result = bench.run(schedule, horizon_s=15.0)
        assert result.commit_rate == 1.0
        assert result.dropped == 0
        assert result.throughput_tps > 0
        assert result.avg_latency_s > 0

    def test_latency_uses_confirmation_threshold(self):
        """Commit time is the (f+1)-th validator's commit, not the first."""
        factory = transfer_request_factory(clients=2)
        deployment = quick_deployment(factory)
        schedule = LoadSchedule.from_trace(constant_trace(2, 1), factory)
        bench = DiabloBenchmark(deployment, confirmations=4)  # all 4
        result = bench.run(schedule, horizon_s=10.0)
        bench_f1 = DiabloBenchmark(deployment, confirmations=1)
        result_f1 = bench_f1.collect(schedule, 10.0)
        assert result.avg_latency_s >= result_f1.avg_latency_s

    def test_uncommitted_counted_as_dropped(self):
        factory = transfer_request_factory(clients=2)
        deployment = quick_deployment(factory)
        txs = [factory(i, 0.0) for i in range(3)]
        schedule = LoadSchedule.from_transactions(txs)
        bench = DiabloBenchmark(deployment)
        # never start the deployment: nothing commits
        result = bench.collect(schedule, 1.0)
        assert result.dropped == 3
        assert result.throughput_tps == 0.0

    def test_summary_row_fields(self):
        result = BenchmarkResult(
            name="x", sent=10, committed=8, duration_s=2.0,
            latencies_s=np.array([0.5, 1.5]),
        )
        row = result.summary_row()
        assert row["throughput_tps"] == 4.0
        assert row["avg_latency_s"] == 1.0
        assert row["commit_pct"] == 80.0


class TestReports:
    def test_results_table_formats(self):
        rows = [
            {"chain": "srbb", "throughput_tps": 1819.0},
            {"chain": "solana", "throughput_tps": 82.6},
        ]
        text = format_results_table(rows, title="Fig2")
        assert "Fig2" in text and "srbb" in text and "1819.0" in text

    def test_empty_results(self):
        assert format_results_table([]) == "(no results)"

    def test_table1_layout(self):
        text = format_table1(
            {"#valid txs sent": "20K", "#invalid txs sent": "10K",
             "#Byzantine validators": "1", "throughput (TPS)": "3998.2 TPS",
             "#valid txs dropped": "none"},
            {"#valid txs sent": "20K", "#invalid txs sent": "10K",
             "#Byzantine validators": "1", "throughput (TPS)": "4285.71 TPS",
             "#valid txs dropped": "none"},
        )
        assert "SRBB w/o RPM" in text and "SRBB w/ RPM" in text
        assert "none" in text


class TestScheduleSigning:
    """A schedule is signed per build: equal fresh factories sign the same
    bytes (so a fresh process repeats a run), and a reused factory keeps
    its advanced nonces."""

    def test_fresh_equal_factories_sign_the_same_bytes(self):
        trace = constant_trace(5, 3)
        first = LoadSchedule.from_trace(
            trace, transfer_request_factory(clients=4, seed=31)
        )
        second = LoadSchedule.from_trace(
            trace, transfer_request_factory(clients=4, seed=31)
        )
        assert second is not first
        assert [
            (t, tx.tx_hash, tx.signature) for t, tx in first.entries
        ] == [(t, tx.tx_hash, tx.signature) for t, tx in second.entries]

    def test_different_seed_or_trace_signs_differently(self):
        trace = constant_trace(5, 3)
        a = LoadSchedule.from_trace(
            trace, transfer_request_factory(clients=4, seed=31)
        )
        b = LoadSchedule.from_trace(
            trace, transfer_request_factory(clients=4, seed=32)
        )
        c = LoadSchedule.from_trace(
            constant_trace(6, 3), transfer_request_factory(clients=4, seed=31)
        )
        hashes = [tuple(tx.tx_hash for _, tx in s.entries) for s in (a, b, c)]
        assert hashes[0] != hashes[1] and hashes[0] != hashes[2]

    def test_reused_factory_continues_its_nonces(self):
        trace = constant_trace(5, 3)
        factory = transfer_request_factory(clients=4, seed=31)
        first = LoadSchedule.from_trace(trace, factory)
        second = LoadSchedule.from_trace(trace, factory)
        assert second.entries[0][1].nonce > first.entries[0][1].nonce
