"""Telemetry wired through the pipeline: exported numbers must reconcile
with the results the engines themselves report."""

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.node import NodeStats
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology
from repro.sim.chains import chain_model
from repro.sim.engine import simulate_chain
from repro.sim.metrics import LatencySample
from repro.workloads import constant_trace


def _sample(samples, name, **labels):
    return samples[(name, tuple(sorted((k, str(v)) for k, v in labels.items())))]


class TestTickEngineReconciliation:
    def test_counters_match_simresult(self):
        trace = constant_trace(200, 10)
        with telemetry.use_registry() as reg:
            result = simulate_chain(chain_model("srbb"), trace)
            samples = telemetry.parse_prometheus(telemetry.to_prometheus(reg))
        assert _sample(samples, "srbb_sim_txs_sent_total") == result.sent
        assert _sample(samples, "srbb_sim_txs_committed_total") == result.committed
        dropped = _sample(
            samples, "srbb_sim_txs_dropped_total", reason="pool"
        ) + _sample(samples, "srbb_sim_txs_dropped_total", reason="validation")
        assert dropped == result.dropped_pool + result.dropped_validation
        assert _sample(samples, "srbb_sim_txs_unfinished") == result.unfinished
        assert (
            _sample(samples, "srbb_sim_commit_latency_seconds_count")
            == result.committed
        )

    def test_disabled_registry_untouched(self):
        trace = constant_trace(100, 5)
        reg = telemetry.get_registry()
        assert not reg.enabled
        sent = reg.get("srbb_sim_txs_sent_total")
        before = sent.value if sent is not None else 0.0
        simulate_chain(chain_model("srbb"), trace)
        sent = reg.get("srbb_sim_txs_sent_total")
        assert (sent.value if sent is not None else 0.0) == before

    def test_trace_span_carries_result(self):
        # the whole-run record is one sim.run event at the run's final
        # simulated time
        tracer = telemetry.Tracer()
        previous = telemetry.set_tracer(tracer)
        try:
            result = simulate_chain(chain_model("srbb"), constant_trace(100, 5))
        finally:
            telemetry.set_tracer(previous)
        (run,) = [r for r in tracer.records if r["name"] == "sim.run"]
        assert run["type"] == "event"
        assert run["ts"] == result.duration_s
        assert run["attrs"]["committed"] == result.committed
        assert run["attrs"]["sent"] == result.sent


class TestMessageEngineReconciliation:
    def test_node_commit_counters_match_chain(self):
        clients, balances = fund_clients(4)
        with telemetry.use_registry() as reg:
            deployment = Deployment(
                protocol=params.ProtocolParams(n=4),
                topology=single_region_topology(4),
                extra_balances=balances,
            )
            deployment.start()
            txs = [
                make_transfer(clients[i], clients[(i + 1) % 4].address, 1, nonce=0)
                for i in range(4)
            ]
            for i, tx in enumerate(txs):
                deployment.submit(tx, validator_id=i, at=0.05)
            deployment.run_until(5.0)
            samples = telemetry.parse_prometheus(telemetry.to_prometheus(reg))
        for node in deployment.validators:
            assert node.stats.txs_committed == node.blockchain.committed_count()
            assert (
                _sample(samples, "srbb_node_txs_committed_total", node=node.node_id)
                == node.stats.txs_committed
            )
        # consensus decided at least one superblock on every validator
        assert _sample(samples, "srbb_superblocks_decided_total") >= 4
        # transport counted traffic for the run (sum over {kind=...} children)
        total_messages = sum(
            value for (name, _), value in samples.items()
            if name == "srbb_net_messages_total"
        )
        assert total_messages > 0


class TestNodeStatsView:
    def test_attribute_api_preserved(self):
        stats = NodeStats()
        assert stats.txs_committed == 0
        stats.txs_committed += 5
        stats.txs_committed += 2
        assert stats.txs_committed == 7

    def test_local_counts_exact_even_when_disabled(self):
        assert not telemetry.get_registry().enabled
        stats = NodeStats(node_id=3)
        stats.eager_validations += 10
        assert stats.eager_validations == 10

    def test_mirrors_into_registry_with_node_label(self):
        with telemetry.use_registry() as reg:
            stats = NodeStats(node_id=1)
            stats.txs_from_clients += 4
            stats.txs_from_peers += 2
            received = reg.get("srbb_node_txs_received_total")
            assert received.labels(node="1", source="client").value == 4
            assert received.labels(node="1", source="peer").value == 2


class TestLatencySample:
    def test_bounded_and_api_compatible(self):
        sample = LatencySample()
        for i in range(10_000):
            sample.add(0.001 * (i + 1), weight=2.0)
        assert sample.total_weight == 20_000
        assert sample.histogram.max == 10.0
        assert 0 < sample.mean < 10.0
        assert sample.percentile(50.0) <= sample.percentile(99.0) <= 10.0
        # memory is bounded by the sketch bins, not the observation count
        assert len(sample.histogram.sketch._bins) <= sample.histogram.sketch.max_bins

    def test_empty(self):
        sample = LatencySample()
        assert sample.mean == 0.0
        assert sample.histogram.count == 0
        assert sample.percentile(99.0) == 0.0
