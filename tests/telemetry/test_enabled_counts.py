"""Telemetry that is off makes no metric or trace call; switched on, it
counts exactly what it always counted.

Instrumented sites skip all metric work when their registry is disabled,
and all trace work (events and ``tx.*`` lifecycle stamps) when the tracer
is.  A fault-heavy n = 4 run (loss, duplication, crash/restart, a
Byzantine window, the watchdog, gossip) under the disabled defaults must
make no call into either.  The same runs' enabled Prometheus dump is hashed
and compared with a pinned constant.
``NodeStats`` is shown to be exported only by the registry it was built
under, and only when that registry was enabled then.
"""

import hashlib

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.node import NodeStats
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.telemetry import registry as registry_module
from repro.telemetry import tracing

#: sha256 of the enabled dump; every metric in it is deterministic.  A
#: change that moves what an enabled registry counts says so and
#: re-records it.
PINNED_DUMP = "2e5b76f61d5fb3ed0126371c62714f39f78c610ba8d8d8db32eafc119fcd9021"


def _run(seed: int, *, tvpr: bool) -> None:
    clients, balances = fund_clients(4, seed=900 + seed)
    faults = None
    if tvpr:
        faults = (
            FaultSchedule(seed=seed)
            .drop_rate(0.05, until=6.0)
            .duplicate(0.05, until=6.0)
            .crash(3, at=2.0)
            .restart(3, at=7.0)
            .byzantine_flood(3, at=0.5, until=1.5, per_block=3, total=6, seed=seed)
        )
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, tvpr=tvpr, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=balances,
        net_params=params.NetParams(reliable_delivery=tvpr),
        fault_schedule=faults,
        seed=seed,
    )
    deployment.start()
    for nonce in range(3):
        for i, keypair in enumerate(clients):
            k = nonce * len(clients) + i
            tx = make_transfer(
                keypair, clients[(i + 1) % len(clients)].address, 1,
                nonce=nonce, created_at=0.2 * k,
            )
            deployment.submit(tx, validator_id=k % 3, at=0.2 * k)
    deployment.run_until(12.0)


def test_enabled_dump_is_pinned():
    with telemetry.use_registry() as reg:
        _run(3, tvpr=True)
        _run(5, tvpr=False)
        dump = telemetry.to_prometheus(reg)
    digest = hashlib.sha256(dump.encode()).hexdigest()
    assert digest == PINNED_DUMP


def _spy_metric_calls(monkeypatch, registry) -> list:
    """Record every metric call made on a metric of ``registry``."""
    calls = []
    for cls, name in (
        (registry_module.Counter, "inc"),
        (registry_module.Gauge, "set"),
        (registry_module.Gauge, "inc"),
        (registry_module.Gauge, "dec"),
        (registry_module.Histogram, "observe"),
        (registry_module._Metric, "labels"),
    ):
        original = getattr(cls, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            if self._registry is registry:
                calls.append((self.name, _name))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spy)
    return calls


def test_disabled_default_makes_no_metric_call(monkeypatch):
    default = telemetry.get_registry()
    assert not default.enabled
    calls = _spy_metric_calls(monkeypatch, default)
    _run(3, tvpr=True)
    _run(5, tvpr=False)
    assert calls == []


def test_disabled_default_makes_no_trace_call(monkeypatch):
    assert not telemetry.get_tracer().enabled
    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)

    for module in (telemetry, tracing):
        monkeypatch.setattr(module, "event", spy("event"))
        monkeypatch.setattr(module, "stamp_txs", spy("stamp_txs"))
    monkeypatch.setattr(tracing.Tracer, "event", spy("Tracer.event"))
    _run(3, tvpr=True)
    _run(5, tvpr=False)
    assert calls == []


def test_enabled_tracer_sees_every_stamp_site():
    # the same runs traced: the spy above watched live call sites
    tracer = telemetry.Tracer()
    previous = telemetry.set_tracer(tracer)
    try:
        _run(3, tvpr=True)
        _run(5, tvpr=False)
    finally:
        telemetry.set_tracer(previous)
    names = {r["name"] for r in tracer.records}
    assert {
        "tx.submit", "tx.gossip", "tx.pool", "tx.propose", "tx.rbc",
        "tx.decide", "tx.commit", "node.crash", "fault.inject",
    } <= names


class TestNodeStatsReadsItsOwnRegistry:
    def test_scoped_enabled_registry_keeps_mirroring_after_exit(self):
        assert not telemetry.get_registry().enabled
        with telemetry.use_registry() as reg:
            stats = NodeStats(node_id=2)
            stats.txs_committed += 1
        # The global registry is the disabled default again; the stats
        # registered with ``reg`` at construction, and ``reg`` reads them.
        stats.txs_committed += 4
        stats.txs_from_peers += 3
        committed = reg.get("srbb_node_txs_committed_total")
        received = reg.get("srbb_node_txs_received_total")
        assert committed.labels(node="2").value == 5
        assert received.labels(node="2", source="peer").value == 3
        assert stats.txs_committed == 5

    def test_built_under_disabled_default_never_calls_its_registry(
        self, monkeypatch
    ):
        default = telemetry.get_registry()
        assert not default.enabled
        calls = _spy_metric_calls(monkeypatch, default)
        stats = NodeStats(node_id=1)
        stats.txs_committed += 2
        stats.eager_validations += 1
        # The global registry is now an enabled one, but these stats were
        # built under the disabled default and read its flag only.
        with telemetry.use_registry() as reg:
            stats.txs_committed += 1
        assert calls == []
        assert stats.txs_committed == 3
        assert reg.get("srbb_node_txs_committed_total") is None

    def test_registry_enabled_later_still_exports_nothing(self):
        reg = telemetry.MetricsRegistry(enabled=False)
        with telemetry.use_registry(reg):
            stats = NodeStats(node_id=0)
        stats.txs_committed += 2
        assert reg.get("srbb_node_txs_committed_total") is None
        reg.enable()
        stats.txs_committed += 3
        assert reg.get("srbb_node_txs_committed_total") is None
        assert "srbb_node_" not in telemetry.to_prometheus(reg)
        assert stats.txs_committed == 5

    def test_read_sums_one_label_and_reset_forgets(self):
        with telemetry.use_registry() as reg:
            first, second, other = NodeStats(1), NodeStats(1), NodeStats(2)
        first.txs_committed += 3
        second.txs_committed += 4
        other.txs_committed += 1
        committed = reg.get("srbb_node_txs_committed_total")
        assert committed.labels(node="1").value == 7.0
        assert committed.labels(node="2").value == 1.0
        # every read sets the export from the stats: no double counting
        assert reg.get("srbb_node_txs_committed_total").labels(node="1").value == 7.0
        reg.reset()
        first.txs_committed += 5
        assert reg.get("srbb_node_txs_committed_total").labels(node="1").value == 0.0
