"""Telemetry that is off makes no metric call; switched on, it counts
exactly what it always counted.

Instrumented sites skip all metric work when their registry is disabled.
A fault-heavy n = 4 run (loss, duplication, crash/restart, a Byzantine
window, the watchdog, gossip) under the disabled default registry must
make no call into it.  The same runs' enabled Prometheus dump is hashed
and compared with a constant recorded before the guards existed.
``NodeStats`` is shown to read the flag of the registry it was built
under, not the global one.
"""

import hashlib

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.node import NodeStats
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.telemetry import registry as registry_module

#: wall-clock histograms (``@timed``): only their ``_count`` is deterministic
_WALL_CLOCK = ("srbb_eager_validate_seconds", "srbb_commit_superblock_seconds")

#: sha256 of the normalised dump, recorded before the disabled-path guards
PINNED_DUMP = "b267a7f200c173c6b9db01e87cdcd7fae3616d83754a70233d028711eb635b44"


def _normalised(dump: str) -> str:
    kept = []
    for line in dump.splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name.startswith(_WALL_CLOCK) and not name.endswith("_count"):
            continue
        kept.append(line)
    return "\n".join(kept)


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
    digest = hashlib.sha256(_normalised(dump).encode()).hexdigest()
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


class TestNodeStatsReadsItsOwnRegistry:
    def test_scoped_enabled_registry_keeps_mirroring_after_exit(self):
        assert not telemetry.get_registry().enabled
        with telemetry.use_registry() as reg:
            stats = NodeStats(node_id=2)
            stats.txs_committed += 1
        # The global registry is the disabled default again; the mirrors
        # were bound to ``reg`` at construction and keep counting there.
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

    def test_registry_enabled_later_starts_mirroring(self):
        reg = telemetry.MetricsRegistry(enabled=False)
        with telemetry.use_registry(reg):
            stats = NodeStats(node_id=0)
        stats.txs_committed += 2
        assert reg.get("srbb_node_txs_committed_total") is None
        reg.enable()
        stats.txs_committed += 3
        assert reg.get("srbb_node_txs_committed_total").labels(node="0").value == 3
