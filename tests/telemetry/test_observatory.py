"""Congestion observatory: sampling, scheduling, gauges, rendering."""

import json
from types import SimpleNamespace

from repro import params, telemetry
from repro.core.deployment import Deployment
from repro.net.topology import single_region_topology
from repro.telemetry import CongestionObservatory
from repro.telemetry.observatory import (
    render_samples_figures,
    render_samples_html,
    render_samples_text,
)

import pytest


def _fake_deployment(n=2):
    """Structural stand-in: just the attributes sample() reads."""
    class Pool:
        def __init__(self):
            self.depth = 3

        def __len__(self):
            return self.depth

        def oldest_age(self, now):
            return 1.25

    nodes = [
        SimpleNamespace(
            node_id=i,
            pool=Pool(),
            vote_batcher=SimpleNamespace(pending=2),
            _consensus={7: object()},
            crashed=(i == 1),
        )
        for i in range(n)
    ]
    sim = SimpleNamespace(now=0.0, scheduled=[])
    sim.schedule = lambda delay, fn, *a: sim.scheduled.append((delay, fn))
    network = SimpleNamespace(
        inflight=lambda: 4,
        stats=SimpleNamespace(
            messages=10, bytes=1000, retransmissions=1, dropped=0
        ),
    )
    return SimpleNamespace(sim=sim, validators=nodes, network=network)


class TestSampling:
    def test_sample_reads_node_and_net_signals(self):
        obs = CongestionObservatory(_fake_deployment())
        sample = obs.sample()
        assert sample["t"] == 0.0
        assert sample["nodes"][0] == {
            "pool_depth": 3, "pool_age_s": 1.25, "vote_buffer": 2,
            "consensus_open": 1, "crashed": False,
        }
        assert sample["nodes"][1]["crashed"] is True
        assert sample["net"]["inflight"] == 4
        assert sample["net"]["retransmissions"] == 1
        assert obs.samples == [sample]

    def test_install_schedules_and_reschedules(self):
        deployment = _fake_deployment()
        obs = CongestionObservatory(deployment, interval_s=0.5).install()
        obs.install()  # idempotent
        assert len(deployment.sim.scheduled) == 1
        delay, tick = deployment.sim.scheduled.pop()
        assert delay == 0.0
        tick()  # samples, then schedules the next tick
        assert len(obs.samples) == 1
        assert deployment.sim.scheduled[0][0] == 0.5

    def test_horizon_stops_rescheduling(self):
        deployment = _fake_deployment()
        obs = CongestionObservatory(
            deployment, interval_s=1.0, horizon_s=0.5
        ).install()
        _, tick = deployment.sim.scheduled.pop()
        tick()
        assert deployment.sim.scheduled == []  # past horizon: no next tick

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            CongestionObservatory(_fake_deployment(), interval_s=0.0)

    def test_gauges_updated_when_registry_enabled(self):
        with telemetry.use_registry() as registry:
            CongestionObservatory(_fake_deployment()).sample()
            dump = telemetry.to_json(registry)
        assert "srbb_obs_pool_depth" in dump
        assert "srbb_obs_net_inflight" in dump
        (sample,) = dump["srbb_obs_net_inflight"]["samples"]
        assert sample["value"] == 4

    def test_sampling_on_live_deployment_is_pure(self):
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            seed=11,
        )
        obs = CongestionObservatory(deployment, interval_s=0.5).install()
        deployment.run_until(2.0)
        assert len(obs.samples) >= 4
        assert all(set(s["nodes"]) == {0, 1, 2, 3} for s in obs.samples)
        # observations only: times strictly increasing on the sim clock
        times = [s["t"] for s in obs.samples]
        assert times == sorted(times)


class TestRendering:
    def _samples(self):
        obs = CongestionObservatory(_fake_deployment())
        obs.sample()
        obs.deployment.sim.now = 1.0
        obs.sample()
        return obs

    def test_text_report_has_sparkline_rows(self):
        text = self._samples().render_text()
        assert "congestion observatory — 2 samples" in text
        assert "txpool depth" in text
        assert "crashed at some sample: nodes [1]" in text

    def test_crashed_nodes_excluded_from_sums(self):
        obs = self._samples()
        text = render_samples_text(obs.samples)
        # only node 0 counts: depth 3, not 6
        assert "last=     3.0" in text

    def test_empty_samples(self):
        assert render_samples_text([]) == "observatory: no samples"
        assert "no samples" in render_samples_html([])

    def test_html_is_self_contained(self):
        doc = self._samples().render_html(title="t & t")
        assert doc.startswith("<!doctype html>")
        assert "t &amp; t" in doc
        assert "<svg" in doc
        assert "</html>" in doc

    def test_figures_fragment_embeddable(self):
        frag = render_samples_figures(self._samples().samples)
        assert "<figure>" in frag and "<html>" not in frag

    def test_save_roundtrip(self, tmp_path):
        obs = self._samples()
        path = tmp_path / "obs.json"
        obs.save(str(path))
        doc = json.loads(path.read_text())
        assert doc["interval_s"] == 1.0
        assert len(doc["samples"]) == 2
        assert doc["samples"][0]["net"] == obs.samples[0]["net"]
        # JSON stringifies node-id keys; the renderers only read values
        assert set(doc["samples"][0]["nodes"]) == {"0", "1"}
        assert "txpool depth" in render_samples_text(doc["samples"])
