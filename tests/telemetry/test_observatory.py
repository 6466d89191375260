"""Congestion samples: the ``obs.sample`` sampler, its schedule, and the
renderers over samples read back from a trace."""

import json
from types import SimpleNamespace

from repro import params, telemetry
from repro.analysis.congestion_report import build_congestion_report
from repro.core.deployment import Deployment
from repro.core.node import AHEAD_WINDOW, RETIRE_WINDOW
from repro.net.topology import single_region_topology
from repro.telemetry.observatory import (
    SAMPLE_INTERVAL_S,
    render_samples_figures,
    render_samples_text,
    sample,
    samples_from_trace,
    start_sampling,
)
from repro.telemetry.trace_event import load_jsonl


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
            # one round still open, one finished (kept within the window)
            _consensus={
                6: SimpleNamespace(finished=True),
                7: SimpleNamespace(finished=False),
            },
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
    return SimpleNamespace(
        sim=sim, validators=nodes, network=network, fault_controller=None
    )


class _Traced:
    """Scope a fresh enabled global tracer."""

    def __enter__(self):
        self.tracer = telemetry.Tracer()
        self._previous = telemetry.set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc):
        telemetry.set_tracer(self._previous)


class TestSampling:
    def test_sample_reads_node_and_net_signals(self):
        with _Traced() as tracer:
            sample(_fake_deployment())
        (record,) = tracer.records
        assert record["name"] == "obs.sample" and record["ts"] == 0.0
        attrs = record["attrs"]
        assert attrs["nodes"][0] == {
            "pool_depth": 3, "pool_age_s": 1.25, "vote_buffer": 2,
            "consensus_open": 1, "crashed": False,
        }
        assert attrs["nodes"][1]["crashed"] is True
        assert attrs["net"]["inflight"] == 4
        assert attrs["net"]["retransmissions"] == 1
        assert attrs["net"]["byzantine_active"] == 0
        (read_back,) = samples_from_trace(tracer.records)
        assert read_back == {"t": 0.0, **attrs}

    def test_install_schedules_and_reschedules(self):
        deployment = _fake_deployment()
        with _Traced() as tracer:
            start_sampling(deployment)
            assert len(deployment.sim.scheduled) == 1
            delay, tick = deployment.sim.scheduled.pop()
            assert delay == 0.0
            tick()  # samples, then schedules the next tick
        assert len(tracer.records) == 1
        assert deployment.sim.scheduled[0][0] == SAMPLE_INTERVAL_S == 1.0

    def test_horizon_stops_rescheduling(self):
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            seed=11,
        )
        with _Traced() as tracer:
            start_sampling(deployment)
            deployment.run_until(2.5)  # the run's horizon ends sampling
        samples = samples_from_trace(tracer.records)
        assert [s["t"] for s in samples] == [0.0, 1.0, 2.0]

    def test_sampling_on_live_deployment_is_pure(self):
        def run(traced):
            deployment = Deployment(
                protocol=params.ProtocolParams(n=4),
                topology=single_region_topology(4),
                seed=11,
            )
            deployment.start()
            if traced:
                start_sampling(deployment)
            deployment.run_until(4.0)
            return deployment

        with _Traced() as tracer:
            traced = run(True)
        plain = run(False)
        samples = samples_from_trace(tracer.records)
        assert len(samples) == 5
        assert all(set(s["nodes"]) == {0, 1, 2, 3} for s in samples)
        # observations only: same chains with and without the sampler
        assert traced.validators[0].stats.superblocks_committed > 3
        assert [v.blockchain.block_hashes() for v in traced.validators] == [
            v.blockchain.block_hashes() for v in plain.validators
        ]

    def test_open_instances_count_unfinished_rounds(self):
        # Finished rounds stay in node._consensus for RETIRE_WINDOW
        # committed indices; a sample counts only the rounds still running,
        # so the sum over nodes is at most n per height in flight, however
        # long the run.
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            seed=11,
        )
        deployment.start()
        n = deployment.protocol.n
        with _Traced() as tracer:
            for second in range(1, 21):
                deployment.run_until(float(second))
                sample(deployment)
                in_flight = {
                    index
                    for node in deployment.validators
                    for index, c in node._consensus.items() if not c.finished
                }
                (last,) = samples_from_trace(tracer.records[-1:])
                open_sum = sum(
                    row["consensus_open"] for row in last["nodes"].values()
                )
                assert open_sum <= n * len(in_flight)
        kept = sum(len(node._consensus) for node in deployment.validators)
        # what len(node._consensus) would read: the window, not the height
        assert 2 * n < kept <= n * (RETIRE_WINDOW + AHEAD_WINDOW + 1)
        assert open_sum <= 2 * n


class TestRendering:
    def _samples(self):
        deployment = _fake_deployment()
        with _Traced() as tracer:
            sample(deployment)
            deployment.sim.now = 1.0
            sample(deployment)
        return samples_from_trace(tracer.records)

    def test_text_report_has_sparkline_rows(self):
        text = render_samples_text(self._samples())
        assert "congestion observatory — 2 samples" in text
        assert "txpool depth" in text
        assert "crashed at some sample: nodes [1]" in text

    def test_crashed_nodes_excluded_from_sums(self):
        text = render_samples_text(self._samples())
        # only node 0 counts: depth 3, not 6
        assert "last=     3.0" in text

    def test_empty_samples(self):
        assert render_samples_text([]) == "observatory: no samples"
        assert "no samples" in render_samples_figures([])

    def test_html_is_self_contained(self):
        records = [
            {"ts": s["t"], "type": "event", "name": "obs.sample",
             "attrs": {"nodes": s["nodes"], "net": s["net"]}}
            for s in self._samples()
        ]
        doc = build_congestion_report(records, html=True, title="t & t")
        assert doc.startswith("<!doctype html>")
        assert "t &amp; t" in doc
        assert "<svg" in doc
        assert "</html>" in doc

    def test_figures_fragment_embeddable(self):
        frag = render_samples_figures(self._samples())
        assert "<figure>" in frag and "<html>" not in frag

    def test_save_roundtrip(self, tmp_path):
        deployment = _fake_deployment()
        with _Traced() as tracer:
            sample(deployment)
            deployment.sim.now = 1.0
            sample(deployment)
        path = tmp_path / "trace.jsonl"
        tracer.dump(str(path))
        samples = samples_from_trace(load_jsonl(str(path)))
        assert len(samples) == 2
        assert samples[0]["net"] == tracer.records[0]["attrs"]["net"]
        # JSON stringifies node-id keys; the renderers only read values
        assert set(samples[0]["nodes"]) == {"0", "1"}
        assert "txpool depth" in render_samples_text(samples)
        assert json.loads(path.read_text().splitlines()[1])["ts"] == 1.0
