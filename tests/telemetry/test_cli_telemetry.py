"""CLI --metrics-out / --trace-out / observability-output plumbing."""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.telemetry import validate_trace_event


class TestMetricsOut:
    def test_simulate_writes_parseable_prometheus(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        rc = main(
            ["simulate", "srbb", "uber", "--scale", "0.2",
             "--metrics-out", str(path)]
        )
        assert rc == 0
        samples = telemetry.parse_prometheus(path.read_text())
        committed = int(samples[("srbb_sim_txs_committed_total", ())])
        # exported counter reconciles with the committed count the CLI printed
        assert str(committed) in capsys.readouterr().out

    def test_json_suffix_switches_format(self, tmp_path):
        path = tmp_path / "metrics.json"
        rc = main(
            ["simulate", "srbb", "uber", "--scale", "0.2",
             "--metrics-out", str(path)]
        )
        assert rc == 0
        snap = json.loads(path.read_text())
        assert snap["srbb_sim_txs_sent_total"]["type"] == "counter"

    def test_trace_out_writes_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rc = main(
            ["simulate", "srbb", "uber", "--scale", "0.2",
             "--trace-out", str(path)]
        )
        assert rc == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["name"] == "sim.run" for r in records)

    def test_telemetry_disabled_again_after_run(self, tmp_path):
        main(["simulate", "srbb", "uber", "--scale", "0.2",
              "--metrics-out", str(tmp_path / "m.prom")])
        assert not telemetry.get_registry().enabled
        assert not telemetry.get_tracer().enabled

    def test_plain_run_never_enables_telemetry(self):
        assert main(["traces"]) == 0
        assert not telemetry.get_registry().enabled

    def test_verbose_flag_accepted(self):
        assert main(["traces", "-v"]) == 0
        assert main(["traces", "-vv"]) == 0


_DAPP = ["dapp", "nasdaq", "--scale", "0.002", "--n", "4"]


class TestObservabilityOuts:
    def test_trace_event_out_is_valid_and_has_flows(self, tmp_path):
        path = tmp_path / "te.json"
        rc = main(_DAPP + ["--trace-event-out", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert validate_trace_event(doc) == []
        assert doc["otherData"]["flows"] > 0  # tx.* events fed flow arrows

    def test_trace_out_records_tx_phases(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rc = main(_DAPP + ["--trace-out", str(path)])
        assert rc == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        stamps = [r for r in records if r["name"].startswith("tx.")]
        assert {r["name"] for r in stamps} >= {
            "tx.submit", "tx.pool", "tx.propose", "tx.rbc", "tx.decide",
            "tx.commit",
        }
        for record in stamps:
            attrs = record["attrs"]
            assert isinstance(attrs["node"], int)
            # hashes are hex strings, not str(bytes)
            assert all(bytes.fromhex(tx) for tx in attrs["txs"])
        for record in stamps:
            if record["name"] == "tx.commit":
                attrs = record["attrs"]
                assert len(attrs["commit_times"]) == len(attrs["txs"])
                assert "index" in attrs
        samples = [r for r in records if r["name"] == "obs.sample"]
        assert [r["ts"] for r in samples[:3]] == [0.0, 1.0, 2.0]

    def test_lifecycle_recorder_disabled_again_after_run(self, tmp_path):
        # lifecycle stamps are tracer events: off again once the run ends
        main(_DAPP + ["--trace-out", str(tmp_path / "t.jsonl")])
        tracer = telemetry.get_tracer()
        assert not tracer.enabled
        assert tracer._stream_path is None

    def test_removed_side_recorder_flags_rejected(self, tmp_path):
        for flag in ("--lifecycle-out", "--observatory-out"):
            with pytest.raises(SystemExit):
                main(_DAPP + [flag, str(tmp_path / "x.json")])
        with pytest.raises(SystemExit):
            main(["report", "--lifecycle", str(tmp_path / "lc.json")])

    def test_trace_out_streams_when_trace_event_not_requested(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rc = main(_DAPP + ["--trace-out", str(path)])
        assert rc == 0
        assert telemetry.get_tracer()._stream_path is None  # closed again
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["name"] == "node.commit" for r in records)

    def test_report_renders_one_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(_DAPP + ["--trace-out", str(trace)])
        assert rc == 0
        capsys.readouterr()

        assert main(["report", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path — 42/42 txs committed" in out
        assert "congestion observatory — 141 samples" in out
        # exec_share from the same trace's commit events
        from repro.telemetry.critical_path import exec_share_from_trace
        from repro.telemetry.trace_event import load_jsonl

        share = exec_share_from_trace(load_jsonl(str(trace))) or 0.0
        assert f"exec_share={share:.2f}" in out

        html = tmp_path / "report.html"
        assert main(["report", "--trace", str(trace), "-o", str(html)]) == 0
        page = html.read_text()
        assert "<h2>critical path</h2>" in page
        assert "<h2>congestion observatory</h2>" in page
        assert "<svg" in page


class TestPerInvocationCounts:
    def test_second_dump_counts_only_its_own_run(self, tmp_path, monkeypatch):
        # Two runs in one process: each --metrics-out dump must reconcile
        # with its own run's nodes, not carry the first run's counts.
        from repro.diablo import runner

        outcomes = []
        run = runner.run_dapp_workload

        def keep(*args, **kwargs):
            outcomes.append(run(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(runner, "run_dapp_workload", keep)
        for attempt in range(2):
            path = tmp_path / f"m{attempt}.prom"
            assert main(_DAPP + ["--metrics-out", str(path)]) == 0
            samples = telemetry.parse_prometheus(path.read_text())
            for node in outcomes[attempt].deployment.validators:
                committed = node.blockchain.committed_count()
                assert committed > 0
                assert node.stats.txs_committed == committed
                label = (("node", str(node.node_id)),)
                assert samples[("srbb_node_txs_committed_total", label)] == committed

    def test_metrics_out_alone_leaves_no_trace(self, tmp_path):
        """--metrics-out asks for no trace: the global tracer is left off
        and empty, and a run that writes a trace leaves no record behind
        either."""
        tracer = telemetry.get_tracer()
        assert main(_DAPP + ["--metrics-out", str(tmp_path / "m.prom")]) == 0
        assert not tracer.enabled and tracer.records == []
        trace = tmp_path / "t.jsonl"
        assert main(_DAPP + ["--trace-out", str(trace),
                             "--trace-event-out", str(tmp_path / "t.json")]) == 0
        assert trace.read_text() and tracer.records == []
        assert not tracer.enabled
