"""CLI --metrics-out / --trace-out / observability-output plumbing."""

import json

from repro import telemetry
from repro.cli import main
from repro.telemetry import lifecycle, validate_trace_event


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
        assert doc["otherData"]["flows"] > 0  # lifecycle fed flow arrows

    def test_lifecycle_out_records_phases(self, tmp_path):
        path = tmp_path / "lc.json"
        rc = main(_DAPP + ["--lifecycle-out", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["phases"] == list(lifecycle.PHASES)
        assert doc["records"], "no transactions were lifecycle-tracked"
        assert all("commit" in r["stamps"] for r in doc["records"][:5])

    def test_lifecycle_recorder_disabled_again_after_run(self, tmp_path):
        main(_DAPP + ["--lifecycle-out", str(tmp_path / "lc.json")])
        assert not lifecycle.enabled()

    def test_trace_out_streams_when_trace_event_not_requested(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rc = main(_DAPP + ["--trace-out", str(path)])
        assert rc == 0
        assert telemetry.get_tracer().stream_path is None  # closed again
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(r["name"] == "node.commit" for r in records)

    def test_observatory_out_and_report_rendering(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        lc = tmp_path / "lc.json"
        trace = tmp_path / "trace.jsonl"
        rc = main(_DAPP + [
            "--observatory-out", str(obs), "--lifecycle-out", str(lc),
            "--trace-out", str(trace),
        ])
        assert rc == 0
        assert json.loads(obs.read_text())["samples"]
        capsys.readouterr()

        assert main(["report", "--observatory", str(obs),
                     "--lifecycle", str(lc), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "congestion observatory" in out
        # the trace's part in the report: exec_share from its commit events
        from repro.telemetry.critical_path import exec_share_from_trace
        from repro.telemetry.trace_event import load_jsonl

        share = exec_share_from_trace(load_jsonl(str(trace))) or 0.0
        assert f"exec_share={share:.2f}" in out

        html = tmp_path / "report.html"
        assert main(["report", "--lifecycle", str(lc),
                     "-o", str(html)]) == 0
        assert "<svg" in html.read_text() or "critical path" in html.read_text()
