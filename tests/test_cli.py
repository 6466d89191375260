"""CLI smoke tests (fast subcommands only; heavy ones covered by benches)."""

import pytest

from repro.bench import scenario_names
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_chain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "bitcoin", "uber"])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("figure2", "figure3", "table1", "headline", "fig1",
                        "simulate", "saturate", "traces"):
            args = {a.dest for a in parser._subparsers._actions if a.dest == "command"}
            assert args  # subparsers exist
        # parseable examples
        parser.parse_args(["simulate", "srbb", "fifa", "--scale", "0.5"])
        parser.parse_args(["table1", "--scale", "0.1"])
        parser.parse_args(["bench", "run", "tvpr_ablation", "--out-dir", "/tmp"])
        parser.parse_args(["bench", "list"])
        parser.parse_args(["metrics-diff", "a.json", "b.json", "--max-rows", "5"])

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestExecution:
    def test_traces(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        assert "nasdaq" in out and "burstiness" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "srbb", "uber", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "throughput_tps" in out

    def test_fig1_small(self, capsys):
        assert main(["fig1", "--n", "4", "--txs", "4"]) == 0
        out = capsys.readouterr().out
        assert "tvpr" in out and "modern" in out

    def test_watch(self, capsys):
        assert main(["watch", "srbb", "uber", "--scale", "0.2", "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "commits/s" in out and "pool" in out

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()]
        assert names == scenario_names() and len(names) == 12

    def test_bench_run_and_metrics_diff(self, tmp_path, capsys):
        assert main(["bench", "run", "tvpr_ablation",
                     "--out-dir", str(tmp_path)]) == 0
        artifact = tmp_path / "BENCH_tvpr_ablation.json"
        assert artifact.exists()
        # identical artifacts gate clean (exit 0)
        assert main(["metrics-diff", str(artifact), str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "no thresholded metric regressed" in out

    def test_metrics_diff_flags_regression(self, tmp_path, capsys):
        import json

        main(["bench", "run", "tvpr_ablation", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        artifact = tmp_path / "BENCH_tvpr_ablation.json"
        doc = json.loads(artifact.read_text())
        doc["headline"]["srbb_throughput_tps"] *= 0.5
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(doc))
        assert main(["metrics-diff", str(artifact), str(worse)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "srbb_throughput_tps" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--skip-table1", "-o", str(target)]) == 0
        text = target.read_text()
        assert "# SRBB reproduction" in text
        assert "## Table I" not in text


class TestProfileCommand:
    def test_parseable(self):
        parser = build_parser()
        parser.parse_args(["profile", "simulate", "srbb", "fifa",
                           "--scale", "0.01", "--out-dir", "/tmp"])
        parser.parse_args(["profile", "dapp", "nasdaq", "--scale", "0.002",
                           "--memory", "--top", "5"])
        parser.parse_args(["profile", "scenario", "tvpr_ablation"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])  # target required

    def test_profile_simulate_writes_artifacts(self, tmp_path, capsys):
        import re

        rc = main(["profile", "simulate", "srbb", "nasdaq", "--memory",
                   "--scale", "0.001", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == [
            "PROFILE_simulate_srbb_nasdaq.collapsed"
        ]
        text = (tmp_path / "PROFILE_simulate_srbb_nasdaq.collapsed").read_text()
        for line in text.splitlines():
            assert re.fullmatch(r"\S+ \d+", line), line
        out = capsys.readouterr().out
        assert "throughput_tps" in out  # the target's own output
        assert "repro/ module" in out and "leaf function" in out
        assert "allocation site" in out and "peak RSS" in out

    def test_profile_out_dir_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        rc = main(["profile", "simulate", "srbb", "nasdaq",
                   "--scale", "0.001", "--out-dir", str(nested)])
        assert rc == 0
        assert (nested / "PROFILE_simulate_srbb_nasdaq.collapsed").exists()

    def test_sampler_state_is_restored(self, tmp_path):
        import signal

        def before(signum, frame):
            pass

        previous = signal.signal(signal.SIGPROF, before)
        try:
            assert main(["profile", "simulate", "srbb", "nasdaq",
                         "--scale", "0.001", "--out-dir", str(tmp_path)]) == 0
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is before
            # ...and when the profiled target raises
            with pytest.raises(KeyError):
                main(["profile", "scenario", "no_such_scenario",
                      "--out-dir", str(tmp_path)])
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is before
        finally:
            signal.signal(signal.SIGPROF, previous)

    def test_unwritable_out_dir_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rc = main(["profile", "simulate", "srbb", "nasdaq",
                   "--scale", "0.001",
                   "--out-dir", str(blocker / "sub")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repro: cannot write" in err


class TestOutputPaths:
    def test_report_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "report.md"
        assert main(["report", "--skip-table1", "-o", str(target)]) == 0
        assert "# SRBB reproduction" in target.read_text()

    def test_report_unwritable_path_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["report", "--skip-table1",
                   "-o", str(blocker / "report.md")])
        assert rc == 1
        assert "repro: cannot write" in capsys.readouterr().err

    def test_telemetry_out_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "made" / "metrics.json"
        assert main(["traces", "--metrics-out", str(target)]) == 0
        assert target.exists()
