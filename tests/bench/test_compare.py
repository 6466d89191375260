"""Flattening, direction-aware thresholds, diff statuses, exit codes."""

import json

import pytest

from repro.bench import (
    ARTIFACT_SCHEMA,
    Threshold,
    compare_files,
    diff_docs,
    flatten_doc,
    render_comparison,
)
from repro.telemetry import MetricsRegistry, to_json, to_prometheus


def _snapshot() -> dict:
    reg = MetricsRegistry()
    reg.counter("srbb_sim_txs_committed_total", "committed").inc(1000)
    reg.counter("srbb_net_messages_total").labels(
        kind="consensus", src_region="sydney", dst_region="oregon"
    ).inc(50)
    h = reg.histogram("srbb_sim_commit_latency_seconds", buckets=(0.1, 1.0))
    for _ in range(10):
        h.observe(0.5)
    return to_json(reg)


def _artifact_doc(headline=None, metrics=None) -> dict:
    return {
        "schema": ARTIFACT_SCHEMA,
        "scenario": "demo",
        "description": "",
        "seed": 1,
        "env": {"python": "3", "platform": "x", "host": "h",
                "created_utc": "t", "wall_time_s": 0.1, "git_sha": None},
        "headline": headline if headline is not None else {"throughput_tps": 100.0},
        "metrics": metrics if metrics is not None else {},
    }


class TestFlatten:
    def test_snapshot_scalars_and_histograms(self):
        flat = flatten_doc(_snapshot())
        assert flat["srbb_sim_txs_committed_total"] == 1000
        key = ('srbb_net_messages_total{dst_region="oregon",kind="consensus",'
               'src_region="sydney"}')
        assert flat[key] == 50
        assert flat["srbb_sim_commit_latency_seconds:count"] == 10
        assert flat["srbb_sim_commit_latency_seconds:p50"] == pytest.approx(0.5, rel=0.05)

    def test_artifact_headline_prefixed(self):
        flat = flatten_doc(_artifact_doc())
        assert flat["headline:throughput_tps"] == 100.0

    def test_prometheus_text_accepted(self):
        reg = MetricsRegistry()
        reg.counter("srbb_sim_txs_sent_total").inc(7)
        flat = flatten_doc(to_prometheus(reg))
        assert flat["srbb_sim_txs_sent_total"] == 7

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            flatten_doc(42)


class TestThreshold:
    def test_higher_is_better_drop_regresses(self):
        t = Threshold("*", "higher", 5.0)
        assert t.is_regression(100.0, 90.0)
        assert not t.is_regression(100.0, 96.0)
        assert not t.is_regression(100.0, 120.0)

    def test_lower_is_better_growth_regresses(self):
        t = Threshold("*", "lower", 10.0)
        assert t.is_regression(100.0, 120.0)
        assert not t.is_regression(100.0, 105.0)
        assert not t.is_regression(100.0, 50.0)

    def test_abs_slack_protects_near_zero(self):
        t = Threshold("*", "lower", 10.0, abs_slack=5.0)
        assert not t.is_regression(0.0, 4.0)
        assert t.is_regression(0.0, 6.0)

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            Threshold("*", "sideways", 5.0)


class TestDiff:
    def test_identical_docs_ok(self):
        result = diff_docs(_snapshot(), _snapshot())
        assert result.ok
        assert all(d.status in ("ok", "info") for d in result.deltas)

    def test_throughput_drop_is_regression(self):
        old = _artifact_doc({"throughput_tps": 100.0})
        new = _artifact_doc({"throughput_tps": 80.0})
        result = diff_docs(old, new)
        assert not result.ok
        (reg,) = result.regressions
        assert reg.key == "headline:throughput_tps"

    def test_latency_growth_is_regression_and_drop_improves(self):
        old = _artifact_doc({"p99_latency_s": 10.0})
        new = _artifact_doc({"p99_latency_s": 20.0})
        assert not diff_docs(old, new).ok
        back = diff_docs(new, old)
        assert back.ok
        assert any(d.status == "improved" for d in back.deltas)

    def test_message_count_growth_is_regression(self):
        old = _artifact_doc({"net_messages_total": 1000.0})
        new = _artifact_doc({"net_messages_total": 1500.0})
        assert not diff_docs(old, new).ok

    def test_latency_histogram_count_growth_not_gated(self):
        # more observations in the latency histogram = more commits: good
        reg_a = MetricsRegistry()
        h = reg_a.histogram("srbb_sim_commit_latency_seconds", buckets=(1.0,))
        h.observe(0.5)
        reg_b = MetricsRegistry()
        h = reg_b.histogram("srbb_sim_commit_latency_seconds", buckets=(1.0,))
        for _ in range(100):
            h.observe(0.5)
        assert diff_docs(to_json(reg_a), to_json(reg_b)).ok

    def test_wall_clock_metrics_never_gated(self):
        old = _artifact_doc(
            {"wall_s_n8": 1.0, "events_per_sec_n8": 9e4, "peak_rss_mb": 80.0}
        )
        new = _artifact_doc(
            {"wall_s_n8": 9.0, "events_per_sec_n8": 1e4, "peak_rss_mb": 900.0}
        )
        result = diff_docs(old, new)
        assert result.ok
        assert all(d.threshold is None for d in result.deltas)

    def test_added_and_removed_metrics_reported(self):
        result = diff_docs(
            _artifact_doc({"only_old": 1.0}), _artifact_doc({"only_new": 2.0})
        )
        statuses = {d.key: d.status for d in result.deltas}
        assert statuses["headline:only_old"] == "removed"
        assert statuses["headline:only_new"] == "added"


class TestLatencyBreakdownGates:
    def test_losing_execute_dominance_regresses(self):
        old = _artifact_doc({"latency_breakdown:dominant_execute": 1.0})
        new = _artifact_doc({"latency_breakdown:dominant_execute": 0.0})
        result = diff_docs(old, new)
        assert [d.key for d in result.regressions] == [
            "headline:latency_breakdown:dominant_execute"
        ]

    def test_bucket_p99_growth_regresses_drop_improves(self):
        old = _artifact_doc({"latency_breakdown:execute_p99_s": 2.0})
        worse = _artifact_doc({"latency_breakdown:execute_p99_s": 2.6})
        better = _artifact_doc({"latency_breakdown:execute_p99_s": 1.0})
        assert not diff_docs(old, worse).ok
        result = diff_docs(old, better)
        assert result.ok
        assert result.deltas[0].status == "improved"

    def test_exec_share_is_informational(self):
        old = _artifact_doc({"latency_breakdown:exec_share": 0.2})
        new = _artifact_doc({"latency_breakdown:exec_share": 0.9})
        (delta,) = diff_docs(old, new).deltas
        assert delta.status == "info"

    def test_tiny_absolute_jitter_absorbed_by_slack(self):
        old = _artifact_doc({"latency_breakdown:admit_p50_s": 0.01})
        new = _artifact_doc({"latency_breakdown:admit_p50_s": 0.05})
        assert diff_docs(old, new).ok  # +400% but under 0.1s abs slack

    def test_sim_phase_keys_gated(self):
        old = _artifact_doc({"srbb_phase_pool_wait_p99_s": 1.0})
        new = _artifact_doc({"srbb_phase_pool_wait_p99_s": 2.0})
        assert not diff_docs(old, new).ok


class TestRender:
    def test_regression_named_in_output(self):
        old = _artifact_doc({"throughput_tps": 100.0})
        new = _artifact_doc({"throughput_tps": 50.0})
        text = render_comparison(diff_docs(old, new))
        assert "REGRESSION" in text
        assert "headline:throughput_tps" in text
        assert "-50.0%" in text

    def test_ok_summary_when_clean(self):
        text = render_comparison(diff_docs(_snapshot(), _snapshot()))
        assert "no thresholded metric regressed" in text

    def test_truncates_to_max_rows(self):
        headline = {f"metric_{i:03d}": float(i) for i in range(60)}
        bumped = {k: v + 1.0 for k, v in headline.items()}
        text = render_comparison(
            diff_docs(_artifact_doc(headline), _artifact_doc(bumped)), max_rows=10
        )
        assert "more changed metrics" in text


class TestCompareFiles:
    def test_exit_codes_and_prometheus_input(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("srbb_sim_txs_committed_total").inc(100)
        good = tmp_path / "good.prom"
        good.write_text(to_prometheus(reg))
        reg2 = MetricsRegistry()
        reg2.counter("srbb_sim_txs_committed_total").inc(50)
        bad = tmp_path / "bad.prom"
        bad.write_text(to_prometheus(reg2))

        text, rc = compare_files(str(good), str(good))
        assert rc == 0
        text, rc = compare_files(str(good), str(bad))
        assert rc == 1 and "srbb_sim_txs_committed_total" in text

    def test_json_artifact_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_artifact_doc({"throughput_tps": 10.0})))
        b.write_text(json.dumps(_artifact_doc({"throughput_tps": 10.0})))
        _, rc = compare_files(str(a), str(b))
        assert rc == 0
