"""Prometheus/JSON export and the round-trip parser."""

import json
import math

import pytest

from repro.telemetry import (
    MetricsRegistry,
    parse_prometheus,
    to_json,
    to_prometheus,
    use_registry,
    write_metrics,
)


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("srbb_txs_total", "transactions seen")
    c.labels(source="client").inc(7)
    c.labels(source="peer").inc(3)
    reg.gauge("srbb_pool_size", "pool occupancy").set(42)
    h = reg.histogram("srbb_latency_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5, weight=2)
    h.observe(30.0)
    return reg


class TestPrometheus:
    def test_headers_and_samples(self):
        text = to_prometheus(_populated_registry())
        assert "# HELP srbb_txs_total transactions seen" in text
        assert "# TYPE srbb_txs_total counter" in text
        assert 'srbb_txs_total{source="client"} 7' in text
        assert 'srbb_txs_total{source="peer"} 3' in text
        assert "srbb_pool_size 42" in text
        assert "# TYPE srbb_latency_seconds histogram" in text
        assert 'srbb_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'srbb_latency_seconds_bucket{le="1"} 3' in text
        assert 'srbb_latency_seconds_bucket{le="+Inf"} 4' in text
        assert "srbb_latency_seconds_count 4" in text

    def test_round_trip(self):
        reg = _populated_registry()
        samples = parse_prometheus(to_prometheus(reg))
        assert samples[("srbb_txs_total", (("source", "client"),))] == 7
        assert samples[("srbb_pool_size", ())] == 42
        assert samples[("srbb_latency_seconds_count", ())] == 4
        assert samples[("srbb_latency_seconds_sum", ())] == pytest.approx(31.05)
        assert samples[("srbb_latency_seconds_bucket", (("le", "+Inf"),))] == 4

    def test_label_escaping_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c_total").labels(err='bad "quote"').inc()
        samples = parse_prometheus(to_prometheus(reg))
        assert samples[("c_total", (("err", 'bad "quote"'),))] == 1

    def test_hostile_label_values_round_trip(self):
        hostile = {
            "quotes": 'she said "hi"',
            "backslash": r"C:\temp\new",
            "newline": "line1\nline2",
            "mixed": 'a\\"b\nc',
        }
        reg = MetricsRegistry()
        for key, value in hostile.items():
            reg.counter(f"{key}_total").labels(v=value).inc()
        samples = parse_prometheus(to_prometheus(reg))
        for key, value in hostile.items():
            assert samples[(f"{key}_total", (("v", value),))] == 1

    def test_label_names_sanitized_to_legal_charset(self):
        # names can't be quoted in exposition format, so they get mapped
        reg = MetricsRegistry()
        reg.counter("c_total").labels(**{"src.region": "x"}).inc()
        text = to_prometheus(reg)
        assert 'src_region="x"' in text
        assert "src.region" not in text

    def test_digit_leading_label_name_prefixed(self):
        reg = MetricsRegistry()
        reg.counter("c_total").labels(**{"0bad": "x"}).inc()
        assert '_0bad="x"' in to_prometheus(reg)

    def test_duplicate_label_names_after_sanitization_rejected(self):
        reg = MetricsRegistry()
        reg.counter("c_total").labels(**{"a.b": "x", "a_b": "y"}).inc()
        with pytest.raises(ValueError, match="duplicate label name"):
            to_prometheus(reg)

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("no-value-here")
        with pytest.raises(ValueError):
            parse_prometheus('c_total{unclosed="x" 5')

    def test_parser_skips_comments_and_blanks(self):
        assert parse_prometheus("# HELP x y\n\n# TYPE x counter\n") == {}

    def test_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestJson:
    def test_snapshot_shape(self):
        snap = to_json(_populated_registry())
        txs = snap["srbb_txs_total"]
        assert txs["type"] == "counter"
        by_label = {s["labels"].get("source"): s["value"] for s in txs["samples"]}
        assert by_label == {"client": 7.0, "peer": 3.0}
        hist = snap["srbb_latency_seconds"]["samples"][0]
        assert hist["count"] == 4
        assert hist["min"] == 0.05 and hist["max"] == 30.0
        assert hist["p50"] <= hist["p99"] <= 30.0
        assert hist["buckets"][-1]["le"] == "+Inf"

    def test_serializable(self):
        json.dumps(to_json(_populated_registry()))

    def test_empty_histogram_reports_null_extrema(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds")
        sample = to_json(reg)["h_seconds"]["samples"][0]
        assert sample["min"] is None and sample["max"] is None


class TestWriteMetrics:
    def test_prometheus_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_metrics(str(path), _populated_registry())
        assert parse_prometheus(path.read_text())[("srbb_pool_size", ())] == 42

    def test_json_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(str(path), _populated_registry())
        assert json.loads(path.read_text())["srbb_pool_size"]["samples"][0]["value"] == 42

    def test_defaults_to_global_registry(self, tmp_path):
        path = tmp_path / "metrics.prom"
        with use_registry() as reg:
            reg.counter("global_total").inc(9)
            write_metrics(str(path))
        assert parse_prometheus(path.read_text())[("global_total", ())] == 9
