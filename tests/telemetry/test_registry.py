"""Counter/Gauge/Histogram semantics, labels, no-op mode, sketch accuracy."""

import math
import random

import pytest

from repro.telemetry import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    get_registry,
    set_registry,
    use_registry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        c = Counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_get_or_create(self):
        c = Counter("txs_total")
        a = c.labels(source="client")
        b = c.labels(source="client")
        assert a is b
        a.inc(3)
        c.labels(source="peer").inc(1)
        assert c.total() == 4
        assert c.value == 0  # parent untouched

    def test_label_order_insensitive(self):
        c = Counter("c_total")
        assert c.labels(a="1", b="2") is c.labels(b="2", a="1")

    def test_reserved_label_rejected(self):
        with pytest.raises(ValueError):
            Counter("c_total").labels(le="5")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0


class TestHistogram:
    def test_observe_accounting(self):
        h = Histogram("h_seconds", buckets=(1.0, 5.0))
        h.observe(0.5)
        h.observe(3.0, weight=2)
        h.observe(100.0)
        assert h.count == 4
        assert h.sum == pytest.approx(0.5 + 6.0 + 100.0)
        assert h.min == 0.5
        assert h.max == 100.0
        assert h.mean == pytest.approx(106.5 / 4)
        assert h.cumulative_buckets() == [(1.0, 1.0), (5.0, 3.0), (math.inf, 4.0)]

    def test_empty(self):
        h = Histogram("h_seconds")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(99) == 0.0

    def test_percentile_within_relative_error(self):
        h = Histogram("h_seconds")
        rng = random.Random(42)
        values = sorted(rng.expovariate(1.0) for _ in range(5000))
        for v in values:
            h.observe(v)
        for q in (50, 90, 99):
            exact = values[int(q / 100 * len(values)) - 1]
            assert h.percentile(q) == pytest.approx(exact, rel=0.05)

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("h_seconds")
        h.observe(2.0)
        assert h.percentile(0) >= 2.0
        assert h.percentile(100) <= 2.0

    def test_weighted_observations(self):
        h = Histogram("h_seconds")
        h.observe(1.0, weight=99)
        h.observe(10.0, weight=1)
        assert h.percentile(50) == pytest.approx(1.0, rel=0.05)

    def test_labeled_children_share_buckets(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        child = h.labels(kind="x")
        assert child.buckets == h.buckets
        child.observe(1.5)
        assert child.count == 1
        assert h.count == 0


class TestQuantileSketch:
    def test_bounded_memory(self):
        sk = QuantileSketch(max_bins=64)
        rng = random.Random(7)
        for _ in range(20_000):
            sk.add(rng.uniform(1e-6, 1e6))
        assert len(sk._bins) <= 64
        assert sk.total_weight == 20_000

    def test_zero_and_negative_values(self):
        sk = QuantileSketch()
        sk.add(0.0)
        sk.add(-5.0)
        sk.add(1.0)
        assert sk.total_weight == 3
        assert sk.quantile(0.1) == 0.0

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert [m.name for m in reg.collect()] == ["a_total", "b_total"]

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("a_total")
        c.inc(5)
        c.labels(k="v").inc(2)
        h = reg.histogram("h_seconds")
        h.observe(1.0)
        reg.reset()
        assert c.value == 0 and c.total() == 0
        assert h.count == 0 and h.min == math.inf
        assert reg.get("a_total") is c

    def test_noop_mode(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("a_total")
        h = reg.histogram("h_seconds")
        c.inc()
        h.observe(1.0)
        assert c.value == 0 and h.count == 0
        reg.enable()
        c.inc()
        h.observe(1.0)
        assert c.value == 1 and h.count == 1

    def test_standalone_metric_always_records(self):
        # registry=None metrics (NodeStats internals) ignore global state.
        c = Counter("standalone_total")
        c.inc()
        assert c.value == 1


class TestGlobalRegistry:
    def test_default_disabled(self):
        assert not get_registry().enabled

    def test_use_registry_scopes_and_restores(self):
        before = get_registry()
        with use_registry() as reg:
            assert get_registry() is reg
            assert reg.enabled
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)

    def test_count_buckets_sorted(self):
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)
