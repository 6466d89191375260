"""Time-series extraction and sparklines."""

import numpy as np

from repro.analysis.timeseries import congestion_series, sparkline
from repro.sim.chains import SRBB
from repro.workloads import burst_trace, constant_trace


class TestSparkline:
    def test_empty(self):
        assert sparkline(np.zeros(0)) == ""

    def test_flat_zero(self):
        assert sparkline(np.zeros(5)) == "▁▁▁▁▁"

    def test_monotone_shape(self):
        line = sparkline(np.array([0, 1, 2, 3, 4, 5, 6, 7], dtype=float))
        assert line[0] == "▁" and line[-1] == "█"

    def test_resamples_to_width(self):
        line = sparkline(np.arange(1000, dtype=float), width=40)
        assert len(line) == 40


class TestCongestionSeries:
    def test_light_load_series(self):
        result, series = congestion_series(SRBB, constant_trace(100, 20), grace_s=20)
        assert series.commits_per_s.sum() == result.committed
        assert series.congestion_onset_s(threshold=10_000) is None

    def test_burst_creates_pool_spike(self):
        trace = burst_trace(50, 8000, 30, burst_at=5)
        result, series = congestion_series(SRBB, trace, grace_s=60)
        onset = series.congestion_onset_s(threshold=1000.0)
        assert onset is not None
        assert 4 <= onset <= 7  # the burst second

    def test_render_contains_both_rows(self):
        _, series = congestion_series(SRBB, constant_trace(50, 10), grace_s=10)
        text = series.render()
        assert "commits/s" in text and "pool" in text
        assert "srbb" in text

