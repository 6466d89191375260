"""Trace statistics."""

import pytest

from repro.workloads import constant_trace, nasdaq_trace
from repro.workloads.replay import trace_stats


class TestStats:
    def test_constant_trace_stats(self):
        stats = trace_stats(constant_trace(100, 10))
        assert stats.avg_tps == 100
        assert stats.peak_tps == 100
        assert stats.burstiness == pytest.approx(1.0)
        assert stats.cv == pytest.approx(0.0)

    def test_nasdaq_burstiness_over_100(self):
        stats = trace_stats(nasdaq_trace())
        assert stats.burstiness > 100  # 19800 / 168

    def test_row_serializable(self):
        row = trace_stats(constant_trace(10, 3)).as_row()
        assert row["total"] == 30
        assert "burstiness" in row
