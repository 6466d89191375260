"""Metric containers for the congestion simulator (DIABLO definitions).

* throughput — committed transactions per second as the client observes
  (committed count over the active experiment duration);
* latency — commit time minus client send time, averaged over commits;
* transaction loss — transactions never committed (dropped by a saturated
  pool/validation queue, or still uncommitted at the measurement horizon).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import Histogram


class LatencySample:
    """Weighted latency accumulator (cohorts carry counts, not objects).

    Backed by a standalone telemetry :class:`Histogram`, whose bounded
    DDSketch-style quantile sketch replaces the old per-cohort list — a
    multi-hour run now costs O(bins), not O(commits), for the same
    ``.mean`` / ``.percentile()`` API (percentiles carry ~1 % relative
    error, far below the run-to-run noise of the simulator).

    ``add`` coalesces duplicate values in a small pending dict before
    touching the histogram: tick-engine latencies are quantized to the
    tick length, so most cohorts hit an existing entry and cost one dict
    update instead of a full ``observe``.
    """

    __slots__ = ("_hist", "_pending")

    #: flush threshold — bounds pending-dict memory for continuous-valued
    #: callers (the DIABLO harness) while staying far above the number of
    #: distinct tick-quantized latencies a simulator run produces
    _FLUSH_AT = 8192

    def __init__(self) -> None:
        self._hist = Histogram("latency_sample_seconds")
        self._pending: dict[float, float] = {}

    def add(self, latency: float, weight: float) -> None:
        pending = self._pending
        pending[latency] = pending.get(latency, 0.0) + weight
        if len(pending) >= self._FLUSH_AT:
            self._flush()

    def _flush(self) -> None:
        observe = self._hist.observe
        for value, weight in self._pending.items():
            observe(value, weight)
        self._pending.clear()

    @property
    def total_weight(self) -> float:
        self._flush()
        return self._hist.count

    @property
    def max_latency(self) -> float:
        self._flush()
        return self._hist.max if self._hist.count else 0.0

    @property
    def mean(self) -> float:
        self._flush()
        return self._hist.mean

    def percentile(self, q: float) -> float:
        """Weighted percentile (q in [0, 100]), streaming-estimated."""
        self._flush()
        return self._hist.percentile(q)

    @property
    def histogram(self) -> Histogram:
        """The backing telemetry histogram (for export/inspection)."""
        self._flush()
        return self._hist


@dataclass
class SimResult:
    """Everything one congestion-simulation run reports."""

    chain: str
    workload: str
    sent: int
    committed: int
    dropped_pool: int
    dropped_validation: int
    unfinished: int
    duration_s: float
    avg_latency_s: float
    p99_latency_s: float
    #: streaming latency quantiles (DDSketch-backed, ~1 % relative error) —
    #: the bench harness diffs these without re-running the simulation
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    #: committed per tick, for time-series plots
    commit_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: pool occupancy per tick (congestion evidence)
    pool_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: validation (admission) queue occupancy per tick — where gossiping
    #: chains actually congest (§III-A)
    validation_series: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: per-phase latency stats, phase -> {mean, p50, p99} seconds: where a
    #: committed tx's end-to-end time was spent (validate / pool_wait /
    #: consensus — the tick-engine pipeline stages)
    phase_latency: dict = field(default_factory=dict)
    #: fraction of each production round spent executing taken txs
    #: (exec_time / block_interval, capped at 1) — how execution-bound
    #: the round cadence was
    exec_share: float = 0.0

    @property
    def throughput_tps(self) -> float:
        return self.committed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def commit_rate(self) -> float:
        """Fraction of sent transactions that committed (Fig. 2 bar labels)."""
        return self.committed / self.sent if self.sent else 0.0

    @property
    def lost(self) -> int:
        return self.sent - self.committed

    def summary_row(self) -> dict:
        return {
            "chain": self.chain,
            "workload": self.workload,
            "throughput_tps": round(self.throughput_tps, 2),
            "avg_latency_s": round(self.avg_latency_s, 2),
            "commit_pct": round(100.0 * self.commit_rate, 1),
            "sent": self.sent,
            "committed": self.committed,
            "lost": self.lost,
        }
