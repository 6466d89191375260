"""Congestion time series: commit rate and pool occupancy over time.

Turns the per-tick series the congestion simulator records into
presentation-ready data — per-second resampling, peak/onset detection and
terminal sparklines (the text-mode stand-in for the paper's figures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.chains import ChainModel
from repro.sim.engine import DT, simulate_chain
from repro.sim.metrics import SimResult
from repro.workloads.trace import Trace

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: np.ndarray, *, width: int = 60) -> str:
    """Render a series as a unicode sparkline of at most ``width`` chars."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    if values.size > width:
        # resample by averaging whole buckets
        edges = np.linspace(0, values.size, width + 1).astype(int)
        values = np.array([
            values[a:b].mean() if b > a else 0.0
            for a, b in zip(edges[:-1], edges[1:])
        ])
    top = values.max()
    if top <= 0:
        return _SPARK_LEVELS[0] * len(values)
    scaled = np.minimum(
        (values / top * (len(_SPARK_LEVELS) - 1)).round().astype(int),
        len(_SPARK_LEVELS) - 1,
    )
    return "".join(_SPARK_LEVELS[i] for i in scaled)


@dataclass
class CongestionSeries:
    """Per-second views of one simulation run."""

    chain: str
    workload: str
    commits_per_s: np.ndarray
    pool_occupancy: np.ndarray  # sampled at second boundaries
    admission_backlog: np.ndarray = None  # validation-queue occupancy

    @property
    def peak_pool(self) -> float:
        return float(self.pool_occupancy.max()) if self.pool_occupancy.size else 0.0

    def congestion_onset_s(self, *, threshold: float = 1000.0) -> float | None:
        """First second any backlog (pool OR admission queue) crosses
        ``threshold`` — gossiping chains congest at admission, SRBB-style
        chains at the pool."""
        series = self.pool_occupancy
        if self.admission_backlog is not None and self.admission_backlog.size:
            n = min(len(series), len(self.admission_backlog))
            series = np.maximum(series[:n], self.admission_backlog[:n])
        above = np.nonzero(series > threshold)[0]
        return float(above[0]) if above.size else None

    def render(self, *, width: int = 60) -> str:
        lines = [
            f"{self.chain} × {self.workload}",
            f"  commits/s {sparkline(self.commits_per_s, width=width)}",
            f"  pool      {sparkline(self.pool_occupancy, width=width)} "
            f"(peak {self.peak_pool:.0f})",
        ]
        if self.admission_backlog is not None and self.admission_backlog.size:
            peak = float(self.admission_backlog.max())
            lines.append(
                f"  admission {sparkline(self.admission_backlog, width=width)} "
                f"(peak {peak:.0f})"
            )
        return "\n".join(lines)


def _per_second(series: np.ndarray, dt: float, *, how: str) -> np.ndarray:
    ticks_per_s = int(round(1.0 / dt))
    usable = (len(series) // ticks_per_s) * ticks_per_s
    if usable == 0:
        return np.zeros(0)
    shaped = series[:usable].reshape(-1, ticks_per_s)
    return shaped.sum(axis=1) if how == "sum" else shaped.max(axis=1)


def congestion_series(
    model: ChainModel, trace: Trace, *, dt: float = DT, **kwargs
) -> tuple[SimResult, CongestionSeries]:
    """Run one simulation and extract its per-second series."""
    result = simulate_chain(model, trace, dt=dt, **kwargs)
    return result, CongestionSeries(
        chain=model.name,
        workload=trace.name,
        commits_per_s=_per_second(result.commit_series, dt, how="sum"),
        pool_occupancy=_per_second(result.pool_series, dt, how="max"),
        admission_backlog=_per_second(result.validation_series, dt, how="max"),
    )
