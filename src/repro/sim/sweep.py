"""Parameter sweeps over the congestion simulator.

Tools the ablation benches and downstream users share:

* :func:`saturation_throughput` — the maximum constant send rate a chain
  sustains with (almost) no loss, found by bisection.  This is the
  "claimed performance" a vendor would quote — contrast it with the
  DApp-workload numbers of Figure 2 (§V: "much lower compared to their
  claimed performances").
* :func:`latency_curve` — average latency, throughput and commit rate as
  a function of offered load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.chains import ChainModel
from repro.sim.engine import simulate_chain
from repro.workloads import constant_trace


@dataclass(frozen=True)
class SweepPoint:
    rate_tps: int
    throughput_tps: float
    avg_latency_s: float
    commit_rate: float


def _probe(model: ChainModel, rate: int, *, duration_s: int, grace_s: float) -> SweepPoint:
    result = simulate_chain(
        model, constant_trace(rate, duration_s), grace_s=grace_s
    )
    return SweepPoint(
        rate_tps=rate,
        throughput_tps=result.throughput_tps,
        avg_latency_s=result.avg_latency_s,
        commit_rate=result.commit_rate,
    )


def saturation_throughput(
    model: ChainModel,
    *,
    min_commit_rate: float = 0.999,
    duration_s: int = 60,
    grace_s: float | None = None,
    hi: int = 50_000,
    tolerance: int = 50,
) -> int:
    """Largest constant TPS the chain commits ≥ ``min_commit_rate`` of.

    The drain window defaults to two pipeline delays (block interval +
    consensus latency) — just enough for the last block to land, so this
    is the *steady-state* ceiling rather than "can eventually drain given
    idle time".
    """
    if grace_s is None:
        grace_s = 2.0 * (model.block_interval + model.consensus_latency) + 2.0
    lo = 0
    # Expand the bracket first in case hi is already sustainable.
    while _probe(model, hi, duration_s=duration_s, grace_s=grace_s).commit_rate >= min_commit_rate:
        lo, hi = hi, hi * 2
        if hi > 2_000_000:
            return lo
    while hi - lo > tolerance:
        mid = (lo + hi) // 2
        point = _probe(model, mid, duration_s=duration_s, grace_s=grace_s)
        if point.commit_rate >= min_commit_rate:
            lo = mid
        else:
            hi = mid
    return lo


def latency_curve(
    model: ChainModel,
    rates: "list[int] | np.ndarray",
    *,
    duration_s: int = 60,
    grace_s: float = 60.0,
) -> list[SweepPoint]:
    """Latency / throughput / commit-rate at each offered load."""
    return [
        _probe(model, int(rate), duration_s=duration_s, grace_s=grace_s)
        for rate in rates
    ]
