"""Trace container: per-second request counts + transaction factories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.transaction import Transaction

#: builds the i-th signed transaction of a trace at a given send time
RequestFactory = Callable[[int, float], Transaction]


@dataclass(frozen=True)
class Trace:
    """A workload: integer request counts for each whole second."""

    name: str
    counts_per_second: np.ndarray  # shape (duration_s,), dtype int64

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts_per_second, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts_per_second must be one-dimensional")
        if (counts < 0).any():
            raise ValueError("negative request counts")
        object.__setattr__(self, "counts_per_second", counts)

    # -- envelope ------------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        return float(len(self.counts_per_second))

    @property
    def total(self) -> int:
        return int(self.counts_per_second.sum())

    @property
    def avg_tps(self) -> float:
        return self.total / self.duration_s if self.duration_s else 0.0

    @property
    def peak_tps(self) -> int:
        return int(self.counts_per_second.max()) if self.total else 0

    # -- consumption -----------------------------------------------------------------

    def arrivals_per_tick(self, dt: float) -> np.ndarray:
        """Spread each second's count uniformly over its ticks (vectorized)."""
        ticks_per_s = int(round(1.0 / dt))
        if abs(ticks_per_s * dt - 1.0) > 1e-9:
            raise ValueError(f"dt={dt} must divide one second evenly")
        counts = self.counts_per_second
        # Integer split: base in every tick, remainder in the first ticks.
        base = counts // ticks_per_s
        remainder = counts % ticks_per_s
        out = np.repeat(base, ticks_per_s).astype(np.float64)
        tick_index = np.tile(np.arange(ticks_per_s), len(counts))
        out += (tick_index < np.repeat(remainder, ticks_per_s)).astype(np.float64)
        return out

    def send_times(self) -> np.ndarray:
        """Exact send timestamps, uniformly spaced within each second.

        Fully vectorized: one pass builds every ``second + k/count`` stamp
        without a Python-level loop over seconds.  The arithmetic applies
        the same IEEE operations (int64/int64 true-divide, then add) the
        per-second construction used, so the output is bitwise-identical
        — pre-signed schedule caches key on it.
        """
        counts = self.counts_per_second
        nz = np.flatnonzero(counts)
        if not len(nz):
            return np.zeros(0)
        c = counts[nz]
        total = int(c.sum())
        # Within-second rank of each send: global index minus the first
        # global index of its own second.
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(c) - c, c
        )
        return np.repeat(nz, c) + within / np.repeat(c, c)

    def transactions(self, factory: RequestFactory) -> Iterator[Transaction]:
        """Materialize signed transactions (message-level engine input)."""
        for i, send_time in enumerate(self.send_times()):
            yield factory(i, float(send_time))

    def scaled(self, factor: float, *, name: str | None = None) -> "Trace":
        """Rate-scaled copy (ablation sweeps)."""
        counts = np.maximum(
            0, np.round(self.counts_per_second * factor)
        ).astype(np.int64)
        return Trace(name=name or f"{self.name}x{factor:g}", counts_per_second=counts)


def shape_to_envelope(
    shape: np.ndarray, *, avg_tps: float, peak_tps: float, name: str
) -> Trace:
    """Fit a non-negative shape to an exact (avg, peak) envelope.

    The shape is linearly rescaled so its maximum is ``peak_tps``; the
    remaining per-second mass is adjusted uniformly (preserving the peak)
    until the mean matches ``avg_tps`` to within rounding.
    """
    shape = np.asarray(shape, dtype=np.float64)
    if shape.min() < 0:
        raise ValueError("shape must be non-negative")
    if shape.max() <= 0:
        raise ValueError("shape must have positive mass")
    duration = len(shape)
    target_total = avg_tps * duration
    if peak_tps > target_total:
        raise ValueError(
            f"infeasible envelope: peak {peak_tps} exceeds total mass "
            f"{target_total} (avg {avg_tps} × {duration}s)"
        )
    scaled = shape / shape.max() * peak_tps
    peak_idx = int(np.argmax(scaled))
    non_peak = np.delete(np.arange(duration), peak_idx)
    # Water-filling: scale the non-peak mass toward the remaining total,
    # clipping at the peak so no cell overtakes it, and iterating because
    # clipping sheds mass that must be redistributed.
    needed_rest = target_total - peak_tps
    for _ in range(64):
        current_rest = scaled[non_peak].sum()
        if current_rest <= 0 or abs(current_rest - needed_rest) < 0.5:
            break
        scaled[non_peak] *= needed_rest / current_rest
        # NB: fancy indexing copies, so assign the clipped values back.
        scaled[non_peak] = np.clip(scaled[non_peak], 0.0, peak_tps)
        if scaled[non_peak].max() < peak_tps and current_rest <= needed_rest:
            break
    counts = np.floor(scaled).astype(np.int64)
    counts[peak_idx] = int(round(peak_tps))
    # Distribute the rounding deficit over the largest cells (never above peak).
    deficit = int(round(target_total)) - int(counts.sum())
    if deficit > 0:
        order = np.argsort(scaled[non_peak])[::-1]
        i = 0
        while deficit > 0 and len(non_peak):
            idx = non_peak[order[i % len(order)]]
            if counts[idx] < counts[peak_idx]:
                counts[idx] += 1
                deficit -= 1
            i += 1
            if i > 10 * duration:
                break
    return Trace(name=name, counts_per_second=counts)
