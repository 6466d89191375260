"""Trace statistics: the envelope and burstiness numbers used throughout
the evaluation text."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.trace import Trace


@dataclass(frozen=True)
class TraceStats:
    """Envelope + burstiness summary of a trace."""

    name: str
    duration_s: float
    total: int
    avg_tps: float
    peak_tps: int
    p95_tps: float
    #: peak-to-average ratio — the burstiness figure quoted in §V
    burstiness: float
    #: coefficient of variation of per-second rates
    cv: float

    def as_row(self) -> dict:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "total": self.total,
            "avg_tps": round(self.avg_tps, 1),
            "peak_tps": self.peak_tps,
            "p95_tps": round(self.p95_tps, 1),
            "burstiness": round(self.burstiness, 2),
            "cv": round(self.cv, 3),
        }


def trace_stats(trace: Trace) -> TraceStats:
    counts = trace.counts_per_second.astype(np.float64)
    avg = trace.avg_tps
    return TraceStats(
        name=trace.name,
        duration_s=trace.duration_s,
        total=trace.total,
        avg_tps=avg,
        peak_tps=trace.peak_tps,
        p95_tps=float(np.percentile(counts, 95)) if len(counts) else 0.0,
        burstiness=trace.peak_tps / avg if avg else 0.0,
        cv=float(counts.std() / avg) if avg else 0.0,
    )
