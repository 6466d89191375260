"""The benchmark driver: run a schedule against a deployment, collect metrics."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro import telemetry
from repro.core.deployment import Deployment
from repro.core.transaction import Transaction
from repro.diablo.client import LoadSchedule, RoundRobinSubmitter

logger = logging.getLogger("repro.diablo.benchmark")

_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        sent=reg.counter(
            "srbb_diablo_txs_sent_total", "schedule entries submitted to a deployment"
        ),
        committed=reg.counter(
            "srbb_diablo_txs_committed_total",
            "schedule entries confirmed by >= f+1 validators",
        ),
        latency=reg.histogram(
            "srbb_diablo_commit_latency_seconds",
            "client-observed commit latency on the message-level engine",
        ),
    )
)


@dataclass
class BenchmarkResult:
    """Client-observed metrics for one run (DIABLO definitions, §V)."""

    name: str
    sent: int
    committed: int
    duration_s: float
    latencies_s: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def throughput_tps(self) -> float:
        return self.committed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def avg_latency_s(self) -> float:
        return float(self.latencies_s.mean()) if len(self.latencies_s) else 0.0

    @property
    def commit_rate(self) -> float:
        return self.committed / self.sent if self.sent else 0.0

    @property
    def dropped(self) -> int:
        return self.sent - self.committed

    def summary_row(self) -> dict:
        return {
            "name": self.name,
            "sent": self.sent,
            "committed": self.committed,
            "dropped": self.dropped,
            "throughput_tps": round(self.throughput_tps, 2),
            "avg_latency_s": round(self.avg_latency_s, 3),
            "commit_pct": round(100.0 * self.commit_rate, 2),
        }


class DiabloBenchmark:
    """Run one pre-signed schedule against a message-level deployment."""

    def __init__(
        self,
        deployment: Deployment,
        *,
        submitter=None,
        confirmations: int | None = None,
    ):
        self.deployment = deployment
        self.submitter = submitter or RoundRobinSubmitter()
        # Confirmation ACK threshold: f+1 matching validators guarantees at
        # least one correct confirmation.
        self.confirmations = (
            confirmations
            if confirmations is not None
            else self.deployment.protocol.f + 1
        )

    def run(
        self,
        schedule: LoadSchedule,
        *,
        horizon_s: float | None = None,
        grace_s: float = 60.0,
    ) -> BenchmarkResult:
        """Submit the schedule, run the simulator, collect client metrics."""
        deployment = self.deployment
        with telemetry.span(
            "diablo.run", schedule=schedule.name, n=deployment.protocol.n
        ) as span_attrs:
            deployment.start()
            self.submitter.submit_all(deployment, schedule)
            horizon = (
                horizon_s if horizon_s is not None else schedule.duration_s + grace_s
            )
            deployment.run_until(horizon)
            result = self.collect(schedule, horizon)
            span_attrs["sent"] = result.sent
            span_attrs["committed"] = result.committed
        logger.info(
            "diablo run %s: %d/%d committed, %.2f TPS, %.3f s avg latency",
            schedule.name, result.committed, result.sent,
            result.throughput_tps, result.avg_latency_s,
        )
        return result

    def collect(self, schedule: LoadSchedule, horizon: float) -> BenchmarkResult:
        """Compute commit latency/throughput from validator chains.

        A transaction's commit time is when the ``confirmations``-th
        correct validator wrote it — the client has then received
        sufficiently many ACKs (§V's latency definition).
        """
        correct = self.deployment.correct_validators
        latencies: list[float] = []
        committed = 0
        last_commit = 0.0
        for send_time, tx in schedule.entries:
            times = sorted(
                node.blockchain.commit_times[tx.tx_hash]
                for node in correct
                if tx.tx_hash in node.blockchain.commit_times
            )
            if len(times) >= self.confirmations:
                commit_time = times[self.confirmations - 1]
                committed += 1
                latencies.append(commit_time - send_time)
                last_commit = max(last_commit, commit_time)
        duration = max(last_commit, schedule.duration_s)
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.sent.inc(len(schedule))
            m.committed.inc(committed)
            for value in latencies:
                m.latency.observe(value)
        return BenchmarkResult(
            name=schedule.name,
            sent=len(schedule),
            committed=committed,
            duration_s=duration,
            latencies_s=np.array(latencies),
        )
