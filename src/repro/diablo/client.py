"""Client-side submission: pre-signed schedules and submitter policies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.deployment import Deployment
from repro.core.transaction import Transaction
from repro.workloads.trace import RequestFactory, Trace


@dataclass(frozen=True)
class LoadSchedule:
    """A fully materialized, pre-signed workload: (send_time, tx) pairs."""

    name: str
    entries: tuple[tuple[float, Transaction], ...]

    @classmethod
    def from_trace(cls, trace: Trace, factory: RequestFactory) -> "LoadSchedule":
        """Materialize (and sign) the trace's transactions via ``factory``."""
        entries = tuple(
            (float(t), factory(i, float(t)))
            for i, t in enumerate(trace.send_times())
        )
        return cls(name=trace.name, entries=entries)

    @classmethod
    def from_transactions(
        cls, txs: Iterable[Transaction], *, name: str = "explicit"
    ) -> "LoadSchedule":
        return cls(name=name, entries=tuple((tx.created_at, tx) for tx in txs))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def duration_s(self) -> float:
        return max((t for t, _ in self.entries), default=0.0)


class RoundRobinSubmitter:
    """Spread submissions across validators with sender affinity.

    Each sender account consistently talks to one validator (DIABLO's
    client threads own disjoint account sets), which keeps one sender's
    nonce sequence flowing through a single pool in order.
    """

    def __init__(self, targets: Sequence[int] | None = None):
        self.targets = tuple(targets) if targets else None

    def submit_all(self, deployment: Deployment, schedule: LoadSchedule) -> None:
        targets = self.targets or tuple(range(deployment.protocol.n))
        assignment: dict[str, int] = {}
        for send_time, tx in schedule.entries:
            if tx.sender not in assignment:
                assignment[tx.sender] = targets[len(assignment) % len(targets)]
            deployment.submit(tx, assignment[tx.sender], at=send_time)


class SingleNodeSubmitter:
    """Send everything to one validator (censorship / hotspot scenarios)."""

    def __init__(self, target: int = 0):
        self.target = target

    def submit_all(self, deployment: Deployment, schedule: LoadSchedule) -> None:
        for send_time, tx in schedule.entries:
            deployment.submit(tx, self.target, at=send_time)
