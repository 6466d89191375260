"""The tick-level congestion simulator.

Pipeline stages per tick (``dt`` seconds), all cohort-based — a cohort is
``(send_time, count)``, so a 627 000-transaction FIFA run costs a few
thousand array/deque operations, not 627 000 object updates (the
HPC-guide idiom: vectorize the data plane, keep Python for control flow):

    arrivals ──▶ validation queue ──▶ mempool ──▶ block rounds ──▶ commit
                 (validation_rate)    (capacity,   (round_capacity,
                                       overflow     consensus_latency)
                                       drops)

The stages implement exactly the two mechanisms the paper blames for
congestion (validation/propagation redundancy; replicated vs partitioned
pools) — see :mod:`repro.sim.chains`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro import telemetry
from repro.sim.chains import ChainModel
from repro.sim.metrics import LatencySample, SimResult
from repro.workloads.trace import Trace


def _build_metrics(reg: telemetry.MetricsRegistry) -> SimpleNamespace:
    dropped = reg.counter(
        "srbb_sim_txs_dropped_total", "txs lost in the tick engine, by stage"
    )
    return SimpleNamespace(
        sent=reg.counter("srbb_sim_txs_sent_total", "txs entering the tick engine"),
        committed=reg.counter(
            "srbb_sim_txs_committed_total", "txs committed by the tick engine"
        ),
        dropped_pool=dropped.labels(reason="pool"),
        dropped_validation=dropped.labels(reason="validation"),
        unfinished=reg.gauge(
            "srbb_sim_txs_unfinished", "txs still queued at the measurement horizon"
        ),
        latency=reg.histogram(
            "srbb_sim_commit_latency_seconds", "client-observed commit latency"
        ),
        phase=reg.histogram(
            "srbb_sim_phase_latency_seconds",
            "per-phase share of commit latency (validate / pool_wait / consensus)",
        ),
        validation_depth=reg.histogram(
            "srbb_sim_validation_queue_depth",
            "validation (admission) queue occupancy per tick",
            buckets=telemetry.COUNT_BUCKETS,
        ),
        mempool_depth=reg.histogram(
            "srbb_sim_mempool_depth", "mempool occupancy per tick",
            buckets=telemetry.COUNT_BUCKETS,
        ),
        validation_gauge=reg.gauge(
            "srbb_sim_validation_queue_size", "validation queue size, last tick"
        ),
        mempool_gauge=reg.gauge(
            "srbb_sim_mempool_size", "mempool size, last tick"
        ),
    )


_metrics = telemetry.bind(_build_metrics)

#: default tick length, seconds
DT = 0.1
#: grace period after the send window during which commits still count
#: (DIABLO kept measuring while chains drained — "~5 minutes" total per
#: §V; 180 s send + 130 s grace reproduces the partially-drained FIFA
#: backlog behind SRBB's 98 % commit rate)
DEFAULT_GRACE_S = 130.0


@dataclass
class _CohortQueue:
    """FIFO of (key, count) cohorts with O(1) aggregate size.

    ``key`` is opaque — the arrival queue keys cohorts by send time, the
    mempool by (send_time, validated_time) so the phase accounting can
    tell queue-wait in validation apart from queue-wait in the pool.
    """

    def __post_init__(self) -> None:
        self._q: deque[list] = deque()
        self.size = 0.0

    def push(self, key, count: float) -> None:
        if count <= 0:
            return
        self._q.append([key, count])
        self.size += count

    def pop(self, budget: float) -> list[tuple]:
        """Remove up to ``budget`` transactions; returns popped cohorts."""
        out: list[tuple] = []
        while budget > 1e-9 and self._q:
            head = self._q[0]
            take = min(budget, head[1])
            out.append((head[0], take))
            head[1] -= take
            self.size -= take
            budget -= take
            if head[1] <= 1e-9:
                self._q.popleft()
        return out

    def drop_newest(self, count: float) -> float:
        """Drop up to ``count`` from the tail (overflow sheds new arrivals)."""
        dropped = 0.0
        while count > 1e-9 and self._q:
            tail = self._q[-1]
            take = min(count, tail[1])
            tail[1] -= take
            self.size -= take
            dropped += take
            count -= take
            if tail[1] <= 1e-9:
                self._q.pop()
        return dropped


class CongestionSim:
    """One chain × one workload congestion run."""

    def __init__(
        self,
        model: ChainModel,
        trace: Trace,
        *,
        dt: float = DT,
        grace_s: float = DEFAULT_GRACE_S,
    ):
        self.model = model
        self.trace = trace
        self.dt = dt
        self.grace_s = grace_s

    def run(self) -> SimResult:
        with telemetry.span(
            "sim.run", chain=self.model.name, workload=self.trace.name
        ) as span_attrs:
            result = self._run()
            span_attrs["sent"] = result.sent
            span_attrs["committed"] = result.committed
        return result

    def _run(self) -> SimResult:
        model, dt = self.model, self.dt
        arrivals = self.trace.arrivals_per_tick(dt)  # integer counts per tick
        send_ticks = len(arrivals)
        horizon_ticks = send_ticks + int(round(self.grace_s / dt))

        validation_q = _CohortQueue()
        mempool = _CohortQueue()
        #: commits scheduled for future ticks:
        #: tick -> [(send_time, taken_time, count), ...]
        in_flight: dict[int, list[tuple[float, float, float]]] = {}

        val_budget_per_tick = model.validation_rate() * dt
        pool_capacity = float(model.pool_capacity_total())
        exec_per_round = model.exec_rate * model.block_interval
        round_ticks = max(1, int(round(model.block_interval / dt)))
        latency_ticks = int(round(model.consensus_latency / dt))

        latency = LatencySample()
        # per-phase latency decomposition (validate = send → validated,
        # pool_wait = validated → taken, consensus = taken → committed)
        validate_lat = LatencySample()
        pool_wait_lat = LatencySample()
        consensus_lat = LatencySample()
        rounds_produced = 0
        taken_total = 0.0
        committed = 0.0
        dropped_pool = 0.0
        dropped_validation = 0.0
        commit_series = np.zeros(horizon_ticks + latency_ticks + 1)
        pool_series = np.zeros(horizon_ticks)
        validation_series = np.zeros(horizon_ticks)
        sent = int(arrivals.sum())
        last_commit_time = 0.0
        telemetry_on = telemetry.get_registry().enabled
        m = _metrics() if telemetry_on else None

        for tick in range(horizon_ticks):
            now = tick * dt
            # 1. arrivals enter the validation queue
            if tick < send_ticks and arrivals[tick]:
                validation_q.push(now, float(arrivals[tick]))
                # An unbounded validation backlog is unrealistic: sockets and
                # ingress buffers shed load once the backlog exceeds ~30 s of
                # service — congestion collapse, observed as loss.
                max_backlog = max(10_000.0, 30.0 * val_budget_per_tick / dt)
                if validation_q.size > max_backlog:
                    dropped_validation += validation_q.drop_newest(
                        validation_q.size - max_backlog
                    )

            # 2. validation → mempool (respecting total pool capacity)
            room = pool_capacity - mempool.size
            budget = min(val_budget_per_tick, max(0.0, room))
            for send_time, count in validation_q.pop(budget):
                mempool.push((send_time, now), count)
                validate_lat.add(now - send_time, count)
            if room <= 0 and validation_q.size > 0:
                # pool saturated: validated txs have nowhere to go; modern
                # nodes drop them (tx loss under congestion)
                overflow = validation_q.pop(val_budget_per_tick)
                dropped_pool += sum(c for _, c in overflow)

            # 3. block production on round boundaries
            if tick % round_ticks == 0 and mempool.size > 0:
                round_budget = min(float(model.round_capacity()), exec_per_round)
                taken = mempool.pop(round_budget)
                if taken:
                    commit_tick = tick + latency_ticks
                    entries = in_flight.setdefault(commit_tick, [])
                    for (send_time, validated_time), count in taken:
                        pool_wait_lat.add(now - validated_time, count)
                        entries.append((send_time, now, count))
                        taken_total += count
                    rounds_produced += 1

            # 4. commits land
            for send_time, taken_time, count in in_flight.pop(tick, ()):  # type: ignore[arg-type]
                committed += count
                commit_series[tick] += count
                latency.add(now - send_time, count)
                consensus_lat.add(now - taken_time, count)
                if telemetry_on:
                    m.latency.observe(now - send_time, count)
                last_commit_time = now

            pool_series[tick] = mempool.size
            validation_series[tick] = validation_q.size
            if telemetry_on:
                m.mempool_depth.observe(mempool.size)
                m.validation_depth.observe(validation_q.size)

        # commits still in flight past the horizon land if their commit tick
        # is within the consensus-latency tail
        for commit_tick in sorted(in_flight):
            now = commit_tick * dt
            for send_time, taken_time, count in in_flight[commit_tick]:
                committed += count
                if commit_tick < len(commit_series):
                    commit_series[commit_tick] += count
                latency.add(now - send_time, count)
                consensus_lat.add(now - taken_time, count)
                if telemetry_on:
                    m.latency.observe(now - send_time, count)
                last_commit_time = now

        unfinished = validation_q.size + mempool.size
        duration = max(last_commit_time, self.trace.duration_s)
        # How execution-bound was the round cadence?  Each production
        # round spends taken/exec_rate seconds executing out of one
        # block_interval of cadence.
        exec_share = 0.0
        if rounds_produced and model.block_interval > 0:
            exec_time = taken_total / model.exec_rate
            exec_share = min(
                1.0, exec_time / (rounds_produced * model.block_interval)
            )
        phase_latency = {
            "validate": validate_lat,
            "pool_wait": pool_wait_lat,
            "consensus": consensus_lat,
        }
        result = SimResult(
            chain=model.name,
            workload=self.trace.name,
            sent=sent,
            committed=int(round(committed)),
            dropped_pool=int(round(dropped_pool)),
            dropped_validation=int(round(dropped_validation)),
            unfinished=int(round(unfinished)),
            duration_s=duration,
            avg_latency_s=latency.mean,
            p99_latency_s=latency.percentile(99.0),
            p50_latency_s=latency.percentile(50.0),
            p95_latency_s=latency.percentile(95.0),
            commit_series=commit_series,
            pool_series=pool_series,
            validation_series=validation_series,
            phase_latency={
                phase: {
                    "mean": sample.mean,
                    "p50": sample.percentile(50.0),
                    "p99": sample.percentile(99.0),
                }
                for phase, sample in phase_latency.items()
            },
            exec_share=exec_share,
        )
        if telemetry_on:
            # Counters take the rounded result values so the exported
            # metrics reconcile *exactly* with SimResult.
            m.sent.inc(result.sent)
            m.committed.inc(result.committed)
            m.dropped_pool.inc(result.dropped_pool)
            m.dropped_validation.inc(result.dropped_validation)
            m.unfinished.set(result.unfinished)
            m.validation_gauge.set(validation_series[-1] if len(validation_series) else 0)
            m.mempool_gauge.set(pool_series[-1] if len(pool_series) else 0)
            for phase, sample in phase_latency.items():
                child = m.phase.labels(phase=phase)
                hist = sample.histogram
                if hist.count:
                    child.observe(sample.mean, hist.count)
        return result


def simulate_chain(
    model: ChainModel,
    trace: Trace,
    *,
    dt: float = DT,
    grace_s: float = DEFAULT_GRACE_S,
) -> SimResult:
    """Convenience wrapper: run one chain model against one workload."""
    return CongestionSim(model, trace, dt=dt, grace_s=grace_s).run()
