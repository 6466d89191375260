"""Apply a :class:`FaultSchedule` to a live deployment, deterministically.

The controller is both halves of the chaos engine:

* **Clock side** — ``install()`` registers every crash/restart event on
  the deployment's simulator; when one fires the controller marks the
  node down/up at the transport and drives
  :meth:`ValidatorNode.crash` / :meth:`ValidatorNode.restart`.
* **Transport side** — the controller implements the
  :class:`~repro.net.transport.LinkFaultModel` protocol, answering the
  network's per-transmission drop/duplicate/reorder queries from the
  schedule's window events (partitions included).

Every injected event is emitted as a telemetry trace event
(``fault.inject``) and counted in ``srbb_faults_injected_total{kind=}``
so bench traces can correlate stalls with faults.  Randomness for the
reorder spread comes from the schedule's seed; the drop/duplicate coin
flips themselves live in the Network's dedicated fault RNG — both
deterministic given (schedule seed, deployment seed).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro import telemetry
from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = ["FaultController"]

_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        injected=reg.counter(
            "srbb_faults_injected_total", "chaos events applied, by kind"
        ),
        crashed=reg.gauge(
            "srbb_faults_nodes_down", "nodes currently crashed by the chaos engine"
        ),
        byzantine=reg.gauge(
            "srbb_faults_byzantine_active",
            "schedule-driven Byzantine misbehaviour windows currently open",
        ),
    )
)


class FaultController:
    """Hooks one schedule into one deployment's clock and transport."""

    def __init__(self, deployment, schedule: FaultSchedule):
        self.deployment = deployment
        self.schedule = schedule
        self.sim = deployment.sim
        self.network = deployment.network
        self._rng = np.random.default_rng(schedule.seed * 2_654_435_761 % 2**32)
        self._windows = schedule.window_events()
        self._byzantine = schedule.byzantine_events()
        #: node id -> behaviours currently toggled on by the campaign
        self.byzantine_active: "dict[int, set[str]]" = {}
        #: applied (kind, node, at) log — scenario assertions read this
        self.applied: "list[tuple[str, int | None, float]]" = []
        self._installed = False

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Arm the schedule: clock events + transport fault model."""
        if self._installed:
            raise RuntimeError("fault schedule already installed")
        self._installed = True
        self.schedule.validate(
            n=self.deployment.protocol.n, f=self.deployment.protocol.f
        )
        if self._windows:
            if self.network.faults is not None:
                raise RuntimeError("network already has a fault model installed")
            self.network.faults = self
        for event in self.schedule.point_events():
            self.sim.schedule_at(event.at, self._fire, event)
        # Window boundaries are implicit (queried per message), but record
        # their opening/closing as trace events for stall correlation.
        for event in self._windows:
            self.sim.schedule_at(event.at, self._note_window, event, "open")
            if event.until != float("inf"):
                self.sim.schedule_at(event.until, self._note_window, event, "close")
        # Byzantine campaign windows toggle misbehaviour on the target
        # node at their edges; the target must speak set_misbehaviour
        # (Deployment auto-constructs a CampaignValidator for scheduled
        # nodes, so this only trips on explicit class overrides).
        for event in self._byzantine:
            target = self.deployment.validators[event.node]
            if not hasattr(target, "set_misbehaviour"):
                raise RuntimeError(
                    f"node {event.node} is a {type(target).__name__}; "
                    f"{event.kind} windows need a CampaignValidator"
                )
            self.sim.schedule_at(event.at, self._toggle_byzantine, event, True)
            if event.until != float("inf"):
                self.sim.schedule_at(
                    event.until, self._toggle_byzantine, event, False
                )

    # -- clock events --------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        self.applied.append((event.kind, event.node, self.sim.now))
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.injected.labels(kind=event.kind).inc()
            if event.kind == "crash":
                m.crashed.inc()
            elif event.kind == "restart":
                m.crashed.dec()
        telemetry.event(
            "fault.inject", kind=event.kind, node=event.node, sim_now=self.sim.now,
        )
        if event.kind == "crash":
            self.deployment.crash(event.node)
        elif event.kind == "restart":
            self.deployment.restart(event.node)

    def _toggle_byzantine(self, event: FaultEvent, active: bool) -> None:
        behaviour = event.kind.removeprefix("byzantine_")
        node = self.deployment.validators[event.node]
        node.set_misbehaviour(behaviour, active, **dict(event.knobs))
        kinds = self.byzantine_active.setdefault(event.node, set())
        if active:
            kinds.add(behaviour)
        else:
            kinds.discard(behaviour)
            if not kinds:
                del self.byzantine_active[event.node]
        edge = "open" if active else "close"
        self.applied.append((f"{event.kind}-{edge}", event.node, self.sim.now))
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.injected.labels(kind=f"{event.kind}-{edge}").inc()
            m.byzantine.set(self.byzantine_windows_open)
        telemetry.event(
            "fault.inject", kind=f"{event.kind}-{edge}", node=event.node,
            sim_now=self.sim.now,
        )
        # Let correct nodes' watchdogs know a declared misbehaviour window
        # is open, so a stall during it is classified before re-nudging.
        for validator in self.deployment.validators:
            watchdog = getattr(validator, "watchdog", None)
            if watchdog is not None:
                watchdog.byzantine_windows += 1 if active else -1

    @property
    def byzantine_windows_open(self) -> int:
        """Currently-open misbehaviour windows, summed across nodes."""
        return sum(len(kinds) for kinds in self.byzantine_active.values())

    def _note_window(self, event: FaultEvent, edge: str) -> None:
        self.applied.append((f"{event.kind}-{edge}", event.node, self.sim.now))
        if telemetry.get_registry().enabled:
            _metrics().injected.labels(kind=f"{event.kind}-{edge}").inc()
        telemetry.event(
            "fault.inject", kind=f"{event.kind}-{edge}", node=event.node,
            link=event.link, p=event.p, sim_now=self.sim.now,
        )

    # -- LinkFaultModel ------------------------------------------------------------

    def drop_probability(self, src: int, dst: int, now: float) -> float:
        """Independent-loss composition over active drop + partition windows."""
        keep = 1.0
        for event in self._windows:
            if event.kind == "partition":
                if event.active(now) and self._crosses(event, src, dst):
                    return 1.0
            elif event.kind == "drop":
                if event.active(now) and event.touches(src, dst):
                    keep *= 1.0 - event.p
        return 1.0 - keep

    def duplicate_probability(self, src: int, dst: int, now: float) -> float:
        keep = 1.0
        for event in self._windows:
            if event.kind == "duplicate" and event.active(now) and event.touches(src, dst):
                keep *= 1.0 - event.p
        return 1.0 - keep

    def extra_delay_s(self, src: int, dst: int, now: float) -> float:
        extra = 0.0
        for event in self._windows:
            if event.kind == "reorder" and event.active(now) and event.touches(src, dst):
                if event.p >= 1.0 or float(self._rng.random()) < event.p:
                    extra += float(self._rng.uniform(0.0, event.spread))
        return extra

    @staticmethod
    def _crosses(event: FaultEvent, src: int, dst: int) -> bool:
        src_group = dst_group = None
        for i, group in enumerate(event.groups):
            if src in group:
                src_group = i
            if dst in group:
                dst_group = i
        if src_group is None:
            src_group = -1 - src  # ungrouped nodes are singleton islands
        if dst_group is None:
            dst_group = -1 - dst
        return src_group != dst_group
