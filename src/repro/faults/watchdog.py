"""Per-node liveness watchdog: distinguish *slow* from *wedged*.

Chaos runs need to tell a node that is merely behind (catching up, or on
the slow side of a healed partition) from one that has stopped making
progress entirely.  The watchdog samples a node's commit clock every
``check_interval_s``; if no superblock committed for ``stall_after_s``
the node is flagged — the ``srbb_node_wedged{node=}`` gauge flips to 1,
a ``watchdog.stall`` trace event fires, and the optional ``on_stall``
callback runs (the validator uses it to re-broadcast a catch-up
request).  The first commit after a stall clears the gauge and emits
``watchdog.recovered``.

Created only when ``ProtocolParams.watchdog_stall_rounds > 0`` so
default deployments schedule no extra events and register no extra
metrics (checked-in baselines stay byte-identical).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from repro import telemetry

__all__ = ["LivenessWatchdog"]

_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        stalls=reg.counter(
            "srbb_node_stalls_total", "liveness watchdog stall detections"
        ),
    )
)


def _wedged_gauge(registry: telemetry.MetricsRegistry, node_id: int) -> telemetry.Gauge:
    return registry.gauge(
        "srbb_node_wedged",
        "1 while a node's liveness watchdog considers it stalled",
    ).labels(node=str(node_id))


class LivenessWatchdog:
    """Stall detector driven by the simulation clock.

    ``sim`` is duck-typed (``.now`` + ``.schedule``); ``node_id`` labels
    the gauge; ``stall_after_s`` is typically ``k × round_interval`` for
    the protocol's ``watchdog_stall_rounds = k``.
    """

    def __init__(
        self,
        *,
        node_id: int,
        sim,
        stall_after_s: float,
        check_interval_s: "float | None" = None,
        on_stall: "Callable[[], None] | None" = None,
    ):
        if stall_after_s <= 0:
            raise ValueError(f"stall_after_s must be > 0, got {stall_after_s}")
        self.node_id = node_id
        self.sim = sim
        self.stall_after_s = stall_after_s
        self.check_interval_s = check_interval_s or stall_after_s / 2.0
        self.on_stall = on_stall
        self.last_commit_at = 0.0
        self.stalled = False
        self.stall_count = 0
        self._running = False
        #: the registry global at ``start()``, and its wedged-gauge child
        #: (bound once that registry is enabled)
        self._registry: "telemetry.MetricsRegistry | None" = None
        self._gauge = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.last_commit_at = self.sim.now
        self._registry = telemetry.get_registry()
        if self._registry.enabled:
            self._gauge = _wedged_gauge(self._registry, self.node_id)
        self.sim.schedule(self.check_interval_s, self._check)

    def _set_wedged(self, value: int) -> None:
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        if self._gauge is None:
            self._gauge = _wedged_gauge(registry, self.node_id)
        self._gauge.set(value)

    def stop(self) -> None:
        """Pause checks (crashed nodes are down, not wedged)."""
        self._running = False
        if self.stalled:
            self.stalled = False
            self._set_wedged(0)

    def resume(self) -> None:
        """Re-arm after a restart with a fresh commit clock."""
        self.last_commit_at = self.sim.now
        if not self._running:
            self._running = True
            self.sim.schedule(self.check_interval_s, self._check)

    # -- signals ------------------------------------------------------------------

    def notify_commit(self) -> None:
        """The node committed a superblock: progress."""
        self.last_commit_at = self.sim.now
        if self.stalled:
            self.stalled = False
            self._set_wedged(0)
            if telemetry.get_tracer().enabled:
                telemetry.event(
                    "watchdog.recovered", self.sim.now, node=self.node_id,
                )

    # -- the check loop -----------------------------------------------------------

    def _check(self) -> None:
        if not self._running:
            return
        idle = self.sim.now - self.last_commit_at
        if idle >= self.stall_after_s and not self.stalled:
            self.stalled = True
            self.stall_count += 1
            self._set_wedged(1)
            if telemetry.get_registry().enabled:
                _metrics().stalls.labels(node=str(self.node_id)).inc()
            if telemetry.get_tracer().enabled:
                telemetry.event(
                    "watchdog.stall", self.sim.now,
                    node=self.node_id, idle_s=round(idle, 4),
                )
            self._nudge()
        elif self.stalled:
            # Still wedged on a later check: keep nudging recovery.
            self._nudge()
        self.sim.schedule(self.check_interval_s, self._check)

    def _nudge(self) -> None:
        # Always nudge: a node cannot tell a peer that withholds votes
        # from being behind, and a response to a node that missed nothing
        # is one empty journal tail and a root.
        if self.on_stall is not None:
            self.on_stall()
