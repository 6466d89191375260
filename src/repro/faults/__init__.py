"""``repro.faults`` — the deterministic chaos engine (crash–recovery PR).

* :class:`FaultSchedule` / :class:`FaultEvent` — declarative, seeded
  fault timelines (crash, restart, drop, duplicate, reorder, partition,
  plus the ``byzantine_*`` misbehaviour windows in
  :data:`BYZANTINE_KINDS`).
* :class:`FaultController` — applies a schedule to a live deployment:
  clock-driven crash/restart and Byzantine-campaign toggles plus the
  transport's link-fault model.
* :class:`LivenessWatchdog` — per-node stall detector separating "slow"
  from "wedged" in chaos runs.

Every injected fault is a schedule entry; the one other fault is a
delay function in ``Network.adversarial_delay`` (see
:func:`repro.net.faults.slow_nodes`).  ``docs/FAULTS.md`` documents which
fault *model* (delay-only, lossy-link, crash–recovery) preserves which
protocol guarantee.
"""

from repro.faults.controller import FaultController
from repro.faults.schedule import (
    BYZANTINE_KINDS,
    EVENT_KINDS,
    FaultEvent,
    FaultSchedule,
)
from repro.faults.watchdog import LivenessWatchdog

__all__ = [
    "BYZANTINE_KINDS",
    "EVENT_KINDS",
    "FaultController",
    "FaultEvent",
    "FaultSchedule",
    "LivenessWatchdog",
]
