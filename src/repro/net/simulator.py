"""Minimal deterministic discrete-event scheduler.

A binary-heap event loop with a monotonic tiebreaker so that runs are fully
deterministic given a seed — the foundation both the message-level engine
and the correctness property tests rely on (hypothesis drives adversarial
schedules through ``schedule`` delays).

One heap entry per event, popped in ``(time, seq)`` order.  An entry is
the tuple ``(time, seq, event)``: ``seq`` is unique, so every sift
comparison is settled by the first two fields, in C, and never reaches the
:class:`Event` itself.  ``step``, ``run`` and ``run_until`` share one
drain loop over the heap.  Merging callbacks due at the same timestamp
into shared heap entries measures slower than this on every benchmark
workload and committee size (docs/PROFILING.md, *What the scheduler does
not do, and why*).

Beyond the heap there is no bookkeeping.  A cancelled event only sets
its flag: it keeps its heap slot until it reaches the head and is
dropped there.  Rebuilding the heap once cancelled events dominate it
(retransmission timers under reliable delivery almost always cancel)
measured no faster, so the scheduler does not do it (docs/PROFILING.md,
*What switched-off telemetry cost*).  ``pending`` counts the live
entries when asked; nothing on the event path reads it.

The drain loop carries no instrumentation: it calls each callback
directly.  ``repro profile`` finds where the time goes by sampling the
Python stack from outside (:mod:`repro.telemetry.profiling`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(slots=True, eq=False)
class Event:
    """One scheduled callback, due at ``time``; ``seq`` breaks ties.

    Events are not orderable: the heap orders the ``(time, seq, event)``
    entries that hold them.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Deterministic event loop over simulated seconds."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(max(0.0, time - self.now), callback, *args)

    def schedule_bucketed(
        self, delay: float, callback: Callable[..., None], *args: Any, tag: Any = None
    ) -> Event:
        """Alias of :meth:`schedule`; ``tag`` is ignored.  Nothing under
        ``src/`` calls it — it stays because ``benchmarks/perf/trace.py``
        names it as a span target (ROADMAP, benchmark-only ride-alongs)."""
        return self.schedule(delay, callback, *args)

    # -- draining ----------------------------------------------------------------

    def _drain(self, until: float, budget: "int | None") -> int:
        """Fire live events due at or before ``until``, at most ``budget``
        of them (``None``: no bound), dropping cancelled ones that reach
        the head on the way; returns how many fired."""
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap and fired != budget:
            time, _seq, event = heap[0]
            if event.cancelled:
                pop(heap)
                continue
            if time > until:
                break
            pop(heap)
            self.now = time
            self.events_processed += 1
            fired += 1
            event.callback(*event.args)
        return fired

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        return self._drain(math.inf, 1) == 1

    def run(self, *, max_events: int | None = None) -> None:
        """Drain the event queue (optionally bounding total events)."""
        self._drain(math.inf, max_events)

    def run_until(self, time: float, *, max_events: int | None = None) -> None:
        """Process events with timestamps ≤ ``time``; clock ends at ``time``."""
        self._drain(time, max_events)
        self.now = max(self.now, time)

    @property
    def pending(self) -> int:
        """Live (non-cancelled) scheduled callbacks, counted over the heap."""
        return sum(1 for _time, _seq, event in self._heap if not event.cancelled)
