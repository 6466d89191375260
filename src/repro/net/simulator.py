"""Minimal deterministic discrete-event scheduler.

A binary-heap event loop with a monotonic tiebreaker so that runs are fully
deterministic given a seed — the foundation both the message-level engine
and the correctness property tests rely on (hypothesis drives adversarial
schedules through ``schedule`` delays).

One heap entry per event, popped in ``(time, seq)`` order.  Merging
callbacks due at the same timestamp into shared heap entries measures
slower than this on every benchmark workload and committee size
(docs/PROFILING.md, *What the scheduler does not do, and why*).  Beyond
the heap there are two pieces of bookkeeping:

* **O(1) ``pending``** — a live-event counter maintained on push, pop and
  ``Event.cancel``.
* **Lazy heap compaction** — cancelled events (retransmission/ack timers
  under reliable delivery almost always cancel) are dropped in one O(n)
  ``heapify`` rebuild once they dominate the heap, instead of bloating it
  until each is individually popped.  Rebuilding is behaviour-neutral
  because ``(time, seq)`` is a total order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

#: compaction heuristic: rebuild once at least this many cancelled events
#: sit in the heap AND they make up at least half of it
_COMPACT_MIN_CANCELLED = 64


@dataclass(slots=True)
class Event:
    """One scheduled callback.

    Ordered by ``(time, seq)``; the comparison is hand-written because the
    dataclass-generated one builds two tuples per heap sift comparison.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    #: optional (name, subsystem, node) attribution the caller stamps on
    #: the returned event (``Node._schedule``, the transport's deliveries)
    #: so the profiler skips per-event classification
    profile_info: tuple | None = field(compare=False, default=None)
    #: owning simulator while the event sits in its heap (cleared on pop)
    #: so ``cancel()`` can maintain the live/cancelled counters in O(1)
    owner: "Simulator | None" = field(compare=False, default=None, repr=False)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancel()


class Simulator:
    """Deterministic event loop over simulated seconds."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.events_processed = 0
        #: optional wall-clock profiler (repro.telemetry.profiling); None
        #: keeps the hot path at a single attribute check per event
        self.profiler = None
        # live/cancelled bookkeeping for O(1) ``pending`` + compaction
        self._live = 0
        self._cancelled_in_heap = 0
        self.compactions = 0

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Event(self.now + delay, next(self._seq), callback, args)
        event.owner = self
        heapq.heappush(self._heap, event)
        self._live += 1
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

    # -- cancellation / compaction ------------------------------------------------

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (order-preserving: the
        ``(time, seq)`` order is total, so heap shape is irrelevant)."""
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    # -- draining ----------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            event.owner = None
            self.now = event.time
            self._live -= 1
            self.events_processed += 1
            profiler = self.profiler
            if profiler is None:
                event.callback(*event.args)
            else:
                profiler.record_event(
                    event.callback, event.args, event.profile_info
                )
            return True
        return False

    def run(self, *, max_events: int | None = None) -> None:
        """Drain the event queue (optionally bounding total events)."""
        budget = max_events if max_events is not None else float("inf")
        while self._heap and budget > 0:
            if self.step():
                budget -= 1

    def run_until(self, time: float, *, max_events: int | None = None) -> None:
        """Process events with timestamps ≤ ``time``; clock ends at ``time``."""
        budget = max_events if max_events is not None else float("inf")
        while self._heap and budget > 0:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                self._cancelled_in_heap -= 1
                continue
            if head.time > time:
                break
            self.step()
            budget -= 1
        self.now = max(self.now, time)

    @property
    def pending(self) -> int:
        """Live (non-cancelled) scheduled callbacks — O(1)."""
        return self._live

    @property
    def cancelled_in_heap(self) -> int:
        """Cancelled events still occupying heap slots (compaction input)."""
        return self._cancelled_in_heap
