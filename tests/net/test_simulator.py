"""Discrete-event scheduler: ordering, cancellation, run_until, the live
counter, and a fuzz against a sorted-list model."""

import random
import tracemalloc
from dataclasses import dataclass

import pytest

from repro.net.simulator import Event, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_bucketed_is_schedule(self):
        # kept only as a span target of benchmarks/perf/trace.py
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_bucketed(1.0, fired.append, "b", tag="ignored")
        sim.schedule(1.0, fired.append, "c")
        assert len(sim._heap) == 3
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: sim.schedule_at(1.0, seen.append, "past"))
        sim.run()
        # scheduling "at 1.0" when now=2.0 clamps to now
        assert seen == ["past"]
        assert sim.now == 2.0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run_until(3.0)
        assert fired == ["a"]
        assert sim.now == 3.0
        sim.run_until(10.0)
        assert fired == ["a", "b"]

    def test_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "x")
        sim.run_until(3.0)
        assert fired == ["x"]

    def test_cancelled_head_is_skipped_without_passing_the_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "cancelled").cancel()
        sim.schedule(5.0, fired.append, "later")
        sim.run_until(3.0)
        assert fired == []
        assert sim.now == 3.0
        assert (sim.pending, sim.cancelled_in_heap) == (1, 0)

    def test_max_events_bound(self):
        sim = Simulator()
        count = [0]

        def respawn():
            count[0] += 1
            sim.schedule(0.1, respawn)

        sim.schedule(0.0, respawn)
        sim.run(max_events=50)
        assert count[0] == 50


class TestDrain:
    def test_drain_allocates_nothing_per_event(self):
        sim = Simulator()

        def noop():
            pass

        for i in range(2200):
            sim.schedule(i * 0.001, noop)
        # warm-up: first steps may touch lazy imports/caches
        for _ in range(200):
            sim.step()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            while sim.step():
                pass
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2000 events must not allocate per-event state (small constant
        # slack for interpreter incidentals)
        assert current - base < 16_384


class TestPendingAndCompaction:
    """The live counter and the cancelled events left in the heap (there
    is no compaction: a cancelled event is dropped when it reaches the
    head)."""

    def test_pending_is_live_counter(self):
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        assert sim.pending == 10
        events[0].cancel()
        events[1].cancel()
        assert sim.pending == 8
        assert sim.cancelled_in_heap == 2

    def test_cancelled_events_leave_at_the_head(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i, lambda: None) for i in range(300)]
        for e in events[::2]:
            e.cancel()
        # No rebuild: every cancelled event keeps its slot until popped.
        assert (sim.pending, sim.cancelled_in_heap, len(sim._heap)) == (150, 150, 300)
        # Fires the 50 live events due by t=100.5 and drops the 51
        # cancelled ones that reach the head on the way (t=1, 3, ..., 101).
        sim.run_until(100.5)
        assert (sim.pending, sim.cancelled_in_heap, len(sim._heap)) == (100, 99, 199)
        sim.run()
        assert sim.events_processed == 150
        assert (sim.cancelled_in_heap, len(sim._heap)) == (0, 0)

    def test_popped_events_do_not_count_as_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.cancelled_in_heap == 1
        assert sim.pending == 0


@dataclass(eq=False)
class _Entry:
    time: float
    seq: int
    cancelled: bool = False
    queued: bool = True  # still occupies a heap slot


class _Model:
    """The scheduler written the slow, obvious way: a list of entries,
    re-sorted by ``(time, seq)`` whenever the next one is needed.  A
    cancelled entry keeps its slot until it reaches the head."""

    def __init__(self):
        self.now = 0.0
        self.fired = 0
        self.seq = 0
        self.queue: list[_Entry] = []

    def push(self, time):
        entry = _Entry(time, self.seq)
        self.seq += 1
        self.queue.append(entry)
        return entry

    @property
    def cancelled(self):
        return sum(e.cancelled for e in self.queue)

    def cancel(self, entry):
        if entry.cancelled or not entry.queued:
            return
        entry.cancelled = True

    def _drop(self, entries):
        for entry in entries:
            entry.queued = False
            self.queue.remove(entry)

    def drop_cancelled_heads(self):
        self.queue.sort(key=lambda e: (e.time, e.seq))
        live = next((i for i, e in enumerate(self.queue) if not e.cancelled), None)
        self._drop(self.queue[:live])

    def pop_next(self):
        """The entry that must fire next, or None when nothing is live."""
        self.drop_cancelled_heads()
        if not self.queue:
            return None
        entry = self.queue[0]
        self._drop([entry])
        self.now = entry.time
        self.fired += 1
        return entry


class TestFuzzAgainstModel:
    """Random schedule / schedule_at / cancel interleavings, callbacks that
    schedule and cancel more while draining, driven by a random mix of
    ``step`` and ``run_until``: every callback the simulator fires must be
    the model's next live ``(time, seq)`` entry, and ``now``,
    ``events_processed``, ``pending``, ``cancelled_in_heap`` and the heap
    length must match the model at every step.  Times are multiples of
    0.25, so float sums are exact and ties are plentiful."""

    def _trial(self, rnd, n_ops, cancel_p):
        sim, model = Simulator(), _Model()
        handles = []  # (Event, _Entry) of everything ever scheduled
        bound = [float("inf")]  # the run_until argument while inside one

        def check():
            assert sim.now == model.now
            assert sim.events_processed == model.fired
            assert sim.pending == len(model.queue) - model.cancelled
            assert sim.cancelled_in_heap == model.cancelled
            assert len(sim._heap) == len(model.queue)

        def add(depth):
            delay = rnd.choice([0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
            index = len(handles)
            if rnd.random() < 0.3:
                # absolute form; a time already past clamps to now
                at = model.now + delay - rnd.choice([0.0, 0.0, 3.0])
                event = sim.schedule_at(at, fire, index, depth)
                entry = model.push(max(at, model.now))
            else:
                event = sim.schedule(delay, fire, index, depth)
                entry = model.push(model.now + delay)
            handles.append((event, entry))

        def maybe_cancel():
            while rnd.random() < cancel_p:
                event, entry = rnd.choice(handles)  # may have fired already
                event.cancel()
                model.cancel(entry)

        def fire(index, depth):
            assert model.pop_next() is handles[index][1]
            assert sim.now <= bound[0]
            check()
            if depth:
                for _ in range(rnd.randint(0, 2)):
                    add(depth - 1)
                    maybe_cancel()
            check()

        for _ in range(n_ops):
            add(rnd.randint(0, 3))
            maybe_cancel()
            check()
        while sim.pending:
            if rnd.random() < 0.5:
                assert sim.step()
            else:
                bound[0] = sim.now + rnd.choice([0.0, 0.25, 0.5, 1.0, 2.25])
                sim.run_until(bound[0])
                # nothing due is left behind, cancelled heads are gone,
                # and the clock stops exactly at the bound
                model.drop_cancelled_heads()
                assert not model.queue or model.queue[0].time > bound[0]
                model.now = max(model.now, bound[0])
                bound[0] = float("inf")
            check()
        assert not sim.step()
        assert model.pop_next() is None
        check()
        assert model.fired + sum(e.cancelled for _, e in handles) == len(handles)
        return sim

    def test_random_interleavings_fire_in_time_seq_order(self):
        rnd = random.Random(0xC0A1)
        for _ in range(60):
            self._trial(rnd, n_ops=rnd.randint(5, 40), cancel_p=0.15)

    def test_heavy_cancellation_loses_no_events(self):
        rnd = random.Random(0xC0A1)
        for _ in range(6):
            sim = self._trial(rnd, n_ops=rnd.randint(300, 500), cancel_p=0.7)
            assert sim.events_processed > 0


class TestHeapNeverComparesEvents(TestFuzzAgainstModel):
    """The model fuzz again, with every comparison between two ``Event``s
    raising: heap entries are ``(time, seq, event)`` with ``seq`` unique,
    so sifting is settled in C by the first two fields and an event
    comparison (a Python-level call per sift step) never happens."""

    @pytest.fixture(autouse=True)
    def _events_refuse_comparison(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("the scheduler heap compared two Events")

        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            monkeypatch.setattr(Event, name, refuse)
