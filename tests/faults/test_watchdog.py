"""Liveness watchdog: stall detection, recovery, crash pause/resume."""

import pytest

from repro import params
from repro.core.deployment import Deployment
from repro.core.node import CATCHUP_REQ_KIND
from repro.faults import FaultSchedule, LivenessWatchdog
from repro.net.simulator import Simulator
from repro.net.topology import single_region_topology


def make_watchdog(**kwargs):
    sim = Simulator()
    calls = []
    kwargs.setdefault("stall_after_s", 2.0)
    dog = LivenessWatchdog(
        node_id=0, sim=sim, on_stall=lambda: calls.append(sim.now), **kwargs
    )
    return sim, dog, calls


class TestStallDetection:
    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="> 0"):
            LivenessWatchdog(node_id=0, sim=Simulator(), stall_after_s=0.0)

    def test_no_stall_while_commits_flow(self):
        sim, dog, calls = make_watchdog()
        dog.start()
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(t, dog.notify_commit)
        sim.run_until(5.0)
        assert not dog.stalled
        assert dog.stall_count == 0
        assert calls == []

    def test_silence_trips_the_watchdog_once(self):
        sim, dog, calls = make_watchdog()
        dog.start()
        sim.run_until(10.0)
        assert dog.stalled
        assert dog.stall_count == 1  # one stall episode, not one per check
        assert len(calls) >= 1

    def test_keeps_nudging_while_wedged(self):
        # on_stall re-fires on every later check until progress resumes —
        # a single lost catch-up request must not wedge recovery forever.
        sim, dog, calls = make_watchdog()
        dog.start()
        sim.run_until(10.0)
        assert len(calls) >= 3

    def test_commit_clears_the_stall(self):
        sim, dog, calls = make_watchdog()
        dog.start()
        sim.run_until(5.0)
        assert dog.stalled
        sim.schedule_at(5.5, dog.notify_commit)
        sim.run_until(6.0)
        assert not dog.stalled
        assert dog.stall_count == 1

    def test_restall_counts_a_new_episode(self):
        sim, dog, _ = make_watchdog()
        dog.start()
        sim.run_until(5.0)
        sim.schedule_at(5.5, dog.notify_commit)
        sim.run_until(20.0)  # silence again after the commit
        assert dog.stall_count == 2


class TestLifecycle:
    def test_stop_pauses_checks_and_clears_the_flag(self):
        sim, dog, calls = make_watchdog()
        dog.start()
        sim.run_until(5.0)
        assert dog.stalled
        dog.stop()
        assert not dog.stalled  # down, not wedged
        n = len(calls)
        sim.run_until(30.0)
        assert len(calls) == n  # no nudges while stopped

    def test_resume_rearms_with_a_fresh_clock(self):
        sim, dog, _ = make_watchdog()
        dog.start()
        sim.run_until(5.0)
        dog.stop()
        sim.run_until(12.0)
        dog.resume()
        assert dog.last_commit_at == 12.0  # downtime is not counted as idle
        sim.run_until(13.0)
        assert not dog.stalled
        sim.run_until(20.0)
        assert dog.stalled

    def test_start_is_idempotent(self):
        sim, dog, _ = make_watchdog(check_interval_s=1.0)
        dog.start()
        dog.start()
        sim.schedule_at(0.5, dog.notify_commit)
        sim.run_until(0.9)
        # one check loop scheduled, not two
        assert sim.pending == 1


def test_stall_inside_a_withhold_window_sends_catchup_req():
    """Seat 3 withholds its votes and seat 2 is cut off, so seats 0 and 1
    lack a quorum while their votes still flow and no peer is ahead.  A
    correct node cannot tell that from being behind, and it does not read
    the fault schedule: its stalled watchdog sends a catch-up request at
    every check."""
    schedule = (
        FaultSchedule(seed=1)
        .byzantine_withhold(3, at=2.0, until=12.0)
        .hard_partition([(0, 1, 3), (2,)], at=4.0, heal_at=10.0)
    )
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, watchdog_stall_rounds=4),
        topology=single_region_topology(4),
        fault_schedule=schedule,
        seed=3,
    )
    sent = []
    broadcast = deployment.network.broadcast

    def spy(src, msg, **kwargs):
        if src == 0 and msg.kind == CATCHUP_REQ_KIND:
            sent.append(deployment.sim.now)
        return broadcast(src, msg, **kwargs)

    deployment.network.broadcast = spy
    deployment.start()
    deployment.run_until(12.0)
    dog = deployment.validators[0].watchdog
    assert dog.stalled and dog.stall_count == 1
    assert sent and 4.0 < sent[0] < 12.0
    step = dog.check_interval_s
    assert sent == [sent[0] + k * step for k in range(len(sent))]
