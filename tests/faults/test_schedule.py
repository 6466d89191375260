"""FaultSchedule builders and timeline validation."""

import pytest

from repro.faults import BYZANTINE_KINDS, EVENT_KINDS, FaultEvent, FaultSchedule


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor", at=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(kind="drop", at=-1.0)

    def test_window_must_not_end_before_it_starts(self):
        with pytest.raises(ValueError, match="before it starts"):
            FaultEvent(kind="drop", at=5.0, until=2.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultEvent(kind="drop", at=0.0, p=1.5)

    def test_crash_and_restart_require_a_node(self):
        for kind in ("crash", "restart"):
            with pytest.raises(ValueError, match="node id"):
                FaultEvent(kind=kind, at=1.0)

    def test_touches_scoping(self):
        by_node = FaultEvent(kind="drop", at=0.0, node=2, p=0.1)
        assert by_node.touches(2, 0) and by_node.touches(0, 2)
        assert not by_node.touches(0, 1)
        by_link = FaultEvent(kind="drop", at=0.0, link=(0, 1), p=0.1)
        assert by_link.touches(0, 1) and not by_link.touches(1, 0)
        everywhere = FaultEvent(kind="drop", at=0.0, p=0.1)
        assert everywhere.touches(0, 1)

    def test_active_window_is_half_open(self):
        e = FaultEvent(kind="drop", at=2.0, until=5.0, p=0.1)
        assert not e.active(1.9)
        assert e.active(2.0) and e.active(4.99)
        assert not e.active(5.0)


class TestBuilders:
    def test_builders_are_pure_and_sorted_by_time(self):
        base = FaultSchedule(seed=7)
        schedule = (
            base
            .restart(1, at=9.0)
            .crash(1, at=3.0)
            .drop_rate(0.1, at=1.0, until=20.0)
        )
        assert base.events == ()  # builder never mutates
        assert [e.at for e in schedule.events] == [1.0, 3.0, 9.0]
        assert schedule.seed == 7

    def test_event_kind_partitions(self):
        schedule = (
            FaultSchedule()
            .crash(0, at=1.0)
            .restart(0, at=2.0)
            .drop_rate(0.1)
            .duplicate(0.1)
            .reorder(0.1, spread=0.5)
            .hard_partition([[0], [1]], at=3.0, heal_at=4.0)
            .byzantine_flood(1, at=5.0, until=6.0)
            .byzantine_equivocate(1, at=6.0, until=7.0)
            .byzantine_withhold(1, at=7.0, until=8.0)
            .byzantine_censor(1, at=8.0, until=9.0)
        )
        assert {e.kind for e in schedule.events} == set(EVENT_KINDS)
        assert [e.kind for e in schedule.point_events()] == ["crash", "restart"]
        # byzantine windows are toggled on the clock, never handed to the
        # transport's link-fault model
        assert len(schedule.window_events()) == 4
        assert {e.kind for e in schedule.byzantine_events()} == set(BYZANTINE_KINDS)
        assert {e.node for e in schedule.events if e.kind == "crash"} == {0}
        assert schedule.crash_stopped_nodes() == frozenset()  # 0 restarts
        assert schedule.byzantine_nodes() == {1}

    def test_byzantine_windows_require_a_node(self):
        for kind in BYZANTINE_KINDS:
            with pytest.raises(ValueError, match="node id"):
                FaultEvent(kind=kind, at=1.0)

    def test_flood_knobs_are_recorded(self):
        schedule = FaultSchedule().byzantine_flood(
            2, at=1.0, until=5.0, per_block=300, total=4000, seed=7
        )
        (event,) = schedule.byzantine_events()
        assert dict(event.knobs) == {"per_block": 300, "total": 4000, "seed": 7}

    def test_horizon_is_last_finite_edge(self):
        schedule = FaultSchedule().crash(0, at=3.0).drop_rate(0.1, until=25.0)
        assert schedule.horizon == 25.0
        assert FaultSchedule().drop_rate(0.1).horizon == 0.0  # open window

    def test_crash_stopped_nodes_are_crashes_never_restarted(self):
        schedule = (
            FaultSchedule()
            .crash(0, at=1.0).restart(0, at=2.0).crash(0, at=4.0)
            .crash(1, at=3.0)
        )
        assert schedule.crash_stopped_nodes() == {0, 1}
        assert schedule.restart(1, at=5.0).crash_stopped_nodes() == {0}

    def test_reorder_rejects_negative_spread(self):
        with pytest.raises(ValueError, match="spread"):
            FaultSchedule().reorder(0.1, spread=-1.0)

    def test_hard_partition_groups_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            FaultSchedule().hard_partition([[0, 1], [1]], at=0.0, heal_at=1.0)


class TestValidate:
    def test_clean_schedule_passes(self):
        (
            FaultSchedule()
            .crash(3, at=4.0)
            .restart(3, at=10.0)
            .crash(3, at=15.0)  # a second crash after the restart is fine
            .validate(n=4, f=1)
        )

    def test_restart_without_crash(self):
        with pytest.raises(ValueError, match="without a crash"):
            FaultSchedule().restart(0, at=5.0).validate()

    def test_restart_must_follow_its_crash(self):
        # builders sort by time, so build an already-invalid pair directly
        schedule = FaultSchedule(events=(
            FaultEvent(kind="crash", at=5.0, node=0),
            FaultEvent(kind="restart", at=5.0, node=0),
        ))
        with pytest.raises(ValueError, match="does not follow"):
            schedule.validate()

    def test_double_crash_without_restart(self):
        with pytest.raises(ValueError, match="crashed twice"):
            FaultSchedule().crash(0, at=1.0).crash(0, at=2.0).validate()

    def test_node_id_range(self):
        with pytest.raises(ValueError, match="committee has 4"):
            FaultSchedule().crash(7, at=1.0).validate(n=4)

    def test_more_than_f_down_at_once(self):
        schedule = (
            FaultSchedule()
            .crash(0, at=1.0)
            .crash(1, at=2.0)
            .restart(0, at=5.0)
            .restart(1, at=6.0)
        )
        with pytest.raises(ValueError, match="more than f=1"):
            schedule.validate(f=1)
        schedule.validate(f=2)  # within budget

    def test_staggered_crashes_stay_within_budget(self):
        # never more than one node down at a time: restart before the
        # next crash must be counted as freeing the budget
        (
            FaultSchedule()
            .crash(0, at=1.0)
            .restart(0, at=3.0)
            .crash(1, at=3.0)  # same instant: restart applies first
            .restart(1, at=8.0)
            .validate(n=4, f=1)
        )

    def test_crash_plus_byzantine_overlap_exceeds_budget(self):
        schedule = (
            FaultSchedule()
            .crash(0, at=1.0)
            .restart(0, at=10.0)
            .byzantine_flood(3, at=4.0, until=8.0)
        )
        with pytest.raises(ValueError, match="more than f=1"):
            schedule.validate(n=4, f=1)
        schedule.validate(n=4, f=2)

    def test_crash_plus_byzantine_disjoint_is_fine(self):
        (
            FaultSchedule()
            .byzantine_withhold(3, at=1.0, until=4.0)
            .crash(0, at=4.0)  # starts the instant the window closes
            .restart(0, at=9.0)
            .validate(n=4, f=1)
        )

    def test_one_node_misbehaving_many_ways_costs_one_budget_unit(self):
        # overlapping flood + withhold + crash on the same node is one
        # faulty node, not three
        (
            FaultSchedule()
            .byzantine_flood(3, at=1.0, until=10.0)
            .byzantine_withhold(3, at=2.0, until=6.0)
            .byzantine_equivocate(3, at=4.0, until=12.0)
            .validate(n=4, f=1)
        )

    def test_byzantine_node_range_checked(self):
        with pytest.raises(ValueError, match="committee has 4"):
            FaultSchedule().byzantine_censor(9, at=1.0, until=2.0).validate(n=4)

    @pytest.mark.parametrize("schedule", [
        FaultSchedule().drop_rate(0.5, node=9),
        FaultSchedule().drop_rate(0.5, link=(9, 0)),
        FaultSchedule().duplicate(0.5, link=(0, 9)),
        FaultSchedule().duplicate(0.5, node=4),
        FaultSchedule().reorder(0.5, spread=0.1, node=-2),
        FaultSchedule().hard_partition([[0, 1], [2, 9]], at=1.0, heal_at=2.0),
    ], ids=["drop-node", "drop-link", "dup-link", "dup-node", "reorder-node",
            "partition-member"])
    def test_link_fault_node_ids_range_checked(self, schedule):
        # an out-of-range id would silently inject nothing
        with pytest.raises(ValueError, match="committee has 4"):
            schedule.validate(n=4)
        schedule.validate()  # without n there is nothing to check against

    def test_open_ended_byzantine_window_holds_budget_forever(self):
        schedule = (
            FaultSchedule()
            .byzantine_withhold(2, at=1.0)  # no until: open-ended
            .crash(0, at=50.0)
        )
        with pytest.raises(ValueError, match="more than f=1"):
            schedule.validate(n=4, f=1)


class TestValidateBudgetProperty:
    """Property: validate(f) accepts iff peak simultaneous-faulty <= f."""

    def test_budget_matches_bruteforce_peak(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        window = st.tuples(
            st.integers(0, 3),  # node
            st.integers(0, 20),  # start
            st.integers(1, 10),  # length
            st.sampled_from(["crash", "flood", "withhold"]),
        )

        @settings(max_examples=60, deadline=None)
        @given(st.lists(window, min_size=1, max_size=6), st.integers(1, 3))
        def check(windows, f):
            schedule = FaultSchedule()
            spans: list[tuple[int, float, float]] = []
            crashed: set[int] = set()
            for node, start, length, kind in windows:
                at, until = float(start), float(start + length)
                if kind == "crash":
                    if node in crashed:
                        continue  # crash/restart pairing is not under test
                    crashed.add(node)
                    schedule = schedule.crash(node, at=at).restart(node, at=until)
                elif kind == "flood":
                    schedule = schedule.byzantine_flood(node, at=at, until=until)
                else:
                    schedule = schedule.byzantine_withhold(node, at=at, until=until)
                spans.append((node, at, until))
            # brute-force the peak count of simultaneously-faulty nodes
            # on a fine grid (all spans have integer edges)
            edges = sorted({t for _, a, b in spans for t in (a, b)})
            peak = 0
            for t in edges:
                active = {n for n, a, b in spans if a <= t < b}
                peak = max(peak, len(active))
            if peak > f:
                with pytest.raises(ValueError, match=f"more than f={f}"):
                    schedule.validate(n=4, f=f)
            else:
                schedule.validate(n=4, f=f)

        check()
