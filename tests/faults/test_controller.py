"""FaultController: schedule installation and the LinkFaultModel answers."""

import pytest

from repro import params
from repro.core.deployment import Deployment
from repro.faults import FaultController, FaultSchedule


def make_deployment(schedule=None, **kwargs):
    kwargs.setdefault("protocol", params.ProtocolParams(n=4, rpm=False))
    return Deployment(fault_schedule=schedule, **kwargs)


class TestInstall:
    def test_deployment_installs_the_schedule(self):
        schedule = FaultSchedule().crash(3, at=2.0).restart(3, at=5.0)
        deployment = make_deployment(schedule)
        assert deployment.fault_controller is not None
        assert deployment.network.faults is None  # no window events

    def test_window_events_hook_the_transport(self):
        schedule = FaultSchedule().drop_rate(0.1, until=5.0)
        deployment = make_deployment(schedule)
        assert deployment.network.faults is deployment.fault_controller

    def test_no_schedule_means_no_controller(self):
        deployment = make_deployment()
        assert deployment.fault_controller is None
        assert deployment.network.faults is None

    def test_double_install_rejected(self):
        deployment = make_deployment()
        controller = FaultController(deployment, FaultSchedule().crash(0, at=1.0))
        controller.install()
        with pytest.raises(RuntimeError, match="already installed"):
            controller.install()

    def test_invalid_schedule_rejected_at_install(self):
        # validate() runs against the deployment's (n, f): crashing two
        # of four nodes at once exceeds f=1
        schedule = (
            FaultSchedule()
            .crash(0, at=1.0).crash(1, at=1.5)
            .restart(0, at=9.0).restart(1, at=9.5)
        )
        with pytest.raises(ValueError, match="more than f=1"):
            make_deployment(schedule)

    def test_crash_restart_fire_on_the_deployment_clock(self):
        schedule = FaultSchedule().crash(3, at=2.0).restart(3, at=5.0)
        deployment = make_deployment(schedule)
        deployment.start()
        deployment.run_until(3.0)
        assert deployment.validators[3].crashed
        assert 3 in deployment.network._down
        deployment.run_until(6.0)
        assert not deployment.validators[3].crashed
        assert 3 not in deployment.network._down
        assert [(k, n) for k, n, _ in deployment.fault_controller.applied] == [
            ("crash", 3), ("restart", 3),
        ]

    def test_window_edges_are_logged(self):
        schedule = FaultSchedule().drop_rate(0.1, at=1.0, until=2.0)
        deployment = make_deployment(schedule)
        deployment.start()
        deployment.run_until(3.0)
        kinds = [k for k, _, _ in deployment.fault_controller.applied]
        assert "drop-open" in kinds and "drop-close" in kinds


class TestByzantineWindows:
    def test_toggles_fire_on_the_deployment_clock(self):
        schedule = FaultSchedule().byzantine_flood(
            3, at=1.0, until=2.0, per_block=5
        )
        deployment = make_deployment(schedule)
        node = deployment.validators[3]
        deployment.start()
        assert not node.flood_active
        deployment.run_until(1.5)
        assert node.flood_active
        assert node.flood_per_block == 5
        assert deployment.fault_controller.byzantine_windows_open == 1
        deployment.run_until(2.5)
        assert not node.flood_active
        assert deployment.fault_controller.byzantine_windows_open == 0
        kinds = [k for k, _, _ in deployment.fault_controller.applied]
        assert "byzantine_flood-open" in kinds
        assert "byzantine_flood-close" in kinds

    def test_byzantine_windows_do_not_hook_the_transport(self):
        schedule = FaultSchedule().byzantine_withhold(3, at=1.0, until=2.0)
        deployment = make_deployment(schedule)
        assert deployment.network.faults is None  # clock toggles, not link faults

    def test_schedule_auto_assigns_campaign_validator(self):
        from repro.adversary import CampaignValidator

        schedule = FaultSchedule().byzantine_censor(3, at=1.0, until=2.0)
        deployment = make_deployment(schedule)
        assert isinstance(deployment.validators[3], CampaignValidator)
        assert 3 in deployment.byzantine_ids

    def test_overlapping_windows_count_separately(self):
        schedule = (
            FaultSchedule()
            .byzantine_flood(3, at=1.0, until=4.0)
            .byzantine_withhold(3, at=2.0, until=3.0)
        )
        deployment = make_deployment(schedule)
        deployment.start()
        deployment.run_until(2.5)
        assert deployment.fault_controller.byzantine_windows_open == 2
        assert deployment.fault_controller.byzantine_active[3] == {
            "flood", "withhold"
        }
        deployment.run_until(5.0)
        assert deployment.fault_controller.byzantine_windows_open == 0


class TestLinkFaultModel:
    def controller(self, schedule):
        return FaultController(make_deployment(), schedule)

    def test_drop_windows_compose_as_independent_losses(self):
        c = self.controller(
            FaultSchedule().drop_rate(0.5, until=10.0).drop_rate(0.5, node=2, until=10.0)
        )
        assert c.drop_probability(0, 1, 5.0) == pytest.approx(0.5)
        assert c.drop_probability(0, 2, 5.0) == pytest.approx(0.75)
        assert c.drop_probability(0, 1, 10.0) == 0.0  # window closed

    def test_partition_severs_regardless_of_other_windows(self):
        c = self.controller(
            FaultSchedule().hard_partition([[0, 1], [2, 3]], at=2.0, heal_at=8.0)
        )
        assert c.drop_probability(0, 2, 5.0) == 1.0
        assert c.drop_probability(0, 1, 5.0) == 0.0
        assert c.drop_probability(0, 2, 9.0) == 0.0  # healed

    def test_partition_ungrouped_nodes_are_singleton_islands(self):
        c = self.controller(
            FaultSchedule().hard_partition([[0, 1]], at=0.0, heal_at=9.0)
        )
        assert c.drop_probability(2, 3, 1.0) == 1.0
        assert c.drop_probability(0, 1, 1.0) == 0.0

    def test_duplicate_probability_scoped_by_link(self):
        c = self.controller(FaultSchedule().duplicate(0.2, link=(0, 1), until=9.0))
        assert c.duplicate_probability(0, 1, 1.0) == pytest.approx(0.2)
        assert c.duplicate_probability(1, 0, 1.0) == 0.0

    def test_reorder_delay_bounded_and_deterministic(self):
        schedule = FaultSchedule(seed=21).reorder(1.0, spread=0.5, until=9.0)
        a = self.controller(schedule)
        b = self.controller(schedule)
        series_a = [a.extra_delay_s(0, 1, 1.0) for _ in range(20)]
        series_b = [b.extra_delay_s(0, 1, 1.0) for _ in range(20)]
        assert series_a == series_b  # same schedule seed, same answers
        assert all(0.0 <= d <= 0.5 for d in series_a)
        assert max(series_a) > 0.0

    def test_quiet_link_has_no_faults(self):
        c = self.controller(FaultSchedule().drop_rate(0.5, node=3, until=9.0))
        assert c.drop_probability(0, 1, 1.0) == 0.0
        assert c.duplicate_probability(0, 1, 1.0) == 0.0
        assert c.extra_delay_s(0, 1, 1.0) == 0.0
