"""Network faults: the ``slow_nodes`` delay, the schedule's loss windows as
the transport asks them, and delay faults on live deployments."""

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultController, FaultSchedule
from repro.net.faults import slow_nodes
from repro.net.topology import single_region_topology
from repro.net.transport import PartialSynchrony


class TestStrategies:
    def test_slow_nodes(self):
        fn = slow_nodes([2], 1.5)
        assert fn(2, 0, 0.0) == 1.5
        assert fn(0, 2, 0.0) == 1.5
        assert fn(0, 1, 0.0) == 0.0


class TestDropStrategies:
    """Lossy-link windows answer the transport's per-message questions
    (through the :class:`FaultController` a schedule installs)."""

    @staticmethod
    def model(schedule):
        deployment = Deployment(protocol=params.ProtocolParams(n=4, rpm=False))
        return FaultController(deployment, schedule)

    def test_drop_rate_window_and_scope(self):
        c = self.model(FaultSchedule().drop_rate(0.3, node=2, at=1.0, until=5.0))
        assert c.drop_probability(2, 0, 2.0) == pytest.approx(0.3)
        assert c.drop_probability(0, 2, 2.0) == pytest.approx(0.3)
        assert c.drop_probability(0, 1, 2.0) == 0.0  # doesn't touch node 2
        assert c.drop_probability(2, 0, 0.5) == 0.0  # before the window
        assert c.drop_probability(2, 0, 5.0) == 0.0  # window end is exclusive

    def test_drop_rate_link_scope(self):
        c = self.model(FaultSchedule().drop_rate(0.5, link=(0, 1)))
        assert c.drop_probability(0, 1, 0.0) == pytest.approx(0.5)
        assert c.drop_probability(1, 0, 0.0) == 0.0  # directed

    def test_drop_rate_rejects_bad_probability(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultSchedule().drop_rate(1.5)

    def test_duplicate_rate_window(self):
        c = self.model(FaultSchedule().duplicate(0.2, until=3.0))
        assert c.duplicate_probability(0, 1, 1.0) == pytest.approx(0.2)
        assert c.duplicate_probability(0, 1, 3.0) == 0.0

    def test_hard_partition_severs_cross_group_until_heal(self):
        c = self.model(
            FaultSchedule().hard_partition([[0, 1], [2, 3]], at=2.0, heal_at=8.0)
        )
        assert c.drop_probability(0, 2, 4.0) == 1.0
        assert c.drop_probability(0, 1, 4.0) == 0.0  # same island
        assert c.drop_probability(0, 2, 1.0) == 0.0  # before the partition
        assert c.drop_probability(0, 2, 8.0) == 0.0  # healed

    def test_hard_partition_ungrouped_nodes_are_islands(self):
        c = self.model(FaultSchedule().hard_partition([[0, 1]], at=0.0, heal_at=9.0))
        assert c.drop_probability(2, 3, 1.0) == 1.0  # two singleton islands
        assert c.drop_probability(0, 2, 1.0) == 1.0
        assert c.drop_probability(2, 2, 1.0) == 0.0  # loopback stays up

    def test_hard_partition_validates_groups(self):
        with pytest.raises(ValueError, match="disjoint"):
            FaultSchedule().hard_partition([[0, 1], [1, 2]], at=0.0, heal_at=1.0)
        with pytest.raises(ValueError, match="before it starts"):
            FaultSchedule().hard_partition([[0], [1]], at=5.0, heal_at=2.0)


class TestComposition:
    """Overlapping loss windows compose as independent losses, never summed."""

    model = staticmethod(TestDropStrategies.model)

    def test_drop_windows_compose_independently(self):
        c = self.model(FaultSchedule().drop_rate(0.5).drop_rate(0.5))
        assert c.drop_probability(0, 1, 0.0) == pytest.approx(0.75)  # 1 - 0.5 * 0.5

    def test_partition_clamps_composed_loss_at_one(self):
        c = self.model(
            FaultSchedule()
            .drop_rate(0.4)
            .hard_partition([[0], [1]], at=0.0, heal_at=9.0)
        )
        assert c.drop_probability(0, 1, 1.0) == 1.0
        assert c.drop_probability(0, 1, 9.0) == pytest.approx(0.4)  # healed


class TestLiveEffects:
    def _deployment(self, delay_fn, *, gst=5.0):
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4, rpm=False),
            topology=single_region_topology(4),
            extra_balances=balances,
            timing=PartialSynchrony(gst=gst, delta=0.5, pre_gst_max_delay=4.0),
            proposer_timeout=3.0,
        )
        deployment.network.adversarial_delay = delay_fn
        return deployment, clients

    def test_cross_group_lag_recovers_after_heal(self):
        """A 2|2 split that only slows cross-group traffic (no loss) until
        t = 6: every message still arrives, and consensus converges."""

        def cross_group_lag(src, dst, now):
            return 3.5 if now < 6.0 and (src < 2) != (dst < 2) else 0.0

        deployment, clients = self._deployment(cross_group_lag, gst=6.0)
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=0, at=0.1)
        deployment.run_until(30.0)
        assert deployment.committed_everywhere(tx)
        assert deployment.safety_holds()
        assert deployment.states_agree()

    def test_targeted_lag_cannot_lose_transactions(self):
        """Delaying one correct proposer may get its blocks voted out, but
        recycling (and eventually GST) commits its transactions anyway."""

        def proposer_lag(src, dst, now):
            return 3.5 if src == 0 and now < 8.0 else 0.0

        deployment, clients = self._deployment(proposer_lag, gst=8.0)
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=0, at=0.1)  # to the lagged node!
        deployment.run_until(40.0)
        assert deployment.committed_everywhere(tx)
        assert deployment.safety_holds()
