"""Adversary unit behaviour (block-level, without a full deployment)."""

from repro.adversary import make_invalid_transactions
from repro.core.validation import eager_validate, lazy_validate
from repro.vm.state import WorldState


class TestInvalidTransactionFactory:
    def test_invalid_txs_are_signed_but_unfunded(self):
        state = WorldState()
        txs = make_invalid_transactions(5)
        for tx in txs:
            # genuine signature...
            assert tx.signature is not None
            # ...but zero balance: eager validation must reject (checks iv/v)
            outcome = eager_validate(tx, state)
            assert not outcome
            assert outcome.error_code in ("insufficient-gas", "insufficient-balance")

    def test_invalid_txs_fail_lazy_validation_too(self):
        state = WorldState()
        for tx in make_invalid_transactions(3):
            assert not lazy_validate(tx, state)

    def test_deterministic_per_seed(self):
        a = make_invalid_transactions(3, seed=5)
        b = make_invalid_transactions(3, seed=5)
        assert [t.tx_hash for t in a] == [t.tx_hash for t in b]

    def test_distinct_across_seeds(self):
        a = make_invalid_transactions(3, seed=5)
        b = make_invalid_transactions(3, seed=6)
        assert {t.tx_hash for t in a}.isdisjoint({t.tx_hash for t in b})

    def test_count(self):
        assert len(make_invalid_transactions(17)) == 17
        assert make_invalid_transactions(0) == []


def campaign_deployment(schedule):
    from repro import params
    from repro.core.deployment import Deployment

    return Deployment(
        protocol=params.ProtocolParams(n=4, rpm=False),
        fault_schedule=schedule,
        seed=3,
    )


class TestCampaignToggles:
    def make_campaign_node(self):
        from repro.adversary import CampaignValidator
        from repro.faults import FaultSchedule

        # the window names seat 3; the clock never runs, so every flag
        # stays under the test's control
        deployment = campaign_deployment(
            FaultSchedule().byzantine_censor(3, at=1.0, until=2.0)
        )
        node = deployment.validators[3]
        assert isinstance(node, CampaignValidator)
        return deployment, node

    def test_all_behaviours_default_off(self):
        _, node = self.make_campaign_node()
        assert not node.flood_active
        assert not node.equivocate_active
        assert not node.withhold_active
        assert not node.censor_active

    def test_unknown_behaviour_rejected(self):
        import pytest

        _, node = self.make_campaign_node()
        with pytest.raises(ValueError, match="unknown misbehaviour"):
            node.set_misbehaviour("bribe", True)

    def test_flood_knobs_applied_at_toggle_time(self):
        _, node = self.make_campaign_node()
        node.set_misbehaviour("flood", True, per_block=7, total=21, seed=5)
        assert node.flood_active
        assert node.flood_per_block == 7
        assert node.flood_total == 21
        assert node._flood_seed == 5
        node.set_misbehaviour("flood", False)
        assert not node.flood_active

    def test_misbehaviour_log_records_edges(self):
        _, node = self.make_campaign_node()
        node.set_misbehaviour("withhold", True)
        node.set_misbehaviour("withhold", False)
        assert [(b, a) for b, a, _ in node.misbehaviour_log] == [
            ("withhold", True), ("withhold", False),
        ]

    def test_withholding_drops_wire_messages(self):
        from repro.consensus.messages import ConsensusMessage, MsgKind

        deployment, node = self.make_campaign_node()
        node.set_misbehaviour("withhold", True)
        before = deployment.network.stats.messages
        node._send_consensus_wire(
            ConsensusMessage(
                kind=MsgKind.BVAL, index=0, instance=0, round=0,
                value=1, sender=3,
            )
        )
        assert node.withheld_msgs == 1
        assert deployment.network.stats.messages == before  # nothing sent

    def test_window_at_zero_on_before_proposing(self):
        from repro.adversary import CAMPAIGN_BEHAVIOURS
        from repro.faults import FaultSchedule

        for behaviour in CAMPAIGN_BEHAVIOURS:
            build = getattr(FaultSchedule(), f"byzantine_{behaviour}")
            deployment = campaign_deployment(build(3, at=0.0))
            node = deployment.validators[3]
            flags_at_proposal = []
            start_round = node._start_round

            def spy(index, node=node, start_round=start_round):
                flags_at_proposal.append({
                    b for b in CAMPAIGN_BEHAVIOURS if getattr(node, f"{b}_active")
                })
                start_round(index)

            node._start_round = spy
            deployment.start()
            deployment.run_until(node.round_interval + 0.01)
            assert flags_at_proposal[0] == {behaviour}, behaviour


class TestEquivocationTimeout:
    def test_timeout_armed_before_a_crash_dies_with_its_incarnation(self):
        """The equivocating proposal arms its round timeout through the
        incarnation guard, as a correct proposal does: a timeout armed
        before the crash never fires in the restarted node."""
        from repro.faults import FaultSchedule

        restart_at = 1.5
        deployment = campaign_deployment(
            FaultSchedule()
            .byzantine_equivocate(3, at=0.0, until=10.0)
            .crash(3, at=1.0)
            .restart(3, at=restart_at)
        )
        node = deployment.validators[3]
        fired = []
        round_timeout = node._round_timeout

        def spy(index):
            fired.append(deployment.sim.now)
            round_timeout(index)

        node._round_timeout = spy
        deployment.start()
        deployment.run_until(4.0)
        armed_at = [now - node.proposer_timeout for now in fired if now >= 1.0]
        assert all(t >= restart_at for t in armed_at), fired


class TestParams:
    def test_protocol_derives_f(self):
        from repro import params

        assert params.ProtocolParams(n=4).f == 1
        assert params.ProtocolParams(n=10).f == 3
        assert params.ProtocolParams(n=10).quorum == 7

    def test_invalid_resilience_rejected(self):
        import pytest

        from repro import params

        with pytest.raises(ValueError):
            params.ProtocolParams(n=3, f=1)
        with pytest.raises(ValueError):
            params.ProtocolParams(n=0)

    def test_with_override(self):
        from repro import params

        p = params.ProtocolParams(n=4)
        q = p.with_(tvpr=False)
        assert q.tvpr is False and p.tvpr is True
        assert q.n == 4
