"""Byzantine behaviours on the live engine: flooding + RPM, crash,
censorship, equivocation."""

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.faults import FaultSchedule
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology
from repro.vm.executor import native_address_for


def flooding_deployment(*, rpm: bool, flood_per_block=20, flood_total=None):
    clients, balances = fund_clients(4)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=rpm),
        topology=single_region_topology(4),
        fault_schedule=FaultSchedule().byzantine_flood(
            3, at=0.0, per_block=flood_per_block, total=flood_total
        ),
        extra_balances=balances,
    )
    return deployment, clients


class TestFloodingWithRPM:
    def test_flooder_slashed_and_excluded(self):
        deployment, clients = flooding_deployment(rpm=True)
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=0, at=0.05)
        deployment.run_until(10.0)
        flooder_address = deployment.keypairs[3].address
        v0 = deployment.validators[0]
        assert flooder_address in v0.excluded_validators
        assert v0.rpm_deposit_of(flooder_address) == 0

    def test_penalty_redistributed_to_correct_validators(self):
        deployment, clients = flooding_deployment(rpm=True)
        deployment.start()
        deployment.run_until(10.0)
        v0 = deployment.validators[0]
        deposit0 = v0.rpm_deposit_of(deployment.keypairs[0].address)
        # initial deposit + share of the slashed 1M + block rewards
        assert deposit0 > params.VALIDATOR_DEPOSIT

    def test_excluded_flooder_blocks_rejected(self):
        deployment, clients = flooding_deployment(rpm=True)
        deployment.start()
        deployment.run_until(12.0)
        v0 = deployment.validators[0]
        flooder_blocks_late = [
            b for b in v0.blockchain.chain[1:]
            if b.proposer_id == 3
        ]
        # after exclusion no flooder block enters the chain; allow the
        # pre-exclusion rounds only
        heights = [b.index for b in flooder_blocks_late]
        max_height = v0.blockchain.height
        assert all(h < max_height * 0.8 for h in heights)

    def test_valid_txs_never_dropped_under_flooding(self):
        """Table I's '#valid txs dropped: none' at test scale."""
        for rpm in (False, True):
            deployment, clients = flooding_deployment(rpm=rpm)
            deployment.start()
            txs = []
            for i in range(12):
                tx = make_transfer(clients[i % 4], clients[(i + 1) % 4].address,
                                   1, nonce=i // 4, created_at=0.01 * i)
                deployment.submit(tx, validator_id=i % 3, at=0.01 * i)
                txs.append(tx)
            deployment.run_until(10.0)
            for tx in txs:
                assert deployment.committed_everywhere(tx), f"rpm={rpm}"

    def test_without_rpm_flooder_keeps_flooding(self):
        deployment, clients = flooding_deployment(rpm=False)
        deployment.start()
        deployment.run_until(8.0)
        v0 = deployment.validators[0]
        assert not v0.excluded_validators
        # invalid txs keep getting executed and discarded
        assert v0.stats.txs_discarded > 0

    def test_safety_holds_under_flooding(self):
        for rpm in (False, True):
            deployment, _ = flooding_deployment(rpm=rpm)
            deployment.start()
            deployment.run_until(8.0)
            assert deployment.safety_holds()
            assert deployment.states_agree()


class TestCrash:
    def test_system_survives_one_crash(self):
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            fault_schedule=FaultSchedule().crash(3, at=1.0),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=0, at=2.0)  # after the crash
        deployment.run_until(15.0)
        assert deployment.committed_everywhere(tx)
        assert deployment.safety_holds()

    def test_crashed_validator_receives_nothing(self):
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            fault_schedule=FaultSchedule().crash(3, at=0.0),
            extra_balances=balances,
        )
        deployment.start()
        deployment.run_until(0.1)  # the crash fires on the clock at t = 0
        assert 3 in deployment.network._down
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        assert not deployment.validators[3].submit_transaction(tx)


class TestCensorship:
    def test_censored_tx_stuck_until_resent_elsewhere(self):
        """§VI: with TVPR, a tx sent only to a censor never commits —
        resending to another validator unblocks it."""
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            fault_schedule=FaultSchedule().byzantine_censor(2, at=0.0),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=2, at=0.05)  # straight to the censor
        deployment.run_until(4.0)
        assert not any(
            v.blockchain.contains_tx(tx) for v in deployment.correct_validators
        )
        # client resends to a correct validator
        deployment.submit(tx, validator_id=0, at=deployment.sim.now)
        deployment.run_until(deployment.sim.now + 4.0)
        assert deployment.committed_everywhere(tx)

    def test_censor_counts_suppressed_txs(self):
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            fault_schedule=FaultSchedule().byzantine_censor(2, at=0.0),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=2, at=0.05)
        deployment.run_until(3.0)
        assert deployment.validators[2].censored >= 1


class TestEquivocation:
    def test_equivocating_proposer_does_not_break_safety(self):
        clients, balances = fund_clients(2)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            fault_schedule=FaultSchedule().byzantine_equivocate(3, at=0.0),
            extra_balances=balances,
        )
        deployment.start()
        tx = make_transfer(clients[0], clients[1].address, 1, nonce=0)
        deployment.submit(tx, validator_id=0, at=0.05)
        deployment.run_until(10.0)
        assert deployment.safety_holds()
        assert deployment.states_agree()
        assert deployment.committed_everywhere(tx)
