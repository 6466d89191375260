"""Schedule-driven Byzantine campaigns end-to-end (message-level engine).

The FaultSchedule drives node 3 through misbehaviour windows on the
deployment clock; RPM's economics must then bite: n−f matching reports
slash the whole deposit, the exclusion event propagates, and correct
nodes stop accepting (and, with ``rpm_exclude_comms``, stop hearing)
the attacker — all while the honest chains stay byte-identical.
"""

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.rewards import DepositLedger
from repro.core.rpm import read_events
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology


def run_campaign(
    schedule,
    *,
    rpm=True,
    rpm_exclude_comms=False,
    horizon_s=14.0,
    seed=5,
    ledger=None,
):
    clients, balances = fund_clients(6, seed=seed + 800)
    deployment = Deployment(
        protocol=params.ProtocolParams(
            n=4, rpm=rpm, rpm_exclude_comms=rpm_exclude_comms,
            watchdog_stall_rounds=8,
        ),
        topology=single_region_topology(4),
        fault_schedule=schedule,
        extra_balances=balances,
        seed=seed,
        execution_rate=2_000.0,
    )
    txs = []
    for j in range(4):
        for i, keypair in enumerate(clients):
            k = j * len(clients) + i
            tx = make_transfer(
                keypair, clients[(i + 1) % len(clients)].address, 1,
                nonce=j, created_at=0.0,
            )
            txs.append(tx)
            deployment.submit(tx, validator_id=k % 3, at=0.25 + k * 0.25)
    if ledger is not None:
        t = 0.0
        while t < horizon_s:
            t += 0.5
            deployment.sim.schedule(t, ledger.sample, deployment.validators[0])
    deployment.start()
    deployment.run_until(horizon_s)
    return deployment, txs


def flood_schedule(seed=5):
    return FaultSchedule(seed=seed).byzantine_flood(
        3, at=0.5, until=6.0, per_block=200, total=1_000, seed=seed + 99
    )


class TestSlashingBites:
    def test_flooder_is_slashed_excluded_and_silenced(self):
        deployment, txs = run_campaign(flood_schedule(), rpm=True)
        observer = deployment.validators[0]
        attacker = deployment.keypairs[3].address

        # Theorem 1: the whole deposit is gone and the seat is excluded.
        assert observer.rpm_deposit_of(attacker) == 0
        assert attacker in observer.excluded_validators

        # Exclusion event recorded on-chain (Alg. 2 line 42).
        events = read_events(observer.blockchain.state)
        assert events, "no ByzantineEvent recorded"

        # No-further-proposals: once excluded, correct nodes vote the
        # attacker's slot out, so its blocks stop entering the chain —
        # the committee must then decide many more rounds without it.
        attacker_rounds = [
            b.index for b in observer.blockchain.chain if b.proposer_id == 3
        ]
        final_round = observer.blockchain.chain[-1].index
        assert attacker_rounds, "flood blocks never landed"
        assert final_round - max(attacker_rounds) >= 5, (
            attacker_rounds, final_round
        )

    def test_campaign_does_not_break_honest_liveness_or_safety(self):
        deployment, txs = run_campaign(flood_schedule(), rpm=True)
        honest = deployment.validators[:3]
        assert deployment.safety_holds()
        assert len({tuple(v.blockchain.block_hashes()) for v in honest}) == 1
        assert len({v.blockchain.state.state_root() for v in honest}) == 1
        for tx in txs:
            assert all(
                tx.tx_hash in v.blockchain.commit_times for v in honest
            ), "honest-submitted valid tx failed to commit"

    def test_without_rpm_the_flooder_keeps_its_deposit(self):
        deployment, _ = run_campaign(flood_schedule(), rpm=False)
        observer = deployment.validators[0]
        attacker = deployment.keypairs[3].address
        assert attacker not in observer.excluded_validators
        assert observer.stats.txs_discarded > 0  # damage actually landed

    def test_deposit_ledger_tracks_the_slash(self):
        ledger = None
        schedule = flood_schedule()
        clients_seed = 5
        # build the ledger against the deployment's validator addresses:
        # run once to learn them, then re-run sampled (cheap, n=4)
        deployment, _ = run_campaign(schedule, rpm=True)
        addresses = tuple(kp.address for kp in deployment.keypairs[:4])
        ledger = DepositLedger(addresses)
        deployment, _ = run_campaign(
            flood_schedule(), rpm=True, seed=clients_seed, ledger=ledger
        )
        attacker = addresses[3]
        stats = ledger.stats(attacker=attacker)
        assert stats["attacker_final_deposit"] == 0
        assert stats["attacker_net_payoff"] < 0
        assert stats["attacker_excluded"] == 1.0
        assert stats["time_to_exclusion_s"] < 10.0
        assert stats["honest_yield"] > 0  # redistribution reached them
        assert stats["slash_events"] >= 1


class TestCommsExclusion:
    def test_excluded_seat_traffic_is_dropped_and_rounds_keep_cadence(self):
        deployment, txs = run_campaign(
            flood_schedule(), rpm=True, rpm_exclude_comms=True
        )
        honest = deployment.validators[:3]
        assert sum(v.excluded_msgs_dropped for v in honest) > 0
        assert len({tuple(v.blockchain.block_hashes()) for v in honest}) == 1
        for tx in txs:
            assert all(tx.tx_hash in v.blockchain.commit_times for v in honest)
        # vote_zero keeps post-exclusion rounds from waiting out the
        # 2 s proposer timeout: the chain must keep growing briskly.
        assert max(v.blockchain.height for v in honest) > 20


class TestEquivocation:
    def test_at_most_one_decided_block_per_proposer_slot(self):
        schedule = FaultSchedule(seed=7).byzantine_equivocate(
            3, at=0.5, until=8.0
        )
        deployment, _ = run_campaign(schedule, rpm=False, seed=7)
        honest = deployment.validators[:3]
        # RBC consistency: for every (proposer=3, index) slot that decided,
        # every honest node holds the same block — never both halves of
        # the equivocation.
        per_node = []
        for v in honest:
            per_node.append({
                b.index: b.block_hash
                for b in v.blockchain.chain
                if b.proposer_id == 3
            })
        assert per_node[0] == per_node[1] == per_node[2]
        assert deployment.safety_holds()


class TestWithholding:
    def test_vote_withholding_cannot_stall_n_minus_f(self):
        schedule = FaultSchedule(seed=9).byzantine_withhold(
            3, at=0.5, until=10.0
        )
        deployment, txs = run_campaign(schedule, rpm=True, seed=9)
        honest = deployment.validators[:3]
        flooder = deployment.validators[3]
        assert flooder.withheld_msgs > 0
        for tx in txs:
            assert all(tx.tx_hash in v.blockchain.commit_times for v in honest)
        assert len({tuple(v.blockchain.block_hashes()) for v in honest}) == 1


class TestBudget:
    def test_campaign_deployment_enforces_combined_budget(self):
        schedule = (
            FaultSchedule()
            .byzantine_flood(3, at=1.0, until=6.0)
            .crash(2, at=2.0)
            .restart(2, at=5.0)
        )
        with pytest.raises(ValueError, match="more than f=1"):
            Deployment(
                protocol=params.ProtocolParams(n=4),
                topology=single_region_topology(4),
                fault_schedule=schedule,
                seed=1,
            )
