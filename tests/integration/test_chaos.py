"""End-to-end chaos: crash + lossy links + partition on a live committee.

The full chaos_soak bench scenario (and its CI seed matrix) lives in
``repro.bench``; this is the tier-1 version — one seeded schedule that
exercises every chaos layer at once: reliable delivery under 5% loss,
a crash–restart with journal-replay catch-up, a 2|2 hard partition that heals,
and the liveness watchdog, with vote batching on so batched constituents
hit the mid-recovery buffering path.
"""

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology


def chaos_deployment(schedule_seed=13, deployment_seed=3):
    clients, balances = fund_clients(6)
    schedule = (
        FaultSchedule(seed=schedule_seed)
        .drop_rate(0.05, until=20.0)
        .crash(3, at=3.0)
        .restart(3, at=8.0)
        .hard_partition([[0, 1], [2, 3]], at=11.0, heal_at=14.0)
    )
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=balances,
        net_params=params.NetParams(reliable_delivery=True),
        fault_schedule=schedule,
        seed=deployment_seed,
    )
    txs = []
    for j in range(4):
        for i, client in enumerate(clients):
            k = j * len(clients) + i
            tx = make_transfer(
                client, clients[(i + 1) % len(clients)].address, 1,
                nonce=j, created_at=0.0,
            )
            txs.append(tx)
            # submit only to validators the schedule never crashes
            deployment.submit(tx, validator_id=k % 3, at=0.3 + k * 0.4)
    return deployment, txs


class TestChaosEndToEnd:
    def test_safety_liveness_and_convergence(self):
        deployment, txs = chaos_deployment()
        deployment.start()
        deployment.run_until(45.0)

        # Safety: every node (including the restarted one) on one chain.
        hashes = {
            tuple(v.blockchain.block_hashes()) for v in deployment.validators
        }
        roots = {v.blockchain.state.state_root() for v in deployment.validators}
        assert len(hashes) == 1
        assert len(roots) == 1
        assert deployment.safety_holds()
        assert deployment.states_agree()

        # Liveness: every client transaction commits despite the chaos.
        for tx in txs:
            assert deployment.committed_everywhere(tx)

        # The restarted node fully recovered and rejoined.
        node = deployment.validators[3]
        assert not node.crashed and not node._recovering

        # The schedule actually fired (this test isn't vacuous).
        applied = [k for k, _, _ in deployment.fault_controller.applied]
        assert "crash" in applied and "restart" in applied
        assert "partition-open" in applied and "partition-close" in applied
        assert deployment.network.stats.dropped > 0

    def test_chaos_run_is_deterministic(self):
        results = []
        for _ in range(2):
            deployment, _ = chaos_deployment()
            deployment.start()
            deployment.run_until(45.0)
            stats = deployment.network.stats
            results.append((
                [tuple(v.blockchain.block_hashes()) for v in deployment.validators],
                [v.blockchain.state.state_root() for v in deployment.validators],
                stats.messages,
                stats.retransmissions,
                stats.duplicates_dropped,
                stats.dropped,
                deployment.fault_controller.applied,
            ))
        assert results[0] == results[1]
