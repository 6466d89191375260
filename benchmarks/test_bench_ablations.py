"""Design-choice ablations called out in DESIGN.md.

* ABL-SUPERBLOCK — superblock (n proposers/round) vs single-leader rounds.
* ABL-POOL — partitioned (TVPR) vs replicated mempools under bursts.
* ABL-CENSOR — §VI: load-balancer resend loop vs censoring validators.
"""

import numpy as np

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.loadbalancer import RandomLoadBalancer, censorship_probability
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.sim.chains import SRBB
from repro.sim.engine import simulate_chain
from repro.workloads import constant_trace, nasdaq_trace


def test_superblock_vs_single_leader(benchmark, run_once):
    """The RBBC superblock multiplies per-round capacity by the committee
    size; a single-leader variant with the same per-proposer block size
    saturates n× earlier."""

    def sweep():
        trace = constant_trace(1500, 120)
        superblock = simulate_chain(SRBB, trace)
        single = simulate_chain(
            SRBB.with_(name="srbb-single-leader", proposers_per_round=1,
                       block_txs=SRBB.block_txs),
            trace,
        )
        return superblock, single

    superblock, single = run_once(benchmark, sweep)
    print()
    print(
        f"superblock   : {superblock.throughput_tps:8.1f} TPS, "
        f"commit {superblock.commit_rate:.0%}\n"
        f"single-leader: {single.throughput_tps:8.1f} TPS, "
        f"commit {single.commit_rate:.0%}"
    )
    assert superblock.throughput_tps > 10 * single.throughput_tps
    assert superblock.commit_rate > single.commit_rate


def test_pool_partitioning_ablation(benchmark, run_once):
    """TVPR's second effect: with one pool per transaction the network
    buffers n× more distinct transactions, absorbing the NASDAQ burst."""

    def sweep():
        trace = nasdaq_trace()
        partitioned = simulate_chain(SRBB, trace)
        replicated = simulate_chain(
            SRBB.with_(name="srbb-replicated-pool", pool_partitioned=False),
            trace,
        )
        return partitioned, replicated

    partitioned, replicated = run_once(benchmark, sweep)
    print()
    print(
        f"partitioned pools: commit {partitioned.commit_rate:.1%}, "
        f"dropped {partitioned.dropped_pool + partitioned.dropped_validation}\n"
        f"replicated pools : commit {replicated.commit_rate:.1%}, "
        f"dropped {replicated.dropped_pool + replicated.dropped_validation}"
    )
    assert partitioned.commit_rate == 1.0
    assert replicated.commit_rate < 1.0


def test_censorship_mitigation(benchmark, run_once):
    """ABL-CENSOR: with a random-forwarding load balancer and automated
    resends, every transaction commits despite a censoring validator, and
    the measured retry counts match the geometric model.

    Two rows of 20 transfers: one sender with nonces 0-19, and 20 senders
    with one transfer each.  Honest pools release a sender's nonces in
    order, so the one-sender row only matches the model because the
    balancer resends a sender's lowest unconfirmed nonce first and does
    not count a wait behind an unconfirmed predecessor as an attempt.
    """

    def run(senders):
        clients, balances = fund_clients(senders + 1)
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4),
            topology=single_region_topology(4),
            fault_schedule=FaultSchedule().byzantine_censor(2, at=0.0),
            extra_balances=balances,
        )
        lb = RandomLoadBalancer(deployment, receipt_timeout_s=1.5, seed=11)
        deployment.start()
        receiver = clients[senders].address
        txs = [
            make_transfer(clients[i % senders], receiver, 1, nonce=i // senders)
            for i in range(20)
        ]
        for i, tx in enumerate(txs):
            lb.submit(tx, at=0.05 + 0.02 * i)
        deployment.run_until(90.0)
        committed = sum(deployment.committed_everywhere(tx) for tx in txs)
        attempts = np.array(list(lb.stats.attempts.values()))
        return committed, len(txs), attempts, lb.stats

    rows = run_once(benchmark, lambda: {senders: run(senders) for senders in (1, 20)})
    print()
    for senders, (committed, total, attempts, stats) in rows.items():
        print(
            f"{senders:2d} sender(s): committed {committed}/{total}, "
            f"resends={stats.resends}, mean attempts={attempts.mean():.2f} "
            f"(analytic retry prob/round: {censorship_probability(4, 1, 1):.2f})"
        )
    for committed, total, attempts, _ in rows.values():
        assert committed == total
        # mean attempts ≈ 1/(1−c/n) = 1.33 for c=1, n=4 (small-sample slack)
        assert attempts.mean() < 2.5
