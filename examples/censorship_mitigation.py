#!/usr/bin/env python
"""Censorship mitigation with a random-forwarding load balancer (§VI).

TVPR's drawback: a transaction submitted only to a censoring validator is
never included in a block.  The paper's proposed mitigation — a
distributed load balancer that forwards each transaction to a random
validator, plus an automated client resend when no receipt arrives —
recovers every transaction with geometrically decaying retry counts.

Run:  python examples/censorship_mitigation.py
"""

import numpy as np

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.loadbalancer import RandomLoadBalancer, censorship_probability
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology


def direct_submission_is_censored() -> None:
    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        fault_schedule=FaultSchedule().byzantine_censor(2, at=0.0),
        extra_balances=balances,
    )
    deployment.start()
    tx = make_transfer(clients[0], clients[1].address, 7, nonce=0)
    deployment.submit(tx, validator_id=2, at=0.05)  # straight to the censor
    deployment.run_until(5.0)
    print("== direct submission to a censor ==")
    print("  committed:", deployment.committed_everywhere(tx), "(expected: False)")
    assert not any(
        v.blockchain.contains_tx(tx) for v in deployment.correct_validators
    )


def load_balancer_recovers() -> None:
    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        fault_schedule=FaultSchedule().byzantine_censor(2, at=0.0),
        extra_balances=balances,
    )
    lb = RandomLoadBalancer(deployment, receipt_timeout_s=1.5, seed=13)
    deployment.start()
    txs = [make_transfer(clients[0], clients[1].address, 1, nonce=i) for i in range(25)]
    for i, tx in enumerate(txs):
        lb.submit(tx, at=0.05 + 0.02 * i)
    deployment.run_until(120.0)

    committed = sum(deployment.committed_everywhere(tx) for tx in txs)
    attempts = np.array(list(lb.stats.attempts.values()))
    print("\n== load balancer + automated resend ==")
    print(f"  committed        : {committed}/{len(txs)}")
    print(f"  resends          : {lb.stats.resends}")
    print(f"  mean attempts/tx : {attempts.mean():.2f}")
    print(f"  max attempts/tx  : {attempts.max()}")
    print("  analytic censor probability after k forwards "
          "(1 censor / 4 validators):")
    for k in range(1, 5):
        print(f"    k={k}: {censorship_probability(4, 1, k):.4f}")
    assert committed == len(txs)


if __name__ == "__main__":
    direct_submission_is_censored()
    load_balancer_recovers()
    print("\ncensorship mitigation demo OK")
