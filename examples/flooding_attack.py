#!/usr/bin/env python
"""Flooding attack and the Reward-Penalty Mechanism (§V-B, Table I).

A Byzantine validator stuffs its block proposals with invalid
transactions (zero-balance senders).  With RPM enabled, the three correct
validators report the invalid transactions through the RPM contract; at
the n−f threshold the flooder's entire deposit is slashed, redistributed,
and the committee excludes it from future rounds.

Run:  python examples/flooding_attack.py
"""

from repro import params
from repro.core.deployment import Deployment
from repro.core.rpm import read_events
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.workloads.synthetic import factory_balances, transfer_request_factory


def run(rpm: bool) -> None:
    factory = transfer_request_factory(clients=8, seed=400)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=rpm),
        topology=single_region_topology(4),
        # seat 3 floods from t = 0 on: 50 invalid txs a block, 500 in all
        fault_schedule=FaultSchedule().byzantine_flood(
            3, at=0.0, per_block=50, total=500
        ),
        extra_balances=factory_balances(factory),
    )
    deployment.start()
    txs = [factory(i, 0.01 * i) for i in range(100)]
    for i, tx in enumerate(txs):
        deployment.submit(tx, validator_id=i % 3, at=0.01 * i)
    deployment.run_until(15.0)

    v0 = deployment.validators[0]
    flooder = deployment.keypairs[3].address
    events = read_events(v0.blockchain.state)

    print(f"\n== SRBB {'with' if rpm else 'without'} RPM ==")
    print(f"  committed valid txs : "
          f"{sum(deployment.committed_everywhere(tx) for tx in txs)}/100")
    print(f"  invalid txs proposed: {deployment.validators[3].invalid_txs_proposed}")
    print(f"  invalid executed+discarded at v0: {v0.stats.txs_discarded}")
    print(f"  flooder deposit     : {v0.rpm_deposit_of(flooder)}")
    print(f"  flooder excluded    : {flooder in v0.excluded_validators}")
    print(f"  slashing events     : {len(events)}")
    for kp in deployment.keypairs[:3]:
        print(f"  correct deposit     : {v0.rpm_deposit_of(kp.address)}")

    committed = sum(deployment.committed_everywhere(tx) for tx in txs)
    assert committed == 100, "valid transactions must never be lost"
    if rpm:
        assert flooder in v0.excluded_validators
        assert v0.rpm_deposit_of(flooder) == 0


if __name__ == "__main__":
    run(rpm=False)
    run(rpm=True)
    print("\nflooding attack demo OK — RPM slashes and excludes the flooder")
