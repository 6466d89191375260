#!/usr/bin/env python
"""Chain auditing — the operator surface.

Full offline replay of every replica from genesis: certificates,
linkage, re-execution, final state root.

Run:  python examples/chain_audit.py
"""

from repro import params
from repro.core.audit import audit_chain
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_invoke, make_transfer
from repro.net.topology import single_region_topology
from repro.vm.executor import native_address_for


def main() -> None:
    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        extra_balances=balances,
    )
    deployment.start()
    payment = make_transfer(clients[0], clients[1].address, 1_234, nonce=0)
    trade = make_invoke(
        clients[0], native_address_for("exchange"), "trade",
        ("GOOG", 180_55, 7, "buy"), nonce=1,
    )
    deployment.submit(payment, validator_id=0, at=0.05)
    deployment.submit(trade, validator_id=1, at=0.06)
    deployment.run_until(4.0)
    assert all(deployment.committed_everywhere(tx) for tx in (payment, trade))

    print("== chain audit ==")
    committee = set(deployment.genesis.validator_addresses)
    for validator in deployment.validators:
        report = audit_chain(
            validator.blockchain,
            genesis=deployment.genesis.build,
            committee=committee,
            registry=deployment.registry,
            coinbase_of=validator.coinbase_of,
        )
        print(f"  validator {validator.node_id}: ok={report.ok} "
              f"blocks={report.blocks_checked} txs={report.txs_replayed} "
              f"root-match={report.final_root_matches}")
        assert report.ok and report.final_root_matches
    print("\nchain audit demo OK")


if __name__ == "__main__":
    main()
