"""A committed transaction's fee reaches the proposer of its block."""

from repro import params
from repro.core.deployment import GENESIS_BALANCE, Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology


def test_fee_revenue_reaches_proposer():
    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=False),
        topology=single_region_topology(4),
        extra_balances=balances,
    )
    deployment.start()
    tx = make_transfer(clients[0], clients[1].address, 1, nonce=0, gas_price=5)
    deployment.submit(tx, validator_id=2, at=0.05)
    deployment.run_until(4.0)
    proposer_address = deployment.keypairs[2].address
    state = deployment.validators[0].blockchain.state

    assert state.balance_of(proposer_address) == GENESIS_BALANCE + 21_000 * 5
