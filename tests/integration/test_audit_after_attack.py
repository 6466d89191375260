"""Post-attack audit: chains built under flooding still replay clean.

Definition 1's validity, checked after the fact: even though a Byzantine
proposer pushed thousands of invalid transactions through consensus, the
committed chain contains only transactions that re-execute successfully
from genesis — the commit loop's discard step leaves no trace.
"""

from repro import params
from repro.core.audit import audit_chain
from repro.core.deployment import Deployment
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.workloads.synthetic import factory_balances, transfer_request_factory


def test_flooded_chain_audits_clean():
    factory = transfer_request_factory(clients=8, seed=2400)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=True),
        topology=single_region_topology(4),
        fault_schedule=FaultSchedule().byzantine_flood(
            3, at=0.0, per_block=25, total=150
        ),
        extra_balances=factory_balances(factory),
    )
    deployment.start()
    txs = [factory(i, 0.01 * i) for i in range(40)]
    for i, tx in enumerate(txs):
        deployment.submit(tx, validator_id=i % 3, at=0.01 * i)
    deployment.run_until(12.0)

    # the attack actually happened...
    v0 = deployment.validators[0]
    assert v0.stats.txs_discarded > 0

    # ...yet every replica's chain replays without a single rejection
    committee = set(deployment.genesis.validator_addresses)
    for validator in deployment.correct_validators:
        report = audit_chain(
            validator.blockchain,
            genesis=deployment.genesis.build,
            committee=committee,
            registry=deployment.registry,
            coinbase_of=validator.coinbase_of,
        )
        assert report.ok, report.problems
        assert report.final_root_matches
        assert report.txs_replayed > 0


def test_audits_agree_across_replicas():
    """Two replicas' audits replay to the same root (safety, re-derived
    offline rather than read off the live objects)."""
    factory = transfer_request_factory(clients=4, seed=2500)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=False),
        topology=single_region_topology(4),
        extra_balances=factory_balances(factory),
    )
    deployment.start()
    for i in range(10):
        deployment.submit(factory(i, 0.01 * i), validator_id=i % 4, at=0.01 * i)
    deployment.run_until(6.0)
    roots = set()
    for validator in deployment.validators:
        report = audit_chain(
            validator.blockchain,
            genesis=deployment.genesis.build,
            registry=deployment.registry,
            coinbase_of=validator.coinbase_of,
        )
        assert report.ok
        roots.add(validator.blockchain.state.state_root())
    heights = {v.blockchain.height for v in deployment.validators}
    if len(heights) == 1:
        assert len(roots) == 1
