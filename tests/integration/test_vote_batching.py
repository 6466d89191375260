"""Vote-batching ablation invariants on a live deployment.

The tentpole contract: with the same seed and workload, batching on vs
off must decide *byte-identical* superblocks — batching may only change
how votes travel, never what gets decided — while cutting the consensus
wire-message count substantially.
"""

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.node import CONSENSUS_KIND
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology


def _run_arm(*, vote_batching, horizon_s=8.0):
    client_keys, balances = fund_clients(4)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, vote_batching=vote_batching),
        topology=single_region_topology(4),
        extra_balances=balances,
        seed=9,
    )
    deployment.start()
    txs = []
    for i in range(12):
        tx = make_transfer(
            client_keys[i % 4], client_keys[(i + 1) % 4].address, 1, nonce=i // 4
        )
        # everything lands in the pools well before the first proposal, so
        # both arms propose from identical pool contents
        deployment.submit(tx, validator_id=i % 4, at=0.01 * (i + 1))
        txs.append(tx)
    deployment.run_until(horizon_s)
    return deployment, txs


class TestBatchingAblation:
    def test_chains_byte_identical_and_wire_traffic_reduced(self):
        unbatched, txs_a = _run_arm(vote_batching=False)
        batched, txs_b = _run_arm(vote_batching=True)

        # same workload in both arms (same seeds => same signed bytes)
        assert [t.tx_hash for t in txs_a] == [t.tx_hash for t in txs_b]

        # every transaction committed in both arms, safety holds
        for deployment, txs in ((unbatched, txs_a), (batched, txs_b)):
            assert deployment.safety_holds()
            chain = deployment.validators[0].blockchain
            assert all(chain.contains_tx(tx) for tx in txs)

        # byte-identical superblocks on the common prefix (the fixed
        # horizon lets the lower-latency unbatched arm decide *more*
        # heights, but every height decided by both must agree byte-wise)
        hashes_a = tuple(unbatched.validators[0].blockchain.block_hashes())
        hashes_b = tuple(batched.validators[0].blockchain.block_hashes())
        common = min(len(hashes_a), len(hashes_b))
        assert common >= 2
        assert hashes_a[:common] == hashes_b[:common]

        # and the wire-level win that pays for all of this
        wire_a = unbatched.network.stats.by_kind[CONSENSUS_KIND][0]
        wire_b = batched.network.stats.by_kind[CONSENSUS_KIND][0]
        assert wire_b * 3 < wire_a

    def test_batchers_active_only_when_enabled(self):
        with telemetry.use_registry() as off:
            _run_arm(vote_batching=False, horizon_s=4.0)
        with telemetry.use_registry() as on:
            batched, _ = _run_arm(vote_batching=True, horizon_s=4.0)
        assert off.get("srbb_consensus_batches_total") is None
        assert on.get("srbb_consensus_batches_total").total() > 0
        assert on.get("srbb_consensus_batch_votes").sum > 0
        # logical volume is conserved: the network counted every batched
        # vote even though far fewer wire messages carried them
        assert batched.network.stats.logical_messages > wire_count(batched)


def wire_count(deployment):
    return deployment.network.stats.by_kind[CONSENSUS_KIND][0]
