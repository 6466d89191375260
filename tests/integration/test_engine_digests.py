"""Pinned engine digests: the event stream, fixed run by run.

Every observable of a finished deployment (chains, state roots, receipts,
commit times, event count, final clock, traffic counters overall and by
kind) is folded into one sha256 per run.  The constants were recorded at
the commit *before* the bucket-coalescing scheduler and the transport's
jitter prefill were deleted, where a two-engine differential suite showed
both schedulers produce this exact stream; with one scheduler left, these
constants and ``test_golden_run``'s are the only guard on it.  A scheduler
or transport change that claims to move no event must leave every one of
them untouched; re-record only for a change that means to alter the
stream, and say so.
"""

import hashlib

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology

#: (seed, reliable_delivery, faulty) -> sha256 of the run's digest
PINNED = {
    (3, False, False): (
        "28847e413e920f5b7cbf5117d6ec00b9b18f72adb34ebcb7641b99ab04c45f03"
    ),
    (3, False, True): (
        "137ec3a0f7dd0dfc22c9d3cc31575e6b227ba806a5869ec369875d6f9e4a7ccd"
    ),
    (3, True, False): (
        "c524df7afaa47928b8a39e71908674eb82cdfc721df738499924c02b9becdb7a"
    ),
    (3, True, True): (
        "c24e06d54e91adf3feb81853e05a1b146e757db566211226a0c73931eb6c3d0d"
    ),
    (1717, False, False): (
        "0f0230b039f25d2bb659ed648c2085216f33ce88fa5e1ca1b433a143fcc52e94"
    ),
    (1717, False, True): (
        "2b299cfd3cf720c3923415290f14e55843436fdbfacdf3d90185737f6bb33418"
    ),
    (1717, True, False): (
        "6d1c94ff2b6eeeb381a6ed7c3d3e1f140aa4f716b0910887775651cb7ba203c4"
    ),
    (1717, True, True): (
        "42be8b32e71aaa30d07bdedd313fd59ffbc5241af54f0a5664605a79bd29d271"
    ),
    (2**31 - 1, False, False): (
        "da3675183d6d584ec2abf4495cbcadad1bf8bbbe7f3bcb829a5b3df0fc437d89"
    ),
    (2**31 - 1, False, True): (
        "e869e409b8346bcadcdfee4b932c0bcef09eb4e8f57fe66ede25bef4515d9afd"
    ),
    (2**31 - 1, True, False): (
        "0ab735b94db67d9646d228996c9ee1fbbd129404deb596d83916f4d01c3b44de"
    ),
    (2**31 - 1, True, True): (
        "1f79049289e7ef1ecccd2fca121939baf3da30e816b4aabb92136b64d4515341"
    ),
}
#: 10 regions, n = 8, one +400 ms validator, NASDAQ-derived load
PINNED_MULTI_REGION_SLOW_NODE = (
    "bb61b4c77952c0670838f9e14b60dd62253531d203417b8e8cb2696e262a848e"
)


def _digest(deployment, **extra):
    """Everything observable about a finished run, hashed."""
    sim = deployment.sim
    stats = deployment.network.stats
    validators = deployment.correct_validators
    observed = {
        "events": sim.events_processed,
        "now": sim.now,
        "hashes": [tuple(v.blockchain.block_hashes()) for v in validators],
        "heights": [v.blockchain.height for v in validators],
        "roots": [v.blockchain.state.state_root() for v in validators],
        "commit_times": [
            sorted(v.blockchain.commit_times.items()) for v in validators
        ],
        "receipts": [
            sorted(
                (
                    tx_hash,
                    rec.height,
                    rec.position,
                    rec.commit_time,
                    rec.receipt.success,
                    rec.receipt.gas_used,
                    rec.receipt.error,
                )
                for tx_hash in v.receipts._records
                for rec in [v.receipts.get(tx_hash)]
            )
            for v in validators
        ],
        "net": (
            stats.messages,
            stats.bytes,
            stats.logical_messages,
            stats.retransmissions,
            stats.duplicates_dropped,
            stats.dropped,
        ),
        "by_kind": sorted(
            (str(kind), tuple(counts)) for kind, counts in stats.by_kind.items()
        ),
        **extra,
    }
    # repr of ints, floats, bytes, str, None and sorted containers of them
    # is the same in every process: nothing here iterates a set or a dict
    # in hash order.
    return hashlib.sha256(repr(sorted(observed.items())).encode()).hexdigest()


def _run_deployment(seed, *, reliable, faulty, horizon_s=16.0):
    clients, balances = fund_clients(4, seed=900 + seed % 13)
    fault_schedule = None
    if faulty:
        fault_schedule = (
            FaultSchedule(seed=seed)
            .drop_rate(0.03, until=6.0)
            .crash(3, at=2.0)
            .restart(3, at=7.0)
        )
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=balances,
        net_params=params.NetParams(reliable_delivery=reliable),
        fault_schedule=fault_schedule,
        seed=seed,
    )
    deployment.start()
    for nonce in range(3):
        for i, keypair in enumerate(clients):
            k = nonce * len(clients) + i
            tx = make_transfer(
                keypair, clients[(i + 1) % len(clients)].address, 1,
                nonce=nonce, created_at=0.2 * k,
            )
            deployment.submit(tx, validator_id=k % 3, at=0.2 * k)
    deployment.run_until(horizon_s)
    return _digest(deployment)


def _run_multi_region_slow_node():
    # The weak_validator flavor: 10-region topology, one +400 ms node,
    # NASDAQ-derived workload — the exact shape the bench scenarios gate.
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
    from repro.net.faults import slow_nodes
    from repro.net.topology import global_topology
    from repro.workloads import nasdaq_request_factory, nasdaq_trace
    from repro.workloads.synthetic import factory_balances

    trace = nasdaq_trace().scaled(0.002, name="nasdaq")
    factory = nasdaq_request_factory(clients=8, seed=321)
    factory._materialized = True  # force per-run signing: no cache
    deployment = Deployment(
        protocol=params.ProtocolParams(n=8, tvpr=True),
        topology=global_topology(8, degree=4, seed=7),
        extra_balances=factory_balances(factory),
        seed=7,
    )
    deployment.network.adversarial_delay = slow_nodes([7], 0.4)
    schedule = LoadSchedule.from_trace(trace, factory)
    bench = DiabloBenchmark(deployment, submitter=RoundRobinSubmitter())
    result = bench.run(schedule, horizon_s=60.0)
    return _digest(
        deployment,
        committed=result.committed,
        latencies=result.latencies_s.tobytes(),
    )


@pytest.mark.parametrize("seed, reliable, faulty", sorted(PINNED))
def test_engine_digest_is_pinned(seed, reliable, faulty):
    digest = _run_deployment(seed, reliable=reliable, faulty=faulty)
    assert digest == PINNED[seed, reliable, faulty]


def test_engine_digest_is_pinned_multi_region_slow_node():
    assert _run_multi_region_slow_node() == PINNED_MULTI_REGION_SLOW_NODE
