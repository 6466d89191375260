"""Engine-level adversarial schedules: safety and liveness on the DES.

Hypothesis controls the network seed, pre-GST adversarial delays, jitter
and client timing; after GST the deployment must converge with safety,
state agreement and full liveness for every valid transaction.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.net.topology import single_region_topology
from repro.net.transport import PartialSynchrony


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    gst=st.floats(min_value=0.0, max_value=2.0),
    delay_scale=st.floats(min_value=0.0, max_value=2.0),
    submit_jitter=st.lists(
        st.floats(min_value=0.0, max_value=1.5), min_size=6, max_size=6
    ),
)
def test_convergence_after_gst(seed, gst, delay_scale, submit_jitter):
    clients, balances = fund_clients(3)
    timing = PartialSynchrony(gst=gst, delta=0.5, pre_gst_max_delay=3.0)

    def adversarial(src: int, dst: int, now: float) -> float:
        # deterministic pseudo-random stretch, active before GST only
        if now >= gst:
            return 0.0
        return delay_scale * (((src * 31 + dst * 17 + int(now * 10)) % 7) / 3.0)

    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=False),
        topology=single_region_topology(4),
        extra_balances=balances,
        seed=seed,
        timing=timing,
        proposer_timeout=4.0,
    )
    deployment.network.adversarial_delay = adversarial
    deployment.start()

    txs = []
    for i, jitter in enumerate(submit_jitter):
        sender = clients[i % 3]
        tx = make_transfer(
            sender, clients[(i + 1) % 3].address, 1,
            nonce=i // 3, created_at=jitter,
        )
        deployment.submit(tx, validator_id=i % 4, at=jitter)
        txs.append(tx)

    deployment.run_until(gst + 25.0)

    assert deployment.safety_holds()
    assert deployment.states_agree()
    for tx in txs:
        assert deployment.committed_everywhere(tx)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_flooding_never_breaks_safety_random_seeds(seed):
    from repro.faults import FaultSchedule
    from repro.workloads.synthetic import factory_balances, transfer_request_factory

    factory = transfer_request_factory(clients=4, seed=seed % 1000 + 1)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=True),
        topology=single_region_topology(4),
        fault_schedule=FaultSchedule().byzantine_flood(
            3, at=0.0, per_block=10, total=50
        ),
        extra_balances=factory_balances(factory),
        seed=seed,
    )
    deployment.start()
    txs = [factory(i, 0.01 * i) for i in range(8)]
    for i, tx in enumerate(txs):
        deployment.submit(tx, validator_id=i % 3, at=0.01 * i)
    deployment.run_until(10.0)
    assert deployment.safety_holds()
    assert deployment.states_agree()
    for tx in txs:
        assert deployment.committed_everywhere(tx)
