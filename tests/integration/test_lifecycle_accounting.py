"""Lifecycle accounting invariants across a chaos crash/restart run.

Every phase boundary on every replica is a ``tx.<phase>`` trace event —
including re-admissions after a crash recycles a block and duplicate
commits during journal-replay catch-up — and ``resolve()`` over the trace must
still produce, per tx, a monotone timeline whose phase durations are
non-negative and telescope exactly to the end-to-end commit latency.
Tracing must also be a pure observation: the same run traced and
untraced decides byte-identical chains.
"""

import pytest

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.telemetry import analyze_critical_path
from repro.telemetry.critical_path import resolve


def _chaos_deployment(schedule_seed=13, deployment_seed=3):
    """Crash + restart + lossy links + partition (tier-1 chaos shape)."""
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
            deployment.submit(tx, validator_id=k % 3, at=0.3 + k * 0.4)
    return deployment, txs


def _run_chaos(tracer=None):
    previous = telemetry.set_tracer(tracer) if tracer is not None else None
    try:
        deployment, txs = _chaos_deployment()
        deployment.start()
        deployment.run_until(45.0)
    finally:
        if previous is not None:
            telemetry.set_tracer(previous)
    return deployment, txs


def _resolved(tracer):
    return {lc.tx: lc for lc in resolve(tracer.records)}


class TestAccountingInvariants:
    def test_durations_nonnegative_and_telescope_under_chaos(self):
        tracer = telemetry.Tracer()
        deployment, txs = _run_chaos(tracer)
        assert deployment.safety_holds()
        # the chaos actually fired, so recycles/catch-up paths stamped
        applied = [k for k, _, _ in deployment.fault_controller.applied]
        assert "crash" in applied and "restart" in applied

        resolved = _resolved(tracer)
        assert len(resolved) >= len(txs)
        for tx in txs:
            lc = resolved[tx.tx_hash.hex()]
            assert lc.committed, f"tx {tx.tx_hash.hex()[:8]} never committed"
            assert all(d >= 0.0 for d in lc.durations.values()), lc.durations
            assert sum(lc.durations.values()) == pytest.approx(lc.e2e)
            # submission reached a validator before anything else
            assert lc.times["submit"] == min(lc.times.values())
            assert lc.times["commit"] >= lc.times["submit"]

    def test_commit_time_matches_chain_commit(self):
        tracer = telemetry.Tracer()
        deployment, txs = _run_chaos(tracer)
        resolved = _resolved(tracer)
        # resolved commit-phase time is a real commit instant: no earlier
        # than the earliest replica's execution bookkeeping for that tx
        chain = deployment.validators[0].blockchain
        for tx in txs[:6]:
            lc = resolved[tx.tx_hash.hex()]
            committed_at = chain.commit_times.get(tx.tx_hash)
            assert committed_at is not None
            assert lc.times["commit"] <= committed_at + 1e-9
            if "execute" in lc.times:
                assert lc.times["execute"] >= lc.times["commit"]

    def test_critical_path_analysis_over_chaos_run(self):
        tracer = telemetry.Tracer()
        _run_chaos(tracer)
        report = analyze_critical_path(tracer.records)
        assert report.committed >= 24
        e2e = report.e2e.mean
        total = sum(s.mean for s in report.raw.values())
        assert total == pytest.approx(e2e, rel=1e-9)
        assert report.superblocks  # grouped per decided superblock


class TestRecordingIsPureObservation:
    def test_enabled_vs_disabled_runs_identical(self):
        outcomes = []
        for tracer in (telemetry.Tracer(), None):
            deployment, _ = _run_chaos(tracer)
            stats = deployment.network.stats
            outcomes.append((
                [tuple(v.blockchain.block_hashes())
                 for v in deployment.validators],
                [v.blockchain.state.state_root()
                 for v in deployment.validators],
                stats.messages,
                stats.retransmissions,
                stats.dropped,
            ))
        assert outcomes[0] == outcomes[1]

    def test_traced_dapp_run_equals_untraced(self):
        from repro.diablo.runner import run_dapp_workload

        def run():
            outcome = run_dapp_workload("nasdaq", scale=0.002)
            chains = [
                tuple(v.blockchain.block_hashes())
                for v in outcome.deployment.validators
            ]
            result = outcome.result
            fields = (result.name, result.sent, result.committed,
                      result.duration_s, result.latencies_s.tolist())
            return fields, chains

        tracer = telemetry.Tracer()
        previous = telemetry.set_tracer(tracer)
        try:
            traced = run()
        finally:
            telemetry.set_tracer(previous)
        untraced = run()
        names = {r["name"] for r in tracer.records}
        # the sampler and the stamps ran, and only observed
        assert {"obs.sample", "tx.submit", "tx.commit"} <= names
        assert traced == untraced
