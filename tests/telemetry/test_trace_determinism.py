"""A seeded run's trace is the same bytes every time.

Trace events are stamped with the simulated clock and dumped in the order
they were recorded, and nothing in them reads the host's clock.  Two
identical seeded n = 4 runs — faults, crash/restart, catch-up and the
watchdog included, ``tx.*`` lifecycle events among them — must give
byte-identical JSONL and byte-identical Perfetto (trace-event) JSON.
"""

import json

from repro import params, telemetry
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.telemetry.observatory import start_sampling
from repro.telemetry.trace_event import to_trace_events, validate_trace_event


def _traced_run(seed: int = 3) -> telemetry.Tracer:
    tracer = telemetry.Tracer()
    previous = telemetry.set_tracer(tracer)
    try:
        clients, balances = fund_clients(4, seed=900 + seed)
        deployment = Deployment(
            protocol=params.ProtocolParams(
                n=4, tvpr=True, watchdog_stall_rounds=8
            ),
            topology=single_region_topology(4),
            extra_balances=balances,
            net_params=params.NetParams(reliable_delivery=True),
            fault_schedule=(
                FaultSchedule(seed=seed)
                .drop_rate(0.05, until=6.0)
                .crash(3, at=2.0)
                .restart(3, at=7.0)
            ),
            seed=seed,
        )
        deployment.start()
        start_sampling(deployment)
        for nonce in range(3):
            for i, keypair in enumerate(clients):
                k = nonce * len(clients) + i
                tx = make_transfer(
                    keypair, clients[(i + 1) % len(clients)].address, 1,
                    nonce=nonce, created_at=0.2 * k,
                )
                deployment.submit(tx, validator_id=k % 3, at=0.2 * k)
        deployment.run_until(12.0)
    finally:
        telemetry.set_tracer(previous)
    return tracer


def _perfetto(tracer) -> str:
    doc = to_trace_events(tracer.records)
    assert validate_trace_event(doc) == []
    assert doc["otherData"]["flows"] > 0
    return json.dumps(doc)


def test_identical_seeded_runs_give_identical_traces():
    first = _traced_run()
    second = _traced_run()
    names = {r["name"] for r in first.records}
    # the run exercised the formerly clock-less sites (decide, rbc), the
    # lifecycle stamps, the congestion sampler and the faults
    assert {"consensus.superblock", "node.commit", "fault.inject",
            "node.crash", "node.restart", "tx.submit", "tx.pool",
            "tx.propose", "tx.rbc", "tx.decide", "tx.commit",
            "obs.sample"} <= names
    assert first.dumps() == second.dumps()
    assert _perfetto(first) == _perfetto(second)


def test_records_are_on_the_simulated_clock_in_order():
    tracer = _traced_run()
    records = tracer.records
    assert all(set(r) == {"ts", "type", "name", "attrs"} for r in records)
    assert all("sim_now" not in r["attrs"] for r in records)
    ts = [r["ts"] for r in records]
    assert ts == sorted(ts)
    assert 0.0 <= ts[0] and ts[-1] <= 12.0
    superblocks = [r for r in records if r["name"] == "consensus.superblock"]
    commits = {
        (r["attrs"]["node"], r["attrs"]["index"]): r["ts"]
        for r in records if r["name"] == "node.commit"
    }
    assert superblocks
    for record in superblocks:
        # a node decides a superblock no later than it commits it
        key = (record["attrs"]["node"], record["attrs"]["index"])
        if key in commits:
            assert record["ts"] <= commits[key]
