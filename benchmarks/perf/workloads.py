"""The five open-loop workloads, built through the program's public constructors.

Every transaction is pre-signed and stamped with its due time on the
simulated clock before the run starts; inputs are made here from
``--seed`` (factory, deployment, topology and flood sub-seeds; what is
held fixed instead, and why, is said where it happens), so the program
only ever sees generated inputs.  ``scale`` shrinks a workload for the
smoke run and the self-test; 1.0 is the size every reported number uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.core.deployment import Deployment
from repro.core.transaction import Transaction
from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
from repro.faults import FaultSchedule
from repro.net.faults import slow_nodes
from repro.net.topology import global_topology, single_region_topology
from repro.params import NetParams, ProtocolParams
from repro.workloads import (
    Trace,
    flooding_mix,
    nasdaq_request_factory,
    nasdaq_trace,
    uber_request_factory,
    uber_trace,
)
from repro.workloads.synthetic import factory_balances, transfer_request_factory

#: simulated-time grid on which the run loop pauses to read probes
#: (pool depth, recovery, exclusion) from outside the program
GRID_S = 0.25

#: Sizes at scale 1.0, chosen so that one repeat runs 3.5-5 s on the
#: reference host: the driver allows ~30 s per invocation, and three
#: fresh-process repeats have to fit in it (README, "Workloads").
NASDAQ_RATE_SCALE = 0.3  # share of the published envelope's rate
UBER_RATE_SCALE = 0.08
DAPP_GRACE_S = 20.0
COMMITTEE_HORIZON_S = 4.0
GEO_VALID_TXS = 2_400
GEO_HORIZON_S = 16.0
CRASH_RATE_TPS = 600.0
CRASH_SEND_S = 30.0
CRASH_HORIZON_S = 45.0

#: ``crash_recover_n4`` takes its network and fault random streams from
#: this constant, not from ``--seed``: under random loss the run is
#: chaotic in them (over ten seeds p50 latency moved 0.98-1.56 s and max
#: latency 6.7-8.8 s), which no bound could hold.  ``--seed`` still makes
#: the clients, their transfers and the phase of their send times.
FIXED_FAULT_SEED = 17


def sub_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one input stream, derived from ``--seed``."""
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Prepared:
    """One workload, set up and ready to run."""

    deployment: Deployment
    schedule: LoadSchedule
    submitter: RoundRobinSubmitter
    horizon_s: float
    #: schedule entries generated to be valid (the rest are flood junk)
    valid: "list[tuple[float, Transaction]]"
    #: workload-specific probe, called at every grid point with the
    #: simulated time; writes the counts it reads into ``probed``
    probe: "Callable[[float, dict], None] | None" = None
    probed: dict = field(default_factory=dict)


def _prepared(deployment, schedule, *, horizon_s, targets=None, valid=None, probe=None):
    return Prepared(
        deployment=deployment,
        schedule=schedule,
        submitter=RoundRobinSubmitter(targets),
        horizon_s=horizon_s,
        valid=list(schedule.entries) if valid is None else valid,
        probe=probe,
    )


def _dapp(seed, scale, *, trace_fn, factory_fn, rate_scale, label):
    # The arrival envelope is the published one (the repository's default
    # trace); re-drawing it per seed moves the round phase at the end of
    # the trace and with it every single-round statistic.
    trace = trace_fn()
    # The smoke run keeps the first fifth of the envelope (the NASDAQ
    # burst is its first second) and thins the rate for the rest.
    seconds = len(trace.counts_per_second)
    keep = max(1, round(seconds * min(1.0, 4 * scale)))
    trace = Trace(name=label, counts_per_second=trace.counts_per_second[:keep])
    trace = trace.scaled(rate_scale * scale * (seconds / keep), name=label)
    factory = factory_fn(clients=64, seed=sub_seed(seed, f"{label}.factory"))
    deployment = Deployment(
        protocol=ProtocolParams(n=4, tvpr=True, rpm=False),
        topology=single_region_topology(4),
        extra_balances=factory_balances(factory),
        seed=sub_seed(seed, f"{label}.deployment"),
    )
    schedule = LoadSchedule.from_trace(trace, factory)
    return _prepared(deployment, schedule, horizon_s=schedule.duration_s + DAPP_GRACE_S)


def nasdaq_burst(seed: int, scale: float) -> Prepared:
    """NASDAQ envelope (3 min, one-second opening burst ≈ 118× the
    average), exchange-contract calls, n = 4 single region."""
    return _dapp(
        seed, scale, trace_fn=nasdaq_trace, factory_fn=nasdaq_request_factory,
        rate_scale=NASDAQ_RATE_SCALE, label="nasdaq_burst",
    )


def uber_steady(seed: int, scale: float) -> Prepared:
    """Uber envelope (2 min, flat), mobility-contract calls, n = 4."""
    return _dapp(
        seed, scale, trace_fn=uber_trace, factory_fn=uber_request_factory,
        rate_scale=UBER_RATE_SCALE, label="uber_steady",
    )


def committee_n32(seed: int, scale: float) -> Prepared:
    """32 validators, single region, a few hundred transfers: the
    workload where consensus + net dominate (≈ 180 events per tx)."""
    n = 32 if scale >= 1.0 else 8
    clients, nonces, window_s = 64, 4, 2.0
    factory = transfer_request_factory(
        clients=clients, seed=sub_seed(seed, "committee_n32.factory")
    )
    total = clients * nonces
    txs = [factory(k, k * window_s / total) for k in range(total)]
    deployment = Deployment(
        protocol=ProtocolParams(n=n, tvpr=True, rpm=False),
        topology=single_region_topology(n),
        extra_balances=factory_balances(factory),
        seed=sub_seed(seed, "committee_n32.deployment"),
    )
    schedule = LoadSchedule.from_transactions(txs, name="committee_n32")
    return _prepared(deployment, schedule, horizon_s=COMMITTEE_HORIZON_S)


def geo_flood_n16(seed: int, scale: float) -> Prepared:
    """Table I at engine scale: 16 validators over the 10-region RTT
    matrix on a sparse peer graph, one weak (+400 ms) validator, one
    flooding seat, RPM with communication-level exclusion, and a client
    mix of funded transfers and unfunded-sender junk."""
    n = 16 if scale >= 1.0 else 8
    weak, flooder = n - 1, n - 2
    flood_from = 1.0
    valid_count = max(64, round(GEO_VALID_TXS * scale))
    mix_seed = sub_seed(seed, "geo_flood_n16.mix")
    clients = 64
    factory = transfer_request_factory(clients=clients, seed=mix_seed)
    balances = factory_balances(factory)
    txs = flooding_mix(
        valid_count, 2 * valid_count,
        send_rate_tps=1_500.0, clients=clients, seed=mix_seed,
    )
    faults = FaultSchedule(seed=sub_seed(seed, "geo_flood_n16.faults")).byzantine_flood(
        flooder, at=flood_from, until=8.0, per_block=200,
        seed=sub_seed(seed, "geo_flood_n16.flood"),
    )
    protocol = ProtocolParams(n=n, tvpr=True, rpm=True, rpm_exclude_comms=True)
    faults.validate(n=n, f=protocol.f)
    deployment = Deployment(
        protocol=protocol,
        topology=global_topology(
            n, degree=6, seed=sub_seed(seed, "geo_flood_n16.topology")
        ),
        extra_balances=balances,
        fault_schedule=faults,
        seed=sub_seed(seed, "geo_flood_n16.deployment"),
    )
    deployment.network.adversarial_delay = slow_nodes([weak], 0.4)
    attacker = deployment.keypairs[flooder].address
    observer = deployment.validators[0]

    def probe(now: float, out: dict) -> None:
        name = "core.rpm.time_to_exclusion_sim_s"
        if name not in out and attacker in observer.excluded_validators:
            out[name] = now - flood_from

    schedule = LoadSchedule.from_transactions(txs, name="geo_flood_n16")
    return _prepared(
        deployment, schedule, horizon_s=GEO_HORIZON_S,
        targets=[i for i in range(n) if i != flooder],
        valid=[(t, tx) for t, tx in schedule.entries if tx.sender in balances],
        probe=probe,
    )


def crash_recover_n4(seed: int, scale: float) -> Prepared:
    """The fault run: reliable delivery over 5 % loss, one crash +
    restart with snapshot catch-up, a healing 2|2 partition, and clients
    sending on schedule to the three surviving nodes throughout."""
    send_s = CRASH_SEND_S
    total = max(256, round(CRASH_RATE_TPS * send_s * scale))
    factory = transfer_request_factory(
        clients=64, seed=sub_seed(seed, "crash_recover_n4.factory")
    )
    offset_s = (sub_seed(seed, "crash_recover_n4.phase") % 1000) * 1e-6
    txs = [factory(k, offset_s + k * send_s / total) for k in range(total)]
    crash_at, restart_at = 4.0, 10.0
    faults = (
        FaultSchedule(seed=sub_seed(FIXED_FAULT_SEED, "crash_recover_n4.faults"))
        .drop_rate(0.05, until=25.0)
        .crash(3, at=crash_at)
        .restart(3, at=restart_at)
        .hard_partition([[0, 1], [2, 3]], at=14.0, heal_at=18.0)
    )
    faults.validate(n=4, f=1)
    deployment = Deployment(
        protocol=ProtocolParams(n=4, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=factory_balances(factory),
        net_params=NetParams(reliable_delivery=True),
        fault_schedule=faults,
        seed=sub_seed(FIXED_FAULT_SEED, "crash_recover_n4.deployment"),
    )
    restarted = deployment.validators[3]
    survivors = deployment.validators[:3]

    def probe(now: float, out: dict) -> None:
        # Caught up = the restarted node's chain is no shorter than the
        # shortest survivor's (survivors differ by at most the block in
        # flight at a grid instant).
        name = "core.node.recovery_sim_s"
        if (
            name not in out
            and now > restart_at
            and restarted.height >= min(v.height for v in survivors)
        ):
            out[name] = now - restart_at

    schedule = LoadSchedule.from_transactions(txs, name="crash_recover_n4")
    return _prepared(
        deployment, schedule, horizon_s=CRASH_HORIZON_S, targets=(0, 1, 2),
        probe=probe,
    )

#: name -> (builder, the one-line reason it is in the benchmark)
WORKLOADS: "dict[str, tuple[Callable[[int, float], Prepared], str]]" = {
    "nasdaq_burst": (
        nasdaq_burst,
        "one-second burst fills the pools and drains over many superblocks: "
        "validation, txpool, tx hashing and the VM do most of the work, not consensus",
    ),
    "uber_steady": (
        uber_steady,
        "same layers as nasdaq_burst with a shallow pool and a small block "
        "every round, so a burst-drain win that adds per-round cost shows as a loss",
    ),
    "committee_n32": (
        committee_n32,
        "32 validators, 256 transfers, ~180 events per tx: consensus and net "
        "dominate; VM, pool and validation changes must leave it unmoved",
    ),
    "geo_flood_n16": (
        geo_flood_n16,
        "Table I: WAN delays, sparse peer graph, weak validator, flooding seat, "
        "RPM exclusion; validation reject path and RPM contract calls",
    ),
    "crash_recover_n4": (
        crash_recover_n4,
        "5% loss, crash+restart, 2|2 partition under scheduled load: transport "
        "ack/retransmit/dedup and node catch-up, where robustness changes cost",
    ),
}
