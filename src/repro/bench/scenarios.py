"""Canonical benchmark scenarios — named, seeded, deterministic.

Each scenario is a fixed configuration over the existing engines (tick
simulator or message-level deployment) with every RNG seeded and every
topology taken from :mod:`repro.net.topology`, so the same code on the
same inputs produces the *identical* headline-stats dict — that is what
makes ``repro metrics-diff`` against a checked-in baseline meaningful.

Headline stats are flat ``name -> float`` and must only contain
simulated-time quantities (never wall-clock), so artifacts from
different hosts stay comparable.  The one sanctioned exception is the
``engine_scaling`` scenario, whose *point* is wall-clock cost: its
wall-derived keys (``wall_s_n*``, ``events_per_sec*``,
``peak_rss_mb``) are matched by
``compare._WALL_CLOCK_MARKERS`` so the diff reports them without ever
gating on them; only its event counts and the generously-bounded
``wall_scaling_exponent`` fit are enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.telemetry import MetricsRegistry

__all__ = [
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "cheapest_scenarios",
    "run_byzantine_campaign",
    "run_byzantine_chaos",
    "run_chaos_soak",
    "run_engine_scaling",
    "run_saturation_probe",
    "run_table1_scale",
    "run_trace_replay",
]


@dataclass(frozen=True)
class Scenario:
    """One canonical run: a deterministic config plus a headline extractor."""

    name: str
    description: str
    run: "Callable[[MetricsRegistry], dict]"
    seed: int = 1
    #: relative cost rank — lower is cheaper; CI runs the cheapest ones
    cost_rank: int = 0
    tags: tuple = field(default_factory=tuple)


_SCENARIOS: "dict[str, Scenario]" = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in _SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; options: {sorted(_SCENARIOS)}"
        ) from None


def scenario_names() -> "list[str]":
    return sorted(_SCENARIOS)


def cheapest_scenarios(k: int = 2) -> "list[str]":
    """The ``k`` cheapest scenario names (CI's regression-gate set)."""
    ranked = sorted(_SCENARIOS.values(), key=lambda s: (s.cost_rank, s.name))
    return [s.name for s in ranked[:k]]


# ---------------------------------------------------------------------------
# Shared headline helpers
# ---------------------------------------------------------------------------


def _counter_total(reg: MetricsRegistry, name: str) -> float:
    metric = reg.get(name)
    return float(metric.total()) if metric is not None else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sim_headline(prefix: str, result) -> dict:
    """SimResult -> headline fragment (sim-time only, JSON-safe floats)."""
    out = {
        f"{prefix}_throughput_tps": round(result.throughput_tps, 4),
        f"{prefix}_commit_rate": round(result.commit_rate, 6),
        f"{prefix}_avg_latency_s": round(result.avg_latency_s, 4),
        f"{prefix}_p50_latency_s": round(result.p50_latency_s, 4),
        f"{prefix}_p95_latency_s": round(result.p95_latency_s, 4),
        f"{prefix}_p99_latency_s": round(result.p99_latency_s, 4),
        f"{prefix}_dropped": float(result.dropped_pool + result.dropped_validation),
        f"{prefix}_exec_share": round(result.exec_share, 4),
    }
    for phase, stats in result.phase_latency.items():
        out[f"{prefix}_phase_{phase}_p50_s"] = round(stats["p50"], 4)
        out[f"{prefix}_phase_{phase}_p99_s"] = round(stats["p99"], 4)
    return out


# ---------------------------------------------------------------------------
# Scenario implementations
# ---------------------------------------------------------------------------


def _run_tvpr_ablation(reg: MetricsRegistry) -> dict:
    """§V-A ablation on the tick engine: SRBB (TVPR on) vs EVM+DBFT
    (gossip everything) against the full FIFA workload."""
    from repro.sim.chains import EVM_DBFT, SRBB
    from repro.sim.engine import simulate_chain
    from repro.workloads import fifa_trace

    trace = fifa_trace()
    srbb = simulate_chain(SRBB, trace)
    base = simulate_chain(EVM_DBFT, trace)
    headline = {}
    headline.update(_sim_headline("srbb", srbb))
    headline.update(_sim_headline("baseline", base))
    headline["throughput_ratio"] = round(
        _ratio(srbb.throughput_tps, base.throughput_tps), 4
    )
    headline["latency_ratio"] = round(
        _ratio(base.avg_latency_s, srbb.avg_latency_s), 4
    )
    return headline


def run_saturation_probe(
    *,
    seed: int = 21,
    clients: int = 16,
    nonces: int = 220,
    send_window_s: float = 4.0,
    execution_rate: float = 500.0,
    horizon_s: float = 30.0,
) -> "tuple[dict, object]":
    """Execution-bound saturation probe on the *message-level* engine.

    The tick sweep above finds the saturation point but cannot say where
    a transaction's time goes — its SRBB model is round-capacity-bound,
    not execution-bound.  This probe drives a real 4-validator deployment
    with a deliberately slow VM (``execution_rate`` txs/s, ~600-tx
    superblocks ⇒ each commit defers the next round by >1 s of execution)
    well past capacity, with per-tx lifecycle recording on, and returns
    ``(headline, CriticalPathReport)``: the critical-path attribution —
    flat ``latency_breakdown:*`` keys — must pin ``execute`` as the
    dominant phase at saturation.
    """
    from repro import params, telemetry
    from repro.telemetry import lifecycle
    from repro.core.deployment import Deployment, fund_clients
    from repro.core.transaction import make_transfer
    from repro.net.topology import single_region_topology
    from repro.telemetry.critical_path import analyze

    recorder = telemetry.LifecycleRecorder()
    # Scope a private tracer too: the probe's exec_share comes from its
    # own node.commit events, independent of whether the caller traces.
    tracer = telemetry.Tracer(enabled=True)
    previous_tracer = telemetry.set_tracer(tracer)
    try:
        with lifecycle.use_recorder(recorder):
            keypairs, balances = fund_clients(clients, seed=5000 + seed)
            deployment = Deployment(
                protocol=params.ProtocolParams(
                    n=4, tvpr=True, rpm=False, max_block_txs=150
                ),
                topology=single_region_topology(4),
                extra_balances=balances,
                execution_rate=execution_rate,
                seed=seed,
            )
            deployment.start()
            total = clients * nonces
            gap = send_window_s / total
            sent = 0
            for nonce in range(nonces):
                for i, keypair in enumerate(keypairs):
                    k = nonce * clients + i
                    tx = make_transfer(
                        keypair, keypairs[(i + 1) % clients].address, 1,
                        nonce=nonce, created_at=k * gap,
                    )
                    deployment.submit(tx, validator_id=i % 4, at=k * gap)
                    sent += 1
            deployment.run_until(horizon_s)
    finally:
        telemetry.set_tracer(previous_tracer)

    report = analyze(recorder, trace_records=tracer.records)
    committed_txs = report.committed
    headline = report.headline()
    headline["probe_sent"] = float(sent)
    headline["probe_committed"] = float(committed_txs)
    headline["probe_commit_rate"] = round(_ratio(committed_txs, sent), 6)
    headline["probe_throughput_tps"] = round(committed_txs / horizon_s, 4)
    return headline, report


def _run_saturation_sweep(reg: MetricsRegistry) -> dict:
    """Offered-load sweep on the tick engine: throughput/commit-rate at
    fixed rates plus the bisected saturation point, SRBB vs EVM+DBFT —
    plus the message-level saturation probe's per-phase latency
    attribution (``latency_breakdown:*``)."""
    from repro.sim.chains import EVM_DBFT, SRBB
    from repro.sim.sweep import latency_curve, saturation_throughput

    rates = (250, 500, 1_000, 2_000, 4_000)
    headline: dict = {}
    for prefix, model in (("srbb", SRBB), ("baseline", EVM_DBFT)):
        for point in latency_curve(model, rates, duration_s=30, grace_s=60.0):
            headline[f"{prefix}_throughput_tps_at_{point.rate_tps}"] = round(
                point.throughput_tps, 4
            )
            headline[f"{prefix}_commit_rate_at_{point.rate_tps}"] = round(
                point.commit_rate, 6
            )
        headline[f"{prefix}_saturation_tps"] = float(
            saturation_throughput(model, duration_s=20)
        )
    probe_headline, _report = run_saturation_probe()
    headline.update(probe_headline)
    return headline


def _dapp_derived(reg: MetricsRegistry, committed: float) -> dict:
    """Registry-derived message-engine stats shared by the dapp scenarios."""
    consensus_msgs = _counter_total(reg, "srbb_consensus_messages_total")
    received = _counter_total(reg, "srbb_gossip_received_total")
    duplicates = _counter_total(reg, "srbb_gossip_duplicates_total")
    return {
        "consensus_msgs_per_committed_tx": round(
            _ratio(consensus_msgs, committed), 4
        ),
        "net_messages_total": _counter_total(reg, "srbb_net_messages_total"),
        "net_bytes_total": _counter_total(reg, "srbb_net_bytes_total"),
        "gossip_redundancy": round(_ratio(duplicates, received), 6),
        "vm_gas_used_total": _counter_total(reg, "srbb_vm_gas_used_total"),
    }


def _run_table1_dapp(reg: MetricsRegistry) -> dict:
    """Table I's 4-validator Sydney deployment at 1/10 scale: SRBB w/o vs
    w/ RPM under a Byzantine flooder (message-level engine).

    The valid load is *sustained* (150 TPS over ~13 s, not a burst) and
    the committee execution-starved (400 tx/s), so the flooder's invalid
    transactions displace valid commit work for as long as it stays in
    the committee — with RPM on, slashing excludes it after the first
    committed reports and both the committed-invalid count and the
    throughput penalty collapse.  (The earlier burst-load tuning
    committed the whole valid set before deterrence could matter, so
    both arms reported identical headline numbers.)"""
    from repro.analysis.figures import table1

    no_rpm, with_rpm = table1(
        valid_count=2_000,
        invalid_count=6_000,
        send_rate_tps=150.0,
        flood_per_block=600,
        execution_rate=400.0,
    )
    committed = _counter_total(reg, "srbb_diablo_txs_committed_total")
    headline = {
        "no_rpm_throughput_tps": round(no_rpm.throughput_tps, 4),
        "with_rpm_throughput_tps": round(with_rpm.throughput_tps, 4),
        "rpm_gain": round(
            _ratio(with_rpm.throughput_tps, no_rpm.throughput_tps) - 1.0, 6
        ),
        "valid_dropped_no_rpm": float(no_rpm.valid_dropped),
        "valid_dropped_with_rpm": float(with_rpm.valid_dropped),
        "invalid_sent_no_rpm": float(no_rpm.invalid_sent),
        "invalid_sent_with_rpm": float(with_rpm.invalid_sent),
        "invalid_committed_no_rpm": float(no_rpm.invalid_committed),
        "invalid_committed_with_rpm": float(with_rpm.invalid_committed),
        "attacker_deposit_with_rpm": float(with_rpm.attacker_deposit),
        "attacker_excluded_with_rpm": float(with_rpm.attacker_excluded),
        "diablo_committed_total": committed,
    }
    headline.update(_dapp_derived(reg, committed))
    return headline


def _run_vote_batching_ablation(reg: MetricsRegistry) -> dict:
    """Vote batching on vs off over the *identical* flooding deployment
    (same seeds, same pre-signed transactions): the decided superblocks
    must be byte-identical while the consensus wire-message count
    collapses — the PR-3 tentpole evidence.

    Why the batched arm reads *lower* simulated throughput (baseline:
    1,995 vs 2,987 TPS for the same 2,000 commits, i.e. ~1.00 s vs
    ~0.67 s from first send to last commit): a batched vote waits for the
    next ``vote_batch_tick`` boundary, so each protocol step that travels
    as a vote (ECHO → READY → BVAL → AUX) adds up to one 0.1 s tick to a
    round's critical path — about a third of a second over this run —
    while the unbatched arm forwards every vote at once.  What the tick
    buys is 11.5× fewer wire messages and 1.27× fewer bytes for the same
    decisions: simulated throughput pays the tick, host wall time and the
    network collect the saving (and at committee scale the receiver
    tallies a batch by the run, ``ConsensusBatch.runs()``).  The default
    stays on because the engine's cost — and a real network's — is per
    wire message; a deployment that wants the 0.3 s back sets
    ``vote_batch_tick=0``, which flushes at the end of each event cascade
    and so coalesces only what one incoming message triggered."""
    from repro.analysis.figures import flooding_deployment
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import RoundRobinSubmitter

    arms: dict = {}
    for label, batching in (("unbatched", False), ("batched", True)):
        consensus_before = _counter_total(reg, "srbb_consensus_messages_total")
        bytes_before = _counter_total(reg, "srbb_net_bytes_total")
        deployment, schedule = flooding_deployment(
            valid_count=2_000,
            invalid_count=1_000,
            send_rate_tps=15_000.0,
            flood_per_block=250,
            rpm=False,
            seed=1,
            vote_batching=batching,
        )
        bench = DiabloBenchmark(
            deployment, submitter=RoundRobinSubmitter(targets=(0, 1, 2))
        )
        result = bench.run(schedule, horizon_s=30.0)
        batchers = [v.vote_batcher for v in deployment.validators]
        arms[label] = {
            "consensus_msgs": (
                _counter_total(reg, "srbb_consensus_messages_total")
                - consensus_before
            ),
            "net_bytes": _counter_total(reg, "srbb_net_bytes_total") - bytes_before,
            "hashes": tuple(deployment.validators[0].blockchain.block_hashes()),
            "height": float(deployment.validators[0].blockchain.height),
            "throughput_tps": result.throughput_tps,
            "committed": float(result.committed),
            "batches": float(sum(b.batches_sent for b in batchers)),
            "votes_batched": float(sum(b.votes_batched for b in batchers)),
            "bytes_saved": float(sum(b.bytes_saved for b in batchers)),
        }
    un, ba = arms["unbatched"], arms["batched"]
    common = int(min(un["height"], ba["height"]))
    headline = {
        "unbatched_consensus_msgs": un["consensus_msgs"],
        "batched_consensus_msgs": ba["consensus_msgs"],
        "message_reduction": round(
            _ratio(un["consensus_msgs"], ba["consensus_msgs"]), 4
        ),
        "unbatched_net_bytes": un["net_bytes"],
        "batched_net_bytes": ba["net_bytes"],
        "net_bytes_reduction": round(_ratio(un["net_bytes"], ba["net_bytes"]), 4),
        # byte-identical superblocks: same height, same block hashes
        "chains_identical": float(
            un["height"] == ba["height"] and un["hashes"] == ba["hashes"]
        ),
        "common_height": float(common),
        "unbatched_throughput_tps": round(un["throughput_tps"], 4),
        "batched_throughput_tps": round(ba["throughput_tps"], 4),
        "unbatched_committed": un["committed"],
        "batched_committed": ba["committed"],
        "batches_total": ba["batches"],
        "votes_per_batch_avg": round(
            _ratio(ba["votes_batched"], ba["batches"]), 4
        ),
        "batch_bytes_saved_total": ba["bytes_saved"],
    }
    return headline


def _run_weak_validator(reg: MetricsRegistry) -> dict:
    """Message-level run over the paper's multi-region topology with one
    slow validator (§VI's 'weak validator'): the protocol must keep
    committing while cross-region metrics expose the asymmetry.

    (Formerly registered as ``fault_injection``; renamed because a slow
    node is a *delay* fault, not an injected loss/crash — those live in
    the ``chaos_soak`` scenario.)"""
    from repro import params
    from repro.core.deployment import Deployment
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
    from repro.net.faults import slow_nodes
    from repro.net.topology import global_topology
    from repro.workloads import nasdaq_request_factory, nasdaq_trace
    from repro.workloads.synthetic import factory_balances

    seed = 7
    n = 8
    trace = nasdaq_trace().scaled(0.002, name="nasdaq")
    factory = nasdaq_request_factory(clients=16, seed=seed + 40)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=n, tvpr=True),
        topology=global_topology(n, degree=4, seed=seed),
        extra_balances=factory_balances(factory),
        seed=seed,
    )
    # One healthy-but-slow validator: every message to or from node 7
    # takes an extra 400 ms (partial synchrony still bounds the delay).
    deployment.network.adversarial_delay = slow_nodes([n - 1], 0.4)
    schedule = LoadSchedule.from_trace(trace, factory)
    bench = DiabloBenchmark(deployment, submitter=RoundRobinSubmitter())
    result = bench.run(schedule, grace_s=30.0)
    latencies = result.latencies_s
    headline = {
        "throughput_tps": round(result.throughput_tps, 4),
        "commit_rate": round(result.commit_rate, 6),
        "avg_latency_s": round(result.avg_latency_s, 4),
        "p95_latency_s": round(
            float(np.percentile(latencies, 95)) if len(latencies) else 0.0, 4
        ),
        "sent": float(result.sent),
        "committed": float(result.committed),
        "safety_holds": float(deployment.safety_holds()),
        "states_agree": float(deployment.states_agree()),
    }
    headline.update(_dapp_derived(reg, float(result.committed)))
    return headline


def _chaos_deployment(*, schedule_seed: int, deployment_seed: int):
    """The canonical chaos deployment: n=4 single-region, reliable
    delivery, liveness watchdogs, and a seeded fault schedule that
    crashes one node (f=1), loses 5% of transmissions for the first 25 s,
    and hard-partitions the committee 2|2 for 4 s before healing."""
    from repro import params
    from repro.core.deployment import Deployment, fund_clients
    from repro.core.transaction import make_transfer
    from repro.faults import FaultSchedule
    from repro.net.topology import single_region_topology

    clients, balances = fund_clients(8, seed=5000 + deployment_seed)
    schedule = (
        FaultSchedule(seed=schedule_seed)
        .drop_rate(0.05, until=25.0)
        .crash(3, at=4.0)
        .restart(3, at=10.0)
        .hard_partition([[0, 1], [2, 3]], at=14.0, heal_at=18.0)
    )
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=balances,
        net_params=params.NetParams(reliable_delivery=True),
        fault_schedule=schedule,
        seed=deployment_seed,
    )
    # Pre-signed client transfers over the first ~20 s, submitted to the
    # three validators the schedule never crashes (a client whose node is
    # down must resubmit elsewhere — modelled by not targeting node 3).
    txs = []
    for j in range(6):
        for i, keypair in enumerate(clients):
            k = j * len(clients) + i
            tx = make_transfer(
                keypair, clients[(i + 1) % len(clients)].address, 1,
                nonce=j, created_at=0.0,
            )
            txs.append(tx)
            deployment.submit(tx, validator_id=k % 3, at=0.5 + k * 0.4)
    return deployment, txs


def run_chaos_soak(
    *, schedule_seed: int = 13, deployment_seed: int = 3, horizon_s: float = 60.0
) -> dict:
    """One chaos-soak run -> headline dict (CI's multi-seed safety gate
    calls this directly with varying seeds)."""
    deployment, txs = _chaos_deployment(
        schedule_seed=schedule_seed, deployment_seed=deployment_seed
    )
    deployment.start()
    # Sample the restarted node's recovery flag on a fixed grid so
    # recovery time is a simulated-time quantity (restart fires at 10 s).
    recovered_at = float("inf")
    restarted = deployment.validators[3]
    t = 0.0
    while t < horizon_s:
        t += 0.25
        deployment.run_until(t)
        if recovered_at == float("inf") and t > 10.0 and not restarted._recovering:
            recovered_at = t
    committed = sum(1 for tx in txs if deployment.committed_everywhere(tx))
    hashes = {
        tuple(v.blockchain.block_hashes()) for v in deployment.validators
    }
    heights = {v.blockchain.height for v in deployment.validators}
    roots = {v.blockchain.state.state_root() for v in deployment.validators}
    stats = deployment.network.stats
    return {
        "chains_identical": float(len(hashes) == 1 and len(heights) == 1),
        "state_roots_match": float(len(roots) == 1),
        "safety_holds": float(deployment.safety_holds()),
        "commit_rate": round(_ratio(committed, len(txs)), 6),
        "committed": float(committed),
        "sent": float(len(txs)),
        "recovery_time_s": round(recovered_at - 10.0, 4),
        "height": float(max(heights)),
        "faults_injected_total": float(len(deployment.fault_controller.applied)),
        "retransmissions_total": float(stats.retransmissions),
        "duplicates_dropped_total": float(stats.duplicates_dropped),
        "faults_dropped_total": float(stats.dropped),
        "rpm_nonce_survived": float(
            restarted.journal.rpm_nonce is not None
            and restarted.blockchain.state.nonce_of(restarted.address) > 0
        ),
    }


def _run_chaos_soak(reg: MetricsRegistry) -> dict:
    """Crash-recovery chaos soak (the robustness-PR tentpole evidence):
    deterministic chaos — one crash+restart with snapshot catch-up, 5%
    link loss absorbed by reliable delivery, a healing 2|2 partition —
    must leave every correct chain byte-identical with every client
    transaction committed."""
    return run_chaos_soak()


# ---------------------------------------------------------------------------
# Byzantine fault campaign (robustness tentpole: deterrence must be visible)
# ---------------------------------------------------------------------------


def _campaign_deployment(*, rpm: bool, seed: int):
    """The canonical Byzantine-campaign deployment: n=4 single-region,
    one schedule-driven adversary seat (node 3, within the f=1 budget)
    that floods invalid transactions for 12 s, equivocates for 4 s, then
    withholds its consensus votes for 6 s.  The valid load is sustained
    (60 TPS over 14 s) against an execution-starved committee
    (400 tx/s), so every invalid transaction the flooder lands in a
    decided superblock visibly steals commit capacity — which is what
    lets RPM's exclusion show up as throughput, not just as a counter."""
    from repro import params
    from repro.core.deployment import Deployment
    from repro.diablo.client import LoadSchedule
    from repro.faults import FaultSchedule
    from repro.net.topology import single_region_topology
    from repro.workloads.synthetic import factory_balances, transfer_request_factory

    fault_schedule = (
        FaultSchedule(seed=seed)
        .byzantine_flood(
            3, at=1.0, until=13.0, per_block=1_000, total=10_000, seed=seed + 99
        )
        .byzantine_equivocate(3, at=14.0, until=18.0)
        .byzantine_withhold(3, at=20.0, until=26.0)
    )
    fault_schedule.validate(n=4, f=1)
    protocol = params.ProtocolParams(
        n=4, rpm=rpm, rpm_exclude_comms=rpm, watchdog_stall_rounds=8
    )
    factory = transfer_request_factory(clients=32, seed=seed + 7_000)
    deployment = Deployment(
        protocol=protocol,
        topology=single_region_topology(4),
        fault_schedule=fault_schedule,
        extra_balances=factory_balances(factory),
        seed=seed,
        execution_rate=400.0,
    )
    txs = [factory(i, i / 60.0) for i in range(840)]
    load = LoadSchedule.from_transactions(txs, name="byzantine-campaign")
    return deployment, load


def run_byzantine_campaign(
    *, rpm: bool, seed: int = 21, horizon_s: float = 40.0
) -> dict:
    """One campaign arm -> per-arm stats dict (both arms share the seed,
    so the adversary's schedule and the valid load are identical and the
    only difference is whether RPM's economics are live)."""
    from repro.core.rewards import DepositLedger
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import RoundRobinSubmitter

    deployment, load = _campaign_deployment(rpm=rpm, seed=seed)
    attacker = deployment.keypairs[3].address
    observer = deployment.validators[0]
    ledger = DepositLedger(tuple(kp.address for kp in deployment.keypairs[:4]))
    # Deposit book sampled on a fixed 0.5 s simulated-time grid, so
    # time-to-exclusion is deterministic and host-independent.
    t = 0.0
    while t < horizon_s:
        t += 0.5
        deployment.sim.schedule(t, ledger.sample, observer)
    bench = DiabloBenchmark(
        deployment, submitter=RoundRobinSubmitter(targets=(0, 1, 2))
    )
    result = bench.run(load, horizon_s=horizon_s)
    flooder = deployment.validators[3]
    honest = deployment.validators[:3]
    hashes = {tuple(v.blockchain.block_hashes()) for v in honest}
    heights = {v.blockchain.height for v in honest}
    roots = {v.blockchain.state.state_root() for v in honest}
    econ = ledger.stats(attacker=attacker)
    if econ["time_to_exclusion_s"] == float("inf"):
        econ["time_to_exclusion_s"] = horizon_s  # JSON-safe "never" cap
    watchdogs = [v.watchdog for v in honest if v.watchdog is not None]
    return {
        "throughput_tps": round(result.throughput_tps, 4),
        "committed": float(result.committed),
        "sent": float(result.sent),
        "valid_dropped": float(result.dropped),
        "invalid_committed": float(observer.stats.txs_discarded),
        "invalid_proposed": float(flooder.invalid_txs_proposed),
        "withheld_msgs": float(flooder.withheld_msgs),
        "honest_chains_identical": float(len(hashes) == 1 and len(heights) == 1),
        "honest_state_roots_match": float(len(roots) == 1),
        "safety_holds": float(deployment.safety_holds()),
        "height": float(max(heights)),
        "faults_injected_total": float(len(deployment.fault_controller.applied)),
        "watchdog_withheld_checks": float(
            sum(w.withheld_checks for w in watchdogs)
        ),
        "excluded_msgs_dropped": float(
            sum(v.excluded_msgs_dropped for v in honest)
        ),
        **{f"econ_{key}": float(value) for key, value in econ.items()},
    }


def _run_byzantine_campaign(reg: MetricsRegistry) -> dict:
    """Byzantine campaign, RPM off vs on, same seed (the robustness-PR
    tentpole evidence): with RPM live the attacker must lose its entire
    deposit within a bounded time, committed-invalid work must collapse,
    and the protected arm must out-commit the unprotected one."""
    no_rpm = run_byzantine_campaign(rpm=False)
    with_rpm = run_byzantine_campaign(rpm=True)
    committed = _counter_total(reg, "srbb_diablo_txs_committed_total")
    headline = {
        "no_rpm_throughput_tps": no_rpm["throughput_tps"],
        "with_rpm_throughput_tps": with_rpm["throughput_tps"],
        "rpm_gain": round(
            _ratio(with_rpm["throughput_tps"], no_rpm["throughput_tps"]) - 1.0, 6
        ),
        "invalid_committed_no_rpm": no_rpm["invalid_committed"],
        "invalid_committed_with_rpm": with_rpm["invalid_committed"],
        "invalid_committed_drop": round(
            _ratio(
                no_rpm["invalid_committed"] - with_rpm["invalid_committed"],
                no_rpm["invalid_committed"],
            ),
            6,
        ),
        "attacker_net_payoff": with_rpm["econ_attacker_net_payoff"],
        "attacker_final_deposit": with_rpm["econ_attacker_final_deposit"],
        "attacker_slashed": with_rpm["econ_attacker_excluded"],
        "time_to_exclusion_s": with_rpm["econ_time_to_exclusion_s"],
        "honest_yield": round(with_rpm["econ_honest_yield"], 6),
        "valid_dropped_no_rpm": no_rpm["valid_dropped"],
        "valid_dropped_with_rpm": with_rpm["valid_dropped"],
        "honest_chains_identical": float(
            no_rpm["honest_chains_identical"]
            and with_rpm["honest_chains_identical"]
            and no_rpm["honest_state_roots_match"]
            and with_rpm["honest_state_roots_match"]
        ),
        "safety_holds": float(
            no_rpm["safety_holds"] and with_rpm["safety_holds"]
        ),
        "withheld_msgs_no_rpm": no_rpm["withheld_msgs"],
        "withheld_msgs_with_rpm": with_rpm["withheld_msgs"],
        "excluded_msgs_dropped": with_rpm["excluded_msgs_dropped"],
        "watchdog_withheld_checks": (
            no_rpm["watchdog_withheld_checks"]
            + with_rpm["watchdog_withheld_checks"]
        ),
        "faults_injected_total": (
            no_rpm["faults_injected_total"] + with_rpm["faults_injected_total"]
        ),
        "diablo_committed_total": committed,
    }
    headline.update(_dapp_derived(reg, committed))
    return headline


def run_byzantine_chaos(
    *, schedule_seed: int = 13, deployment_seed: int = 3, horizon_s: float = 40.0
) -> dict:
    """Combined crash+Byzantine chaos run -> headline dict (CI's
    multi-seed matrix calls this directly with varying seeds).

    One seat (node 3, within the f=1 budget) floods, then withholds its
    votes, then crashes and restarts — under 5% link loss behind
    reliable delivery.  Honest chains must converge byte-identically and
    every honest-submitted valid transaction must commit."""
    from repro import params
    from repro.core.deployment import Deployment, fund_clients
    from repro.core.transaction import make_transfer
    from repro.faults import FaultSchedule
    from repro.net.topology import single_region_topology

    clients, balances = fund_clients(8, seed=5200 + deployment_seed)
    schedule = (
        FaultSchedule(seed=schedule_seed)
        .drop_rate(0.05, until=10.0)
        .byzantine_flood(
            3, at=1.0, until=6.0, per_block=300, total=1_500,
            seed=schedule_seed + 99,
        )
        .byzantine_withhold(3, at=6.0, until=10.0)
        .crash(3, at=12.0)
        .restart(3, at=18.0)
    )
    schedule.validate(n=4, f=1)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, watchdog_stall_rounds=8),
        topology=single_region_topology(4),
        extra_balances=balances,
        net_params=params.NetParams(reliable_delivery=True),
        fault_schedule=schedule,
        seed=deployment_seed,
        execution_rate=2_000.0,
    )
    txs = []
    for j in range(6):
        for i, keypair in enumerate(clients):
            k = j * len(clients) + i
            tx = make_transfer(
                keypair, clients[(i + 1) % len(clients)].address, 1,
                nonce=j, created_at=0.0,
            )
            txs.append(tx)
            deployment.submit(tx, validator_id=k % 3, at=0.5 + k * 0.4)
    deployment.start()
    deployment.run_until(horizon_s)
    honest = deployment.validators[:3]
    committed = sum(
        1
        for tx in txs
        if all(tx.tx_hash in v.blockchain.commit_times for v in honest)
    )
    hashes = {tuple(v.blockchain.block_hashes()) for v in honest}
    heights = {v.blockchain.height for v in honest}
    roots = {v.blockchain.state.state_root() for v in honest}
    observer = honest[0]
    attacker = deployment.keypairs[3].address
    return {
        "honest_chains_identical": float(len(hashes) == 1 and len(heights) == 1),
        "honest_state_roots_match": float(len(roots) == 1),
        "safety_holds": float(deployment.safety_holds()),
        "commit_rate": round(_ratio(committed, len(txs)), 6),
        "committed": float(committed),
        "sent": float(len(txs)),
        "height": float(max(heights)),
        "attacker_excluded": float(attacker in observer.excluded_validators),
        "attacker_deposit": float(observer.rpm_deposit_of(attacker)),
        "invalid_committed": float(observer.stats.txs_discarded),
        "faults_injected_total": float(len(deployment.fault_controller.applied)),
    }


def run_engine_scaling(
    *,
    sizes: "tuple[int, ...]" = (4, 8, 16, 32, 48),
    seed: int = 9,
    clients: int = 8,
    nonces: int = 4,
    send_window_s: float = 2.0,
    horizon_s: float = 6.0,
    repeats: int = 2,
) -> dict:
    """Message-level engine cost vs committee size.

    Runs the same small transfer workload against single-region
    deployments of ``n ∈ sizes`` validators and fits power laws to both
    the deterministic event counts (``event_scaling_exponent`` — gated
    tight) and the measured run time
    (``wall_scaling_exponent`` — gated generously; hosts differ in
    speed but not in asymptotics).  Each size is run ``repeats`` times
    and timed by **process CPU time, min-of-N** — scheduler contention
    on shared runners inflates wall clock but not CPU time, and the
    minimum is the least-noisy estimator of the true cost.  The repeats
    double as a free determinism check: every run of a size must process
    the identical event count.  Nothing is attached to the event loop,
    so the timing measures the engine alone.  ``events_per_sec`` and
    ``peak_rss_mb`` are informational (wall-clock markers, never gated).

    CI's smoke job calls this directly with ``sizes=(4, 8)``.
    """
    import resource
    import time as _time

    from repro import params
    from repro.core.deployment import Deployment, fund_clients
    from repro.core.transaction import make_transfer
    from repro.net.topology import single_region_topology

    headline: dict = {}
    event_counts: "list[float]" = []
    wall_times: "list[float]" = []
    for n in sizes:
        best_cpu = None
        first = None
        for rep in range(max(1, repeats)):
            keypairs, balances = fund_clients(clients, seed=5000 + seed)
            deployment = Deployment(
                protocol=params.ProtocolParams(n=n, tvpr=True, rpm=False),
                topology=single_region_topology(n),
                extra_balances=balances,
                seed=seed,
            )
            deployment.start()
            total = clients * nonces
            gap = send_window_s / total
            for nonce in range(nonces):
                for i, keypair in enumerate(keypairs):
                    k = nonce * clients + i
                    tx = make_transfer(
                        keypair, keypairs[(i + 1) % clients].address, 1,
                        nonce=nonce, created_at=k * gap,
                    )
                    deployment.submit(tx, validator_id=i % n, at=k * gap)
            c0 = _time.process_time()
            deployment.run_until(horizon_s)
            cpu = max(_time.process_time() - c0, 1e-9)
            if first is None:
                first = deployment
            else:
                # Same seed, same workload: any event-count drift between
                # repeats is a determinism bug, not timing noise.
                assert deployment.sim.events_processed == int(
                    first.sim.events_processed
                ), (n, rep, deployment.sim.events_processed)
            if best_cpu is None or cpu < best_cpu:
                best_cpu = cpu
        deployment = first
        wall = best_cpu

        events = float(deployment.sim.events_processed)
        event_counts.append(events)
        wall_times.append(wall)
        headline[f"events_n{n}"] = events
        headline[f"committed_n{n}"] = float(deployment.total_committed())
        headline[f"height_n{n}"] = float(
            max(v.blockchain.height for v in deployment.correct_validators)
        )
        headline[f"wall_s_n{n}"] = round(wall, 4)
        headline[f"events_per_sec_n{n}"] = round(events / wall, 2)

    log_sizes = np.log(np.asarray(sizes, dtype=float))
    headline["event_scaling_exponent"] = round(
        float(np.polyfit(log_sizes, np.log(np.asarray(event_counts)), 1)[0]), 4
    )
    # Two wall fits.  The *gate* fit covers the historical n ≤ 32 range and
    # measures the engine's per-event constant (what this repo can
    # optimize); the full-range fit includes the largest committees, where
    # the protocol's Θ(n³) logical vote volume (n instances × n voters
    # delivered to n nodes, batching only compresses the wire) starts to
    # dominate and no engine constant can hide it.  The full-range value
    # is informational (a wall-clock marker).
    gate_idx = [i for i, n in enumerate(sizes) if n <= 32] or list(
        range(len(sizes))
    )
    headline["wall_scaling_exponent"] = round(
        float(
            np.polyfit(
                log_sizes[gate_idx],
                np.log(np.asarray(wall_times)[gate_idx]),
                1,
            )[0]
        ),
        4,
    )
    if len(gate_idx) < len(sizes):
        headline["wall_scaling_exponent_full"] = round(
            float(np.polyfit(log_sizes, np.log(np.asarray(wall_times)), 1)[0]),
            4,
        )
    headline["events_per_sec"] = round(
        sum(event_counts) / sum(wall_times), 2
    )
    # ru_maxrss is in kilobytes on Linux
    headline["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2
    )
    return headline


def _run_engine_scaling(reg: MetricsRegistry) -> dict:
    """Wall-clock scaling gate: event counts must scale with committee
    size exactly as before (tight gate), and measured wall time must not
    blow past the established scaling exponent (generous gate; absolute
    speeds stay informational)."""
    return run_engine_scaling()


def run_trace_replay(
    workload: str,
    *,
    n: int = 4,
    clients: int = 64,
    seed: int = 17,
    grace_s: float = 30.0,
) -> dict:
    """Replay one published workload envelope (§V) at full scale on the
    message-level engine: every transaction of the paper's trace is
    pre-signed (cached across runs in-process — see
    :mod:`repro.diablo.client`) and pushed through a real ``n``-validator
    deployment.  Sim-time quantities (throughput, commit rate, latency
    quantiles, backlog drain) are deterministic and gated; the wall-clock
    cost of the replay is reported under the informational ``wall_s_n*``
    marker.  The full NASDAQ trace is 30 240 transactions, FIFA is
    626 940.
    """
    import time as _time

    from repro import params as _params
    from repro.diablo.runner import run_dapp_workload

    envelope = {
        "nasdaq": _params.NASDAQ_ENVELOPE,
        "uber": _params.UBER_ENVELOPE,
        "fifa": _params.FIFA_ENVELOPE,
    }[workload]
    start = _time.process_time()
    outcome = run_dapp_workload(
        workload, scale=1.0, n=n, clients=clients, grace_s=grace_s, seed=seed
    )
    wall = _time.process_time() - start
    result = outcome.result
    deployment = outcome.deployment
    latencies = result.latencies_s
    headline = {
        "trace_txs": float(result.sent),
        "trace_peak_tps": float(envelope.peak_tps),
        "trace_duration_s": float(envelope.duration_s),
        "throughput_tps": round(result.throughput_tps, 4),
        "commit_rate": round(result.commit_rate, 6),
        "committed": float(result.committed),
        "dropped": float(result.dropped),
        "avg_latency_s": round(result.avg_latency_s, 4),
        "p50_latency_s": round(
            float(np.percentile(latencies, 50)) if len(latencies) else 0.0, 4
        ),
        "p95_latency_s": round(
            float(np.percentile(latencies, 95)) if len(latencies) else 0.0, 4
        ),
        "p99_latency_s": round(
            float(np.percentile(latencies, 99)) if len(latencies) else 0.0, 4
        ),
        # How far past the trace's end the last commit landed: the
        # backlog-drain time the paper reports for over-capacity bursts.
        "backlog_drain_s": round(
            max(0.0, result.duration_s - envelope.duration_s), 4
        ),
        "height": float(
            max(v.blockchain.height for v in deployment.correct_validators)
        ),
        "safety_holds": float(deployment.safety_holds()),
        "states_agree": float(deployment.states_agree()),
        f"wall_s_n{n}": round(wall, 4),
    }
    return headline


def _run_trace_replay_nasdaq(reg: MetricsRegistry) -> dict:
    headline = run_trace_replay("nasdaq")
    headline.update(_dapp_derived(reg, headline["committed"]))
    return headline


def _run_trace_replay_uber(reg: MetricsRegistry) -> dict:
    headline = run_trace_replay("uber")
    headline.update(_dapp_derived(reg, headline["committed"]))
    return headline


def _run_trace_replay_fifa(reg: MetricsRegistry) -> dict:
    headline = run_trace_replay("fifa", clients=128)
    headline.update(_dapp_derived(reg, headline["committed"]))
    return headline


def run_table1_scale(
    *,
    n: int = 200,
    seed: int = 7,
    valid_count: int = 300,
    invalid_count: int = 150,
    clients: int = 16,
    send_rate_tps: float = 15_000.0,
    degree: int = 12,
    horizon_s: float = 6.0,
    step_s: float = 0.25,
    settle_s: float = 0.5,
) -> dict:
    """Table I's flooding workload at paper-scale committee size.

    ``n`` validators (default 200 — the paper's AWS fleet size) over the
    multi-region topology, one weak (+400 ms) validator, and the Table I
    open-loop mix of funded transfers interleaved with invalid
    (unfunded-sender) floods at 15 000 TPS.  The run advances on a fixed
    ``step_s`` grid until every valid transaction is committed on every
    correct validator (or ``horizon_s`` expires), then settles
    ``settle_s`` more so all chains converge; every headline quantity
    except ``wall_s_n*`` is simulated-time and deterministic.

    A protocol round at n=200 moves Θ(n³) logical votes (n instances ×
    n voters × n receivers — batching compresses the wire, not the
    dispatch count), so this scenario is the most expensive registered
    one; CI runs a reduced-n variant (see the profile-smoke job).
    """
    import time as _time

    from repro import params as _params
    from repro.core.deployment import Deployment
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
    from repro.net.faults import slow_nodes
    from repro.net.topology import global_topology
    from repro.workloads.synthetic import (
        factory_balances,
        flooding_mix,
        transfer_request_factory,
    )

    factory = transfer_request_factory(clients=clients, seed=950)
    balances = factory_balances(factory)
    txs = flooding_mix(
        valid_count, invalid_count,
        send_rate_tps=send_rate_tps, clients=clients, seed=950,
    )
    valid = [tx for tx in txs if tx.sender in balances]
    deployment = Deployment(
        protocol=_params.ProtocolParams(n=n, tvpr=True, rpm=False),
        topology=global_topology(n, degree=degree, seed=seed),
        extra_balances=balances,
        seed=seed,
    )
    deployment.network.adversarial_delay = slow_nodes([n - 1], 0.4)
    schedule = LoadSchedule.from_transactions(txs, name=f"table1-n{n}")
    bench = DiabloBenchmark(deployment, submitter=RoundRobinSubmitter())
    deployment.start()
    bench.submitter.submit_all(deployment, schedule)
    start = _time.process_time()
    commit_done_s = 0.0
    t = 0.0
    while t < horizon_s:
        t = round(t + step_s, 10)
        deployment.run_until(t)
        if all(deployment.committed_everywhere(tx) for tx in valid):
            commit_done_s = t
            break
    if commit_done_s:
        # Let in-flight rounds finish so chains/states converge before
        # the safety checks sample them.
        t = round(t + settle_s, 10)
        deployment.run_until(t)
    wall = _time.process_time() - start
    result = bench.collect(schedule, t)
    heights = {v.blockchain.height for v in deployment.correct_validators}
    hashes = {
        tuple(v.blockchain.block_hashes())
        for v in deployment.correct_validators
    }
    headline = {
        "sent_valid": float(len(valid)),
        "sent_invalid": float(len(txs) - len(valid)),
        "committed": float(result.committed),
        "commit_rate_valid": round(_ratio(result.committed, len(valid)), 6),
        "commit_done_s": round(commit_done_s, 4),
        "avg_latency_s": round(result.avg_latency_s, 4),
        "height": float(max(heights)),
        "chains_identical": float(len(hashes) == 1 and len(heights) == 1),
        "safety_holds": float(deployment.safety_holds()),
        "states_agree": float(deployment.states_agree()),
        f"events_n{n}": float(deployment.sim.events_processed),
        f"wall_s_n{n}": round(wall, 4),
        f"events_per_sec_n{n}": round(
            deployment.sim.events_processed / max(wall, 1e-9), 2
        ),
    }
    return headline


def _run_table1_scale_200(reg: MetricsRegistry) -> dict:
    headline = run_table1_scale()
    headline.update(_dapp_derived(reg, headline["committed"]))
    return headline


register_scenario(Scenario(
    name="tvpr_ablation",
    description="SRBB vs EVM+DBFT on the full FIFA workload (tick engine): "
    "the §V-A TVPR on/off throughput and latency ablation",
    run=_run_tvpr_ablation,
    seed=11,
    cost_rank=0,
    tags=("tick", "ablation"),
))

register_scenario(Scenario(
    name="saturation_sweep",
    description="Offered-load sweep and bisected saturation point, SRBB vs "
    "EVM+DBFT (tick engine)",
    run=_run_saturation_sweep,
    seed=11,
    cost_rank=1,
    tags=("tick", "sweep"),
))

register_scenario(Scenario(
    name="table1_dapp",
    description="Table I at 1/10 scale: 4 Sydney validators, one Byzantine "
    "flooder, SRBB w/o vs w/ RPM (message-level engine)",
    run=_run_table1_dapp,
    seed=1,
    cost_rank=2,
    tags=("engine", "rpm", "adversary"),
))

register_scenario(Scenario(
    name="vote_batching_ablation",
    description="Vote batching on vs off on the Table I flooding deployment: "
    "superblocks must stay byte-identical while consensus wire messages "
    "drop >= 10x (message-level engine)",
    run=_run_vote_batching_ablation,
    seed=1,
    cost_rank=4,
    tags=("engine", "ablation", "batching"),
))

register_scenario(Scenario(
    name="weak_validator",
    description="8 validators over the 10-region topology with one slow "
    "validator (+400 ms), NASDAQ mix (message-level engine)",
    run=_run_weak_validator,
    seed=7,
    cost_rank=3,
    tags=("engine", "faults", "regions"),
))

register_scenario(Scenario(
    name="engine_scaling",
    description="Message-level engine wall-clock cost vs committee size "
    "(n = 4..32): deterministic event counts gated tight, wall-time "
    "scaling exponent gated generously",
    run=_run_engine_scaling,
    seed=9,
    cost_rank=5,
    tags=("engine", "scaling"),
))

register_scenario(Scenario(
    name="trace_replay_nasdaq",
    description="Full published NASDAQ envelope (30 240 txs, peak 19 800 "
    "TPS) replayed on a 4-validator message-level deployment: burst "
    "tolerance with every transaction pre-signed and exact",
    run=_run_trace_replay_nasdaq,
    seed=17,
    cost_rank=5,
    tags=("engine", "replay", "workloads"),
))

register_scenario(Scenario(
    name="trace_replay_uber",
    description="Full published Uber envelope (102 240 txs, sustained "
    "~850 TPS) replayed on a 4-validator message-level deployment: "
    "steady-state commit capacity",
    run=_run_trace_replay_uber,
    seed=17,
    cost_rank=7,
    tags=("engine", "replay", "workloads"),
))

register_scenario(Scenario(
    name="trace_replay_fifa",
    description="Full published FIFA envelope (626 940 txs, avg 3 483 "
    "TPS) replayed on a 4-validator message-level deployment: capacity "
    "exhaustion and backlog drain",
    run=_run_trace_replay_fifa,
    seed=17,
    cost_rank=8,
    tags=("engine", "replay", "workloads"),
))

register_scenario(Scenario(
    name="table1_scale_200",
    description="Table I flooding mix on a 200-validator multi-region "
    "committee with one weak (+400 ms) node: every valid transaction "
    "must commit everywhere within the sim-time budget (message-level "
    "engine; the most expensive scenario — CI runs a reduced-n variant)",
    run=_run_table1_scale_200,
    seed=7,
    cost_rank=9,
    tags=("engine", "scale", "faults", "regions"),
))

register_scenario(Scenario(
    name="byzantine_campaign",
    description="Schedule-driven Byzantine campaign on one seat (flooding, "
    "equivocation, vote withholding, all within the f=1 budget), RPM off "
    "vs on at the same seed: slashing must zero the attacker's deposit "
    "within a bounded time, committed-invalid work must collapse, and the "
    "protected arm must out-commit the unprotected one (message-level "
    "engine)",
    run=_run_byzantine_campaign,
    seed=21,
    cost_rank=4,
    tags=("engine", "faults", "rpm", "adversary", "economics"),
))

register_scenario(Scenario(
    name="chaos_soak",
    description="4 validators under a seeded chaos schedule: crash+restart "
    "of one node with snapshot catch-up, 5% link loss behind reliable "
    "delivery, one healing hard partition; every client tx must commit and "
    "all chains converge byte-identically (message-level engine)",
    run=_run_chaos_soak,
    seed=13,
    cost_rank=3,
    tags=("engine", "faults", "chaos", "recovery"),
))
