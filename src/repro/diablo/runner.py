"""One-call DApp workload runs on the message-level engine.

``run_dapp_workload`` assembles the whole stack — trace, request factory,
funded deployment, submitter, collector — for engine-scale experiments
(small committees, scaled traces).  The full-scale counterpart is
:func:`repro.sim.simulate_chain`; this runner is for when you need the
*real* protocol executing real contract calls.

``deploy`` is the one way the bench scenarios, the figures and this
runner build a message-level deployment: committee size, topology, weak
seat, fault schedule and protocol knobs in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import params, telemetry
from repro.core.deployment import Deployment
from repro.diablo.benchmark import BenchmarkResult, DiabloBenchmark
from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
from repro.faults import FaultSchedule
from repro.net.faults import slow_nodes
from repro.net.topology import global_topology, single_region_topology
from repro.telemetry.observatory import start_sampling
from repro.vm.state import WorldState
from repro.workloads import (
    fifa_request_factory,
    fifa_trace,
    nasdaq_request_factory,
    nasdaq_trace,
    uber_request_factory,
    uber_trace,
)
from repro.workloads.fifa import fifa_genesis_setup
from repro.workloads.synthetic import factory_balances

#: workload -> (trace, request factory, genesis setup or None); the setup
#: hook seeds contract state the workload assumes exists (FIFA's matches
#: must already be on sale or every buy_ticket reverts and TVPR drops it)
_WORKLOADS = {
    "nasdaq": (nasdaq_trace, nasdaq_request_factory, None),
    "uber": (uber_trace, uber_request_factory, None),
    "fifa": (fifa_trace, fifa_request_factory, fifa_genesis_setup),
}


def deploy(
    *,
    n: int = 4,
    seed: int,
    balances: dict[str, int],
    degree: int = 0,
    weak_s: float = 0.0,
    reliable: bool = False,
    faults: FaultSchedule | None = None,
    execution_rate: float = 20_000.0,
    genesis_setup: Callable[[WorldState], None] | None = None,
    **protocol,
) -> Deployment:
    """Build one ``n``-validator deployment with ``balances`` funded.

    ``degree=0`` puts every validator in one region over a full mesh
    (Table I); any other value is §V's multi-region topology with a
    ``degree``-regular peer overlay drawn from ``seed``.  ``weak_s > 0``
    makes the last seat a weak validator: every message to or from it
    takes ``weak_s`` longer.  ``reliable`` turns on the transport's
    ack/retransmit layer, which injected loss needs.  ``faults`` arms a
    fault schedule; the deployment rejects one that names a seat outside
    the committee or exceeds ``f``.  ``protocol`` holds
    :class:`~repro.params.ProtocolParams` fields.
    """
    deployment = Deployment(
        protocol=params.ProtocolParams(n=n, **protocol),
        topology=(
            global_topology(n, degree=degree, seed=seed)
            if degree
            else single_region_topology(n)
        ),
        extra_balances=balances,
        net_params=params.NetParams(reliable_delivery=reliable),
        fault_schedule=faults,
        seed=seed,
        execution_rate=execution_rate,
        genesis_setup=genesis_setup,
    )
    if weak_s:
        deployment.network.adversarial_delay = slow_nodes([n - 1], weak_s)
    return deployment


@dataclass
class DappRunOutcome:
    """Result + the deployment for post-hoc inspection."""

    result: BenchmarkResult
    deployment: Deployment
    schedule: LoadSchedule

    @property
    def safety_holds(self) -> bool:
        return self.deployment.safety_holds()

    @property
    def states_agree(self) -> bool:
        return self.deployment.states_agree()


def run_dapp_workload(
    workload: str,
    *,
    scale: float = 0.01,
    n: int = 4,
    tvpr: bool = True,
    rpm: bool = False,
    clients: int = 16,
    degree: int = 0,
    weak_s: float = 0.0,
    grace_s: float = 30.0,
    seed: int = 1,
) -> DappRunOutcome:
    """Run one DApp workload end to end on the engine.

    ``scale`` shrinks the paper-scale trace (1 % by default — engine runs
    are exact, so they pay per-transaction cost); ``degree`` and
    ``weak_s`` pick the topology and weak seat as in :func:`deploy`.
    Returns the DIABLO metrics plus the live deployment.  While the
    global tracer is on, the run also emits one ``obs.sample`` congestion
    sample per simulated second.
    """
    try:
        trace_fn, factory_fn, genesis_setup = _WORKLOADS[workload]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; options: {sorted(_WORKLOADS)}"
        ) from None
    trace = trace_fn()
    if scale != 1.0:
        trace = trace.scaled(scale, name=trace.name)
    factory = factory_fn(clients=clients, seed=seed + 40)
    deployment = deploy(
        n=n,
        seed=seed,
        balances=factory_balances(factory),
        degree=degree,
        weak_s=weak_s,
        genesis_setup=genesis_setup,
        tvpr=tvpr,
        rpm=rpm,
    )
    if telemetry.get_tracer().enabled:
        start_sampling(deployment)
    schedule = LoadSchedule.from_trace(trace, factory)
    bench = DiabloBenchmark(deployment, submitter=RoundRobinSubmitter())
    result = bench.run(schedule, grace_s=grace_s)
    return DappRunOutcome(
        result=result, deployment=deployment, schedule=schedule
    )
