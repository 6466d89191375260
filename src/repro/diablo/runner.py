"""One-call DApp workload runs on the message-level engine.

``run_dapp_workload`` assembles the whole stack — trace, request factory,
funded deployment, submitter, collector — for engine-scale experiments
(small committees, scaled traces).  The full-scale counterpart is
:func:`repro.sim.simulate_chain`; this runner is for when you need the
*real* protocol executing real contract calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import params, telemetry
from repro.core.deployment import Deployment
from repro.diablo.benchmark import BenchmarkResult, DiabloBenchmark
from repro.diablo.client import LoadSchedule, RoundRobinSubmitter
from repro.net.topology import Topology, single_region_topology
from repro.telemetry.observatory import start_sampling
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
    topology: Topology | None = None,
    grace_s: float = 30.0,
    seed: int = 1,
) -> DappRunOutcome:
    """Run one DApp workload end to end on the engine.

    ``scale`` shrinks the paper-scale trace (1 % by default — engine runs
    are exact, so they pay per-transaction cost).  Returns the DIABLO
    metrics plus the live deployment.  While the global tracer is on, the
    run also emits one ``obs.sample`` congestion sample per simulated
    second.
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
    deployment = Deployment(
        protocol=params.ProtocolParams(n=n, tvpr=tvpr, rpm=rpm),
        topology=topology or single_region_topology(n),
        extra_balances=factory_balances(factory),
        seed=seed,
        genesis_setup=genesis_setup,
    )
    if telemetry.get_tracer().enabled:
        start_sampling(deployment)
    schedule = LoadSchedule.from_trace(trace, factory)
    bench = DiabloBenchmark(deployment, submitter=RoundRobinSubmitter())
    result = bench.run(schedule, grace_s=grace_s)
    return DappRunOutcome(
        result=result, deployment=deployment, schedule=schedule
    )
