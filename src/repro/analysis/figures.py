"""Regenerate every table and figure of the paper's evaluation (§V).

Each function returns plain data (list-of-dict rows / dataclasses) so the
benchmark harness can print them and EXPERIMENTS.md can quote them.

* :func:`figure2` — Fig. 2: average throughput + commit %, (N,U,F) × 8 systems.
* :func:`figure3` — Fig. 3: average latency, (N,U,F) × 8 systems.
* :func:`table1` — Table I: SRBB w/o vs w/ RPM under a flooding attack.
* :func:`tvpr_headline` — §V-A: SRBB vs EVM+DBFT ×55 throughput / ÷3.5 latency.
* :func:`figure1_counts` — Fig. 1's protocol contrast as measurable counts
  (eager validations and gossip messages per client transaction).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.chains import CHAIN_MODELS, FIGURE_ORDER, EVM_DBFT, SRBB
from repro.sim.engine import simulate_chain
from repro.workloads import fifa_trace, nasdaq_trace, uber_trace

WORKLOADS = ("nasdaq", "uber", "fifa")


def _traces(scale: float = 1.0):
    traces = [nasdaq_trace(), uber_trace(), fifa_trace()]
    if scale != 1.0:
        traces = [t.scaled(scale, name=t.name) for t in traces]
    return {t.name: t for t in traces}


def figure2(*, chains: tuple[str, ...] = FIGURE_ORDER, scale: float = 1.0) -> list[dict]:
    """Fig. 2 rows: throughput (bar height) + commit % (bar label)."""
    rows = []
    traces = _traces(scale)
    for workload in WORKLOADS:
        for chain in chains:
            result = simulate_chain(CHAIN_MODELS[chain], traces[workload])
            rows.append(
                {
                    "workload": workload,
                    "chain": chain,
                    "throughput_tps": round(result.throughput_tps, 2),
                    "commit_pct": round(100.0 * result.commit_rate, 1),
                }
            )
    return rows


def figure3(*, chains: tuple[str, ...] = FIGURE_ORDER, scale: float = 1.0) -> list[dict]:
    """Fig. 3 rows: average latency per (workload, chain)."""
    rows = []
    traces = _traces(scale)
    for workload in WORKLOADS:
        for chain in chains:
            result = simulate_chain(CHAIN_MODELS[chain], traces[workload])
            rows.append(
                {
                    "workload": workload,
                    "chain": chain,
                    "avg_latency_s": round(result.avg_latency_s, 2),
                }
            )
    return rows


@dataclass
class TvprHeadline:
    """§V-A headline: SRBB vs EVM+DBFT on the FIFA-class load."""

    srbb_tps: float
    baseline_tps: float
    srbb_latency_s: float
    baseline_latency_s: float

    @property
    def throughput_ratio(self) -> float:
        return self.srbb_tps / self.baseline_tps if self.baseline_tps else 0.0

    @property
    def latency_ratio(self) -> float:
        return (
            self.baseline_latency_s / self.srbb_latency_s
            if self.srbb_latency_s
            else 0.0
        )


def tvpr_headline(*, scale: float = 1.0) -> TvprHeadline:
    """Measure the ×55 / ÷3.5 claim on this substrate."""
    trace = fifa_trace()
    if scale != 1.0:
        trace = trace.scaled(scale, name=trace.name)
    srbb = simulate_chain(SRBB, trace)
    base = simulate_chain(EVM_DBFT, trace)
    return TvprHeadline(
        srbb_tps=srbb.throughput_tps,
        baseline_tps=base.throughput_tps,
        srbb_latency_s=srbb.avg_latency_s,
        baseline_latency_s=base.avg_latency_s,
    )


# ---------------------------------------------------------------------------
# Table I — message-level flooding experiment
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    """One configuration row of Table I."""

    config: str
    valid_sent: int
    invalid_sent: int
    byzantine_validators: int
    throughput_tps: float
    valid_dropped: int
    #: invalid transactions that made it into *decided* superblocks (then
    #: were lazily discarded at execution) — the deterrence signal: RPM's
    #: exclusion cuts this off, while ``invalid_sent`` keeps counting
    #: proposals the committee rejects
    invalid_committed: int = 0
    #: the flooder's RPM deposit at the end of the run (0 once slashed)
    attacker_deposit: int = 0
    attacker_excluded: bool = False

    def as_report_mapping(self) -> dict:
        return {
            "#valid txs sent": f"{self.valid_sent // 1000}K"
            if self.valid_sent % 1000 == 0
            else str(self.valid_sent),
            "#invalid txs sent": f"{self.invalid_sent // 1000}K"
            if self.invalid_sent % 1000 == 0
            else str(self.invalid_sent),
            "#Byzantine validators": str(self.byzantine_validators),
            "throughput (TPS)": f"{self.throughput_tps:.2f} TPS",
            "#valid txs dropped": "none" if self.valid_dropped == 0 else str(self.valid_dropped),
        }


def table1(
    *,
    valid_count: int = 20_000,
    invalid_count: int = 10_000,
    send_rate_tps: float = 15_000.0,
    flood_per_block: int = 2_500,
    horizon_s: float = 30.0,
    seed: int = 1,
    execution_rate: float = 5_000.0,
) -> tuple[Table1Row, Table1Row]:
    """Run the Table I experiment (paper scale by default).

    Setup mirrors §V-B: four validators in one region, one Byzantine
    flooder, 20 K valid + 10 K invalid transactions at a 15 000 TPS send
    rate.  The flooder injects ``flood_per_block`` invalid transactions per
    proposal until its ``invalid_count`` budget is spent; with RPM on it is
    slashed and excluded after the first committed reports, so far fewer of
    its invalid transactions ever consume execution time.
    """
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import RoundRobinSubmitter

    rows = []
    for rpm in (False, True):
        deployment, schedule = flooding_deployment(
            valid_count=valid_count,
            invalid_count=invalid_count,
            send_rate_tps=send_rate_tps,
            flood_per_block=flood_per_block,
            rpm=rpm,
            seed=seed,
            execution_rate=execution_rate,
        )
        bench = DiabloBenchmark(
            deployment, submitter=RoundRobinSubmitter(targets=(0, 1, 2))
        )
        result = bench.run(schedule, horizon_s=horizon_s)
        observer = deployment.validators[0]
        attacker_address = deployment.keypairs[3].address
        rows.append(Table1Row(
            config="SRBB w/ RPM" if rpm else "SRBB w/o RPM",
            valid_sent=valid_count,
            invalid_sent=deployment.validators[3].invalid_txs_proposed,
            byzantine_validators=1,
            throughput_tps=result.throughput_tps,
            valid_dropped=result.dropped,
            # every lazily-discarded tx in a decided superblock is one of the
            # flooder's invalid transactions (valid load never fails execution)
            invalid_committed=observer.stats.txs_discarded,
            attacker_deposit=observer.rpm_deposit_of(attacker_address),
            attacker_excluded=attacker_address in observer.excluded_validators,
        ))
    return rows[0], rows[1]


def flooding_deployment(
    *,
    valid_count: int,
    invalid_count: int,
    send_rate_tps: float,
    flood_per_block: int,
    rpm: bool,
    seed: int,
    vote_batching: bool = True,
    execution_rate: float = 5_000.0,
):
    """Build the §V-B flooding deployment plus its valid-load schedule.

    Exposed separately from :func:`table1` so ablation scenarios
    (vote batching on/off in particular) can build the *identical*
    deployment — same seeds, same pre-signed transactions — and drive it
    themselves.  Returns ``(deployment, schedule)``.
    """
    from repro.diablo.client import LoadSchedule
    from repro.diablo.runner import deploy
    from repro.faults import FaultSchedule
    from repro.workloads.synthetic import factory_balances, transfer_request_factory

    factory = transfer_request_factory(clients=32, seed=seed + 7_000)
    deployment = deploy(
        seed=seed,
        balances=factory_balances(factory),
        faults=FaultSchedule().byzantine_flood(
            3, at=0.0, per_block=flood_per_block, total=invalid_count,
            seed=seed + 99,
        ),
        # c5.2xlarge-class VM throughput: at 15 000 TPS send the system is
        # execution-saturated (paper: ~4 000 TPS ceiling), so the flooded
        # invalid transactions steal visible commit throughput
        execution_rate=execution_rate,
        rpm=rpm,
        vote_batching=vote_batching,
    )
    # Pre-signed valid transactions, open-loop at the configured rate,
    # spread over the three correct validators (the flooder generates its
    # own invalid transactions in-block, per §V-B's attack model).
    txs = []
    for i in range(valid_count):
        send_time = i / send_rate_tps
        txs.append(factory(i, send_time))
    schedule = LoadSchedule.from_transactions(txs, name="table1-valid")
    return deployment, schedule


def figure1_counts(*, n: int = 8, txs: int = 20, seed: int = 2) -> dict:
    """Fig. 1 as numbers: per-transaction eager validations and gossip
    messages, modern protocol vs TVPR, measured on the message engine."""
    from repro.diablo.benchmark import DiabloBenchmark
    from repro.diablo.client import LoadSchedule
    from repro.diablo.runner import deploy
    from repro.workloads.synthetic import factory_balances, transfer_request_factory

    out = {}
    for tvpr in (False, True):
        factory = transfer_request_factory(clients=8, seed=seed + 11)
        deployment = deploy(
            n=n, seed=seed, balances=factory_balances(factory),
            tvpr=tvpr, rpm=False,
        )
        schedule = LoadSchedule.from_transactions(
            [factory(i, 0.01 * i) for i in range(txs)], name="fig1"
        )
        bench = DiabloBenchmark(deployment)
        bench.run(schedule, horizon_s=20.0)
        eager = sum(v.stats.eager_validations for v in deployment.validators)
        gossip_msgs = deployment.network.stats.by_kind.get("gossip", [0, 0])[0]
        out["tvpr" if tvpr else "modern"] = {
            "eager_validations_per_tx": eager / txs,
            "tx_gossip_messages": gossip_msgs,
        }
    return out
