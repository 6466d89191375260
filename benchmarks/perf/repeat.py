"""One measured repeat of one workload, in its own fresh process.

``run.py`` starts this file once per repeat (two back-to-back runs inside
one process differ by ~20 % in wall time; fresh processes agree to a few
percent).  It sets the workload up, times the run with ``perf_counter``
and ``process_time`` with a host-calibration reading interleaved, checks
the outputs, and prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import time

_PROCESS_START = time.time()

import argparse
import hashlib
import heapq
import json
import resource
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path set above)
from trace import Tracer  # noqa: E402


#: what one repeat's calibration slices add up to on the host the
#: checked-in baseline was measured on; host times are reported scaled to
#: that host's speed
REFERENCE_CALIB_S = 0.30


class Calibration:
    """Host-speed reading, interleaved with the run.

    A fixed amount of the work this program's hot paths are made of
    (sha256 over 1 KiB blocks, dict churn, heap churn) is cut into
    ``SLICES`` equal slices, run at evenly spaced points of the simulated
    timeline while the simulator is paused, and timed apart from the run.
    The host's speed changes within a run (on the reference host, 24 runs
    of one input spanned 3.44-4.85 s); one reading before and one after
    did not track that (wall / reading: quartiles 6.8 % apart, raw wall
    5.0 %), the interleaved one does (1.4 %).  Not a metric.
    """

    SLICES = 256

    def __init__(self) -> None:
        self.seconds = 0.0
        self._block = bytes(1024)
        self._table: dict = {}
        self._heap: list = []
        self._i = 0

    def slice(self) -> None:
        start = time.perf_counter()
        block = self._block
        for _ in range(470):
            block = hashlib.sha256(block).digest() * 32
        self._block = block
        table, heap, first = self._table, self._heap, self._i
        for i in range(first, first + 1950):
            table[i & 4095] = table.get(i & 4095, 0) + i
        for i in range(first, first + 940):
            heapq.heappush(heap, (i * 7919) % 100_003)
            if i & 1:
                heapq.heappop(heap)
        self._i = first + 1950
        self.seconds += time.perf_counter() - start


def run_grid(prepared: workloads.Prepared, calibration: Calibration) -> int:
    """Start the deployment, hand it the whole pre-signed schedule, and
    advance the simulated clock to the horizon on a fixed grid; at grid
    points read the outside probes and run the calibration slices that
    are due.  Returns the deepest pool seen."""
    deployment = prepared.deployment
    deployment.start()
    prepared.submitter.submit_all(deployment, prepared.schedule)
    pools = [v.pool for v in deployment.validators]
    depth_max = 0
    slices = calibration.SLICES
    steps = round(prepared.horizon_s / workloads.GRID_S)
    for step in range(1, steps + 1):
        now = step * workloads.GRID_S
        deployment.run_until(now)
        depth_max = max(depth_max, max(len(pool) for pool in pools))
        if prepared.probe is not None:
            prepared.probe(now, prepared.probed)
        for _ in range(step * slices // steps - (step - 1) * slices // steps):
            calibration.slice()
    return depth_max


def collect(prepared: workloads.Prepared, depth_max: int) -> dict:
    """Simulated-clock metrics, counts and output checks, all read from
    the deployment's public state after the run."""
    deployment = prepared.deployment
    correct = deployment.correct_validators
    commit_maps = [v.blockchain.commit_times for v in correct]
    latencies = []
    last_commit = 0.0
    for due, tx in prepared.valid:
        tx_hash = tx.tx_hash
        try:
            committed_at = max(m[tx_hash] for m in commit_maps)
        except KeyError:
            continue  # missing on some correct validator: not committed
        latencies.append(committed_at - due)
        last_commit = max(last_commit, committed_at)
    latencies.sort()
    sent = len(prepared.valid)
    committed = len(latencies)
    first_send = prepared.valid[0][0]
    last_send = prepared.valid[-1][0]

    heights = {v.blockchain.height for v in correct}
    chains = {tuple(v.blockchain.block_hashes()) for v in correct}
    roots = {v.blockchain.state.state_root() for v in correct}
    checks = {
        "chains_identical": len(chains) == 1 and len(heights) == 1,
        "state_roots_equal": len(roots) == 1,
        "safety_holds": bool(deployment.safety_holds()),
    }

    observer = correct[0]
    stats = deployment.network.stats
    executed = observer.stats.txs_committed + observer.stats.txs_discarded
    rounds = max(v.stats.superblocks_committed for v in correct)
    eager = sum(v.stats.eager_validations for v in deployment.validators)
    rejected = sum(v.stats.eager_failures for v in deployment.validators)
    gas = 0
    for _, tx in prepared.valid:
        record = observer.receipts.get(tx.tx_hash)
        if record is not None:
            gas += record.receipt.gas_used
    controller = deployment.fault_controller
    per_tx = max(committed, 1)
    counts = {
        "net.simulator.events": deployment.sim.events_processed,
        "net.transport.messages": stats.messages,
        "net.transport.bytes": stats.bytes,
        "net.transport.msgs_per_committed_tx": stats.messages / per_tx,
        "net.transport.retransmissions": stats.retransmissions,
        "net.transport.fault_dropped": stats.dropped,
        "consensus.msgs_per_committed_tx": stats.by_kind.get("consensus", [0])[0] / per_tx,
        "consensus.rounds": rounds,
        "consensus.txs_per_superblock": executed / max(rounds, 1),
        "core.txpool.depth_max": depth_max,
        "core.validation.reject_share": rejected / max(eager, 1),
        "vm.executor.gas_per_tx": gas / per_tx,
        "vm.executor.discarded_share": observer.stats.txs_discarded / max(executed, 1),
        "faults.injected": len(controller.applied) if controller is not None else 0,
        # read by the workloads' own probes; 0 where there is nothing to read
        "core.node.recovery_sim_s": 0.0,
        "core.rpm.time_to_exclusion_sim_s": 0.0,
        **prepared.probed,
    }
    sim = {
        "sim_throughput_tps": committed / (last_commit - first_send) if committed else 0.0,
        "sim_latency_p50_s": float(np.percentile(latencies, 50)) if committed else 0.0,
        "sim_latency_p95_s": float(np.percentile(latencies, 95)) if committed else 0.0,
        "sim_latency_max_s": latencies[-1] if committed else 0.0,
        "sim_drain_s": last_commit - last_send if committed else 0.0,
        "tx_committed_share": committed / sent,
    }
    return {
        "sim": sim,
        "counts": counts,
        "checks": checks,
        "attempted": sent,
        "failed": sent - committed,
        "latency_samples": committed,
    }


def run_repeat(
    workload: str, seed: int, scale: float = 1.0, *, trace: bool = False,
    spawned_at: "float | None" = None, spans_out: "str | None" = None,
) -> dict:
    """Set one workload up, run it with the calibration interleaved, check
    its outputs; returns everything ``run.py`` reports."""
    if spawned_at is None:
        spawned_at = time.time()
    tracer = None
    if trace:
        # Installed before set-up so that objects built during set-up
        # cannot hold unwrapped bound methods; set-up's spans are dropped.
        tracer = Tracer()
        tracer.install()
    builder, _why = workloads.WORKLOADS[workload]
    prepared = builder(seed, scale)
    setup_raw_s = time.time() - spawned_at

    calibration = Calibration()
    if tracer is not None:
        tracer.reset()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    depth_max = run_grid(prepared, calibration)
    result = collect(prepared, depth_max)
    wall_raw_s = time.perf_counter() - wall0 - calibration.seconds
    cpu_raw_s = time.process_time() - cpu0 - calibration.seconds
    if tracer is not None:
        tracer.uninstall()

    # Every host time below is in reference-host seconds: the raw reading
    # times how fast this host ran the calibration slices during the run.
    calib_s = calibration.seconds
    speed = REFERENCE_CALIB_S / calib_s
    wall_s = wall_raw_s * speed
    result.update(
        workload=workload, seed=seed, scale=scale, traced=trace,
        host={
            "wall_s": wall_s,
            "setup_s": setup_raw_s * speed,
            "committed_per_wall_s": (result["attempted"] - result["failed"]) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wall_raw_s": wall_raw_s,
            "cpu_raw_s": cpu_raw_s,
            "setup_raw_s": setup_raw_s,
            "calib_s": calib_s,
        },
    )
    result["counts"]["net.simulator.us_per_event"] = (
        1e6 * wall_s / max(result["counts"]["net.simulator.events"], 1)
    )
    if tracer is not None:
        summary = tracer.summary()
        for layer in summary["layers"].values():
            if layer is not None:
                layer["self_s"] *= speed
        summary["untraced_self_s"] = wall_s - summary.pop("traced_self_s") * speed
        result["trace"] = summary
        if spans_out:
            np.savez_compressed(spans_out, layers=np.array(tracer.layers), **tracer.spans())
    return result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=_PROCESS_START,
                        help="time.time() when the parent started this process")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1: write the raw spans to this .npz file")
    args = parser.parse_args(argv)
    result = run_repeat(
        args.workload, args.seed, args.scale, trace=bool(args.trace),
        spawned_at=args.spawned_at, spans_out=args.spans_out,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
