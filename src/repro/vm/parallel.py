"""Conflict-aware parallel execution.

The block's transactions are scheduled into the conflict-free groups of
:mod:`repro.vm.conflicts` (Definition 1's "non-conflicting" criterion)
and executed group by group.  Two backends share that schedule:

* ``serial`` — the differential oracle: every transaction runs through
  the ordinary serial executor in schedule order.  Because groups run in
  ascending order and intra-group transactions touch disjoint (or
  commutative) data, the result equals block-order serial execution.
* ``threads`` — real multi-core execution: each group is split into
  contiguous chunks, each chunk executes on a copy-on-write
  :class:`~repro.vm.state.StateFork` of the shared state inside a
  ``ThreadPoolExecutor`` worker, and the fork deltas are merged back in
  deterministic chunk order once the whole group has joined.  The GIL is
  released inside the signature/hash paths (``hashlib`` drops it for
  large buffers), which is where execution time is spent.

Both backends fill ``receipts`` indexed by **original block position**
(``receipts[i]`` belongs to ``txs[i]``), and both produce byte-identical
state roots to block-order serial execution.  The result also carries
the simulated unit-cost timing model (used by the commit-timestamp
ablations) and the measured wall time of this call.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import ceil
from types import SimpleNamespace
from typing import Sequence

from repro import telemetry
from repro.core.transaction import Transaction
from repro.vm.conflicts import analyze_block
from repro.vm.executor import Executor, Receipt

_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        speedup=reg.histogram(
            "srbb_vm_parallel_speedup",
            "serial/parallel time ratio per executed batch",
            buckets=(1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32),
        ),
        groups=reg.histogram(
            "srbb_vm_parallel_groups",
            "conflict-free group count (schedule depth) per batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ),
    )
)

BACKENDS = ("serial", "threads")


@dataclass
class ParallelExecutionResult:
    """Receipts (block-position indexed) plus schedule and timing."""

    #: ``receipts[i]`` is the receipt of ``txs[i]`` — block order, not
    #: schedule order
    receipts: list[Receipt] = field(default_factory=list)
    #: schedule: group index per transaction position
    group_of: dict[int, int] = field(default_factory=dict)
    groups: int = 0
    serial_time_s: float = 0.0
    parallel_time_s: float = 0.0
    backend: str = "serial"
    workers: int = 1
    #: measured wall-clock of this call (perf_counter), not simulated
    wall_time_s: float = 0.0

    @property
    def speedup(self) -> float:
        """Simulated speedup under the unit-cost timing model."""
        return (
            self.serial_time_s / self.parallel_time_s
            if self.parallel_time_s
            else 1.0
        )


def _chunk(group: Sequence[int], workers: int) -> list[list[int]]:
    """Split a group's positions into ≤ ``workers`` contiguous chunks."""
    parts = min(workers, len(group))
    size, extra = divmod(len(group), parts)
    chunks: list[list[int]] = []
    start = 0
    for part in range(parts):
        end = start + size + (1 if part < extra else 0)
        chunks.append(list(group[start:end]))
        start = end
    return chunks


def _prewarm() -> None:
    """Resolve every lazily-created shared structure from the main thread.

    ``telemetry.bind`` handles and labeled metric children are
    create-on-first-use; touching them here means worker threads only
    ever *read* them.  Values memoised on a transaction are not warmed:
    racing threads would store the same bytes, and a transaction this
    process has not seen yet gets its payload hashed inside a worker,
    where the hashing overlaps.
    """
    from repro.core import validation as _validation
    from repro.vm import executor as _executor_mod

    _executor_mod._metrics()
    _validation._metrics()
    _metrics()


def execute_parallel(
    executor: Executor,
    txs: Sequence[Transaction],
    *,
    workers: int = 8,
    exec_rate: float = 20_000.0,
    coinbase: str = "",
    backend: str = "serial",
) -> ParallelExecutionResult:
    """Execute a batch under the conflict-group schedule.

    State effects equal block-order serial execution: groups run in
    ascending order, and within a group transactions touch disjoint or
    commutative data (by construction of the conflict graph), so any
    intra-group order — or true concurrency over per-chunk state forks —
    gives the same state.  ``receipts[i]`` always corresponds to
    ``txs[i]``.

    ``backend="serial"`` keeps everything on the caller's thread (the
    differential oracle); ``backend="threads"`` executes each group's
    chunks concurrently on :class:`~repro.vm.state.StateFork` overlays
    and merges the deltas in deterministic chunk order.

    The simulated unit-cost timing (``serial_time_s``/``parallel_time_s``,
    each group costs ``ceil(len(group)/workers) / exec_rate``) is kept
    for the commit-timestamp model; ``wall_time_s`` is the measured wall
    clock of this call.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (expected {BACKENDS})")
    report = analyze_block(txs, coinbase=coinbase)
    result = ParallelExecutionResult(
        receipts=[None] * len(txs),  # type: ignore[list-item]
        groups=report.parallel_depth,
        backend=backend,
        workers=workers,
    )
    unit = 1.0 / exec_rate
    state = executor.state
    started = time.perf_counter()
    pool: ThreadPoolExecutor | None = None
    use_threads = (
        backend == "threads"
        and workers > 1
        and any(len(group) > 1 for group in report.groups)
    )
    if use_threads:
        _prewarm()
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="srbb-exec"
        )

    def run_chunk(chunk: list[int]):
        fork = state.fork()
        chunk_executor = Executor(
            fork, registry=executor.registry, protocol=executor.protocol
        )
        receipts = [
            (position, chunk_executor.execute(txs[position], coinbase=coinbase))
            for position in chunk
        ]
        return fork, receipts

    try:
        for group_index, group in enumerate(report.groups):
            for position in group:
                result.group_of[position] = group_index
            chunks = _chunk(group, workers) if pool is not None else [list(group)]
            if pool is None or len(chunks) < 2:
                # Serial fast path (oracle backend, singleton groups, or a
                # group too small to split): execute on the shared state
                # directly — semantically identical to fork-and-merge.
                for position in group:
                    result.receipts[position] = executor.execute(
                        txs[position], coinbase=coinbase
                    )
            else:
                futures = [pool.submit(run_chunk, chunk) for chunk in chunks]
                outcomes = [future.result() for future in futures]
                # Merge in chunk order — deterministic regardless of which
                # worker finished first.
                for fork, receipts in outcomes:
                    state.apply_delta(fork.delta())
                    for position, receipt in receipts:
                        result.receipts[position] = receipt
            result.parallel_time_s += ceil(len(group) / workers) * unit
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    result.serial_time_s = len(txs) * unit
    result.wall_time_s = time.perf_counter() - started
    if txs:
        m = _metrics()
        m.speedup.observe(result.speedup)
        m.groups.observe(result.groups)
    return result


def parallel_commit_time_s(
    txs: Sequence[Transaction],
    *,
    workers: int,
    exec_rate: float,
    coinbase: str = "",
) -> float:
    """Timing-only estimate (no execution): the ablation's fast path."""
    report = analyze_block(txs, coinbase=coinbase)
    unit = 1.0 / exec_rate
    return sum(ceil(len(g) / workers) * unit for g in report.groups)
