"""Transaction pool — the pending queue ``p`` of Algorithm 1.

Responsibilities (Alg. 1 lines 6-8, 11-12, 29-31):

* admit only transactions not already in the pool nor in the chain,
* honour a TTL (line 8) and a bounded capacity with FIFO eviction,
* hand out batches for block creation and remove them (lines 11-12),
* re-admit transactions from undecided blocks (line 31).

The queue is the pool's one book: blocks take from it in admission
order, as ``create-block-with(p1 ⊂ p)`` does.  What the pool admitted,
rejected, evicted or let expire is counted only by the process-wide
``srbb_txpool_*`` metrics, and only while the registry is enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from types import SimpleNamespace
from typing import Iterable

from repro import params, telemetry
from repro.core.transaction import Transaction

#: global-registry mirrors (aggregated over every pool in the process)
_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        admitted=reg.counter("srbb_txpool_admitted_total", "txs admitted to a pool"),
        duplicates=reg.counter("srbb_txpool_duplicates_total", "duplicate admissions rejected"),
        expired=reg.counter("srbb_txpool_expired_total", "txs dropped on TTL expiry"),
        evicted=reg.counter("srbb_txpool_evicted_total", "txs evicted by capacity pressure"),
        taken=reg.counter("srbb_txpool_batched_total", "txs taken into block batches"),
        occupancy=reg.histogram(
            "srbb_txpool_occupancy", "pool size sampled at each admission",
            buckets=telemetry.COUNT_BUCKETS,
        ),
        size=reg.gauge("srbb_txpool_size", "most recent pool size"),
    )
)


class TxPool:
    """FIFO pending queue with dedup, TTL and capacity eviction."""

    def __init__(
        self,
        *,
        capacity: int = params.TXPOOL_CAPACITY,
        ttl: float = params.TX_TTL,
    ):
        self.capacity = capacity
        self.ttl = ttl
        # tx_hash -> (Transaction, admission_time)
        self._pending: "OrderedDict[bytes, tuple[Transaction, float]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx: Transaction) -> bool:
        return tx.tx_hash in self._pending

    # -- admission ------------------------------------------------------------

    def add(self, tx: Transaction, now: float = 0.0) -> bool:
        """Admit ``tx``; returns False on duplicate or evicts oldest if full."""
        if tx.tx_hash in self._pending:
            if telemetry.get_registry().enabled:
                _metrics().duplicates.inc()
            return False
        evicted = len(self._pending) >= self.capacity
        if evicted:
            # FIFO eviction: congestion makes the pool drop the oldest tx —
            # precisely the "transaction loss" DIABLO observes.
            self._pending.popitem(last=False)
        self._pending[tx.tx_hash] = (tx, now)
        if telemetry.get_registry().enabled:
            m = _metrics()
            if evicted:
                m.evicted.inc()
            m.admitted.inc()
            m.occupancy.observe(len(self._pending))
            m.size.set(len(self._pending))
        return True

    # -- expiry ----------------------------------------------------------------

    def expire(self, now: float) -> list[Transaction]:
        """Drop transactions whose TTL lapsed; returns them."""
        dropped = []
        pending = self._pending
        # OrderedDict is FIFO by admission time: the first fresh entry
        # means the rest are fresh too, so only the expired prefix is walked.
        while pending:
            tx, admitted = next(iter(pending.values()))
            if now - admitted <= self.ttl:
                break
            pending.popitem(last=False)
            dropped.append(tx)
        if dropped and telemetry.get_registry().enabled:
            _metrics().expired.inc(len(dropped))
        return dropped

    # -- block building ----------------------------------------------------------

    def take_batch(
        self,
        max_txs: int,
        *,
        gas_limit: int | None = None,
        next_nonce=None,
    ) -> list[Transaction]:
        """Remove and return up to ``max_txs`` transactions (FIFO order),
        optionally bounded by a cumulative gas limit (Alg. 1 lines 11-12).

        ``next_nonce(sender) -> int`` makes batching nonce-aware (Geth's
        pending-vs-queued split): a transaction is only taken when its
        nonce is the sender's next expected — accounting for same-sender
        transactions already in the batch — so gapped transactions wait in
        the pool instead of being discarded at execution.
        """
        batch: list[Transaction] = []
        gas = 0
        taken_nonces: dict[str, int] = {}

        def one_pass() -> bool:
            """Single selection sweep; returns True if anything was taken."""
            nonlocal gas
            candidates = list(self._pending)
            progress = False
            for tx_hash in candidates:
                if len(batch) >= max_txs:
                    return progress
                tx, _ = self._pending[tx_hash]
                if gas_limit is not None and gas + tx.gas_limit > gas_limit:
                    return progress
                if next_nonce is not None:
                    expected = taken_nonces.get(tx.sender)
                    if expected is None:
                        expected = next_nonce(tx.sender)
                    if tx.nonce != expected:
                        continue  # gapped: leave queued for a later block
                    taken_nonces[tx.sender] = expected + 1
                batch.append(tx)
                gas += tx.gas_limit
                del self._pending[tx_hash]
                progress = True
            return progress

        # Multiple sweeps: taking nonce k can unlock the same sender's
        # nonce k+1 that was admitted before it.
        while len(batch) < max_txs and one_pass():
            if next_nonce is None:
                break  # without nonce gating one sweep sees everything
        if batch:
            self._count_taken(len(batch))
        return batch

    def _count_taken(self, taken: int) -> None:
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.taken.inc(taken)
            m.size.set(len(self._pending))

    def oldest_age(self, now: float) -> float:
        """Age in seconds of the oldest pending transaction (0.0 when
        empty) — the queue-delay signal of ``obs.sample`` trace events:
        a growing oldest-age means arrivals outpace block inclusion."""
        for _, admitted in self._pending.values():
            return max(0.0, now - admitted)
        return 0.0

    def remove_hashes(self, tx_hashes: "Iterable[bytes]") -> int:
        """Remove any pending transaction whose hash is in ``tx_hashes``
        (used when a decided superblock contains txs we also hold)."""
        pop = self._pending.pop
        removed = 0
        for tx_hash in tx_hashes:
            if pop(tx_hash, None) is not None:
                removed += 1
        return removed

    def clear(self) -> None:
        self._pending.clear()
