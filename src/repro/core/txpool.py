"""Transaction pool — the pending queue ``p`` of Algorithm 1.

Responsibilities (Alg. 1 lines 6-8, 11-12, 29-31):

* admit only transactions not already in the pool nor in the chain,
* honour a TTL (line 8) and a bounded capacity with FIFO eviction,
* hand out batches for block creation and remove them (lines 11-12),
* re-admit transactions from undecided blocks (line 31).
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace

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


@dataclass
class PoolStats:
    """Counters a validator exports for the congestion metrics."""

    admitted: int = 0
    duplicates: int = 0
    expired: int = 0
    evicted: int = 0


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
        # Fee index for ``take_batch(by_fee=True)``: a heap of
        # (-gas_price, nonce, admission_seq, tx_hash) so the top-fee
        # candidate is an O(log n) pop instead of an O(n log n) sort per
        # block.  Removals are lazy — entries whose hash left the pool (or
        # was re-admitted under a newer seq) are skipped when popped.
        self._fee_heap: list[tuple[int, int, int, bytes]] = []
        # tx_hash -> admission seq of the *live* entry (stale detection)
        self._entry_seq: dict[bytes, int] = {}
        self._admission_seq = itertools.count()
        self.stats = PoolStats()

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx: Transaction) -> bool:
        return tx.tx_hash in self._pending

    def contains_hash(self, tx_hash: bytes) -> bool:
        return tx_hash in self._pending

    # -- admission ------------------------------------------------------------

    def add(self, tx: Transaction, now: float = 0.0) -> bool:
        """Admit ``tx``; returns False on duplicate or evicts oldest if full."""
        if tx.tx_hash in self._pending:
            self.stats.duplicates += 1
            if telemetry.get_registry().enabled:
                _metrics().duplicates.inc()
            return False
        evicted = len(self._pending) >= self.capacity
        if evicted:
            # FIFO eviction: congestion makes the pool drop the oldest tx —
            # precisely the "transaction loss" DIABLO observes.
            evicted_hash, _ = self._pending.popitem(last=False)
            self._entry_seq.pop(evicted_hash, None)
            self.stats.evicted += 1
        self._pending[tx.tx_hash] = (tx, now)
        seq = next(self._admission_seq)
        self._entry_seq[tx.tx_hash] = seq
        heapq.heappush(self._fee_heap, (-tx.gas_price, tx.nonce, seq, tx.tx_hash))
        if len(self._fee_heap) > 2 * len(self._pending) + 64:
            self._rebuild_fee_heap()
        self.stats.admitted += 1
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
        for tx_hash in list(self._pending):
            tx, admitted = self._pending[tx_hash]
            if now - admitted > self.ttl:
                del self._pending[tx_hash]
                self._entry_seq.pop(tx_hash, None)
                dropped.append(tx)
                self.stats.expired += 1
                if telemetry.get_registry().enabled:
                    _metrics().expired.inc()
            else:
                # OrderedDict is FIFO by admission time: first fresh entry
                # means the rest are fresh too.
                break
        return dropped

    # -- block building ----------------------------------------------------------

    def _rebuild_fee_heap(self) -> None:
        """Compact the fee index, dropping lazily-deleted (stale) entries."""
        self._fee_heap = [
            (-tx.gas_price, tx.nonce, self._entry_seq[tx_hash], tx_hash)
            for tx_hash, (tx, _) in self._pending.items()
        ]
        heapq.heapify(self._fee_heap)

    def _pop_live(self):
        """Pop fee-heap entries until one refers to a pending transaction."""
        while self._fee_heap:
            entry = heapq.heappop(self._fee_heap)
            tx_hash = entry[3]
            rec = self._pending.get(tx_hash)
            if rec is not None and self._entry_seq.get(tx_hash) == entry[2]:
                return entry, rec[0]
        return None

    def _take_batch_by_fee(self, max_txs, gas_limit, next_nonce):
        """Fee-ordered selection via the heap: O(k log n) for a k-tx batch.

        Candidate order is (gas_price desc, nonce asc, admission FIFO) —
        identical to what a stable sort of the FIFO queue by
        ``(-gas_price, nonce)`` yields — and the sweep rules (nonce gating,
        gas-limit stop, multi-sweep unlock) match the FIFO path exactly.
        """
        batch: list[Transaction] = []
        gas = 0
        taken_nonces: dict[str, int] = {}
        deferred: list = []  # (entry, tx) examined-but-not-taken, fee order

        def sweep(source, *, spill: bool) -> bool:
            """One selection sweep over fee-ordered (entry, tx) pairs.

            Taken entries drop out; everything examined-but-skipped lands
            in ``deferred`` in fee order for the next sweep.  ``spill``
            says whether an early stop must also carry the unexamined rest
            of ``source`` into ``deferred`` (needed for list sources whose
            entries already left the heap; the heap-drain source instead
            leaves them in the heap, untouched).
            """
            nonlocal gas
            progress = False
            it = iter(source)
            for entry, tx in it:
                if len(batch) >= max_txs or (
                    gas_limit is not None and gas + tx.gas_limit > gas_limit
                ):
                    # Same early stop as the FIFO sweep: the remaining
                    # candidates are not examined this sweep — and since
                    # gas/batch only grow, no later sweep gets past this
                    # entry either, so an unspilled rest is never missed.
                    deferred.append((entry, tx))
                    if spill:
                        deferred.extend(it)
                    return progress
                if next_nonce is not None:
                    expected = taken_nonces.get(tx.sender)
                    if expected is None:
                        expected = next_nonce(tx.sender)
                    if tx.nonce != expected:
                        deferred.append((entry, tx))
                        continue  # gapped: leave queued for a later block
                    taken_nonces[tx.sender] = expected + 1
                batch.append(tx)
                gas += tx.gas_limit
                del self._pending[entry[3]]
                del self._entry_seq[entry[3]]
                progress = True
            return progress

        def drain():
            while True:
                live = self._pop_live()
                if live is None:
                    return
                yield live

        progress = sweep(drain(), spill=False)
        # Multiple sweeps: taking nonce k can unlock the same sender's
        # nonce k+1 that sorted earlier in the candidate order.  Only the
        # deferred prefix needs revisiting — candidates past an early stop
        # stay in the heap and stay unreachable.
        while progress and next_nonce is not None and len(batch) < max_txs:
            prev, deferred = deferred, []
            progress = sweep(prev, spill=True)
        for entry, _tx in deferred:
            heapq.heappush(self._fee_heap, entry)
        return batch

    def take_batch(
        self,
        max_txs: int,
        *,
        gas_limit: int | None = None,
        next_nonce=None,
        by_fee: bool = False,
    ) -> list[Transaction]:
        """Remove and return up to ``max_txs`` transactions (FIFO order),
        optionally bounded by a cumulative gas limit (Alg. 1 lines 11-12).

        ``next_nonce(sender) -> int`` makes batching nonce-aware (Geth's
        pending-vs-queued split): a transaction is only taken when its
        nonce is the sender's next expected — accounting for same-sender
        transactions already in the batch — so gapped transactions wait in
        the pool instead of being discarded at execution.

        ``by_fee`` switches candidate order from FIFO to descending gas
        price (a fee market: proposers maximize Σ Txfees, the RPM
        incentive term), with per-sender nonce order still enforced — it
        runs on the fee-indexed heap, O(k log n) per k-transaction batch.
        """
        if by_fee:
            batch = self._take_batch_by_fee(max_txs, gas_limit, next_nonce)
            if batch:
                self._count_taken(len(batch))
            return batch

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
                self._entry_seq.pop(tx_hash, None)
                progress = True
            return progress

        # Multiple sweeps: taking nonce k can unlock the same sender's
        # nonce k+1 that sorted earlier in the candidate order.
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
        empty) — the congestion observatory's queue-delay signal: a
        growing oldest-age means arrivals outpace block inclusion."""
        for _, admitted in self._pending.values():
            return max(0.0, now - admitted)
        return 0.0

    def peek(self, count: int) -> list[Transaction]:
        """First ``count`` pending transactions without removing them."""
        out = []
        for tx, _ in self._pending.values():
            if len(out) >= count:
                break
            out.append(tx)
        return out

    def remove_hashes(self, tx_hashes: "set[bytes] | frozenset[bytes]") -> int:
        """Remove any pending transaction whose hash is in ``tx_hashes``
        (used when a decided superblock contains txs we also hold)."""
        removed = 0
        for tx_hash in list(self._pending):
            if tx_hash in tx_hashes:
                del self._pending[tx_hash]
                self._entry_seq.pop(tx_hash, None)
                removed += 1
        return removed

    def clear(self) -> None:
        self._pending.clear()
        self._entry_seq.clear()
        self._fee_heap.clear()
