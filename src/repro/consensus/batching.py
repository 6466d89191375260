"""Vote batching — coalesce per-instance consensus traffic (tentpole, PR 3).

The superblock design runs ``n`` binary DBFT instances per chain index and
every instance broadcasts its BVAL/AUX/COORD votes individually, so a
4-validator dapp run emits hundreds of thousands of tiny wire messages —
re-creating at the vote layer exactly the congestion TVPR removed from the
transaction layer (§III of the paper).  Ersoy et al. show propagation, not
validation, dominates permissionless overhead; the fix is the same one the
SRBB follow-up work applies to transactions: coalesce.

:class:`VoteBatcher` sits between a node's consensus instances and the
transport.  Consensus emitters hand every outgoing message to
:meth:`submit`; batchable kinds (BVAL/AUX/COORD and the RBC ECHO/READY
digest traffic — everything except the proposal-carrying RBC SEND) are
buffered, and a ``flush()`` event scheduled on the simulation engine at
the next tick boundary sends the whole buffer as **one**
``MsgKind.BATCH`` wire message per broadcast.  The receiving node unpacks
the batch and feeds constituent votes to the right ``(index, instance)``
in deterministic (emission) order, so protocol semantics are untouched —
votes are merely delayed by at most one tick, which partial synchrony
absorbs (``vote_batch_tick`` ≪ δ ≪ proposer timeout).

A node that disables batching (``ProtocolParams.vote_batching = False``)
passes every message straight through, keeping the unbatched path alive
for ablation scenarios to quantify the reduction.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from repro import telemetry
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind

__all__ = ["VoteBatcher", "BATCHABLE_KINDS"]

#: kinds the batcher coalesces: every vote-sized message.  RBC SEND stays
#: on the direct path — it carries the block proposal itself, is emitted
#: once per round, and delaying it would push the whole round back a tick.
BATCHABLE_KINDS = frozenset(
    {
        MsgKind.BVAL,
        MsgKind.AUX,
        MsgKind.COORD,
        MsgKind.RBC_ECHO,
        MsgKind.RBC_READY,
    }
)


def _build_metrics(reg: telemetry.MetricsRegistry) -> SimpleNamespace:
    return SimpleNamespace(
        batches=reg.counter(
            "srbb_consensus_batches_total", "vote batches flushed to the wire"
        ),
        votes=reg.histogram(
            "srbb_consensus_batch_votes",
            "constituent votes per flushed batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ),
        bytes_saved=reg.counter(
            "srbb_consensus_batch_bytes_saved_total",
            "wire bytes avoided by sharing one envelope per batch",
        ),
    )


_metrics = telemetry.bind(_build_metrics)


class VoteBatcher:
    """Per-node coalescing sink between consensus instances and the wire.

    Parameters
    ----------
    node_id:
        The owning node (stamped as the batch sender).
    sink:
        The wire-level broadcast, ``sink(msg: ConsensusMessage)`` — what
        the consensus instances used to call directly.
    sim:
        The simulation engine driving ``flush()`` at tick boundaries;
        anything with ``.now`` and ``.schedule(delay, fn)`` (duck-typed so
        unit tests can drive flushes by hand with ``sim=None``).
    tick:
        Flush quantum in simulated seconds.  ``0`` still batches — the
        flush runs at the *current* instant, after the triggering cascade
        finishes — but coalesces only messages emitted within one event.
    enabled:
        ``False`` bypasses buffering entirely (the ablation path).
    """

    def __init__(
        self,
        *,
        node_id: int,
        sink: Callable[[ConsensusMessage], None],
        sim=None,
        tick: float = 0.0,
        enabled: bool = True,
    ):
        if tick < 0:
            raise ValueError(f"negative batch tick {tick}")
        self.node_id = node_id
        self.sink = sink
        self.sim = sim
        self.tick = tick
        self.enabled = enabled
        self._buffer: "list[ConsensusMessage]" = []
        self._flush_scheduled = False
        #: lifetime counters (cheap, always on — the bench comparisons read
        #: them without enabling global telemetry)
        self.batches_sent = 0
        self.votes_batched = 0
        self.bytes_saved = 0

    # -- emit path ---------------------------------------------------------------

    def submit(self, msg: ConsensusMessage) -> None:
        """Consensus-side entry point (the ``broadcast`` the instances see)."""
        if not self.enabled or msg.kind not in BATCHABLE_KINDS:
            self.sink(msg)
            return
        self._buffer.append(msg)
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        if self.sim is None:
            return  # manual flushing (unit tests)
        tick = self.tick
        if tick <= 0.0:
            # End-of-instant flush: runs after the current event cascade.
            delay = 0.0
        else:
            now = self.sim.now
            # Next tick boundary strictly after the enqueue instant (an
            # enqueue landing exactly on a boundary flushes immediately —
            # same instant, after the cascade — via the max(0, ...) clamp).
            boundary = (int(now / tick) + 1) * tick
            delay = max(0.0, boundary - now)
        self.sim.schedule(delay, self.flush)

    # -- flush path --------------------------------------------------------------

    def flush(self) -> None:
        """Send everything buffered as one ``BATCH`` wire message."""
        self._flush_scheduled = False
        if not self._buffer:
            return
        buffered = tuple(self._buffer)
        self._buffer.clear()
        batch = ConsensusBatch(messages=buffered, sender=self.node_id)
        saved = batch.bytes_saved()
        self.batches_sent += 1
        self.votes_batched += len(buffered)
        self.bytes_saved += saved
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.batches.inc()
            m.votes.observe(len(buffered))
            m.bytes_saved.inc(saved)
        self.sink(
            ConsensusMessage(
                kind=MsgKind.BATCH,
                index=-1,  # spans chain indexes; constituents carry their own
                instance=-1,
                round=0,
                value=batch,
                sender=self.node_id,
            )
        )

    def drop_pending(self) -> int:
        """Discard buffered votes (the owning node crashed); returns the
        number dropped.  An already-scheduled flush then no-ops."""
        dropped = len(self._buffer)
        self._buffer.clear()
        return dropped

    @property
    def pending(self) -> int:
        """Messages buffered but not yet flushed."""
        return len(self._buffer)
