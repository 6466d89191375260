"""Red Belly superblock set consensus (one chain index).

Every validator RBC-broadcasts its block proposal; one DBFT binary
instance per proposer slot then decides whether that proposal enters the
superblock.  Protocol per correct node:

* on RBC-delivery of a proposal with a valid header → input 1 to that
  slot's binary instance (invalid-header proposals are discarded, Alg. 1
  line 16, and the slot gets a 0 input);
* once ``n − f`` slots decided 1 → input 0 to every slot still lacking an
  input (so the round terminates even with silent proposers);
* a proposer-silence timeout also inputs 0 (safety net before the n−f
  trigger fires);
* when **all** slots have decided and every decided-1 slot's proposal has
  been RBC-delivered (totality guarantees it will be), the superblock —
  the decided-1 proposals ordered by proposer id — is final.

Binary validity gives the key property: a slot decides 1 only if some
correct node input 1, i.e. some correct node RBC-delivered a valid
proposal — so every block in the superblock is available everywhere.
"""

from __future__ import annotations

import logging
from types import SimpleNamespace
from typing import Any, Callable

from repro import telemetry
from repro.telemetry import lifecycle
from repro.consensus.broadcast import ReliableBroadcast
from repro.consensus.dbft import BinaryConsensus, VoteTable
from repro.consensus.messages import ConsensusMessage, MsgKind, VoteRun
from repro.core.block import Block, SuperBlock

_RBC_KINDS = (MsgKind.RBC_SEND, MsgKind.RBC_ECHO, MsgKind.RBC_READY)

logger = logging.getLogger("repro.consensus.superblock")


def _build_metrics(reg: telemetry.MetricsRegistry) -> SimpleNamespace:
    messages = reg.counter(
        "srbb_consensus_messages_total", "consensus messages received, by kind"
    )
    return SimpleNamespace(
        # pre-resolved labeled children: one dict lookup per message
        by_kind={kind: messages.labels(kind=kind.name) for kind in MsgKind},
        superblocks=reg.counter(
            "srbb_superblocks_decided_total", "superblock rounds decided"
        ),
        blocks=reg.histogram(
            "srbb_superblock_blocks", "decided-1 blocks per superblock",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128),
        ),
        discarded=reg.counter(
            "srbb_consensus_headers_discarded_total",
            "RBC-delivered proposals discarded for invalid headers",
        ),
    )


_metrics = telemetry.bind(_build_metrics)


def record_wire_kind(kind: MsgKind) -> None:
    """Count one received consensus *wire* message of ``kind``.

    ``srbb_consensus_messages_total`` counts what actually crossed the
    wire: a vote batch increments the ``BATCH`` child once, and its
    constituents are not re-counted (that is precisely the reduction the
    batching headline measures).
    """
    if telemetry.get_registry().enabled:
        _metrics().by_kind[kind].inc()


class SuperBlockConsensus:
    """Per-node driver for one consensus iteration (chain index)."""

    def __init__(
        self,
        *,
        n: int,
        f: int,
        my_id: int,
        index: int,
        broadcast: Callable[[ConsensusMessage], None],
        on_superblock: Callable[[SuperBlock], None],
        validate_header: Callable[[Block], bool] | None = None,
        on_undecided_block: Callable[[Block], None] | None = None,
    ):
        self.n = n
        self.f = f
        self.my_id = my_id
        self.index = index
        self._broadcast = broadcast
        self._on_superblock = on_superblock
        self._validate_header = validate_header or (lambda b: b.header_valid())
        #: invoked for proposals RBC-delivered *after* the round finished
        #: whose slot was decided 0 — Alg. 1 lines 28-31 must recycle them
        #: too, else their transactions leak (RBC totality guarantees the
        #: delivery, but not before the decision)
        self._on_undecided_block = on_undecided_block

        self.proposals: dict[int, Block] = {}
        self.decisions: dict[int, int] = {}
        self._ones = 0  # running count of decided-1 slots (close-round rule)
        #: latched once the close-round rule has walked every slot: from
        #: then on every instance has an input and the walk finds nothing
        self._closed = False
        self.finished = False
        self.superblock: SuperBlock | None = None
        #: proposals RBC-delivered but with invalid headers (discarded)
        self.discarded_headers: list[int] = []

        self.rbc = ReliableBroadcast(
            n=n, f=f, my_id=my_id, index=index,
            broadcast=broadcast, on_deliver=self._on_rbc_deliver,
        )
        #: the BVAL/AUX tallies of all n binary instances, one column each
        self.votes = VoteTable(n=n, f=f, columns=n)
        self.instances = {
            i: BinaryConsensus(
                n=n, f=f, my_id=my_id, index=index, instance=i,
                broadcast=broadcast, on_decide=self._on_decide,
                table=self.votes,
            )
            for i in range(n)
        }

    # -- inputs -------------------------------------------------------------------

    def propose(self, block: Block) -> None:
        """Submit this node's own proposal for the round."""
        self.rbc.broadcast_payload(block)

    def timeout_silent_proposers(self) -> None:
        """Safety net: give 0 to every slot whose proposal never arrived."""
        for i, instance in self.instances.items():
            if not instance.has_input:
                instance.propose(0)

    def vote_zero(self, instance_id: int) -> None:
        """Input 0 for one slot right away, without waiting for the round
        timeout — used for RPM-excluded proposers whose traffic correct
        nodes no longer accept (``ProtocolParams.rpm_exclude_comms``)."""
        instance = self.instances.get(instance_id)
        if instance is not None and not instance.has_input:
            instance.propose(0)

    def on_message(self, msg: ConsensusMessage) -> None:
        """Feed one consensus *wire* message (a vote batch included) to
        this index: count its kind, then route it."""
        record_wire_kind(msg.kind)
        self.on_constituent(msg)

    def on_constituent(self, msg: ConsensusMessage) -> None:
        """Route one message to its RBC slot or binary instance, uncounted.

        This is where callers that already counted the wire message hand
        over what it carried; a batch is walked by the run, in emission
        order (node-level callers unpack earlier, to route across
        indexes).
        """
        kind = msg.kind
        if kind is MsgKind.BATCH:
            for item in msg.value.runs():
                if type(item) is VoteRun:
                    self.on_run(item)
                else:
                    self.on_constituent(item)
        elif msg.index != self.index:
            return
        elif kind in _RBC_KINDS:
            self.rbc.on_message(msg)
        else:
            instance = self.instances.get(msg.instance)
            if instance is not None:
                # No trailing _check_done here: the only mutations that can
                # complete the round happen inside _on_decide/_on_rbc_deliver,
                # and both already end with _check_done — calling it per
                # constituent was pure overhead at committee scale.
                instance.on_message(msg)

    def on_run(self, run: VoteRun) -> None:
        """Tally one stretch of like votes from a batch in a single call."""
        if run.index != self.index:
            return
        kind = run.kind
        if kind is MsgKind.BVAL:
            self.votes.bval(run.round, run.value, run.sender, run.instances, run.mask)
        elif kind is MsgKind.AUX:
            self.votes.aux(run.round, run.value, run.sender, run.instances, run.mask)
        else:
            self.rbc.on_votes(run.messages, run.sender)

    # -- callbacks -----------------------------------------------------------------

    def _vote(self, instance_id: int, value: int) -> None:
        """Input a vote unless already input."""
        instance = self.instances[instance_id]
        if not instance.has_input:
            instance.propose(value)

    def _on_rbc_deliver(self, instance_id: int, payload: Any) -> None:
        if not isinstance(payload, Block):
            # Byzantine garbage proposal: vote this slot out.
            self._vote(instance_id, 0)
            return
        block = payload
        # Lifecycle: the carrying block reached RBC echo/ready quorum
        # here (simulated time via the recorder-bound deployment clock).
        if block.transactions and lifecycle.enabled():
            lifecycle.stamp_txs(block.transactions, "rbc", node=self.my_id)
        if self.finished:
            # Late delivery: the round is over.  If this slot was voted
            # out, hand the block to the recycler (Alg. 1 line 31).
            self.proposals[instance_id] = block
            if self.decisions.get(instance_id) == 0 and self._on_undecided_block:
                self._on_undecided_block(block)
            return
        # Store the delivered payload unconditionally: validity only drives
        # our *vote*.  If consensus decides 1 against our local judgement
        # (validators may transiently disagree, e.g. on RPM exclusions),
        # the commit loop still needs the block — its invalid transactions
        # are discarded at execution time.
        self.proposals[instance_id] = block
        if self._validate_header(block):
            self._vote(instance_id, 1)
        else:
            # Alg. 1 line 16: discard blocks with invalid headers.
            self.discarded_headers.append(instance_id)
            if telemetry.get_registry().enabled:
                _metrics().discarded.inc()
            logger.warning(
                "node %d discarding proposal for slot %d of index %d: "
                "invalid header", self.my_id, instance_id, self.index,
            )
            self._vote(instance_id, 0)
        self._check_done()

    def _on_decide(self, instance_id: int, value: int) -> None:
        self.decisions[instance_id] = value
        if value == 1:
            self._ones += 1
            if self._ones >= self.n - self.f and not self._closed:
                # RBBC rule: enough proposals are in — close the round by
                # voting 0 on everything still undecided on our side.  The
                # latch is set only after a complete walk, so a decision
                # nested inside this one still walks as it always did.
                for i in self.instances:
                    self._vote(i, 0)
                self._closed = True
        self._check_done()

    # -- completion -----------------------------------------------------------------

    def _check_done(self) -> None:
        if self.finished or len(self.decisions) < self.n:
            return
        accepted = sorted(i for i, v in self.decisions.items() if v == 1)
        # Totality: every decided-1 proposal will arrive; wait if needed.
        if any(i not in self.proposals for i in accepted):
            return
        self.finished = True
        self.superblock = SuperBlock(
            index=self.index,
            blocks=tuple(self.proposals[i] for i in accepted),
        )
        if lifecycle.enabled():
            for block in self.superblock.blocks:
                lifecycle.stamp_txs(
                    block.transactions, "decide",
                    node=self.my_id, index=self.index,
                )
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.superblocks.inc()
            m.blocks.observe(len(accepted))
        telemetry.event(
            "consensus.superblock",
            node=self.my_id,
            index=self.index,
            blocks=len(accepted),
            discarded_headers=len(self.discarded_headers),
        )
        logger.debug(
            "node %d decided superblock %d with %d block(s)",
            self.my_id, self.index, len(accepted),
        )
        self._on_superblock(self.superblock)
