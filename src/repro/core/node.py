"""The SRBB validator node — Algorithm 1 end to end.

A node wires together the transaction pool, the superblock consensus, the
blockchain commit loop and (optionally) the RPM contract invocations, on
top of the discrete-event network.  The two congestion mechanisms under
study are switches:

* ``protocol.tvpr`` — when True (SRBB), transactions received from clients
  are eagerly validated once and *never* gossiped individually; when False
  (modern-blockchain baseline, EVM+DBFT), every transaction is gossiped to
  peers and re-eagerly-validated at every hop (Alg. 1 line 9).
* ``protocol.rpm`` — when True, each committed superblock triggers
  ``propReceived`` attestations and ``report`` invocations for invalid
  transactions, submitted through the node's own pool as ordinary INVOKE
  transactions so every replica's RPM state stays identical.

Reporting policy (reproduction decision): a correct proposer can include a
transaction that *later* fails lazy validation through no fault of its own
(a nonce race between two clients' submissions).  Reports are therefore
filed only for failures eager validation must have caught at inclusion
time — bad signatures, oversized transactions, unfunded senders — never
for nonce staleness or duplicates.
"""

from __future__ import annotations

import logging
from typing import Callable, Iterable

from repro import params, telemetry
from repro.core.block import Block, SuperBlock, make_block
from repro.core.blockchain import Blockchain, CommitResult
from repro.core.catchup import CatchupRequest, CatchupResponse, DecidedJournal
from repro.core.receipts import ReceiptStore
from repro.core.rpm import (
    RPM_ADDRESS,
    certificate_payload,
    read_deposit,
    read_excluded,
    report_payload,
)
from repro.core.transaction import Transaction, make_invoke
from repro.core.txpool import TxPool
from repro.core.validation import FIELD_RANGE, eager_validate
from repro.consensus.batching import VoteBatcher
from repro.consensus.messages import ConsensusMessage, MsgKind, VoteRun
from repro.consensus.superblock import SuperBlockConsensus, record_wire_kind
from repro.crypto.keys import KeyPair
from repro.faults.watchdog import LivenessWatchdog
from repro.net.gossip import GossipLayer
from repro.net.simulator import Simulator
from repro.net.transport import Message, Network
from repro.vm.state import WorldState

#: error codes whose presence in a committed block indicts the proposer
REPORTABLE_ERRORS = frozenset(
    {
        "invalid-sig",
        "oversized",
        "insufficient-balance",
        "insufficient-gas",
        "exceeds-block-gas",
        FIELD_RANGE,
    }
)

#: reports filed per (proposer, block): one successful report slashes the
#: entire deposit, so rational reporters cap their overhead
MAX_REPORTS_PER_BLOCK = 2

#: wire kinds
TX_KIND = "tx"
CONSENSUS_KIND = "consensus"
CATCHUP_REQ_KIND = "catchup-req"
CATCHUP_RESP_KIND = "catchup-resp"

#: cap on consensus votes buffered while a restarted node catches up
CATCHUP_BUFFER_LIMIT = 10_000

#: W_ahead — chain indices past the commit frontier a node opens consensus
#: state for.  At the default cadence a live node waits on one index at most
#: one proposer timeout (2 s), during which its peers commit at most one
#: index per round interval (0.25 s): 8.  Traffic further ahead is dropped,
#: counted, and answered by catch-up (docs/PROTOCOL.md, *Bounded consensus
#: state*).
AHEAD_WINDOW = 8
#: W — committed chain indices whose consensus state a node may still hold.
#: A quiescent index is dropped at once; one that is not is dropped when the
#: frontier is W past it: W_ahead for a peer still deciding it by consensus,
#: and W_ahead more for the traffic backlog a restart replays.
RETIRE_WINDOW = 2 * AHEAD_WINDOW

logger = logging.getLogger("repro.core.node")

#: stats exported under another name than ``srbb_node_<field>_total``:
#: both receive counts fold into one metric labeled by source
_EXPORT_OVERRIDES = {
    "txs_from_clients": ("srbb_node_txs_received_total", {"source": "client"}),
    "txs_from_peers": ("srbb_node_txs_received_total", {"source": "peer"}),
}


class NodeStats:
    """Per-node counters feeding the congestion analysis: plain ints.

    They are the one book of these counts.  A ``NodeStats`` built under an
    enabled registry registers with it, and every read of that registry
    exports the sum of its registered stats per node as
    ``srbb_node_*{node=}`` (:meth:`MetricsRegistry.add_source`).  One
    built under a disabled registry is never exported and costs that
    registry nothing.
    """

    __slots__ = (
        "eager_validations",
        "eager_failures",
        "txs_from_clients",
        "txs_from_peers",
        "blocks_proposed",
        "superblocks_committed",
        "txs_committed",
        "txs_discarded",
        "rpm_attestations",
        "rpm_reports",
        "recycled_from_undecided",
        "votes_dropped_ahead",
    )

    def __init__(self, node_id: "int | None" = None):
        for name in self.__slots__:
            setattr(self, name, 0)
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.add_source(lambda: _export(self, node_id))


def _export(stats: NodeStats, node_id: "int | None"):
    """``(metric, help, labels, value)`` of each of ``stats``' fields."""
    label = {"node": str(node_id)} if node_id is not None else {}
    for name in NodeStats.__slots__:
        metric, extra = _EXPORT_OVERRIDES.get(name, (f"srbb_node_{name}_total", {}))
        yield (
            metric,
            f"per-validator {name.replace('_', ' ')}",
            {**label, **extra},
            getattr(stats, name),
        )


class ValidatorNode:
    """One correct SRBB validator (subclass hooks support Byzantine ones)."""

    def __init__(
        self,
        *,
        node_id: int,
        keypair: KeyPair,
        sim: Simulator,
        network: Network,
        protocol: params.ProtocolParams,
        genesis: Callable[[WorldState], None] | None = None,
        validator_addresses: tuple[str, ...] = (),
        round_interval: float = 0.25,
        proposer_timeout: float = 2.0,
        registry=None,
        execution_rate: float = 20_000.0,
    ):
        self.node_id = node_id
        self.keypair = keypair
        self.address = keypair.address
        self.sim = sim
        self.network = network
        self.protocol = protocol
        self.round_interval = round_interval
        self.proposer_timeout = proposer_timeout
        self.validator_addresses = validator_addresses
        #: transactions this node can execute per second — committing a
        #: superblock with k transactions (valid or not) defers the next
        #: round by k/execution_rate, which is how flooded invalid
        #: transactions steal throughput (§V-B)
        self.execution_rate = execution_rate

        state = WorldState()
        if genesis is not None:
            genesis(state)
        state.commit()
        self.blockchain = Blockchain(protocol=protocol, state=state)
        if registry is not None:
            self.blockchain.executor.registry = registry
        self.pool = TxPool(
            capacity=protocol.txpool_capacity, ttl=protocol.tx_ttl
        )
        self.receipts = ReceiptStore()
        self.stats = NodeStats(node_id)

        #: consensus state per chain index, for at most RETIRE_WINDOW
        #: committed indices and AHEAD_WINDOW indices past the frontier
        self._consensus: dict[int, SuperBlockConsensus] = {}
        #: decided superblocks waiting for a lower index to commit
        self._pending_superblocks: dict[int, SuperBlock] = {}
        self._next_commit_index = 1
        self._next_propose_index = 1
        #: indices this node proposed at, from the catch-up floor up
        self._proposed: set[int] = set()
        #: consensus traffic below this index is dropped: all of it is
        #: committed, and reaches a node that lacks it by catch-up.  It
        #: trails the frontier by RETIRE_WINDOW, and a restart lifts it to
        #: the frontier (the journal replay covers what the pre-crash
        #: incarnation committed)
        self._catchup_floor = 1
        #: seats heard past the ahead window since the last catch-up request
        #: it prompted, as a bitmask, and when that request went out
        self._ahead_seats = 0
        self._ahead_asked_s = float("-inf")
        self._rpm_nonce: int | None = None
        #: addresses excluded after RPM slashing (Alg. 2 line 42 listeners)
        self.excluded_validators: set[str] = set()
        #: node ids whose gossip/consensus traffic we drop once their
        #: address is RPM-excluded (populated only under
        #: ``protocol.rpm_exclude_comms``)
        self._excluded_node_ids: set[int] = set()
        self._address_to_node = {
            address: i for i, address in enumerate(validator_addresses)
        }
        self.excluded_msgs_dropped = 0

        # -- crash–recovery state ------------------------------------------------
        #: durable record of decided superblocks + RPM nonce high-water mark
        self.journal = DecidedJournal()
        #: is the node down?  Read on every message, so a plain attribute
        self.crashed = False
        #: bumped on every crash/restart; scheduled callbacks from an older
        #: incarnation are silently invalidated
        self._incarnation = 0
        #: restarted and waiting for a catch-up response to converge
        self._recovering = False
        #: consensus traffic received mid-recovery — (item, wire sender)
        #: pairs, replayed once converged — and the votes it holds
        self._catchup_buffer: "list[tuple[ConsensusMessage | VoteRun, int]]" = []
        self._catchup_buffered_votes = 0
        #: stall detector (chaos runs only): flags a wedged node and nudges
        #: recovery by re-broadcasting the catch-up request
        self.watchdog: "LivenessWatchdog | None" = None
        if protocol.watchdog_stall_rounds > 0:
            self.watchdog = LivenessWatchdog(
                node_id=node_id,
                sim=sim,
                stall_after_s=protocol.watchdog_stall_rounds * round_interval,
                on_stall=self._send_catchup_request,
            )

        self.gossip = GossipLayer(
            node_id, network, self._deliver_gossiped_tx
        )
        #: coalescing sink between the consensus instances and the wire:
        #: every batchable vote emitted within one tick goes out as a
        #: single BATCH broadcast (protocol.vote_batching gates it)
        self.vote_batcher = VoteBatcher(
            node_id=node_id,
            sink=self._send_consensus_wire,
            sim=sim,
            tick=protocol.vote_batch_tick,
            enabled=protocol.vote_batching,
        )
        network.register(node_id, self)

    # -- identity helpers ---------------------------------------------------------

    def coinbase_of(self, proposer_id: int) -> str:
        if 0 <= proposer_id < len(self.validator_addresses):
            return self.validator_addresses[proposer_id]
        return ""

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Kick off round 1 after one round interval."""
        self._schedule(self.round_interval, self._start_round, 1)
        if self.watchdog is not None:
            self.watchdog.start()

    def _schedule(self, delay: float, callback: Callable[..., None], *args):
        """Schedule a callback bound to the node's current incarnation.

        A crash invalidates everything the pre-crash incarnation had in
        flight (rounds, timeouts, follow-up commits) without hunting down
        individual simulator events.
        """
        incarnation = self._incarnation

        def _guarded() -> None:
            if self.crashed or self._incarnation != incarnation:
                return
            callback(*args)

        return self.sim.schedule(delay, _guarded)

    # -- crash–recovery ------------------------------------------------------------

    def crash(self) -> None:
        """Halt the node: volatile state is lost, durable state survives.

        Volatile: the pool, in-flight consensus instances, undrained
        pending superblocks, the vote batcher's buffer, gossip dedup, the
        in-memory RPM nonce cursor.  Durable: the blockchain (chain +
        state), receipts, and the :class:`DecidedJournal`.
        """
        if self.crashed:
            return
        self.crashed = True
        self._incarnation += 1
        self.pool = TxPool(
            capacity=self.protocol.txpool_capacity, ttl=self.protocol.tx_ttl
        )
        self._consensus.clear()
        self._pending_superblocks.clear()
        self._proposed.clear()
        self._ahead_seats = 0
        self.vote_batcher.drop_pending()
        self.gossip.reset()
        self._rpm_nonce = None
        self._recovering = False
        self._catchup_buffer.clear()
        self._catchup_buffered_votes = 0
        if self.watchdog is not None:
            self.watchdog.stop()
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "node.crash", self.sim.now,
                node=self.node_id,
                height=self.blockchain.height,
                next_index=self._next_commit_index,
            )
        logger.info(
            "node %d crashed at t=%.3f (commit frontier %d)",
            self.node_id, self.sim.now, self._next_commit_index,
        )

    def restart(self) -> None:
        """Bring a crashed node back; it recovers via catch-up.

        The node re-enters with only its durable state, asks live peers
        for the superblocks it missed, and stays in ``_recovering`` —
        buffering (not dropping) incoming consensus traffic — until a
        response converges its chain with a peer's verified state root.
        """
        if not self.crashed:
            return
        self.crashed = False
        self._incarnation += 1
        self._recovering = True
        self._catchup_floor = self._next_commit_index
        self._refresh_exclusions()
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "node.restart", self.sim.now,
                node=self.node_id,
                next_index=self._next_commit_index,
            )
        logger.info(
            "node %d restarting at t=%.3f (commit frontier %d)",
            self.node_id, self.sim.now, self._next_commit_index,
        )
        if self.watchdog is not None:
            self.watchdog.resume()
        self._send_catchup_request()

    def _send_catchup_request(self) -> None:
        """Broadcast ``CATCHUP_REQ`` for everything past our frontier.

        Broadcast (rather than one sampled peer) so a single request
        survives up to f crashed peers; redundant responses are cheap —
        superblocks already applied are skipped on arrival.  Also the
        watchdog's ``on_stall`` nudge, so a node wedged behind a healed
        partition re-solicits until it converges.
        """
        if self.crashed:
            return
        req = CatchupRequest(
            next_index=self._next_commit_index, requester=self.node_id
        )
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "node.catchup_request", self.sim.now,
                node=self.node_id,
                next_index=req.next_index,
            )
        self.network.broadcast(
            self.node_id,
            Message(
                kind=CATCHUP_REQ_KIND,
                payload=req,
                sender=self.node_id,
                size_bytes=req.approx_size(),
            ),
            include_self=False,
        )

    # -- Alg. 1 receive(t) -----------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> bool:
        """Entry point for client submissions (Reception stage, §IV-C)."""
        if self.crashed:
            return False
        self.stats.txs_from_clients += 1
        if telemetry.get_tracer().enabled:
            telemetry.stamp_txs("submit", self.sim.now, (tx,), node=self.node_id)
        return self._receive(tx, from_peer=False)

    def _deliver_gossiped_tx(self, tx: Transaction, sender: int) -> None:
        """A peer gossiped an individual transaction (non-TVPR mode only)."""
        self.stats.txs_from_peers += 1
        if telemetry.get_tracer().enabled:
            telemetry.stamp_txs("gossip", self.sim.now, (tx,), node=self.node_id)
        self._receive(tx, from_peer=True)

    def _receive(self, tx: Transaction, *, from_peer: bool) -> bool:
        # Eager validation — the expensive check (Alg. 1 line 5).  With
        # TVPR this happens exactly once network-wide (client-facing node);
        # without, every node on the gossip path repeats it.
        self.stats.eager_validations += 1
        outcome = eager_validate(tx, self.blockchain.state, self.protocol)
        if not outcome:
            self.stats.eager_failures += 1
            logger.debug(
                "node %d rejected tx %s at eager validation: %s",
                self.node_id, tx.tx_hash.hex()[:12], outcome.error_code,
            )
            return False
        if self.blockchain.contains_tx(tx) or tx in self.pool:
            return False
        self.pool.add(tx, now=self.sim.now)  # line 7
        if telemetry.get_tracer().enabled:
            telemetry.stamp_txs("pool", self.sim.now, (tx,), node=self.node_id)
        if not self.protocol.tvpr and self.sim.now - tx.created_at < self.protocol.tx_ttl:
            # line 9 — modern blockchains gossip; SRBB (TVPR) does not.
            self.gossip.publish(tx.tx_hash, tx, tx.encoded_size())
        return True

    # -- proposal (Alg. 1 propose(p)) ----------------------------------------------------

    def _start_round(self, index: int) -> None:
        if index in self._proposed or index < self._catchup_floor:
            return
        self._proposed.add(index)
        block = self._create_block(index)
        self.stats.blocks_proposed += 1
        consensus = self._consensus_for(index)
        consensus.propose(block)
        if self._excluded_node_ids:
            # Excluded seats' proposals are dropped at the wire, so their
            # slots would otherwise only resolve via the round timeout —
            # input 0 right away and keep the round at normal cadence.
            for seat in self._excluded_node_ids:
                consensus.vote_zero(seat)
        self._schedule(
            self.proposer_timeout, self._round_timeout, index
        )

    def _create_block(self, index: int) -> Block:
        """create-block-with(p1 ⊂ p); Byzantine subclasses override."""
        self.pool.expire(self.sim.now)
        batch = self.pool.take_batch(
            self.protocol.max_block_txs,
            gas_limit=self.protocol.block_gas_limit,
            next_nonce=self.blockchain.state.nonce_of,
        )
        if batch and telemetry.get_tracer().enabled:
            telemetry.stamp_txs(
                "propose", self.sim.now, batch, node=self.node_id
            )
        return make_block(
            self.keypair, self.node_id, index, batch, round=index
        )

    def _validate_header(self, block: Block) -> bool:
        """Header check used for superblock voting: a valid certificate
        from a non-excluded proposer (Alg. 1 line 16 + Alg. 2 line 42
        listeners excluding slashed validators)."""
        if not block.header_valid():
            logger.warning(
                "node %d rejecting block %d/%d: invalid header",
                self.node_id, block.index, block.proposer_id,
            )
            return False
        if block.certificate is not None:
            proposer = block.certificate.proposer_address()
            if proposer in self.excluded_validators:
                logger.warning(
                    "node %d rejecting block %d/%d: proposer %s is RPM-excluded",
                    self.node_id, block.index, block.proposer_id, proposer[:12],
                )
                return False
        return True

    def _round_timeout(self, index: int) -> None:
        consensus = self._consensus.get(index)
        if consensus is not None and not consensus.finished:
            logger.debug(
                "node %d: round %d timed out, voting 0 on silent proposers",
                self.node_id, index,
            )
            consensus.timeout_silent_proposers()

    # -- consensus plumbing ----------------------------------------------------------------

    def _consensus_for(self, index: int) -> SuperBlockConsensus:
        if index not in self._consensus:
            self._consensus[index] = SuperBlockConsensus(
                n=self.protocol.n,
                f=self.protocol.f,
                my_id=self.node_id,
                index=index,
                broadcast=self._broadcast_consensus,
                on_superblock=self._on_superblock,
                validate_header=self._validate_header,
                on_undecided_block=self._recycle_block,
                on_block_delivered=self._on_block_delivered,
                on_quiescent=self._on_quiescent,
            )
        return self._consensus[index]

    def _broadcast_consensus(self, msg: ConsensusMessage) -> None:
        """Consensus-side emission: route through the vote batcher."""
        self.vote_batcher.submit(msg)

    def _send_consensus_wire(self, msg: ConsensusMessage) -> None:
        """Wire-side emission: one Message per (possibly batched) payload."""
        if self.crashed:
            return  # a dead process emits nothing
        votes = len(msg.value) if msg.kind is MsgKind.BATCH else 1
        self.network.broadcast(
            self.node_id,
            Message(
                kind=CONSENSUS_KIND,
                payload=msg,
                sender=self.node_id,
                size_bytes=msg.approx_size(),
                count=votes,
            ),
        )

    def on_message(self, msg: Message) -> None:
        """Network endpoint entry point."""
        if self.crashed:
            return  # dead hosts hear nothing (the transport drops too)
        if msg.kind == CONSENSUS_KIND:
            if self._excluded_node_ids and msg.sender in self._excluded_node_ids:
                # rpm_exclude_comms: the RPM contract excluded this
                # validator — correct nodes stop listening to it entirely
                self.excluded_msgs_dropped += 1
                return
            cmsg: ConsensusMessage = msg.payload
            # One wire message, however many votes it carries, counts
            # once; a batch is fed by the run, a lone message as itself.
            record_wire_kind(cmsg.kind)
            self._ingest_consensus(
                cmsg.value.runs() if cmsg.kind is MsgKind.BATCH else (cmsg,),
                msg.sender,
            )
        elif msg.kind == GossipLayer.KIND:
            self.gossip.handle(msg)
        elif msg.kind == TX_KIND:
            self.submit_transaction(msg.payload)
        elif msg.kind == CATCHUP_REQ_KIND:
            self._serve_catchup(msg.payload)
        elif msg.kind == CATCHUP_RESP_KIND:
            self._absorb_catchup(msg.payload)

    def _ingest_consensus(
        self, items: "Iterable[ConsensusMessage | VoteRun]", wire_sender: int
    ) -> None:
        """The one way consensus traffic reaches a chain index.

        ``items`` are the constituents of one wire message in emission
        order, like votes folded into runs (``ConsensusBatch.runs()``; a
        lone message is a run of one) and possibly spanning chain indexes.
        This loop is the hottest code in a committee run.  Each item
        passes, in order:

        * the seat check — a seat's logical id is its node id, so a vote
          speaks only for the seat whose link (``wire_sender``) carried it;
        * the index's consensus state, if it has some — the hot path.  A
          committed index keeps it for ``RETIRE_WINDOW`` more indices: RBC
          totality needs the ECHO/READY exchange to finish (late undecided
          blocks recycle), and laggards still deciding the index need the
          grace-round BVAL/AUX of early deciders (see
          tests/integration/test_late_delivery.py).  Only its binary
          instances go earlier, once past their grace rounds: from then on
          they send nothing, whatever they hear;
        * otherwise :meth:`_admit`, which opens state only for an index
          inside the window — not below the catch-up floor, not more than
          ``AHEAD_WINDOW`` past the frontier (docs/PROTOCOL.md, *Bounded
          consensus state*) — and not while a restarted node is still
          catching up, which holds the item instead.
        """
        consensus_map = self._consensus
        for item in items:
            if item.sender != wire_sender:
                continue
            consensus = consensus_map.get(item.index)
            if consensus is None:
                consensus = self._admit(item, wire_sender)
                if consensus is None:
                    continue
            if type(item) is VoteRun:
                consensus.on_run(item)
            else:
                consensus.on_constituent(item)

    def _admit(
        self, item: "ConsensusMessage | VoteRun", wire_sender: int
    ) -> "SuperBlockConsensus | None":
        """Consensus state for an item whose index has none open, or
        ``None`` when the item is dropped or held.

        * Below the catch-up floor: dropped.  After a restart the floor is
          the pre-crash frontier, which the journal replay covers.
        * While a restarted node is still catching up it must not open
          fresh state for indices that are mid-flight (it would first have
          to decide where its chain ends, which is exactly what the
          catch-up is determining), so items are held, up to
          ``CATCHUP_BUFFER_LIMIT`` votes, and come back through
          :meth:`_ingest_consensus` once recovery converges.
        * Past the ahead window: dropped and counted (:meth:`_drop_ahead`).
        """
        index = item.index
        if type(index) is not int or index < self._catchup_floor:
            return None
        if self._recovering:
            votes = len(item.messages) if type(item) is VoteRun else 1
            if self._catchup_buffered_votes + votes <= CATCHUP_BUFFER_LIMIT:
                self._catchup_buffered_votes += votes
                self._catchup_buffer.append((item, wire_sender))
            return None
        if index > self._next_commit_index + AHEAD_WINDOW:
            self._drop_ahead(item, wire_sender)
            return None
        return self._consensus_for(index)

    def _drop_ahead(self, item: "ConsensusMessage | VoteRun", wire_sender: int) -> None:
        """Count an item past the ahead window, and ask for catch-up once
        f+1 seats have spoken past it — at least one of them correct, so
        this node really is behind — at most once per proposer timeout.

        A node more than ``AHEAD_WINDOW`` behind always ends up asking,
        with or without a watchdog: n−f seats commit the indices it lacks
        and broadcast traffic for the next one.  One Byzantine seat naming
        far indices moves only the count.
        """
        self.stats.votes_dropped_ahead += (
            len(item.messages) if type(item) is VoteRun else 1
        )
        self._ahead_seats |= 1 << wire_sender
        if (
            self._ahead_seats.bit_count() > self.protocol.f
            and self.sim.now - self._ahead_asked_s >= self.proposer_timeout
        ):
            self._ahead_seats = 0
            self._ahead_asked_s = self.sim.now
            self._send_catchup_request()

    # -- decision & commit (Alg. 1 lines 18-31) ------------------------------------------------

    def _on_block_delivered(self, block: Block) -> None:
        """A proposal was RBC-delivered here: its txs reach ``rbc``."""
        if block.transactions and telemetry.get_tracer().enabled:
            telemetry.stamp_txs(
                "rbc", self.sim.now, block.transactions, node=self.node_id
            )

    def _on_superblock(self, superblock: SuperBlock) -> None:
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "consensus.superblock", self.sim.now,
                node=self.node_id,
                index=superblock.index,
                blocks=len(superblock.blocks),
                discarded_headers=len(
                    self._consensus[superblock.index].discarded_headers
                ),
            )
            txs = [tx for block in superblock.blocks for tx in block.transactions]
            if txs:
                telemetry.stamp_txs(
                    "decide", self.sim.now, txs,
                    node=self.node_id, index=superblock.index,
                )
        if superblock.index >= self._next_commit_index:
            # (an index the catch-up replay already applied is not kept)
            self._pending_superblocks[superblock.index] = superblock
        pending = self._pending_superblocks
        while self._next_commit_index in pending:
            self._commit(pending[self._next_commit_index])
            self._advance_frontier()

    def _advance_frontier(self) -> None:
        """The frontier index is committed: move past it and let the window
        go — the index's binary instances at once if they are quiescent,
        and all that is left at frontier − W.  O(1) per committed index."""
        index = self._next_commit_index
        self._next_commit_index = index + 1
        self._pending_superblocks.pop(index, None)
        consensus = self._consensus.get(index)
        if consensus is not None and consensus.quiescent:
            consensus.quiesce()
        floor = index + 1 - RETIRE_WINDOW
        while self._catchup_floor < floor:
            stale = self._catchup_floor
            self._catchup_floor = stale + 1
            self._proposed.discard(stale)
            self._consensus.pop(stale, None)

    def _on_quiescent(self, index: int) -> None:
        """An index turned quiescent: drop its binary instances once it is
        committed (until then :meth:`_advance_frontier` will)."""
        consensus = self._consensus.get(index)
        if consensus is not None and index < self._next_commit_index:
            consensus.quiesce()

    def _apply_superblock(self, superblock: SuperBlock) -> CommitResult:
        """Apply one decided superblock to the durable state — commit,
        journal, stats, receipts, lifecycle stamps, pool prune — whether it
        was decided here (:meth:`_commit`) or replayed from a peer's
        journal (:meth:`_absorb_catchup`)."""
        result = self.blockchain.commit_superblock(
            superblock,
            now=self.sim.now,
            coinbase_of=self.coinbase_of,
            exec_rate=self.execution_rate,
        )
        self.journal.record(superblock)
        if self.watchdog is not None:
            self.watchdog.notify_commit()
        self.stats.superblocks_committed += 1
        self.stats.txs_committed += len(result.committed)
        self.stats.txs_discarded += len(result.discarded)

        # Index receipts for client confirmation lookups (§VI receipts).
        now = self.sim.now
        for appended, receipts in zip(
            result.appended_blocks, result.appended_receipts
        ):
            self.receipts.record_block(appended, receipts, commit_time=now)
        self._stamp_committed(superblock.index, result)

        # Drop any pool copies of committed transactions.
        self.pool.remove_hashes(tx.tx_hash for tx in result.committed)
        return result

    def _commit(self, superblock: SuperBlock) -> None:
        """The live path: apply, then everything a replay must not repeat
        — RPM invocations (peers attested while we were down), exclusion
        refresh, recycling and the next round's scheduling."""
        result = self._apply_superblock(superblock)
        processed = len(result.committed) + len(result.discarded)
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "node.commit", self.sim.now,
                node=self.node_id,
                index=superblock.index,
                committed=len(result.committed),
                discarded=len(result.discarded),
                # CPU seconds this commit spends in lazy validation + VM
                # execution — the critical-path analyzer's exec_share input
                exec_s=round(processed / self.execution_rate, 9),
            )
        logger.debug(
            "node %d committed superblock %d: %d txs, %d discarded",
            self.node_id, superblock.index,
            len(result.committed), len(result.discarded),
        )

        # Alg. 1 lines 27-31: recycle transactions from undecided blocks ℂ.
        # (Blocks RBC-delivered after this point recycle via the
        # on_undecided_block hook.)
        consensus = self._consensus.get(superblock.index)
        if consensus is not None:
            decided_ids = {b.proposer_id for b in superblock.blocks}
            for proposer_id, block in consensus.proposals.items():
                if proposer_id not in decided_ids:
                    self._recycle_block(block)

        if self.protocol.rpm:
            self._invoke_rpm(superblock, result.invalid_by_proposer)
        self._refresh_exclusions()

        # Schedule the next round, deferred by the CPU time this commit
        # consumed (every transaction — including flooded invalid ones —
        # is lazily validated and executed before the node can move on).
        execution_delay = processed / self.execution_rate
        next_index = superblock.index + 1
        if next_index > self._next_propose_index:
            self._next_propose_index = next_index
        self._schedule(
            self.round_interval + execution_delay, self._start_round, next_index
        )

    def _stamp_committed(self, index, result) -> None:
        """One ``tx.commit`` event for an applied superblock, carrying each
        tx's staggered VM-execution time (the ``commit_times`` cursor) —
        the ``execute`` and ``receipt`` stamps, since every committed
        transaction has a successful receipt."""
        if not result.committed or not telemetry.get_tracer().enabled:
            return
        now = self.sim.now
        commit_times = self.blockchain.commit_times
        telemetry.stamp_txs(
            "commit", now, result.committed, node=self.node_id, index=index,
            commit_times=[
                commit_times.get(tx.tx_hash, now) for tx in result.committed
            ],
        )

    def _recycle_block(self, block: Block) -> None:
        """Re-admit valid transactions from an undecided block (line 31)."""
        admitted = []
        for tx in block.transactions:
            if self.blockchain.contains_tx(tx) or tx in self.pool:
                continue
            if eager_validate(tx, self.blockchain.state, self.protocol):
                self.pool.add(tx, now=self.sim.now)
                self.stats.recycled_from_undecided += 1
                admitted.append(tx)
        if admitted and telemetry.get_tracer().enabled:
            telemetry.stamp_txs(
                "pool", self.sim.now, admitted, node=self.node_id
            )

    # -- catch-up protocol -------------------------------------------------------------------

    def _serve_catchup(self, req: CatchupRequest) -> None:
        """Answer a peer's ``CATCHUP_REQ`` from our journal + live state.

        A node that is itself recovering is not a sync source; a request
        at or past our own frontier still gets an (empty) response — its
        state root lets a requester that missed nothing confirm
        convergence immediately.
        """
        if self._recovering or req.requester == self.node_id:
            return
        if req.next_index > self._next_commit_index:
            return  # the requester is ahead of us; nothing useful to say
        superblocks = self.journal.range(req.next_index, self._next_commit_index)
        resp = CatchupResponse(
            superblocks=superblocks,
            state_root=self.blockchain.state.state_root(),
            next_index=self._next_commit_index,
            responder=self.node_id,
        )
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "node.catchup_serve", self.sim.now,
                node=self.node_id,
                requester=req.requester,
                superblocks=len(superblocks),
                next_index=resp.next_index,
            )
        self.network.send(
            self.node_id,
            req.requester,
            Message(
                kind=CATCHUP_RESP_KIND,
                payload=resp,
                sender=self.node_id,
                size_bytes=resp.approx_size(),
            ),
        )

    def _absorb_catchup(self, resp: CatchupResponse) -> None:
        """Apply a ``CATCHUP_RESP``: replay missed superblocks in order.

        Replay runs the deterministic commit loop so the chain keeps the
        exact block hashes peers have (safety checks compare prefixes),
        with RPM invocations, exclusion refresh and round scheduling
        skipped (done once at the end of recovery) — the node must not
        re-attest blocks its peers attested while it was down.  A
        recovering node finishes recovery once its frontier reaches the
        responder's and its replayed state root equals the responder's
        ``state_root``; otherwise it stays recovering, and the next
        response (the watchdog keeps asking) can finish it.
        """
        if self.crashed:
            return
        applied = 0
        for superblock in resp.superblocks:
            if superblock.index != self._next_commit_index:
                continue  # already applied (racing responses) or future gap
            self._apply_superblock(superblock)
            self._advance_frontier()
            applied += 1
        if self._recovering:
            if self._next_commit_index == resp.next_index:
                if self.blockchain.state.state_root() != resp.state_root:
                    if telemetry.get_tracer().enabled:
                        telemetry.event(
                            "node.catchup_root_mismatch", self.sim.now,
                            node=self.node_id,
                            responder=resp.responder,
                            index=self._next_commit_index,
                        )
                    logger.error(
                        "node %d: replayed to index %d but state root differs "
                        "from responder %d — staying in recovery",
                        self.node_id, self._next_commit_index, resp.responder,
                    )
                    return
                self._finish_recovery()
        elif applied:
            # A stalled (but never-crashed) node caught up past rounds it
            # was starved out of; rejoin proposing at the new frontier.
            if telemetry.get_tracer().enabled:
                telemetry.event(
                    "node.catchup_absorbed", self.sim.now,
                    node=self.node_id,
                    responder=resp.responder,
                    applied=applied,
                    next_index=self._next_commit_index,
                )
            next_index = self._next_commit_index
            if next_index > self._next_propose_index:
                self._next_propose_index = next_index
            self._schedule(self.round_interval, self._start_round, next_index)

    def _finish_recovery(self) -> None:
        """Converged with a peer: leave recovery and rejoin consensus."""
        self._recovering = False
        self._refresh_exclusions()
        buffered, self._catchup_buffer = self._catchup_buffer, []
        self._catchup_buffered_votes = 0
        replayed = 0
        for item, wire_sender in buffered:
            if item.index < self._next_commit_index:
                continue  # decided while we were buffering; replay covered it
            self._ingest_consensus((item,), wire_sender)
            replayed += len(item.messages) if type(item) is VoteRun else 1
        next_index = max(self._next_commit_index, self._next_propose_index)
        self._next_propose_index = next_index
        if telemetry.get_tracer().enabled:
            telemetry.event(
                "node.recovered", self.sim.now,
                node=self.node_id,
                next_index=next_index,
                buffered_replayed=replayed,
            )
        logger.info(
            "node %d recovered at t=%.3f: frontier %d, %d buffered messages "
            "replayed", self.node_id, self.sim.now, self._next_commit_index,
            replayed,
        )
        self._schedule(self.round_interval, self._start_round, next_index)

    # -- RPM integration ---------------------------------------------------------------------

    def _rpm_next_nonce(self) -> int:
        if self._rpm_nonce is None:
            # (Re)start continuation point: the committed state nonce.
            # Attestations issued pre-crash but never committed died with
            # the volatile pool, so their nonces are free to reuse;
            # committed ones advanced the account nonce, which the
            # catch-up replay restored — so nonces survive a restart.
            self._rpm_nonce = self.blockchain.state.nonce_of(self.address)
        nonce = self._rpm_nonce
        self._rpm_nonce += 1
        # Durable high-water mark of issued nonces (crash-audit evidence).
        self.journal.rpm_nonce = self._rpm_nonce
        return nonce

    def _invoke_rpm(
        self,
        superblock: SuperBlock,
        invalid_by_proposer: list[tuple[int, Transaction, str]],
    ) -> None:
        # propReceived for every block in the decided superblock.
        for slot, block in enumerate(superblock.blocks):
            if block.certificate is None or len(block) == 0:
                continue
            tx = make_invoke(
                self.keypair, RPM_ADDRESS, "prop_received",
                (*certificate_payload(block), slot, superblock.index),
                self._rpm_next_nonce(), gas_limit=2_000_000, created_at=self.sim.now,
            )
            if self._receive(tx, from_peer=False):
                self.stats.rpm_attestations += 1
        # report reportable invalid transactions (bounded per block: one
        # successful report already forfeits the whole deposit).
        blocks_by_proposer = {b.proposer_id: b for b in superblock.blocks}
        reports_filed: dict[int, int] = {}
        for proposer_id, bad_tx, error in invalid_by_proposer:
            filed = reports_filed.get(proposer_id, 0)
            if error not in REPORTABLE_ERRORS or filed >= MAX_REPORTS_PER_BLOCK:
                continue
            reports_filed[proposer_id] = filed + 1
            block = blocks_by_proposer.get(proposer_id)
            if block is None or block.certificate is None:
                continue
            cert, *proof = report_payload(block, bad_tx.tx_hash)
            tx = make_invoke(
                self.keypair, RPM_ADDRESS, "report", (cert, superblock.index, *proof),
                self._rpm_next_nonce(), gas_limit=2_000_000, created_at=self.sim.now,
            )
            if self._receive(tx, from_peer=False):
                self.stats.rpm_reports += 1
                if telemetry.get_tracer().enabled:
                    telemetry.event(
                        "rpm.report", self.sim.now,
                        node=self.node_id,
                        proposer=proposer_id,
                        error=error,
                        index=superblock.index,
                    )
                logger.info(
                    "node %d filed RPM report against proposer %d (%s)",
                    self.node_id, proposer_id, error,
                )

    def _refresh_exclusions(self) -> None:
        """Listen for Byzantine-validator events (Alg. 2 line 42)."""
        excluded = read_excluded(self.blockchain.state)
        self.excluded_validators = set(excluded)
        if self.protocol.rpm_exclude_comms and excluded:
            # Drop the excluded address from gossip/consensus entirely:
            # map addresses back to committee seats and stop listening.
            ids = {
                self._address_to_node[address]
                for address in excluded
                if address in self._address_to_node
            }
            self._excluded_node_ids = ids
            self.gossip.blocked = ids
            # Rounds already in flight would stall on the excluded seats'
            # never-arriving proposals; close those slots immediately.
            for consensus in self._consensus.values():
                if not consensus.finished:
                    for seat in ids:
                        consensus.vote_zero(seat)

    # -- convenience -------------------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blockchain.height

    def rpm_deposit_of(self, address: str) -> int:
        return read_deposit(self.blockchain.state, address)
