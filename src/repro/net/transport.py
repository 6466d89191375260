"""Point-to-point message transport with partial synchrony.

Delivery delay = base region latency + serialization (size / bandwidth) +
jitter.  Before the Global Stabilization Time (GST) the adversary may
stretch delays up to ``pre_gst_max_delay`` (messages are *never* lost —
partial synchrony per Dwork/Lynch/Stockmeyer); after GST every delay is
bounded by ``delta``.

Two opt-in extensions (both off by default, keeping the seed model
byte-identical) let chaos runs step outside that contract:

* **Link faults** — an installed :class:`LinkFaultModel` may drop or
  duplicate individual transmissions and add reorder delay beyond the
  partial-synchrony clamp (injected faults are not the GST adversary).
* **Reliable delivery** (``NetParams.reliable_delivery``) — per-link
  monotonic sequence numbers with ack/retransmit (exponential backoff,
  finite retry cap) on the sender and duplicate/reorder suppression on
  the receiver, so hard loss and duplication degrade back to the
  delay-only model the consensus layer already tolerates.  Retransmitted
  copies are wire traffic (``srbb_net_messages_total`` grows) but not
  logical traffic; the split is exported via
  ``srbb_net_retransmissions_total`` / ``srbb_net_duplicates_dropped_total``
  with the same per-region labels as the existing traffic counters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, Callable, Protocol

import numpy as np

from repro import params, telemetry
from repro.errors import NetworkError
from repro.net.simulator import Simulator
from repro.net.topology import Topology

#: global-registry mirrors of the traffic counters — §III's bandwidth
#: evidence (and Fig. 1's validation-count claim) as a direct export.
#: Children are keyed (kind, src_region, dst_region) so each message is
#: counted exactly once and the paper's cross-region bandwidth asymmetry
#: (10-region deployment, §V) is visible in dumps; aggregate per kind or
#: per region pair by summing over the other labels.
_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        messages=reg.counter(
            "srbb_net_messages_total", "messages sent over the simulated network"
        ),
        bytes=reg.counter(
            "srbb_net_bytes_total", "bytes sent over the simulated network"
        ),
        logical=reg.counter(
            "srbb_net_logical_messages_total",
            "logical messages sent (batch constituents counted individually)",
        ),
        children={},  # lazily-filled ((kind, src, dst) -> (messages, bytes))
    )
)

#: reliability/fault counters live in their *own* bind so fault-free runs
#: never register them — checked-in BENCH baselines stay byte-identical.
_rel_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        retransmissions=reg.counter(
            "srbb_net_retransmissions_total",
            "wire retransmissions by the reliable-delivery layer",
        ),
        duplicates_dropped=reg.counter(
            "srbb_net_duplicates_dropped_total",
            "received transmissions suppressed by per-link sequence dedup",
        ),
        dropped=reg.counter(
            "srbb_net_faults_dropped_total",
            "transmissions lost to injected link faults or down nodes",
        ),
        delivery_failures=reg.counter(
            "srbb_net_delivery_failures_total",
            "reliable sends abandoned after the retransmission cap",
        ),
    )
)

#: wire kind of the reliable-delivery acknowledgement control message
ACK_KIND = "ack"


def _traffic_children(m: SimpleNamespace, kind: str, src_region: str, dst_region: str):
    key = (kind, src_region, dst_region)
    pair = m.children.get(key)
    if pair is None:
        labels = {"kind": kind, "src_region": src_region, "dst_region": dst_region}
        pair = (m.messages.labels(**labels), m.bytes.labels(**labels))
        m.children[key] = pair
    return pair


@dataclass(frozen=True)
class Message:
    """Envelope for anything sent over the simulated network.

    ``count`` is the number of *logical* messages this envelope carries —
    1 for ordinary traffic, the constituent-vote count for a consensus
    BATCH — so traffic stats can report both wire and logical volume.
    """

    kind: str
    payload: Any
    sender: int
    size_bytes: int = 256
    count: int = 1
    msg_id: int = field(default_factory=itertools.count().__next__)


class Endpoint(Protocol):
    """Anything receiving messages from the network."""

    def on_message(self, msg: Message) -> None: ...


class LinkFaultModel(Protocol):
    """Per-transmission fault decisions consulted by the transport.

    Implementations (the ``FaultController``) answer from their schedule;
    randomness for the actual coin flips lives in the Network's dedicated
    fault RNG so fault-free runs draw nothing.
    """

    def drop_probability(self, src: int, dst: int, now: float) -> float: ...

    def duplicate_probability(self, src: int, dst: int, now: float) -> float: ...

    def extra_delay_s(self, src: int, dst: int, now: float) -> float: ...


@dataclass
class PartialSynchrony:
    """Timing model: unknown GST, known δ after it."""

    gst: float = 0.0
    delta: float = params.DELTA
    #: worst-case adversarial delay applied before GST
    pre_gst_max_delay: float = 5.0

    def bound(self, now: float) -> float:
        return self.delta if now >= self.gst else self.pre_gst_max_delay


@dataclass
class NetStats:
    """Traffic counters (bandwidth-consumption evidence for §III)."""

    messages: int = 0
    bytes: int = 0
    #: batch-aware volume: constituents of batched envelopes counted
    #: individually (messages counts wire envelopes; logical >= messages)
    logical_messages: int = 0
    #: wire retransmissions (reliable delivery; subset of ``messages``)
    retransmissions: int = 0
    #: received transmissions suppressed by per-link sequence dedup
    duplicates_dropped: int = 0
    #: transmissions lost to injected faults or down destinations
    dropped: int = 0
    by_kind: dict = field(default_factory=dict)
    #: per-sender [messages, bytes] — who is spending the network
    by_sender: dict = field(default_factory=dict)
    #: per-(src_region, dst_region) [messages, bytes] — cross-region
    #: bandwidth asymmetry, the §V 10-region deployment evidence
    by_region: dict = field(default_factory=dict)

    def record(
        self, msg: Message, *, src_region: str = "local", dst_region: str = "local"
    ) -> None:
        size = msg.size_bytes
        self.messages += 1
        self.bytes += size
        self.logical_messages += msg.count
        kind = self.by_kind.get(msg.kind)
        if kind is None:
            kind = self.by_kind[msg.kind] = [0, 0]
        kind[0] += 1
        kind[1] += size
        sender = self.by_sender.get(msg.sender)
        if sender is None:
            sender = self.by_sender[msg.sender] = [0, 0]
        sender[0] += 1
        sender[1] += size
        region = self.by_region.get((src_region, dst_region))
        if region is None:
            region = self.by_region[(src_region, dst_region)] = [0, 0]
        region[0] += 1
        region[1] += size
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.logical.inc(msg.count)
            msgs_child, bytes_child = _traffic_children(
                m, msg.kind, src_region, dst_region
            )
            msgs_child.inc()
            bytes_child.inc(size)

    def egress_bytes(self, sender: int) -> int:
        return self.by_sender.get(sender, [0, 0])[1]


class _SeqTracker:
    """Receiver-side dedup over per-link sequence numbers.

    Compacts the contiguous prefix into a single high-water mark so the
    sparse set only holds reorder gaps — O(1) memory on healthy links.
    """

    __slots__ = ("cum", "sparse")

    def __init__(self) -> None:
        self.cum = -1
        self.sparse: set[int] = set()

    def mark(self, seq: int) -> bool:
        """Record ``seq``; returns True when it was not seen before."""
        if seq <= self.cum or seq in self.sparse:
            return False
        if seq == self.cum + 1:
            self.cum += 1
            while self.cum + 1 in self.sparse:
                self.sparse.discard(self.cum + 1)
                self.cum += 1
        else:
            self.sparse.add(seq)
        return True


class Network:
    """Delivers messages between registered endpoints on a Simulator."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        timing: PartialSynchrony | None = None,
        bandwidth_bytes_per_s: float = params.DEFAULT_RESOURCES.egress_bytes_per_s,
        jitter_s: float = 0.002,
        seed: int = 11,
        adversarial_delay: Callable[[int, int, float], float] | None = None,
        net: params.NetParams | None = None,
        faults: LinkFaultModel | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.timing = timing or PartialSynchrony()
        self.bandwidth = bandwidth_bytes_per_s
        self.jitter_s = jitter_s
        self.rng = np.random.default_rng(seed)
        self.adversarial_delay = adversarial_delay
        self.net = net or params.NetParams()
        #: injected lossy-link behavior; None keeps the delay-only model
        self.faults = faults
        #: fault coin flips use a dedicated stream so enabling faults does
        #: not perturb the delay jitter sequence (and vice versa)
        self._fault_rng = np.random.default_rng(seed + 0x5EED)
        self._endpoints: dict[int, Endpoint] = {}
        #: crashed nodes: all traffic to them is lost until marked up
        self._down: set[int] = set()
        # reliable-delivery link state
        self._next_seq: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int, int], Any] = {}  # key -> timer Event
        self._rx_seen: dict[tuple[int, int], _SeqTracker] = {}
        #: (src, dst) -> (base_latency_s, src_region, dst_region); the
        #: topology is immutable for a deployment's lifetime, so the
        #: per-message lookups on the delivery hot path collapse to one
        #: dict hit
        self._links: dict[tuple[int, int], tuple[float, str, str]] = {}
        self.stats = NetStats()

    def _link(self, src: int, dst: int) -> tuple[float, str, str]:
        """Cached (base latency, src region, dst region) for a link."""
        entry = self._links.get((src, dst))
        if entry is None:
            entry = (
                self.topology.latency_s(src, dst),
                self.topology.region_of(src),
                self.topology.region_of(dst),
            )
            self._links[(src, dst)] = entry
        return entry

    def register(self, node_id: int, endpoint: Endpoint) -> None:
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} already registered")
        self._endpoints[node_id] = endpoint

    # -- crash bookkeeping ---------------------------------------------------------

    def set_down(self, node_id: int, down: bool) -> None:
        """Mark a node crashed (True) or back up (False).

        Crashing cancels the node's outstanding retransmission timers (a
        dead process stops retrying) and forgets its receive-side dedup
        state (volatile RAM) — senders keep their monotonic sequence
        counters, so post-restart traffic cannot collide with stale seqs.
        """
        if down:
            self._down.add(node_id)
            for key in [k for k in self._pending if k[0] == node_id]:
                self._pending.pop(key).cancel()
            for link in [k for k in self._rx_seen if k[1] == node_id]:
                del self._rx_seen[link]
        else:
            self._down.discard(node_id)

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    # -- congestion observability ----------------------------------------------

    def inflight(self) -> int:
        """Un-acked reliable sends currently awaiting ack/retransmit —
        the network-wide retransmission-queue depth sampled by the
        congestion observatory (0 under fire-and-forget delivery)."""
        return len(self._pending)

    # -- delay model ---------------------------------------------------------------

    def delay_for(self, src: int, dst: int, size_bytes: int) -> float:
        """Sample the delivery delay for one message."""
        base = self._link(src, dst)[0]
        serialization = size_bytes / self.bandwidth
        jitter = float(self.rng.exponential(self.jitter_s))
        delay = base + serialization + jitter
        if self.adversarial_delay is not None:
            # The adversary may only *stretch* delays, bounded by the
            # partial-synchrony cap for the current time.
            extra = max(0.0, self.adversarial_delay(src, dst, self.sim.now))
            delay += extra
        return min(delay, self.timing.bound(self.sim.now) + serialization)

    # -- primitives -------------------------------------------------------------------

    def send(self, src: int, dst: int, msg: Message) -> None:
        """Point-to-point send; delivery scheduled on the simulator."""
        if dst not in self._endpoints:
            raise NetworkError(f"unknown destination node {dst}")
        _base, src_region, dst_region = self._link(src, dst)
        self.stats.record(msg, src_region=src_region, dst_region=dst_region)
        if self.net.reliable_delivery and src != dst:
            seq = self._next_seq.get((src, dst), 0)
            self._next_seq[(src, dst)] = seq + 1
            self._transmit(src, dst, msg, seq, attempt=0)
        else:
            self._channel_send(src, dst, msg, seq=None)

    def broadcast(self, src: int, msg: Message, *, include_self: bool = True) -> None:
        """Best-effort broadcast to every registered node."""
        for dst in self._endpoints:
            if dst == src and not include_self:
                continue
            if dst == src:
                # Local delivery is immediate-ish (loopback).
                self.sim.schedule(0.0, self._deliver, dst, msg)
                region = self._link(src, src)[1]
                self.stats.record(msg, src_region=region, dst_region=region)
            else:
                self.send(src, dst, msg)

    def send_to_peers(self, src: int, msg: Message) -> int:
        """Send to overlay neighbours only (gossip building block)."""
        peers = self.topology.peers_of(src)
        for dst in peers:
            if dst in self._endpoints:
                self.send(src, dst, msg)
        return len(peers)

    # -- the (possibly lossy) channel ------------------------------------------------

    def _count_dropped(self) -> None:
        self.stats.dropped += 1
        if telemetry.get_registry().enabled:
            _rel_metrics().dropped.inc()

    def _channel_send(
        self, src: int, dst: int, msg: Message, *, seq: "int | None"
    ) -> None:
        """Put one transmission on the wire, subject to injected faults."""
        copies = 1
        if self.faults is not None:
            now = self.sim.now
            p_drop = self.faults.drop_probability(src, dst, now)
            if p_drop >= 1.0 or (
                p_drop > 0.0 and self._fault_rng.random() < p_drop
            ):
                self._count_dropped()
                return
            p_dup = self.faults.duplicate_probability(src, dst, now)
            if p_dup > 0.0 and self._fault_rng.random() < p_dup:
                copies = 2
        for _ in range(copies):
            delay = self.delay_for(src, dst, msg.size_bytes)
            if self.faults is not None:
                # Reorder spread is injected *outside* the partial-synchrony
                # clamp — injected faults are not the GST adversary.
                delay += max(
                    0.0, self.faults.extra_delay_s(src, dst, self.sim.now)
                )
            if seq is None:
                self.sim.schedule(delay, self._deliver, dst, msg)
            else:
                self.sim.schedule(delay, self._deliver_seq, src, dst, msg, seq)

    def _deliver(self, dst: int, msg: Message) -> None:
        if dst in self._down:
            # Arrived at a dead host: lost, like any in-flight traffic.
            self._count_dropped()
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            endpoint.on_message(msg)

    # -- reliable delivery ------------------------------------------------------------

    def _transmit(
        self, src: int, dst: int, msg: Message, seq: int, attempt: int
    ) -> None:
        self._channel_send(src, dst, msg, seq=seq)
        timeout = self.net.retransmit_timeout_s * (
            self.net.retransmit_backoff ** attempt
        )
        # Almost every one of these timers is cancelled (the ack wins);
        # a cancelled timer leaves the heap when it reaches the head.
        self._pending[(src, dst, seq)] = self.sim.schedule(
            timeout, self._retransmit, src, dst, msg, seq, attempt
        )

    def _retransmit(
        self, src: int, dst: int, msg: Message, seq: int, attempt: int
    ) -> None:
        key = (src, dst, seq)
        if self._pending.pop(key, None) is None:
            return  # acked (or the sender crashed) in the meantime
        if attempt >= self.net.retransmit_cap:
            if telemetry.get_registry().enabled:
                _rel_metrics().delivery_failures.inc()
            telemetry.event(
                "net.delivery_failure",
                src=src, dst=dst, seq=seq,
                attempts=attempt + 1, sim_now=self.sim.now,
            )
            return
        self.stats.retransmissions += 1
        _base, src_region, dst_region = self._link(src, dst)
        if telemetry.get_registry().enabled:
            _rel_metrics().retransmissions.labels(
                src_region=src_region, dst_region=dst_region
            ).inc()
        # Retransmitted copies are wire traffic but not new logical volume.
        self.stats.record(
            replace(msg, count=0),
            src_region=src_region, dst_region=dst_region,
        )
        self._transmit(src, dst, msg, seq, attempt + 1)

    def _deliver_seq(self, src: int, dst: int, msg: Message, seq: int) -> None:
        if dst in self._down:
            self._count_dropped()
            return
        # Ack every copy — the ack for an earlier copy may have been lost.
        self._send_ack(src, dst, seq)
        tracker = self._rx_seen.setdefault((src, dst), _SeqTracker())
        if not tracker.mark(seq):
            self.stats.duplicates_dropped += 1
            if telemetry.get_registry().enabled:
                _base, src_region, dst_region = self._link(src, dst)
                _rel_metrics().duplicates_dropped.labels(
                    src_region=src_region, dst_region=dst_region
                ).inc()
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is not None:
            endpoint.on_message(msg)

    def _send_ack(self, src: int, dst: int, seq: int) -> None:
        """Receiver ``dst`` acknowledges ``seq`` back to sender ``src``."""
        ack = Message(
            kind=ACK_KIND, payload=seq, sender=dst, size_bytes=self.net.ack_bytes
        )
        _base, ack_src_region, ack_dst_region = self._link(dst, src)
        self.stats.record(ack, src_region=ack_src_region, dst_region=ack_dst_region)
        if self.faults is not None:
            p_drop = self.faults.drop_probability(dst, src, self.sim.now)
            if p_drop >= 1.0 or (
                p_drop > 0.0 and self._fault_rng.random() < p_drop
            ):
                self._count_dropped()
                return
        delay = self.delay_for(dst, src, self.net.ack_bytes)
        self.sim.schedule(delay, self._deliver_ack, src, dst, seq)

    def _deliver_ack(self, src: int, dst: int, seq: int) -> None:
        # A crashed sender's timers were already cancelled; pop is a no-op.
        timer = self._pending.pop((src, dst, seq), None)
        if timer is not None:
            timer.cancel()

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._endpoints)
