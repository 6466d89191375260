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
  finite retry cap: the ``RETRANSMIT_*`` constants) on the sender and
  duplicate/reorder suppression on the receiver, so hard loss and
  duplication degrade back to the delay-only model the consensus layer
  already tolerates.  Retransmitted copies are wire traffic
  (``srbb_net_messages_total`` grows) but not logical traffic; the split
  is exported via
  ``srbb_net_retransmissions_total`` / ``srbb_net_duplicates_dropped_total``
  with the same per-region labels as the existing traffic counters.

**One fan-out.**  ``send`` and ``broadcast`` share one loop: a
point-to-point send is a fan-out of one.  A broadcast's destinations
and their base latencies, and the region pairs it crosses with their
copy counts, are cached per ``(src, include_self)`` (``register``
clears the cache), so its traffic is booked once — one
:meth:`NetStats.record` call for k copies, enabled-registry children
included — rather than once per destination.  On a plain link (no fault
model, no reliable delivery) a copy costs one jitter draw, one clamp and
one ``schedule``: serialization and the partial-synchrony bound are
computed once per fan-out, adversarial delay per copy.  Reliable and
faulty copies take the per-copy channel routine, in destination order,
so sequence numbers and every RNG draw come out as a loop of ``send``
would draw them (docs/PROFILING.md, *The per-message constant*).

**One book per fact.**  ``NetStats`` holds the run's traffic totals and
their per-kind split, nothing per sender or per region pair: the
per-region book is the registry's ``srbb_net_*{kind,src_region,dst_region}``
children, kept only while the registry is enabled.
"""

from __future__ import annotations

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
#: wire size charged per ACK control message
ACK_BYTES = 32
#: first retransmission fires after this many simulated seconds
RETRANSMIT_TIMEOUT_S = 0.6
#: exponential backoff factor applied per retry
RETRANSMIT_BACKOFF = 2.0
#: retransmission attempts before the sender gives up.  A finite cap
#: keeps the event queue bounded when the peer is crashed; the
#: crash-recovery catch-up protocol (not the transport) is what
#: guarantees a restarted node converges.
RETRANSMIT_CAP = 6
#: jitter samples drawn per RNG call
JITTER_BLOCK = 1024


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


#: ``((src_region, dst_region), copies)`` per region pair a fan-out crosses
_Regions = tuple[tuple[tuple[str, str], int], ...]
#: one copy within one region: the booking of a bare ``record(msg)``
_LOCAL = ((("local", "local"), 1),)
#: ``(targets, regions)``: ``(dst, base latency or None for loopback)``
#: per copy, and the booking :meth:`NetStats.record` takes
_FanOut = tuple[tuple[tuple[int, float | None], ...], _Regions]


@dataclass
class NetStats:
    """Traffic totals and their per-kind split (bandwidth-consumption
    evidence for §III)."""

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
    #: per-kind [messages, bytes]; ``messages`` and ``bytes`` are its sums
    by_kind: dict = field(default_factory=dict)

    def record(self, msg: Message, regions: _Regions = _LOCAL) -> None:
        """Book ``msg`` sent as ``copies`` copies over each region pair in
        ``regions`` (``((src_region, dst_region), copies)`` entries, in
        first-use order) — the one booking routine for every send."""
        size = msg.size_bytes
        total = 0
        for _pair, copies in regions:
            total += copies
        volume = size * total
        self.messages += total
        self.bytes += volume
        self.logical_messages += msg.count * total
        kind = self.by_kind.get(msg.kind)
        if kind is None:
            kind = self.by_kind[msg.kind] = [0, 0]
        kind[0] += total
        kind[1] += volume
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.logical.inc(msg.count * total)
            for (src_region, dst_region), copies in regions:
                msgs_child, bytes_child = _traffic_children(
                    m, msg.kind, src_region, dst_region
                )
                msgs_child.inc(copies)
                bytes_child.inc(size * copies)


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
        bandwidth_bytes_per_s: float = params.LINK_BANDWIDTH_BYTES_PER_S,
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
        #: jitter samples drawn JITTER_BLOCK at a time (the sequence scalar
        #: draws give), taken from the end
        self._jitters: list[float] = []
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
        #: (src, dst) -> that link as a fan-out of one (``send``)
        self._unicasts: dict[tuple[int, int], _FanOut] = {}
        #: (src, include_self) -> a broadcast's fan-out; ``register``
        #: clears it, since the destinations are the registered endpoints
        self._broadcasts: dict[tuple[int, bool], _FanOut] = {}
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
        self._broadcasts.clear()

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

    # -- congestion observability ----------------------------------------------

    def inflight(self) -> int:
        """Un-acked reliable sends currently awaiting ack/retransmit —
        the network-wide retransmission-queue depth that ``obs.sample``
        trace events carry (0 under fire-and-forget delivery)."""
        return len(self._pending)

    # -- delay model ---------------------------------------------------------------

    def delay_for(self, src: int, dst: int, size_bytes: int) -> float:
        """Sample the delivery delay for one message."""
        base = self._link(src, dst)[0]
        serialization = size_bytes / self.bandwidth
        jitter = self._jitters.pop() if self._jitters else self._refill()
        delay = base + serialization + jitter
        if self.adversarial_delay is not None:
            # The adversary may only *stretch* delays, bounded by the
            # partial-synchrony cap for the current time.
            extra = max(0.0, self.adversarial_delay(src, dst, self.sim.now))
            delay += extra
        return min(delay, self.timing.bound(self.sim.now) + serialization)

    def _refill(self) -> float:
        """Draw the next block of jitter samples; returns the first."""
        self._jitters[:] = self.rng.exponential(self.jitter_s, JITTER_BLOCK)[::-1].tolist()
        return self._jitters.pop()

    # -- primitives -------------------------------------------------------------------

    def send(self, src: int, dst: int, msg: Message) -> None:
        """Point-to-point send; delivery scheduled on the simulator."""
        if dst not in self._endpoints:
            raise NetworkError(f"unknown destination node {dst}")
        self._fan_out(src, msg, self._unicast(src, dst))

    def broadcast(self, src: int, msg: Message, *, include_self: bool = True) -> None:
        """Best-effort broadcast to every registered node."""
        key = (src, include_self)
        fan_out = self._broadcasts.get(key)
        if fan_out is None:
            fan_out = self._broadcasts[key] = self._broadcast_fan_out(*key)
        if fan_out[0]:
            self._fan_out(src, msg, fan_out)

    def _unicast(self, src: int, dst: int) -> _FanOut:
        """The link ``src -> dst`` as a fan-out of one (cached)."""
        fan_out = self._unicasts.get((src, dst))
        if fan_out is None:
            base, src_region, dst_region = self._link(src, dst)
            fan_out = self._unicasts[(src, dst)] = (
                ((dst, base),), (((src_region, dst_region), 1),)
            )
        return fan_out

    def _broadcast_fan_out(self, src: int, include_self: bool) -> _FanOut:
        """A broadcast's destinations, in registration order, and the
        region pairs its copies cross, in first-use order."""
        targets: list[tuple[int, float | None]] = []
        regions: dict[tuple[str, str], int] = {}
        for dst in self._endpoints:
            if dst == src:
                if not include_self:
                    continue
                region = self._link(src, src)[1]
                targets.append((dst, None))  # loopback
                pair = (region, region)
            else:
                base, src_region, dst_region = self._link(src, dst)
                targets.append((dst, base))
                pair = (src_region, dst_region)
            regions[pair] = regions.get(pair, 0) + 1
        return tuple(targets), tuple(regions.items())

    def _fan_out(self, src: int, msg: Message, fan_out: _FanOut) -> None:
        """Book ``msg`` once and put one copy on the way to every target:
        ``(dst, base latency)``, where a ``None`` latency is the sender's
        own broadcast copy (loopback, delivered at once)."""
        targets, regions = fan_out
        self.stats.record(msg, regions)
        sim = self.sim
        schedule = sim.schedule
        deliver = self._deliver
        reliable = self.net.reliable_delivery
        faults = self.faults
        adversarial = self.adversarial_delay
        now = sim.now
        serialization = msg.size_bytes / self.bandwidth
        cap = self.timing.bound(now) + serialization
        jitters = self._jitters
        for dst, base in targets:
            if base is None:
                schedule(0.0, deliver, dst, msg)
            elif reliable and dst != src:
                seq = self._next_seq.get((src, dst), 0)
                self._next_seq[(src, dst)] = seq + 1
                self._transmit(src, dst, msg, seq, attempt=0)
            elif faults is not None:
                self._channel_send(src, dst, msg, seq=None)
            else:
                # delay_for, with the per-fan-out terms hoisted
                delay = base + serialization + (jitters.pop() if jitters else self._refill())
                if adversarial is not None:
                    delay += max(0.0, adversarial(src, dst, now))
                if delay > cap:
                    delay = cap
                schedule(delay, deliver, dst, msg)

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
        timeout = RETRANSMIT_TIMEOUT_S * (RETRANSMIT_BACKOFF ** attempt)
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
        if attempt >= RETRANSMIT_CAP:
            if telemetry.get_registry().enabled:
                _rel_metrics().delivery_failures.inc()
            if telemetry.get_tracer().enabled:
                telemetry.event(
                    "net.delivery_failure", self.sim.now,
                    src=src, dst=dst, seq=seq,
                    attempts=attempt + 1,
                )
            return
        self.stats.retransmissions += 1
        _base, src_region, dst_region = self._link(src, dst)
        if telemetry.get_registry().enabled:
            _rel_metrics().retransmissions.labels(
                src_region=src_region, dst_region=dst_region
            ).inc()
        # Retransmitted copies are wire traffic but not new logical volume.
        self.stats.record(replace(msg, count=0), self._unicast(src, dst)[1])
        self._transmit(src, dst, msg, seq, attempt + 1)

    def _deliver_seq(self, src: int, dst: int, msg: Message, seq: int) -> None:
        if dst in self._down:
            self._count_dropped()
            return
        # Ack every copy — the ack for an earlier copy may have been lost.
        self._send_ack(src, dst, seq)
        tracker = self._rx_seen.get((src, dst))
        if tracker is None:
            tracker = self._rx_seen[(src, dst)] = _SeqTracker()
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
            kind=ACK_KIND, payload=seq, sender=dst, size_bytes=ACK_BYTES
        )
        self.stats.record(ack, self._unicast(dst, src)[1])
        if self.faults is not None:
            p_drop = self.faults.drop_probability(dst, src, self.sim.now)
            if p_drop >= 1.0 or (
                p_drop > 0.0 and self._fault_rng.random() < p_drop
            ):
                self._count_dropped()
                return
        delay = self.delay_for(dst, src, ACK_BYTES)
        self.sim.schedule(delay, self._deliver_ack, src, dst, seq)

    def _deliver_ack(self, src: int, dst: int, seq: int) -> None:
        # A crashed sender's timers were already cancelled; pop is a no-op.
        timer = self._pending.pop((src, dst, seq), None)
        if timer is not None:
            timer.cancel()

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._endpoints)
