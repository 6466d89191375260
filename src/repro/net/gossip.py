"""Gossip (flood) propagation of individual transactions.

This is the layer TVPR removes.  Modern blockchains push every eagerly
validated transaction to their overlay peers; each peer that has not seen
the transaction validates it again and pushes it onward (Alg. 1 line 9),
so one client transaction costs O(edges) messages and n eager validations.
``GossipLayer`` implements exactly that, with per-message dedup and an
optional hop-count TTL.  The redundancy factor that motivates §III-A is
counted by the process-wide ``srbb_gossip_*`` metrics (while the
registry is enabled) and by the ``gossip`` kind of ``NetStats.by_kind``;
the layer keeps no counters of its own.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from repro import telemetry
from repro.net.transport import Message, Network

#: process-wide gossip redundancy counters (the §III-A overhead, exported)
_metrics = telemetry.bind(
    lambda reg: SimpleNamespace(
        originated=reg.counter(
            "srbb_gossip_originated_total", "gossip items originated"
        ),
        forwarded=reg.counter(
            "srbb_gossip_forwarded_total", "gossip envelopes forwarded to peers"
        ),
        received=reg.counter(
            "srbb_gossip_received_total", "gossip envelopes received"
        ),
        duplicates=reg.counter(
            "srbb_gossip_duplicates_total",
            "received gossip envelopes suppressed as duplicates",
        ),
    )
)


class GossipLayer:
    """Per-node flood gossip with dedup, driven through the Network.

    ``deliver`` is called exactly once per (node, item); forwarding to the
    node's overlay peers happens automatically unless the node opts out
    (TVPR mode simply never calls :meth:`publish` for transactions).
    """

    KIND = "gossip"

    def __init__(
        self,
        node_id: int,
        network: Network,
        deliver: Callable[[object, int], None],
        *,
        max_hops: int = 64,
    ):
        self.node_id = node_id
        self.network = network
        self.deliver = deliver
        self.max_hops = max_hops
        self._seen: set[object] = set()
        #: senders whose envelopes are refused outright — the node sets
        #: this to the RPM-excluded committee seats under
        #: ``ProtocolParams.rpm_exclude_comms``
        self.blocked: set[int] = set()

    def publish(self, item_id: object, payload: object, size_bytes: int) -> None:
        """Originate a gossip item from this node."""
        if item_id in self._seen:
            return
        self._seen.add(item_id)
        if telemetry.get_registry().enabled:
            _metrics().originated.inc()
        self._forward(item_id, payload, size_bytes, hops=0)

    def handle(self, msg: Message) -> bool:
        """Process an incoming gossip envelope; returns True if fresh.

        On a fresh item: deliver locally, then forward to peers.
        """
        if msg.sender in self.blocked:
            return False
        item_id, payload, size_bytes, hops = msg.payload
        fresh = item_id not in self._seen
        if telemetry.get_registry().enabled:
            m = _metrics()
            m.received.inc()
            if not fresh:
                m.duplicates.inc()
        if not fresh:
            return False
        self._seen.add(item_id)
        self.deliver(payload, msg.sender)
        if hops + 1 < self.max_hops:
            self._forward(item_id, payload, size_bytes, hops=hops + 1)
        return True

    def _forward(
        self, item_id: object, payload: object, size_bytes: int, hops: int
    ) -> None:
        msg = Message(
            kind=self.KIND,
            payload=(item_id, payload, size_bytes, hops),
            sender=self.node_id,
            size_bytes=size_bytes,
        )
        sent = self.network.send_to_peers(self.node_id, msg)
        if telemetry.get_registry().enabled:
            _metrics().forwarded.inc(sent)

    def reset(self) -> None:
        """Forget dedup state (a crashed node's RAM)."""
        self._seen.clear()
