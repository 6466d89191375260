"""Bracha reliable broadcast for block proposals.

Guarantees with f < n/3 Byzantine:

* **Validity** — if the (correct) broadcaster sends m, every correct node
  delivers m.
* **Agreement/totality** — if any correct node delivers m, every correct
  node eventually delivers m (and no two correct nodes deliver different
  payloads for the same broadcaster slot).

ECHO and READY carry the payload alongside its digest so a node that never
received the original SEND (Byzantine broadcaster) can still assemble the
message — a simplification over hash-then-fetch that suits a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.consensus.messages import ConsensusMessage, MsgKind
from repro.crypto.hashing import hash_items

_ECHO = MsgKind.RBC_ECHO
_READY = MsgKind.RBC_READY


def _digest(payload: Any) -> bytes:
    if hasattr(payload, "block_hash"):
        return payload.block_hash
    if isinstance(payload, bytes):
        return hash_items([payload])
    return hash_items([repr(payload)])


@dataclass(slots=True)
class _SlotState:
    """State for one broadcaster slot.  Who voted is one bitmask of
    sender ids per digest (a repeated vote finds its bit already set)."""

    echoes: dict[bytes, int] = field(default_factory=dict)
    readies: dict[bytes, int] = field(default_factory=dict)
    payloads: dict[bytes, Any] = field(default_factory=dict)
    echoed: bool = False
    ready_sent: bool = False
    delivered: bool = False


class ReliableBroadcast:
    """Per-node RBC endpoint multiplexing all broadcaster slots of an index."""

    def __init__(
        self,
        *,
        n: int,
        f: int,
        my_id: int,
        index: int,
        broadcast: Callable[[ConsensusMessage], None],
        on_deliver: Callable[[int, Any], None],
    ):
        self.n = n
        self.f = f
        self.my_id = my_id
        self.index = index
        #: outgoing-message sink — a VoteBatcher when the owning node
        #: batches votes (ECHO/READY coalesce; SEND always goes direct).
        self.sink = broadcast
        self._on_deliver = on_deliver
        self._slots: dict[int, _SlotState] = {}

    def _slot(self, instance: int) -> _SlotState | None:
        """The slot's state, or ``None`` for an instance no seat owns."""
        slot = self._slots.get(instance)
        if slot is None:
            if type(instance) is not int or not 0 <= instance < self.n:
                return None
            slot = self._slots[instance] = _SlotState()
        return slot

    def _send(self, kind: MsgKind, instance: int, value: Any) -> None:
        self.sink(
            ConsensusMessage(kind, self.index, instance, 0, value, self.my_id)
        )

    # -- API --------------------------------------------------------------------

    def broadcast_payload(self, payload: Any) -> None:
        """RBC-broadcast ``payload`` in this node's own slot."""
        self._send(MsgKind.RBC_SEND, self.my_id, payload)

    def on_message(self, msg: ConsensusMessage) -> None:
        kind = msg.kind
        if kind is _ECHO or kind is _READY:
            self.on_votes((msg,), msg.sender)  # a run of one
            return
        if kind is not MsgKind.RBC_SEND:
            return
        slot = self._slot(msg.instance)
        # Only the slot owner's SEND counts (others are Byzantine noise).
        if slot is None or msg.sender != msg.instance or slot.echoed:
            return
        slot.echoed = True
        digest = _digest(msg.value)
        slot.payloads[digest] = msg.value
        self._send(MsgKind.RBC_ECHO, msg.instance, (digest, msg.value))
        # Count our own echo implicitly via loopback delivery.

    def on_votes(self, messages: Iterable[ConsensusMessage], sender: int) -> None:
        """Tally a stretch of ECHO/READY votes, all sent by ``sender``, in
        emission order.  Votes from outside ``range(n)`` are nobody's."""
        if type(sender) is not int or not 0 <= sender < self.n:
            return
        bit = 1 << sender
        quorum = 2 * self.f + 1
        for msg in messages:
            instance = msg.instance
            slot = self._slots.get(instance) or self._slot(instance)
            if slot is None or (slot.delivered and slot.ready_sent):
                continue  # unknown slot, or one with nothing left to trigger
            digest, payload = msg.value
            # A digest's count moves by one per vote, and _check_ready
            # latches ready_sent the first time it finds a threshold met:
            # only the vote landing exactly on one can change anything.
            if msg.kind is _ECHO:
                seen = slot.echoes.get(digest, 0)
                if seen & bit:
                    continue
                seen = slot.echoes[digest] = seen | bit
                slot.payloads.setdefault(digest, payload)
                if seen.bit_count() == quorum:
                    self._check_ready(instance, digest, slot)
            else:
                seen = slot.readies.get(digest, 0)
                if seen & bit:
                    continue
                seen = slot.readies[digest] = seen | bit
                if payload is not None:
                    slot.payloads.setdefault(digest, payload)
                count = seen.bit_count()
                if count == self.f + 1:
                    self._check_ready(instance, digest, slot)
                # ≥, not ==: delivery may be waiting for a READY that
                # carries the payload
                if count >= quorum and not slot.delivered:
                    self._check_deliver(instance, digest, slot)

    # -- thresholds ----------------------------------------------------------------

    def _check_ready(self, instance: int, digest: bytes, slot: _SlotState) -> None:
        if slot.ready_sent:
            return
        echoes = slot.echoes.get(digest, 0).bit_count()
        readys = slot.readies.get(digest, 0).bit_count()
        if echoes >= 2 * self.f + 1 or readys >= self.f + 1:
            slot.ready_sent = True
            payload = slot.payloads.get(digest)
            self._send(MsgKind.RBC_READY, instance, (digest, payload))
            self._check_deliver(instance, digest, slot)

    def _check_deliver(self, instance: int, digest: bytes, slot: _SlotState) -> None:
        if slot.delivered:
            return
        readys = slot.readies.get(digest, 0).bit_count()
        if readys >= 2 * self.f + 1 and digest in slot.payloads:
            payload = slot.payloads[digest]
            if payload is None:
                return  # wait until someone forwards the payload
            slot.delivered = True
            self._on_deliver(instance, payload)

    def delivered(self, instance: int) -> bool:
        slot = self._slots.get(instance)
        return slot is not None and slot.delivered
