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
A vote is only as good as its digest, so a payload is kept for digest
``d`` only if it hashes to ``d``: the first such payload wins, and one
that does not hash to ``d`` (or no payload at all) never stands in for
it.  The hash is taken while the digest has no payload yet, never once
it has one.

Bracha's rule is one ECHO and one READY per sender and slot: a sender's
first ECHO (READY) for a slot counts, whatever its digest, and any later
one does not.  Correct senders never vote twice; a Byzantine sender
spraying fresh digests at an undelivered slot opens one digest entry
per vote kind, not one per digest.

Tallies are column-wise, one column per broadcaster slot of the chain
index, like DBFT's :class:`~repro.consensus.dbft.VoteTable`:

* per slot, its *column digest* (the first digest seen for it), that
  digest's payload, and ECHO and READY counters;
* per (sender, kind), one slot bitmask — the slots whose vote of that
  kind was already counted, so the double-vote rule is
  ``new = mask & ~seen``;
* bitmasks of the slots ECHOed, READY-sent and delivered.

A run of votes (:class:`~repro.consensus.messages.VoteRun`) whose digests
all equal their slots' column digests, for slots that hold a payload, is
tallied in one pass over its instances.  One that covers every slot is
counted with one uniform add to its kind's counters, and then wakes the
slots landing on a threshold in run order (only a slot's own checks read
its counts); each kind keeps that add and its highest per-slot counter,
as DBFT's vote table does.  A READY run that can take some slot to 2f+1
takes the pass instead.  A vote for any other digest is
counted in a per-digest entry; only an equivocating broadcaster or a slot
seen for the first time produces them, and a run that mixes them in takes
the per-vote routine (:meth:`ReliableBroadcast._vote`) in order.  Each
sender opens at most one entry per kind and slot, so a slot holds at most
2n of them (and one for a SEND whose digest lost the column).
Either way a slot is woken on the vote that lands exactly on 2f+1 ECHOs
or f+1 READYs (``_check_ready``), or on any READY at or past 2f+1 while
undelivered (``_check_deliver``), in the run's emission order.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.consensus.messages import ConsensusMessage, MsgKind, VoteRun, _run_key
from repro.crypto.hashing import hash_items

_ECHO = MsgKind.RBC_ECHO
_READY = MsgKind.RBC_READY


def _digest(payload: Any) -> bytes:
    if hasattr(payload, "block_hash"):
        return payload.block_hash
    if isinstance(payload, bytes):
        return hash_items([payload])
    return hash_items([repr(payload)])


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
        self._all = (1 << n) - 1
        self._quorum = 2 * f + 1
        # per slot: column digest, its payload, its ECHO / READY counts
        self._digests: list[bytes | None] = [None] * n
        self._payloads: list[Any] = [None] * n
        self._echoes = [0] * n
        self._readies = [0] * n
        #: per kind: the uniform add, and the highest per-slot counter
        self._echo_span = [0, 0]
        self._ready_span = [0, 0]
        # per sender: the slots whose ECHO / READY it already cast
        self._echoed_by = [0] * n
        self._readied_by = [0] * n
        #: (slot, any other digest) -> [ECHO count, READY count, payload]
        self._others: dict[tuple[int, bytes], list] = {}
        self._unpaid = self._all  # slots whose column digest has no payload
        self._echoed = 0
        self._ready_sent = 0
        #: delivered slots; delivering implies READY-sent, so these are
        #: the slots no vote can change anything for
        self._delivered = 0

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
            sender = msg.sender
            if _run_key(msg) is not None and 0 <= sender < self.n:  # well-formed
                self._vote(kind, msg.instance, msg.value, sender)
            return
        instance = msg.instance
        # Only the slot owner's SEND counts (others are Byzantine noise).
        if (
            kind is not MsgKind.RBC_SEND
            or type(instance) is not int
            or not 0 <= instance < self.n
            or msg.sender != instance
            or self._echoed >> instance & 1
        ):
            return
        self._echoed |= 1 << instance
        digest = _digest(msg.value)
        if self._digests[instance] is None:
            self._digests[instance] = digest
        self._keep(instance, digest, msg.value)
        self._send(MsgKind.RBC_ECHO, instance, (digest, msg.value))
        # Count our own echo implicitly via loopback delivery.

    def on_run(self, run: VoteRun) -> None:
        """Tally a run of ECHO or READY votes, all sent by ``run.sender``,
        in emission order.  Votes from outside ``range(n)`` are nobody's."""
        sender = run.sender
        if not 0 <= sender < self.n:
            return
        mask = run.mask
        columns = self._digests
        if (
            mask > self._all
            or mask & self._unpaid
            or tuple(map(columns.__getitem__, run.instances)) != run.digests
        ):
            for msg in run.messages:
                self._vote(run.kind, msg.instance, msg.value, sender)
            return
        echo = run.kind is _ECHO
        seen = self._echoed_by if echo else self._readied_by
        new = mask & ~seen[sender] & ~self._delivered
        if not new:
            return
        seen[sender] |= new
        counts, span = (self._echoes, self._echo_span) if echo else (
            self._readies, self._ready_span
        )
        add, high = span
        if new == self._all and (echo or high + add < self._quorum - 1):
            add = span[0] = add + 1
            # thresholds shifted by the uniform add, to compare with counters
            quorum, amplify = self._quorum - add, self.f + 1 - add
            landing = quorum if echo else amplify
            if 0 <= landing <= high:
                check_ready = self._check_ready
                for i in run.instances:
                    if counts[i] == landing:
                        check_ready(i, columns[i])
            return
        quorum, amplify = self._quorum - add, self.f + 1 - add
        partial = new != mask
        top = 0
        if echo:
            for i in run.instances:
                if partial and not new >> i & 1:
                    continue
                count = counts[i] = counts[i] + 1
                if count > top:
                    top = count
                if count == quorum:
                    self._check_ready(i, columns[i])
        else:
            for i in run.instances:
                if partial and not new >> i & 1:
                    continue
                count = counts[i] = counts[i] + 1
                if count > top:
                    top = count
                if count == amplify:
                    self._check_ready(i, columns[i])
                if count >= quorum and not self._delivered >> i & 1:
                    self._check_deliver(i, columns[i])
        if top > high:
            span[1] = top

    def delivered(self, instance: int) -> bool:
        return type(instance) is int and 0 <= instance < self.n and bool(
            self._delivered >> instance & 1
        )

    # -- one vote ------------------------------------------------------------------

    def _vote(self, kind: MsgKind, instance: int, value: tuple, sender: int) -> None:
        """Tally one ECHO/READY ``value = (digest, payload)`` from a seat."""
        if instance >= self.n or self._delivered >> instance & 1:
            return  # unknown slot, or one with nothing left to trigger
        bit = 1 << instance
        echo = kind is _ECHO
        seen = self._echoed_by if echo else self._readied_by
        if seen[sender] & bit:
            return  # the sender's first vote of this kind for the slot stood
        seen[sender] |= bit
        digest, payload = value
        column = self._digests[instance]
        if column is None:
            column = self._digests[instance] = digest
        if digest == column:
            counts, span = (self._echoes, self._echo_span) if echo else (
                self._readies, self._ready_span
            )
            count = counts[instance] = counts[instance] + 1
            if count > span[1]:
                span[1] = count
            count += span[0]
        else:
            other = self._others.setdefault((instance, digest), [0, 0, None])
            field = 0 if echo else 1
            count = other[field] = other[field] + 1
        self._keep(instance, digest, payload)
        # A digest's count moves by one per vote, and _check_ready latches
        # ready_sent the first time it finds a threshold met: only the vote
        # landing exactly on one can change anything.
        quorum = self._quorum
        if echo:
            if count == quorum:
                self._check_ready(instance, digest)
        else:
            if count == self.f + 1:
                self._check_ready(instance, digest)
            # ≥, not ==: delivery may be waiting for a READY that carries
            # the payload
            if count >= quorum and not self._delivered >> instance & 1:
                self._check_deliver(instance, digest)

    def _keep(self, instance: int, digest: bytes, payload: Any) -> None:
        """Keep ``payload`` for ``digest`` in ``instance`` if the digest has
        none yet and the payload hashes to it."""
        if payload is None:
            return
        if digest == self._digests[instance]:
            if self._unpaid >> instance & 1 and _digest(payload) == digest:
                self._payloads[instance] = payload
                self._unpaid &= ~(1 << instance)
            return
        other = self._others.setdefault((instance, digest), [0, 0, None])
        if other[2] is None and _digest(payload) == digest:
            other[2] = payload

    def _tally(self, instance: int, digest: bytes) -> tuple[int, int, Any]:
        """ECHO count, READY count and payload of ``digest`` in ``instance``."""
        if digest == self._digests[instance]:
            return (
                self._echoes[instance] + self._echo_span[0],
                self._readies[instance] + self._ready_span[0],
                self._payloads[instance],
            )
        other = self._others[instance, digest]  # made by the vote that woke it
        return other[0], other[1], other[2]

    # -- thresholds ----------------------------------------------------------------

    def _check_ready(self, instance: int, digest: bytes) -> None:
        if self._ready_sent >> instance & 1:
            return
        echoes, readies, payload = self._tally(instance, digest)
        if echoes >= self._quorum or readies >= self.f + 1:
            self._ready_sent |= 1 << instance
            self._send(MsgKind.RBC_READY, instance, (digest, payload))
            self._check_deliver(instance, digest)

    def _check_deliver(self, instance: int, digest: bytes) -> None:
        if self._delivered >> instance & 1:
            return
        _, readies, payload = self._tally(instance, digest)
        # a missing payload waits until someone forwards it
        if readies >= self._quorum and payload is not None:
            self._delivered |= 1 << instance
            self._on_deliver(instance, payload)
