"""Wire messages exchanged by the consensus protocols.

:class:`ConsensusMessage` and :class:`VoteRun` are ``NamedTuple``\\ s: a
vote is built once per emission on every node, and a positional tuple
costs about a quarter of a frozen dataclass's generated keyword
``__init__`` (docs/PROFILING.md, *The per-message constant*).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, NamedTuple

#: fixed per-message envelope: kind + index + instance + round + sender + auth
BASE_MESSAGE_BYTES = 64


class MsgKind(Enum):
    # binary consensus (DBFT)
    BVAL = "bval"  # BV-broadcast estimate
    AUX = "aux"  # auxiliary phase value
    COORD = "coord"  # weak-coordinator suggestion
    # reliable broadcast (Bracha)
    RBC_SEND = "rbc-send"
    RBC_ECHO = "rbc-echo"
    RBC_READY = "rbc-ready"
    # vote batching (one wire message carrying many of the above)
    BATCH = "batch"


def _payload_size(value: Any) -> int:
    """Approximate encoded size of one message payload, in bytes.

    Handles every payload shape the protocols put on the wire: raw bytes
    (digests), objects exposing ``encoded_size`` (blocks, transactions),
    scalars, and — crucially for RBC ECHO/READY, whose payload is a
    ``(digest, block-or-None)`` tuple — containers of *mixed* element
    types, each element sized recursively.
    """
    if type(value) is int:
        # Exact-type check first: 0/1 vote estimates dominate the traffic
        # (bool stays on its own branch below — it is an int subclass).
        return max(1, (value.bit_length() + 7) // 8)
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if hasattr(value, "encoded_size"):
        return int(value.encoded_size())
    if isinstance(value, (tuple, list)):
        return sum(_payload_size(v) for v in value)
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, str):
        return len(value.encode())
    return BASE_MESSAGE_BYTES  # unknown payloads: charge a full envelope


class ConsensusMessage(NamedTuple):
    """One consensus protocol message.

    ``index`` is the chain index (consensus iteration k), ``instance`` the
    per-proposer binary instance id (or the RBC broadcaster id), ``round``
    the binary-consensus round, ``value`` the payload (0/1 estimate, the
    RBC payload/digest, or a :class:`ConsensusBatch` for ``BATCH``).

    Emitters build one per vote, so construction cost is per-message cost.
    The tuple keeps every property of the frozen record it replaces:
    immutable, hashed as its field tuple (set and dict order unchanged),
    the same ``repr``.  Being a tuple is invisible to payload sizing
    because no message is ever another message's ``value`` (a batch's
    constituents sit in a :class:`ConsensusBatch`).
    """

    kind: MsgKind
    index: int
    instance: int
    round: int
    value: Any
    sender: int

    def approx_size(self) -> int:
        """Rough wire size in bytes for traffic accounting."""
        if isinstance(self.value, ConsensusBatch):
            # The batch *is* the wire encoding — no outer envelope copy.
            return self.value.approx_size()
        return BASE_MESSAGE_BYTES + _payload_size(self.value)


#: Instance ids at or above this never fold into a :class:`VoteRun`: a
#: run carries ``1 << instance`` bits, and an id picked by a Byzantine
#: sender must not size that integer.  Far above any committee here
#: (Table I runs 200 validators); larger ids stay single constituents.
RUN_INSTANCE_LIMIT = 4096


class VoteRun(NamedTuple):
    """A stretch of consecutive batch constituents a receiver tallies at once.

    Constituents equal in their run key that differ only in their
    instance: ``BVAL`` / ``AUX`` votes equal in (kind, index, round,
    value, sender) with ``value`` exactly ``0`` or ``1``, or ``RBC_ECHO``
    / ``RBC_READY`` votes equal in (kind, index, sender) whose value is a
    ``(digest, payload)`` pair with a ``bytes`` digest.  ``instances``
    lists the instances in emission order, each at most once, ``mask``
    has bit ``i`` set for every instance ``i``, and for an RBC run
    ``digests`` lists each vote's digest, aligned with ``instances``.

    ``messages`` is the stretch itself, so flattening a batch's runs
    gives back its constituents exactly and in order.
    """

    kind: MsgKind
    index: int
    sender: int
    messages: "tuple[ConsensusMessage, ...]"
    round: int = 0
    value: int = 0
    instances: "tuple[int, ...]" = ()
    mask: int = 0
    digests: "tuple[bytes, ...]" = ()


def _run_key(msg: ConsensusMessage) -> "tuple | None":
    """What neighbouring constituents must share to fold into one run, or
    ``None`` for a constituent that stays single.  Exact ``int`` types
    only: ``1 == 1.0 == True`` must not merge votes that the tallies and
    the echoed messages would tell apart."""
    kind, value, instance = msg.kind, msg.value, msg.instance
    if (
        type(msg.index) is not int
        or type(msg.sender) is not int
        or type(instance) is not int
        or not 0 <= instance < RUN_INSTANCE_LIMIT
    ):
        return None
    if kind is MsgKind.BVAL or kind is MsgKind.AUX:
        if type(value) is int and (value == 0 or value == 1) and type(msg.round) is int:
            return (kind, msg.index, msg.round, value, msg.sender)
    elif kind is MsgKind.RBC_ECHO or kind is MsgKind.RBC_READY:
        if type(value) is tuple and len(value) == 2 and type(value[0]) is bytes:
            return (kind, msg.index, msg.sender)
    return None


def _fold_runs(
    messages: "tuple[ConsensusMessage, ...]",
) -> "tuple[ConsensusMessage | VoteRun, ...]":
    """Fold each maximal stretch of *consecutive* like votes into a run.

    Never regroups across an intervening constituent: slots are coupled
    (n−f slots decided 1 → vote 0 on every slot without input), so the
    order of RBC deliveries relative to DBFT decisions is observable and
    receivers must see votes in emission order.
    """
    keys = [_run_key(m) for m in messages]
    out: "list[ConsensusMessage | VoteRun]" = []
    total = len(messages)
    start = 0
    while start < total:
        first = messages[start]
        key = keys[start]
        end = start + 1
        if key is None:
            out.append(first)
            start = end
            continue
        instances = [first.instance]
        mask = 1 << first.instance
        while end < total and keys[end] == key:
            instance = messages[end].instance
            if mask >> instance & 1:
                break  # a run holds one vote per instance
            instances.append(instance)
            mask |= 1 << instance
            end += 1
        stretch = messages[start:end]
        if first.kind is MsgKind.BVAL or first.kind is MsgKind.AUX:
            run = VoteRun(
                first.kind, first.index, first.sender, stretch,
                first.round, first.value, tuple(instances), mask,
            )
        else:
            run = VoteRun(
                first.kind, first.index, first.sender, stretch, 0, 0,
                tuple(instances), mask, tuple([m.value[0] for m in stretch]),
            )
        out.append(run)
        start = end
    return tuple(out)


@dataclass(frozen=True)
class ConsensusBatch:
    """Coalesced consensus traffic: every vote one node emitted in one tick.

    On the wire the batch shares a single envelope (sender, authentication)
    across all constituent messages, so each vote costs only its compact
    ``(kind, index, instance, round, value)`` record plus any structured
    payload bytes it carries — the saving the paper's congestion argument
    (§III) wants at the vote layer.
    """

    messages: "tuple[ConsensusMessage, ...]"
    sender: int

    #: shared batch envelope: sender, auth tag, message count
    HEADER_BYTES = 32
    #: compact per-vote record: kind tag + index + instance + round varints
    PER_MESSAGE_BYTES = 12

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a ConsensusBatch must carry at least one message")

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> "Iterator[ConsensusMessage]":
        return iter(self.messages)

    def runs(self) -> "tuple[ConsensusMessage | VoteRun, ...]":
        """The constituents in emission order with every stretch of like
        votes folded into one :class:`VoteRun` — what receivers iterate.

        Derived once: every receiver of a broadcast is handed this same
        batch object.  Wire sizes are still computed from ``messages``.
        """
        cached = self.__dict__.get("_runs")
        if cached is None:
            cached = _fold_runs(self.messages)
            object.__setattr__(self, "_runs", cached)
        return cached

    def approx_size(self) -> int:
        """Wire size: one shared envelope + compact per-vote records."""
        cached = self.__dict__.get("_approx_size")
        if cached is None:
            cached = self.HEADER_BYTES + sum(
                self.PER_MESSAGE_BYTES + _payload_size(m.value)
                for m in self.messages
            )
            # Frozen dataclass: memoize via object.__setattr__ (the batch
            # is immutable, and its size is re-read on flush and on send).
            object.__setattr__(self, "_approx_size", cached)
        return cached

    def bytes_saved(self) -> int:
        """Wire bytes avoided by batching (never negative).

        Equal to what the constituents would cost sent one by one, less
        ``approx_size()``, floored at zero, without walking them: sent
        alone, each one pays the full envelope plus its payload; batched,
        it pays the compact record plus the same payload.  (A constituent is never itself a
        batch — the batcher buffers vote kinds only — so its payload is
        sized the same way in both.)
        """
        saved = len(self.messages) * (BASE_MESSAGE_BYTES - self.PER_MESSAGE_BYTES)
        return max(0, saved - self.HEADER_BYTES)
