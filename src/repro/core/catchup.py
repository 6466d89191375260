"""Crash–recovery catch-up: durable journal + CATCHUP_REQ/RESP payloads.

A crashed validator loses its volatile state (pool, in-flight consensus
instances, vote buffers) but keeps a :class:`DecidedJournal` — the
decided superblocks it committed, the durable write-ahead record a real
node would have fsync'd before applying.  On restart the node broadcasts
a :class:`CatchupRequest`; live peers answer with a
:class:`CatchupResponse` carrying the decided superblocks the requester
missed plus the root of their current state.  The requester *replays*
the superblocks through its deterministic commit loop (so its chain
keeps the exact block hashes the safety checks compare) and checks that
the replay reached that root.  It carries no state image: a requester
can check the root only against its own replay, so an image would add
bytes and no check.

The journal also persists the node's RPM attestation nonce high-water
mark, so a recovered validator can prove which attestation nonces it had
already issued before the crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.block import SuperBlock

__all__ = ["DecidedJournal", "CatchupRequest", "CatchupResponse"]


class DecidedJournal:
    """Durable per-node record of decided superblocks (survives crashes).

    Keyed by chain index; the commit loop records every superblock it
    applies (live commits and catch-up replays alike), so the journal is
    gapless up to the node's commit frontier and any node can serve as a
    catch-up source for anything it has committed.
    """

    __slots__ = ("superblocks", "rpm_nonce")

    def __init__(self) -> None:
        self.superblocks: dict[int, SuperBlock] = {}
        #: next RPM attestation nonce the node had reached (None = never
        #: issued one); restored on restart so nonces survive the crash
        self.rpm_nonce: "int | None" = None

    def record(self, superblock: SuperBlock) -> None:
        self.superblocks[superblock.index] = superblock

    def range(self, start: int, stop: int) -> "tuple[SuperBlock, ...]":
        """Journalled superblocks with ``start <= index < stop``, in order."""
        return tuple(
            self.superblocks[i] for i in range(start, stop) if i in self.superblocks
        )

    def __len__(self) -> int:
        return len(self.superblocks)

    def __contains__(self, index: int) -> bool:
        return index in self.superblocks


def _superblock_size(superblock: SuperBlock) -> int:
    return 64 + sum(block.encoded_size() for block in superblock.blocks)


@dataclass(frozen=True)
class CatchupRequest:
    """``CATCHUP_REQ``: "send me everything from ``next_index`` on"."""

    next_index: int
    requester: int

    def approx_size(self) -> int:
        return 64


@dataclass(frozen=True)
class CatchupResponse:
    """``CATCHUP_RESP``: the responder's journal tail plus its state root.

    ``superblocks`` covers ``[request.next_index, next_index)`` of the
    responder's chain; ``state_root`` is the responder's state root *at*
    ``next_index``, which a recovering requester's replay must reach.
    The responder picks both, so the check catches a tail that does not
    replay to the root it came with, not a responder that lies about
    both (ROADMAP item 1(a)).
    """

    superblocks: "tuple[SuperBlock, ...]"
    state_root: bytes
    next_index: int
    responder: int

    def approx_size(self) -> int:
        blocks = sum(_superblock_size(sb) for sb in self.superblocks)
        return 128 + blocks + 32  # header, journal tail, root
