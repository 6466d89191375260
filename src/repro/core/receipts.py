"""Transaction receipts: where and when each transaction committed.

§VI's censorship mitigation assumes a client can obtain "a transaction
receipt as proof of its execution within a period".  Each validator
records, per committed transaction, the receipt plus where it landed
(chain height, block hash, position) and when.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.core.block import Block
from repro.vm.executor import Receipt

#: return-value types whose equal values are indistinguishable
_EXACT = frozenset({type(None), bool, int, str, bytes})


@dataclass(frozen=True)
class CommitRecord:
    """Where and when one transaction committed on one validator."""

    receipt: Receipt
    height: int
    block_hash: bytes
    position: int  # index of the tx within its chain block
    commit_time: float


class ReceiptStore:
    """Per-validator receipt index built from commit results.

    A record lives as long as the validator, so a transaction costs one
    index entry: its hash maps to a row that a run of consecutive
    receipts of its block with equal bodies (all fields but the hash)
    shares.  A row is one flat tuple of atomic values — body, height,
    block hash, commit time — that CPython's collector untracks.  Return
    values share only within one type of ``_EXACT`` (``1 == True``).
    Per height, the block's tx hashes give positions.
    """

    def __init__(self) -> None:
        #: tx hash -> (success, gas_used, error, return_value,
        #: height, block_hash, commit_time)
        self._records: dict[bytes, tuple] = {}
        #: height -> the block's tx hashes; after a lookup there, their positions in _sorted order
        self._positions: dict[int, "tuple[bytes, ...] | bytes | array"] = {}
        self._sorted: dict[int, tuple[bytes, ...]] = {}  # height -> those hashes, sorted

    def record_block(
        self, block: Block, receipts: Sequence[Receipt], *, commit_time: float
    ) -> None:
        """Index a freshly appended chain block; ``receipts[i]`` is the
        receipt of ``block.transactions[i]``."""
        tail = (block.index, block.block_hash, commit_time)
        self._positions[block.index] = tuple([receipt[0] for receipt in receipts])
        records = self._records
        body = kind = None  # kind: the return-value type the row can share
        for receipt in receipts:
            if type(receipt[4]) is not kind or receipt[1:] != body:
                body = receipt[1:]
                row = body + tail
                kind = type(body[3]) if type(body[3]) in _EXACT else None
            records[receipt[0]] = row

    # -- lookup -------------------------------------------------------------------

    def get(self, tx_hash: bytes) -> CommitRecord | None:
        row = self._records.get(tx_hash)
        if row is None:
            return None
        height, block_hash, commit_time = row[4:]
        hashes = self._sorted.get(height)
        if hashes is None:  # the first lookup at this height sorts it, once
            hashes = self._positions[height]
            order = sorted(range(len(hashes)), key=hashes.__getitem__)
            self._positions[height] = bytes(order) if len(order) <= 256 else array("I", order)
            hashes = self._sorted[height] = tuple([hashes[i] for i in order])
        return CommitRecord(
            receipt=Receipt(tx_hash, *row[:4]),
            height=height,
            block_hash=block_hash,
            position=self._positions[height][bisect_left(hashes, tx_hash)],
            commit_time=commit_time,
        )

    def __len__(self) -> int:
        return len(self._records)
