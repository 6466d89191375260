"""Transaction receipts: where and when each transaction committed.

§VI's censorship mitigation assumes a client can obtain "a transaction
receipt as proof of its execution within a period".  Each validator
records, per committed transaction, the receipt plus where it landed
(chain height, block hash, position) and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.block import Block
from repro.vm.executor import Receipt


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

    A record lives as long as the validator, so it is kept as one flat
    tuple of the receipt's and the commit's fields, not as a
    :class:`CommitRecord`: a tuple of atomic values (bytes, numbers,
    strings, ``None``, the empty logs tuple) is untracked by CPython's
    cyclic collector, which then never walks the store.  :meth:`get`
    builds the :class:`CommitRecord`.

    The commit loop hands each appended chain block over with its
    receipts already in position order
    (:attr:`repro.core.blockchain.CommitResult.appended_receipts`), so a
    row is the receipt's fields after its hash plus four commit fields,
    with no lookup by hash.
    """

    def __init__(self) -> None:
        #: tx hash -> (success, gas_used, error, return_value,
        #: contract_address, logs, height, block_hash, position, commit_time)
        self._records: dict[bytes, tuple] = {}

    def record_block(
        self,
        block: Block,
        receipts: Sequence[Receipt],
        *,
        commit_time: float,
    ) -> None:
        """Index a freshly appended chain block; ``receipts[i]`` is the
        receipt of ``block.transactions[i]``."""
        height = block.index
        block_hash = block.block_hash
        records = self._records
        # One tuple display per row: ``receipt[1:] + (...)`` builds two
        # tuples and copies one, and costs twice as much.
        for position, (
            tx_hash, success, gas_used, error, return_value, contract_address, logs
        ) in enumerate(receipts):
            records[tx_hash] = (
                success, gas_used, error, return_value, contract_address, logs,
                height, block_hash, position, commit_time,
            )

    # -- lookup -------------------------------------------------------------------

    def get(self, tx_hash: bytes) -> CommitRecord | None:
        row = self._records.get(tx_hash)
        if row is None:
            return None
        height, block_hash, position, commit_time = row[6:]
        return CommitRecord(
            receipt=Receipt(tx_hash, *row[:6]),
            height=height,
            block_hash=block_hash,
            position=position,
            commit_time=commit_time,
        )

    def __len__(self) -> int:
        return len(self._records)
