"""Transaction receipts and client-facing confirmation queries.

§VI's censorship mitigation assumes a client can obtain "a transaction
receipt as proof of its execution within a period".  This module provides
that: each validator records, per committed transaction, the receipt plus
where it landed (chain height, block hash, position), and can produce a
self-contained :class:`InclusionProof` — the block's proposer certificate
plus a Merkle inclusion path to the transaction — that a light client can
verify without replaying the chain (see :mod:`repro.core.lightclient`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.block import Block, BlockCertificate, transactions_hash
from repro.core.transaction import Transaction
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.vm.executor import Receipt


@dataclass(frozen=True)
class CommitRecord:
    """Where and when one transaction committed on one validator."""

    receipt: Receipt
    height: int
    block_hash: bytes
    position: int  # index of the tx within its chain block
    commit_time: float


@dataclass(frozen=True)
class InclusionProof:
    """Self-contained proof that a transaction is inside a certified block.

    Verifiable with only the committee's addresses: the certificate binds
    the transaction root to a committee member's key, and the Merkle path
    binds the transaction hash to that root.
    """

    tx_hash: bytes
    tx_root: bytes
    certificate: BlockCertificate
    merkle_proof: MerkleProof
    height: int


class ReceiptStore:
    """Per-validator receipt index built from commit results.

    A record lives as long as the validator, so it is kept as one flat
    tuple of the receipt's and the commit's fields, not as a
    :class:`CommitRecord`: a tuple of atomic values (bytes, numbers,
    strings, ``None``, the empty logs tuple) is untracked by CPython's
    cyclic collector, which then never walks the store.  :meth:`get`
    builds the :class:`CommitRecord`.
    """

    def __init__(self) -> None:
        #: tx hash -> (success, gas_used, error, return_value,
        #: contract_address, logs, height, block_hash, position, commit_time)
        self._records: dict[bytes, tuple] = {}
        self._blocks_by_height: dict[int, Block] = {}

    def record_block(
        self,
        block: Block,
        receipts_by_hash: dict[bytes, Receipt],
        *,
        commit_time: float,
    ) -> None:
        """Index a freshly appended chain block and its receipts."""
        self._blocks_by_height[block.index] = block
        for position, tx in enumerate(block.transactions):
            receipt = receipts_by_hash.get(tx.tx_hash)
            if receipt is None:
                continue
            self._records[tx.tx_hash] = (
                receipt.success,
                receipt.gas_used,
                receipt.error,
                receipt.return_value,
                receipt.contract_address,
                tuple(receipt.logs),
                block.index,
                block.block_hash,
                position,
                commit_time,
            )

    # -- queries ------------------------------------------------------------------

    def get(self, tx_hash: bytes) -> CommitRecord | None:
        row = self._records.get(tx_hash)
        if row is None:
            return None
        (success, gas_used, error, return_value, contract_address, logs,
         height, block_hash, position, commit_time) = row
        return CommitRecord(
            receipt=Receipt(
                tx_hash=tx_hash,
                success=success,
                gas_used=gas_used,
                error=error,
                return_value=return_value,
                contract_address=contract_address,
                logs=logs,
            ),
            height=height,
            block_hash=block_hash,
            position=position,
            commit_time=commit_time,
        )

    def has_receipt(self, tx: Transaction) -> bool:
        return tx.tx_hash in self._records

    def __len__(self) -> int:
        return len(self._records)

    def inclusion_proof(self, tx_hash: bytes) -> InclusionProof:
        """Build the Merkle inclusion proof for a committed transaction."""
        record = self.get(tx_hash)
        if record is None:
            raise KeyError(f"no receipt for {tx_hash.hex()}")
        block = self._blocks_by_height[record.height]
        if block.certificate is None:
            raise ValueError("block lacks a proposer certificate")
        leaves = [tx.tx_hash for tx in block.transactions]
        tree = MerkleTree(leaves)
        return InclusionProof(
            tx_hash=tx_hash,
            tx_root=tree.root,
            certificate=block.certificate,
            merkle_proof=tree.proof(record.position),
            height=record.height,
        )
