"""Blocks, proposer certificates, and superblocks.

A block is a batch of transactions proposed by one validator.  Its
certificate ``Cert_B = {P_k, (h_t)_{S_k}}`` (Alg. 2) carries the proposer's
public key and the signed hash of the block's transactions; RPM verifies it
to credit rewards and attribute invalid transactions.

A superblock (RBBC's optimization) is the ordered union of the blocks whose
DBFT binary instance decided 1 in a consensus round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from repro.core.transaction import Transaction
from repro.crypto import (
    KeyPair,
    PublicKey,
    Signature,
    hash_items,
    merkle_root,
    sign,
    verify,
)


def transactions_hash(txs: Sequence[Transaction]) -> bytes:
    """``h_t`` of Alg. 2 — Merkle root over the transaction hashes."""
    return merkle_root([tx.tx_hash for tx in txs])


@dataclass(frozen=True)
class BlockCertificate:
    """``Cert_B``: proposer public key + signed transactions hash."""

    public_key: PublicKey
    signed_tx_hash: Signature

    def proposer_address(self) -> str:
        """``derive(P_k)`` of Alg. 2."""
        return self.public_key.address


@dataclass(frozen=True)
class Block:
    """One proposer's batch of transactions for a chain index.

    Frozen, like its transactions: the tx root, hash, wire size and a
    positive header verdict are derived once per object and kept on it.
    """

    proposer_id: int
    index: int
    transactions: tuple[Transaction, ...]
    parent_hash: bytes = b""
    certificate: BlockCertificate | None = None
    #: round of the consensus instance that proposed this block
    round: int = 0

    def __post_init__(self) -> None:
        # memo slots (see Transaction.__init__)
        memo = self.__dict__
        memo["_encoded_size"] = None
        memo["_header_ok"] = False
        memo["_tree"] = None  # the MerkleTree RPM reports prove against
        memo["_kept_root"] = ((), b"")  # (kept tx hashes, root) of its last cut copy

    @cached_property
    def tx_root(self) -> bytes:
        return transactions_hash(self.transactions)

    @cached_property
    def block_hash(self) -> bytes:
        return hash_items(
            ["block", self.proposer_id, self.index, self.round,
             self.parent_hash, self.tx_root]
        )

    def __len__(self) -> int:
        return len(self.transactions)

    def encoded_size(self) -> int:
        """Wire size: ~200-byte header + transactions."""
        size = self._encoded_size
        if size is None:
            size = 200 + sum(tx.encoded_size() for tx in self.transactions)
            self.__dict__["_encoded_size"] = size
        return size

    def header_valid(self) -> bool:
        """The 'invalid header' check of Alg. 1 line 16: a block's
        certificate must exist and must sign exactly its transactions.

        Every validator of an in-process deployment checks the same block
        object, so a positive verdict is kept; a failure is re-checked on
        every call.
        """
        if self._header_ok:
            return True
        cert = self.certificate
        if cert is None or not verify(cert.public_key, self.tx_root, cert.signed_tx_hash):
            return False
        self.__dict__["_header_ok"] = True
        return True

    def with_certificate(self, keypair: KeyPair) -> "Block":
        """Return a copy certified by the proposer's key pair."""
        root = self.tx_root
        certified = Block(
            proposer_id=self.proposer_id,
            index=self.index,
            transactions=self.transactions,
            parent_hash=self.parent_hash,
            certificate=BlockCertificate(
                public_key=keypair.public,
                signed_tx_hash=sign(keypair.private, root),
            ),
            round=self.round,
        )
        # Same transactions, same root: the copy need not rebuild the tree.
        certified.__dict__["tx_root"] = root
        return certified


def make_block(
    proposer: KeyPair,
    proposer_id: int,
    index: int,
    txs: Sequence[Transaction],
    *,
    parent_hash: bytes = b"",
    round: int = 0,
) -> Block:
    """Build and certify a block in one step."""
    return Block(
        proposer_id=proposer_id,
        index=index,
        transactions=tuple(txs),
        parent_hash=parent_hash,
        round=round,
    ).with_certificate(proposer)


@dataclass(frozen=True)
class SuperBlock:
    """Decided superblock ``B*`` for one chain index: ordered sub-blocks."""

    index: int
    blocks: tuple[Block, ...]
    round: int = 0

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)


GENESIS = Block(proposer_id=-1, index=0, transactions=())
