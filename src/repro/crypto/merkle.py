"""Binary Merkle tree over transaction hashes (block tx root + proofs)."""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256 as _sha256
from typing import Sequence

from repro.crypto.hashing import sha256

#: Domain separators keep leaf and interior hashes in disjoint ranges,
#: preventing second-preimage tricks where an interior node is replayed
#: as a leaf.
_LEAF = b"\x00"
_NODE = b"\x01"
_EMPTY_ROOT = sha256(b"merkle-empty")


def _leaf_hash(data: bytes) -> bytes:
    return sha256(_LEAF + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256(_NODE + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: sibling hashes bottom-up plus the leaf index."""

    index: int
    siblings: tuple[bytes, ...]


class MerkleTree:
    """Immutable binary Merkle tree with duplicate-last-node padding."""

    def __init__(self, leaves: Sequence[bytes]):
        self._leaves = [_leaf_hash(leaf) for leaf in leaves]
        self._levels: list[list[bytes]] = [list(self._leaves)]
        if not self._leaves:
            self._root = _EMPTY_ROOT
            return
        level = self._levels[0]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                left = level[i]
                right = level[i + 1] if i + 1 < len(level) else level[i]
                nxt.append(_node_hash(left, right))
            self._levels.append(nxt)
            level = nxt
        self._root = level[0]

    @property
    def root(self) -> bytes:
        return self._root

    def __len__(self) -> int:
        return len(self._leaves)

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        siblings = []
        idx = index
        for level in self._levels[:-1]:
            sib = idx ^ 1
            siblings.append(level[sib] if sib < len(level) else level[idx])
            idx //= 2
        return MerkleProof(index=index, siblings=tuple(siblings))

    @staticmethod
    def verify_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
        """Check that ``leaf`` is included under ``root`` via ``proof``."""
        node = _leaf_hash(leaf)
        idx = proof.index
        for sib in proof.siblings:
            node = _node_hash(node, sib) if idx % 2 == 0 else _node_hash(sib, node)
            idx //= 2
        return node == root


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root hash of a sequence of raw leaves (empty sequence allowed).

    Same root as ``MerkleTree(leaves).root`` but keeps only the current
    level: the tree's retained levels are for ``proof()`` users.
    """
    level = [_sha256(_LEAF + leaf).digest() for leaf in leaves]
    if not level:
        return _EMPTY_ROOT
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])  # duplicate-last-node padding
        pairs = iter(level)
        level = [_sha256(_NODE + left + right).digest() for left, right in zip(pairs, pairs)]
    return level[0]
