"""Merkle tree: roots, proofs, tamper-resistance, property tests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.merkle import MerkleTree, merkle_root


class TestMerkleRoot:
    def test_empty_root_is_stable(self):
        assert merkle_root([]) == merkle_root([])

    def test_single_leaf(self):
        assert merkle_root([b"a"]) != merkle_root([b"b"])

    def test_order_sensitive(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_concat_ambiguity_resistant(self):
        assert merkle_root([b"ab", b"c"]) != merkle_root([b"a", b"bc"])

    def test_leaf_count_matters(self):
        # duplicate-last padding must not equate [a] and [a, a]
        assert merkle_root([b"a"]) != merkle_root([b"a", b"a"])

    def test_interior_node_not_replayable_as_leaf(self):
        """Domain separation: a two-leaf root used as a single leaf gives a
        different root (second-preimage defence)."""
        inner = merkle_root([b"x", b"y"])
        assert merkle_root([inner]) != inner


    @pytest.mark.parametrize("count, root", [
        (0, "b7406b361af147f7d0c5c7cd76af41c4633666f71c6e243260e507ebc20e4c95"),
        (1, "7f9c9e31ac8256ca2f258583df262dbc7d6f68f2a03043d5c99a4ae5a7396ce9"),
        (2, "28fb81e496897e0ce886f08602392e9239b65c659041e5202163e58ad898f444"),
        (3, "9aa08d413285ecda667944ba9446d77c1f1712ecf946bfcf74453c731a38e7b7"),
        (5, "2d331714d5160948ab3e13bed57544502653b85d90b7d71f98580eeb835b9c06"),
        (8, "f907f23f76aa01b755a614d31ef9832909f44638b4590073301e61e6d01f9a1d"),
        (250, "62d02d26c2356f4c35d8fdfcace6bd7eebba3817f558a55c807b04e36834fc96"),
    ])
    def test_golden_roots(self, count, root):
        """Recorded before ``merkle_root`` stopped building the full tree."""
        leaves = [bytes([i % 256]) * 32 for i in range(count)]
        assert merkle_root(leaves).hex() == root
        assert merkle_root(iter(leaves)).hex() == root
        assert MerkleTree(leaves).root.hex() == root

    @given(st.lists(st.binary(max_size=40), max_size=70))
    def test_property_root_equals_tree_root(self, leaves):
        assert merkle_root(leaves) == MerkleTree(leaves).root


class TestProofs:
    def test_proof_roundtrip_all_indices(self):
        leaves = [bytes([i]) * 4 for i in range(7)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            proof = tree.proof(i)
            assert MerkleTree.verify_proof(tree.root, leaf, proof)

    def test_proof_wrong_leaf_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        proof = tree.proof(1)
        assert not MerkleTree.verify_proof(tree.root, b"z", proof)

    def test_proof_wrong_index_fails(self):
        leaves = [b"a", b"b", b"c", b"d"]
        tree = MerkleTree(leaves)
        proof = tree.proof(1)
        from repro.crypto.merkle import MerkleProof

        moved = MerkleProof(index=2, siblings=proof.siblings)
        assert not MerkleTree.verify_proof(tree.root, b"b", moved)

    def test_out_of_range_index_raises(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_len(self):
        assert len(MerkleTree([b"a", b"b"])) == 2
        assert len(MerkleTree([])) == 0

    @given(
        st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40),
        st.data(),
    )
    def test_property_any_leaf_proves(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        proof = tree.proof(index)
        assert MerkleTree.verify_proof(tree.root, leaves[index], proof)

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=20))
    def test_property_root_changes_with_any_leaf(self, leaves):
        tree = MerkleTree(leaves)
        mutated = list(leaves)
        mutated[0] = mutated[0] + b"!"
        assert MerkleTree(mutated).root != tree.root
