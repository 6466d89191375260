"""Blocks, certificates (Cert_B), superblocks."""

from repro.core.block import (
    GENESIS,
    Block,
    BlockCertificate,
    SuperBlock,
    make_block,
    transactions_hash,
)
from repro.core.transaction import make_transfer
from repro.crypto import hash_items
from repro.crypto.keys import generate_keypair


def superblock_hash(sb: SuperBlock) -> bytes:
    return hash_items(["superblock", sb.index, sb.round] + [b.block_hash for b in sb])


def _txs(count, seed=1):
    kp = generate_keypair(seed)
    return [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(count)]


class TestBlock:
    def test_make_block_is_certified(self):
        kp = generate_keypair(1)
        block = make_block(kp, 0, 1, _txs(3))
        assert block.header_valid()
        assert block.certificate.proposer_address() == kp.address

    def test_uncertified_block_invalid(self):
        block = Block(proposer_id=0, index=1, transactions=tuple(_txs(2)))
        assert not block.header_valid()

    def test_tampered_txs_invalidate_certificate(self):
        kp = generate_keypair(1)
        block = make_block(kp, 0, 1, _txs(3))
        tampered = Block(
            proposer_id=0, index=1, transactions=tuple(_txs(2, seed=9)),
            certificate=block.certificate,
        )
        assert not tampered.header_valid()

    def test_certificate_from_wrong_key_invalid(self):
        kp, evil = generate_keypair(1), generate_keypair(66)
        txs = _txs(2)
        good = make_block(kp, 0, 1, txs)
        stolen = make_block(evil, 0, 1, txs)
        # evil's certificate verifies only for evil's key record
        assert stolen.header_valid()
        assert stolen.certificate.proposer_address() != kp.address

    def test_block_hash_covers_contents(self):
        kp = generate_keypair(1)
        a = make_block(kp, 0, 1, _txs(2))
        b = make_block(kp, 0, 2, _txs(2))
        assert a.block_hash != b.block_hash

    def test_encoded_size(self):
        kp = generate_keypair(1)
        assert make_block(kp, 0, 1, _txs(5)).encoded_size() > make_block(
            kp, 0, 1, []
        ).encoded_size()

    def test_len(self):
        kp = generate_keypair(1)
        assert len(make_block(kp, 0, 1, _txs(4))) == 4

    def test_genesis(self):
        assert GENESIS.index == 0
        assert len(GENESIS) == 0


class TestTransactionsHash:
    def test_empty(self):
        assert transactions_hash([]) == transactions_hash([])

    def test_order_sensitive(self):
        txs = _txs(2)
        assert transactions_hash(txs) != transactions_hash(list(reversed(txs)))


class TestSuperBlock:
    def test_iteration_and_counts(self):
        kp1, kp2 = generate_keypair(1), generate_keypair(2)
        b1 = make_block(kp1, 0, 1, _txs(2, seed=3))
        b2 = make_block(kp2, 1, 1, _txs(3, seed=4))
        sb = SuperBlock(index=1, blocks=(b1, b2))
        assert len(sb) == 2
        assert sum(len(b) for b in sb) == 5
        assert [tx for b in sb for tx in b.transactions] == list(b1.transactions) + list(
            b2.transactions
        )

    def test_hash_covers_blocks(self):
        kp = generate_keypair(1)
        b1 = make_block(kp, 0, 1, _txs(1, seed=3))
        b2 = make_block(kp, 0, 1, _txs(1, seed=4))
        assert superblock_hash(SuperBlock(index=1, blocks=(b1,))) != superblock_hash(
            SuperBlock(index=1, blocks=(b2,))
        )
