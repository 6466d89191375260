"""Receipts — where and when each transaction committed (§VI)."""

import gc

import pytest

from repro import params
from repro.core.block import make_block
from repro.core.deployment import Deployment, fund_clients
from repro.core.receipts import CommitRecord, ReceiptStore
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair
from repro.net.topology import single_region_topology
from repro.vm.executor import Receipt
from repro.vm.gas import intrinsic_gas


@pytest.fixture
def committed_deployment():
    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        extra_balances=balances,
    )
    deployment.start()
    txs = [
        make_transfer(clients[0], clients[1].address, 1, nonce=i) for i in range(5)
    ]
    for i, tx in enumerate(txs):
        deployment.submit(tx, validator_id=0, at=0.05 + 0.01 * i)
    deployment.run_until(5.0)
    return deployment, txs


class TestReceiptStore:
    def test_receipts_recorded_for_committed_txs(self, committed_deployment):
        deployment, txs = committed_deployment
        store = deployment.validators[1].receipts
        for tx in txs:
            record = store.get(tx.tx_hash)
            assert record is not None
            assert record.receipt.success
            assert record.commit_time > 0

    def test_missing_receipt(self, committed_deployment):
        deployment, _ = committed_deployment
        store = deployment.validators[0].receipts
        assert store.get(b"\x00" * 32) is None

    def test_receipt_counts_match_commits(self, committed_deployment):
        deployment, txs = committed_deployment
        v0 = deployment.validators[0]
        assert len(v0.receipts) >= len(txs)

    def test_stored_records_are_not_collector_containers(self, committed_deployment):
        """A validator keeps every receipt for its whole life; the cyclic
        collector must not have to walk them."""
        deployment, txs = committed_deployment
        gc.collect()
        for validator in deployment.validators:
            rows = list(validator.receipts._records.values())
            assert len(rows) >= len(txs)
            assert not any(gc.is_tracked(row) for row in rows)

    def test_get_rebuilds_the_commit_record(self):
        kp = generate_keypair(4243)
        txs = [make_transfer(kp, "aa" * 20, 1, nonce=i) for i in range(3)]
        block = make_block(kp, 0, 7, txs)
        receipts = (
            Receipt(tx_hash=txs[0].tx_hash, success=True, gas_used=21_000),
            Receipt(tx_hash=txs[1].tx_hash, success=True, error=None),
            Receipt(
                tx_hash=txs[2].tx_hash, success=True, gas_used=30_500,
                return_value=12,
            ),
        )
        store = ReceiptStore()
        store.record_block(block, receipts, commit_time=2.5)
        for position, tx in enumerate(txs):
            assert store.get(tx.tx_hash) == CommitRecord(
                receipt=receipts[position],
                height=block.index,
                block_hash=block.block_hash,
                position=position,
                commit_time=2.5,
            )
        stray = make_transfer(kp, "aa" * 20, 1, nonce=3)
        assert store.get(stray.tx_hash) is None


class TestReceiptContract:
    def test_fields_and_defaults(self):
        assert Receipt._fields == (
            "tx_hash", "success", "gas_used", "error", "return_value",
        )
        assert Receipt(b"h", False) == Receipt(
            tx_hash=b"h", success=False, gas_used=0, error=None, return_value=None,
        )

    def test_immutable(self):
        receipt = Receipt(b"h", True, 21_000)
        with pytest.raises(AttributeError):
            receipt.success = False
        with pytest.raises(AttributeError):
            receipt.return_value = 1

    def test_store_records_where_each_tx_landed(self, committed_deployment):
        """Every record equals the CommitRecord rebuilt from the chain
        itself: the block, its hash and the tx's position, with a client
        transfer's receipt pinned (intrinsic gas, nothing else)."""
        deployment, txs = committed_deployment
        transfers = {tx.tx_hash for tx in txs}
        for validator in deployment.validators:
            seen = 0
            for block in validator.blockchain.chain[1:]:
                for position, tx in enumerate(block.transactions):
                    record = validator.receipts.get(tx.tx_hash)
                    receipt = record.receipt
                    if tx.tx_hash in transfers:
                        assert receipt == Receipt(
                            tx.tx_hash, True, intrinsic_gas(tx.data_size())
                        )
                    assert receipt.tx_hash == tx.tx_hash and receipt.success
                    assert type(receipt) is Receipt and receipt.error is None
                    assert record == CommitRecord(
                        receipt=receipt,
                        height=block.index,
                        block_hash=block.block_hash,
                        position=position,
                        commit_time=record.commit_time,
                    )
                    assert 0 < record.commit_time <= (
                        validator.blockchain.commit_times[tx.tx_hash]
                    )
                    seen += 1
            assert seen == len(validator.receipts) >= len(txs)

