"""Receipts, inclusion proofs, checkpoints — the §VI receipt machinery."""

import gc

import pytest

from repro import params
from repro.core.block import make_block
from repro.core.deployment import Deployment, fund_clients
from repro.core.lightclient import (
    Checkpoint,
    CheckpointVerifier,
    verify_inclusion,
)
from repro.core.receipts import CommitRecord, InclusionProof, ReceiptStore
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair
from repro.net.topology import single_region_topology
from repro.vm.executor import Receipt


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
            assert store.has_receipt(tx)

    def test_missing_receipt(self, committed_deployment):
        deployment, _ = committed_deployment
        store = deployment.validators[0].receipts
        assert store.get(b"\x00" * 32) is None
        with pytest.raises(KeyError):
            store.inclusion_proof(b"\x00" * 32)

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
        receipts = {
            txs[0].tx_hash: Receipt(tx_hash=txs[0].tx_hash, success=True, gas_used=21_000),
            txs[2].tx_hash: Receipt(
                tx_hash=txs[2].tx_hash, success=True, gas_used=30_500,
                return_value=12, contract_address="cc" * 20, logs=(1, 2),
            ),
        }
        store = ReceiptStore()
        store.record_block(block, receipts, commit_time=2.5)
        for position in (0, 2):
            tx_hash = txs[position].tx_hash
            assert store.get(tx_hash) == CommitRecord(
                receipt=receipts[tx_hash],
                height=block.index,
                block_hash=block.block_hash,
                position=position,
                commit_time=2.5,
            )
        assert store.get(txs[1].tx_hash) is None
        assert not store.has_receipt(txs[1])
        proof = store.inclusion_proof(txs[2].tx_hash)
        assert proof.merkle_proof.index == 2
        assert verify_inclusion(proof, {kp.address})


class TestInclusionProofs:
    def test_proof_verifies_against_committee(self, committed_deployment):
        deployment, txs = committed_deployment
        committee = set(deployment.genesis.validator_addresses)
        store = deployment.validators[2].receipts
        for tx in txs:
            proof = store.inclusion_proof(tx.tx_hash)
            assert verify_inclusion(proof, committee)

    def test_proof_fails_for_unknown_committee(self, committed_deployment):
        deployment, txs = committed_deployment
        proof = deployment.validators[0].receipts.inclusion_proof(txs[0].tx_hash)
        assert not verify_inclusion(proof, {"deadbeef" * 5})

    def test_tampered_tx_hash_fails(self, committed_deployment):
        deployment, txs = committed_deployment
        committee = set(deployment.genesis.validator_addresses)
        proof = deployment.validators[0].receipts.inclusion_proof(txs[0].tx_hash)
        forged = InclusionProof(
            tx_hash=b"\x01" * 32,
            tx_root=proof.tx_root,
            certificate=proof.certificate,
            merkle_proof=proof.merkle_proof,
            height=proof.height,
        )
        assert not verify_inclusion(forged, committee)

    def test_non_committee_certificate_fails(self):
        """A valid-looking proof from a non-member is rejected."""
        outsider = generate_keypair(4242)
        tx = make_transfer(outsider, "aa" * 20, 1, nonce=0)
        block = make_block(outsider, 0, 1, [tx])
        store = ReceiptStore()
        store.record_block(
            block, {tx.tx_hash: Receipt(tx_hash=tx.tx_hash, success=True)},
            commit_time=1.0,
        )
        proof = store.inclusion_proof(tx.tx_hash)
        assert verify_inclusion(proof, {outsider.address})  # self-consistent
        assert not verify_inclusion(proof, {"11" * 20})  # but not in committee


class TestCheckpoints:
    def test_f_plus_1_matching_checkpoints_finalize(self, committed_deployment):
        deployment, txs = committed_deployment
        committee = set(deployment.genesis.validator_addresses)
        verifier = CheckpointVerifier(committee, f=deployment.protocol.f)
        head_heights = []
        for validator, kp in zip(deployment.validators, deployment.keypairs):
            head = validator.blockchain.head()
            head_heights.append(validator.blockchain.height)
            checkpoint = Checkpoint.create(kp, validator.blockchain.height, head.block_hash)
            verifier.add(checkpoint)
        assert verifier.finalized_height >= min(head_heights)
        proof = deployment.validators[0].receipts.inclusion_proof(txs[0].tx_hash)
        assert verifier.covers(proof)

    def test_invalid_signature_rejected(self, committed_deployment):
        deployment, _ = committed_deployment
        committee = set(deployment.genesis.validator_addresses)
        verifier = CheckpointVerifier(committee, f=1)
        good = Checkpoint.create(deployment.keypairs[0], 5, b"\x01" * 32)
        forged = Checkpoint(
            height=5, head_hash=b"\x02" * 32,
            public_key=good.public_key, signature=good.signature,
        )
        assert not verifier.add(forged)
        assert verifier.finalized_height == -1

    def test_outsider_checkpoints_ignored(self):
        outsider = generate_keypair(777)
        verifier = CheckpointVerifier({"11" * 20}, f=0)
        checkpoint = Checkpoint.create(outsider, 3, b"\x03" * 32)
        assert not verifier.add(checkpoint)

    def test_single_byzantine_checkpoint_cannot_finalize(self):
        """f=1 needs 2 matching votes; one (possibly Byzantine) is not enough."""
        kps = [generate_keypair(800 + i) for i in range(4)]
        committee = {kp.address for kp in kps}
        verifier = CheckpointVerifier(committee, f=1)
        assert not verifier.add(Checkpoint.create(kps[0], 9, b"\x09" * 32))
        assert verifier.finalized_height == -1
        assert verifier.add(Checkpoint.create(kps[1], 9, b"\x09" * 32))
        assert verifier.finalized_height == 9
