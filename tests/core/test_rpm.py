"""RPM contract (Algorithm 2): attestation rewards, reports, slashing."""

import pytest

from repro.core.block import make_block
from repro.core.rpm import (
    RPM_ADDRESS,
    RPMContract,
    certificate_payload,
    decode_certificate,
    encode_certificate,
    read_deposit,
    read_events,
    read_excluded,
    report_payload,
    seed_genesis,
)
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair
from repro.errors import VMRevert
from repro.vm.state import WorldState

GAS = 50_000_000
N, F = 4, 1
DEPOSIT = 1_000_000
RPM_ADDR = RPM_ADDRESS


@pytest.fixture
def validators():
    return [generate_keypair(100 + i) for i in range(N)]


@pytest.fixture
def rpm():
    return RPMContract(n=N, f=F, block_reward=100, validation_cost=0.001)


@pytest.fixture
def state(validators):
    ws = WorldState()
    ws.get_or_create(RPM_ADDR)
    seed_genesis(ws, tuple(kp.address for kp in validators), DEPOSIT)
    return ws


def call(rpm, state, caller, fn, *args, value=0):
    result, _ = rpm.call(state, RPM_ADDR, caller, fn, args, value, GAS)
    return result


def _block(proposer_kp, proposer_id=0, txs=None, seed=50):
    txs = txs if txs is not None else [
        make_transfer(generate_keypair(seed), "bb" * 20, 1, nonce=i) for i in range(3)
    ]
    return make_block(proposer_kp, proposer_id, 1, txs)


class TestCertificates:
    def test_encode_decode_roundtrip(self, validators):
        block = _block(validators[0])
        enc = encode_certificate(block.certificate)
        assert decode_certificate(enc) == block.certificate

    def test_certificate_payload(self, validators):
        block = _block(validators[0])
        cert, h_t_hex, count = certificate_payload(block)
        assert count == 3
        assert bytes.fromhex(h_t_hex) == block.tx_root

    def test_report_payload_proof_verifies(self, validators):
        from repro.crypto.merkle import MerkleProof, MerkleTree

        block = _block(validators[0])
        bad = block.transactions[1]
        cert, bad_hex, h_t_hex, index, siblings = report_payload(block, bad.tx_hash)
        proof = MerkleProof(index=index, siblings=tuple(bytes.fromhex(s) for s in siblings))
        assert MerkleTree.verify_proof(
            bytes.fromhex(h_t_hex), bytes.fromhex(bad_hex), proof
        )

    def test_report_payload_missing_tx_raises(self, validators):
        block = _block(validators[0])
        with pytest.raises(ValueError):
            report_payload(block, b"\x00" * 32)


class TestPropReceived:
    def attest(self, rpm, state, validators, block, slot=0, round_=1, callers=None):
        cert, h_t, count = certificate_payload(block)
        results = []
        for kp in callers or validators:
            results.append(
                call(rpm, state, kp.address, "prop_received", cert, h_t, count, slot, round_)
            )
        return results

    def test_reward_paid_at_threshold(self, rpm, state, validators):
        block = _block(validators[0])
        results = self.attest(rpm, state, validators, block, callers=validators[:3])
        assert results == [False, False, True]  # n−f = 3rd attestation pays
        deposit = call(rpm, state, validators[0].address, "deposit_of", validators[0].address)
        assert deposit == DEPOSIT + 100  # r_b − ⌊3·0.001⌋ = 100

    def test_reward_paid_once(self, rpm, state, validators):
        block = _block(validators[0])
        self.attest(rpm, state, validators, block)  # all 4 attest
        deposit = call(rpm, state, validators[0].address, "deposit_of", validators[0].address)
        assert deposit == DEPOSIT + 100  # the 4th attestation must not double-pay

    def test_duplicate_invocation_ignored(self, rpm, state, validators):
        block = _block(validators[0])
        cert, h_t, count = certificate_payload(block)
        caller = validators[1].address
        assert call(rpm, state, caller, "prop_received", cert, h_t, count, 0, 1) is False
        # line 11: same (caller, i, round) exits immediately
        assert call(rpm, state, caller, "prop_received", cert, h_t, count, 0, 1) is False
        # and it did not increment the count twice: two more callers needed
        assert call(rpm, state, validators[2].address, "prop_received", cert, h_t, count, 0, 1) is False
        assert call(rpm, state, validators[3].address, "prop_received", cert, h_t, count, 0, 1) is True

    def test_non_validator_caller_reverts(self, rpm, state, validators):
        block = _block(validators[0])
        cert, h_t, count = certificate_payload(block)
        with pytest.raises(VMRevert):
            call(rpm, state, "ff" * 20, "prop_received", cert, h_t, count, 0, 1)

    def test_non_validator_proposer_rejected(self, rpm, state, validators):
        outsider = generate_keypair(999)
        block = _block(outsider)
        results = self.attest(rpm, state, validators, block)
        assert not any(results)  # line 16: Cert_B from non-validator

    def test_forged_h_t_rejected(self, rpm, state, validators):
        block = _block(validators[0])
        cert, _, count = certificate_payload(block)
        fake_root = "00" * 32
        assert (
            call(rpm, state, validators[1].address, "prop_received", cert, fake_root, count, 0, 1)
            is False
        )

    def test_validation_cost_reduces_reward(self, state, validators):
        rpm = RPMContract(n=N, f=F, block_reward=100, validation_cost=10.0)
        txs = [make_transfer(generate_keypair(51), "bb" * 20, 1, nonce=i) for i in range(5)]
        block = _block(validators[0], txs=txs)
        self.attest(rpm, state, validators, block, callers=validators[:3])
        deposit = call(rpm, state, validators[0].address, "deposit_of", validators[0].address)
        assert deposit == DEPOSIT + 100 - 50  # C = 5 · 10


class TestReport:
    def report(self, rpm, state, validators, block, bad_tx, block_number=7, callers=None):
        cert, bad_hex, h_t, index, siblings = report_payload(block, bad_tx.tx_hash)
        results = []
        for kp in callers or validators[1:]:
            results.append(
                call(rpm, state, kp.address, "report",
                     cert, block_number, bad_hex, h_t, index, siblings)
            )
        return results

    def test_slash_at_threshold(self, rpm, state, validators):
        block = _block(validators[0])
        bad = block.transactions[0]
        results = self.report(rpm, state, validators, block, bad)
        assert results == [False, False, True]
        proposer = validators[0].address
        assert call(rpm, state, proposer, "deposit_of", proposer) == 0
        # redistribution: 1M split across the 3 others
        others = [kp.address for kp in validators[1:]]
        total = sum(call(rpm, state, o, "deposit_of", o) for o in others)
        assert total == 3 * DEPOSIT + DEPOSIT  # conservation
        assert proposer in call(rpm, state, proposer, "excluded")
        events = call(rpm, state, proposer, "events")
        assert len(events) == 1 and events[0].address == proposer

    def test_duplicate_report_not_counted(self, rpm, state, validators):
        block = _block(validators[0])
        bad = block.transactions[0]
        reporter = validators[1]
        self.report(rpm, state, validators, block, bad, callers=[reporter, reporter])
        proposer = validators[0].address
        assert call(rpm, state, proposer, "deposit_of", proposer) == DEPOSIT

    def test_false_report_rejected(self, rpm, state, validators):
        """t ∉ T: a Merkle proof for a transaction not in the block fails."""
        block = _block(validators[0])
        other_block = _block(validators[0], seed=77)
        outside_tx = other_block.transactions[0]
        cert, _, h_t, _, _ = report_payload(block, block.transactions[0].tx_hash)
        _, bad_hex, _, index, siblings = report_payload(
            other_block, outside_tx.tx_hash
        )
        result = call(
            rpm, state, validators[1].address, "report",
            cert, 7, bad_hex, h_t, index, siblings,
        )
        assert result is False
        assert (
            call(rpm, state, validators[0].address, "deposit_of", validators[0].address)
            == DEPOSIT
        )

    def test_non_validator_reporter_reverts(self, rpm, state, validators):
        block = _block(validators[0])
        cert, bad_hex, h_t, index, siblings = report_payload(
            block, block.transactions[0].tx_hash
        )
        with pytest.raises(VMRevert):
            call(rpm, state, "ff" * 20, "report", cert, 7, bad_hex, h_t, index, siblings)

    def test_slash_includes_earned_rewards(self, rpm, state, validators):
        """Theorem 1: the penalty P = D + I − C' takes everything."""
        block = _block(validators[0])
        cert, h_t, count = certificate_payload(block)
        for kp in validators[:3]:
            call(rpm, state, kp.address, "prop_received", cert, h_t, count, 0, 1)
        proposer = validators[0].address
        assert call(rpm, state, proposer, "deposit_of", proposer) == DEPOSIT + 100
        self.report(rpm, state, validators, block, block.transactions[0])
        assert call(rpm, state, proposer, "deposit_of", proposer) == 0

    def test_two_different_invalid_txs_both_countable(self, rpm, state, validators):
        block = _block(validators[0])
        r1 = self.report(rpm, state, validators, block, block.transactions[0])
        r2 = self.report(rpm, state, validators, block, block.transactions[1])
        assert r1[-1] is True
        # second slash finds an empty deposit; still emits an event
        assert r2[-1] is True
        events = call(rpm, state, validators[0].address, "events")
        assert len(events) == 2
        assert events[1].penalty == 0
        # a replayed slash names the offender once
        assert read_excluded(state) == (validators[0].address,)

    def test_readers_see_the_contract_book(self, rpm, state, validators):
        block = _block(validators[0])
        self.report(rpm, state, validators, block, block.transactions[0])
        for kp in validators:
            assert read_deposit(state, kp.address) == call(
                rpm, state, kp.address, "deposit_of", kp.address
            )
        assert read_excluded(state) == call(rpm, state, kp.address, "excluded")
        assert read_events(state) == call(rpm, state, kp.address, "events")

    def test_slashed_validator_cannot_rejoin(self, rpm, state, validators):
        """The committee list keeps a slashed address: it stays excluded
        and cannot buy its seat back under the same address."""
        block = _block(validators[0])
        self.report(rpm, state, validators, block, block.transactions[0])
        proposer = validators[0].address
        with pytest.raises(VMRevert):
            call(rpm, state, proposer, "join", DEPOSIT, value=DEPOSIT)
        assert proposer in read_excluded(state)


class TestJoin:
    def test_join_adds_validator(self, rpm, validators):
        ws = WorldState()
        ws.get_or_create(RPM_ADDR)
        newcomer = generate_keypair(500)
        ws.create_account(newcomer.address, 10**9)
        result = call(rpm, ws, newcomer.address, "join", 5000, value=5000)
        assert result == 5000
        assert newcomer.address in call(rpm, ws, newcomer.address, "validators")

    def test_join_requires_funding(self, rpm):
        ws = WorldState()
        ws.get_or_create(RPM_ADDR)
        with pytest.raises(VMRevert):
            call(rpm, ws, "ab" * 20, "join", 5000, value=10)

    def test_join_requires_positive_deposit(self, rpm):
        ws = WorldState()
        ws.get_or_create(RPM_ADDR)
        with pytest.raises(VMRevert):
            call(rpm, ws, "ab" * 20, "join", 0, value=0)

    def test_genesis_seeds_what_joins_write(self, rpm, validators):
        """Genesis and ``join`` share one write, so a committee seeded at
        genesis is the committee that joined one by one."""
        addresses = tuple(kp.address for kp in validators)
        seeded, joined = WorldState(), WorldState()
        for ws in (seeded, joined):
            ws.get_or_create(RPM_ADDR)
        seed_genesis(seeded, addresses, DEPOSIT)
        for address in addresses:
            call(rpm, joined, address, "join", DEPOSIT, value=DEPOSIT)
        assert seeded._storage == joined._storage

    def test_double_join_reverts(self, rpm):
        ws = WorldState()
        ws.get_or_create(RPM_ADDR)
        call(rpm, ws, "ab" * 20, "join", 5000, value=5000)
        with pytest.raises(VMRevert):
            call(rpm, ws, "ab" * 20, "join", 5000, value=5000)
