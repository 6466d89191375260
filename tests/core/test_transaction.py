"""Transaction model: signing, hashing, sizes, constructors."""

from dataclasses import replace

from hypothesis import given, strategies as st

from repro.core.transaction import TxType, _signed, make_invoke, make_transfer
from repro.crypto.keys import generate_keypair, recover_check


def signed_by(tx, keypair):
    """A copy of ``tx`` signed by ``keypair`` (its sender must match)."""
    return _signed(keypair, replace(tx, public_key=keypair.public, signature=None))


class TestSigning:
    def test_transfer_is_signed_by_sender(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert tx.sender == kp.address
        assert recover_check(tx.public_key, tx.signing_payload(), tx.signature, tx.sender)

    def test_signing_payload_excludes_signature(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        unsigned_payload = tx.signing_payload()
        assert unsigned_payload == signed_by(tx, kp).signing_payload()

    def test_hash_depends_on_amount(self):
        kp = generate_keypair(1)
        a = make_transfer(kp, "aa" * 20, 5, nonce=0)
        b = make_transfer(kp, "aa" * 20, 6, nonce=0)
        assert a.tx_hash != b.tx_hash

    def test_hash_depends_on_nonce(self):
        kp = generate_keypair(1)
        assert (
            make_transfer(kp, "aa" * 20, 5, nonce=0).tx_hash
            != make_transfer(kp, "aa" * 20, 5, nonce=1).tx_hash
        )

    def test_hash_depends_on_payload(self):
        kp = generate_keypair(1)
        a = make_invoke(kp, "cc" * 20, "f", (1,), nonce=0)
        b = make_invoke(kp, "cc" * 20, "f", (2,), nonce=0)
        assert a.tx_hash != b.tx_hash

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=100))
    def test_property_hash_stable(self, amount, nonce):
        kp = generate_keypair(42)
        tx = make_transfer(kp, "bb" * 20, amount, nonce=nonce)
        assert tx.tx_hash == tx.tx_hash


class TestSizesAndCosts:
    def test_bare_transfer_size(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert 100 < tx.encoded_size() < 300

    def test_padding_inflates_size(self):
        kp = generate_keypair(1)
        small = make_transfer(kp, "aa" * 20, 5, nonce=0)
        big = make_transfer(kp, "aa" * 20, 5, nonce=0, padding=5000)
        assert big.encoded_size() == small.encoded_size() + 5000

    def test_data_size_excludes_envelope(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert tx.data_size() == 0

    def test_max_cost(self):
        kp = generate_keypair(1)
        tx = make_transfer(kp, "aa" * 20, 100, nonce=0, gas_limit=21_000, gas_price=2)
        assert tx.max_cost() == 100 + 42_000
        assert tx.fee_cap() == 42_000


class TestConstructors:
    def test_invoke(self):
        kp = generate_keypair(1)
        tx = make_invoke(kp, "cc" * 20, "trade", ("AAPL", 1), nonce=0, amount=9)
        assert tx.tx_type is TxType.INVOKE
        assert tx.payload["function"] == "trade"
        assert tx.payload["args"] == ("AAPL", 1)
        assert tx.amount == 9

    def test_uids_unique(self):
        kp = generate_keypair(1)
        a = make_transfer(kp, "aa" * 20, 5, nonce=0)
        b = make_transfer(kp, "aa" * 20, 5, nonce=0)
        assert a.uid != b.uid
