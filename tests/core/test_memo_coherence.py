"""Derived values kept on transactions and blocks equal a fresh derivation.

``Transaction`` and ``Block`` are frozen, and each keeps what is derived
from its fields (signing payload, hash, sizes, positive signature / header
verdict) after the first computation.  These tests re-derive every such
value from the fields with reference code that shares nothing with the
memoising methods, and check that a copy with any field changed starts
from nothing.
"""

from dataclasses import replace

from hypothesis import assume, given, settings, strategies as st

from repro.core.block import Block, make_block
from repro.core.transaction import Transaction, TxType, make_transfer
from repro.core.validation import check_signature
from repro.crypto import hash_items, merkle_root, verify
from repro.crypto.keys import generate_keypair, recover_check

KEYS = [generate_keypair(4100 + i) for i in range(3)]

payload_values = st.one_of(
    st.binary(max_size=48),
    st.text(max_size=24),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.tuples(st.text(max_size=6), st.integers(0, 999)),
)


@st.composite
def transactions(draw, signed=None):
    keypair = draw(st.sampled_from(KEYS))
    tx = Transaction(
        tx_type=draw(st.sampled_from(list(TxType))),
        sender=keypair.address,
        receiver=draw(st.sampled_from(["", "aa" * 20, KEYS[0].address])),
        amount=draw(st.integers(0, 10**9)),
        nonce=draw(st.integers(0, 50)),
        gas_limit=draw(st.integers(21_000, 300_000)),
        gas_price=draw(st.integers(0, 5)),
        payload=draw(st.dictionaries(st.text(min_size=1, max_size=8), payload_values, max_size=4)),
        padding=draw(st.integers(0, 2_000)),
    )
    if draw(st.booleans()) if signed is None else signed:
        tx = tx.signed_by(keypair)
    return tx


# -- reference derivations (the pre-memoisation code, field by field) ----------


def ref_signing_payload(tx: Transaction) -> bytes:
    items = [tx.tx_type.value, tx.sender, tx.receiver, tx.amount, tx.nonce,
             tx.gas_limit, tx.gas_price, tx.padding]
    for key in sorted(tx.payload):
        value = tx.payload[key]
        items += [key, value if isinstance(value, (bytes, str, int)) else repr(value)]
    return hash_items(items)


def ref_tx_hash(tx: Transaction) -> bytes:
    return hash_items([ref_signing_payload(tx), tx.signature.tag if tx.signature else b""])


def ref_data_size(tx: Transaction) -> int:
    return tx.padding + sum(
        len(key) + len(value if isinstance(value, (bytes, str)) else repr(value))
        for key, value in tx.payload.items()
    )


def ref_encoded_size(tx: Transaction) -> int:
    return 110 + ref_data_size(tx) + (64 if tx.signature is not None else 0)


def ref_signature_ok(tx: Transaction) -> bool:
    return (
        tx.signature is not None
        and tx.public_key is not None
        and recover_check(tx.public_key, ref_signing_payload(tx), tx.signature, tx.sender)
    )


def assert_coherent(tx: Transaction) -> None:
    for _ in range(2):  # first call derives, second reads the memo
        assert tx.signing_payload() == ref_signing_payload(tx)
        assert tx.tx_hash == ref_tx_hash(tx)
        assert tx.data_size() == ref_data_size(tx)
        assert tx.encoded_size() == ref_encoded_size(tx)
        assert check_signature(tx) is ref_signature_ok(tx)
    assert tx.sig_verified is ref_signature_ok(tx)


FIELD_CHANGES = {
    "amount": lambda tx: tx.amount + 1,
    "nonce": lambda tx: tx.nonce + 1,
    "receiver": lambda tx: tx.receiver + "00",
    "gas_limit": lambda tx: tx.gas_limit + 1,
    "gas_price": lambda tx: tx.gas_price + 1,
    "padding": lambda tx: tx.padding + 1,
    "payload": lambda tx: {**tx.payload, "extra-key": b"x"},
}


class TestTransactionMemos:
    @settings(max_examples=60, deadline=None)
    @given(transactions())
    def test_every_memo_equals_a_fresh_derivation(self, tx):
        assert_coherent(tx)

    @settings(max_examples=60, deadline=None)
    @given(transactions(signed=True), st.sampled_from(sorted(FIELD_CHANGES)))
    def test_tampered_copy_shares_neither_verdict_nor_digest(self, tx, name):
        assert check_signature(tx) and tx.sig_verified
        assert tx.encoded_size() and tx.tx_hash  # fill every memo first
        tampered = replace(tx, **{name: FIELD_CHANGES[name](tx)})
        assert not tampered.sig_verified
        assert tampered.tx_hash != tx.tx_hash
        assert tampered.signing_payload() != tx.signing_payload()
        assert not check_signature(tampered)  # the signature covers the old fields
        assert_coherent(tampered)
        assert check_signature(tx)  # and the original is untouched

    @settings(max_examples=30, deadline=None)
    @given(transactions(signed=True))
    def test_reconstructed_copy_derives_for_itself(self, tx):
        assert check_signature(tx)
        fresh = replace(tx)
        assert fresh is not tx and not fresh.sig_verified
        assert fresh == tx and fresh.tx_hash == tx.tx_hash
        assert_coherent(fresh)

    @settings(max_examples=30, deadline=None)
    @given(transactions(signed=False))
    def test_signing_hands_over_a_correct_payload(self, unsigned):
        keypair = next(kp for kp in KEYS if kp.address == unsigned.sender)
        signed = unsigned.signed_by(keypair)
        assert signed.__dict__["_signing_payload"] == ref_signing_payload(signed)
        assert not signed.sig_verified  # signing is not verifying
        assert_coherent(signed)
        assert_coherent(unsigned)


@st.composite
def blocks(draw):
    proposer = draw(st.sampled_from(KEYS))
    txs = draw(st.lists(transactions(signed=True), max_size=6))
    return make_block(proposer, draw(st.integers(0, 3)), draw(st.integers(1, 9)), txs,
                      parent_hash=draw(st.binary(min_size=32, max_size=32)),
                      round=draw(st.integers(0, 4)))


def ref_tx_root(block: Block) -> bytes:
    return merkle_root([ref_tx_hash(tx) for tx in block.transactions])


def ref_header_ok(block: Block) -> bool:
    cert = block.certificate
    return cert is not None and verify(cert.public_key, ref_tx_root(block), cert.signed_tx_hash)


def assert_block_coherent(block: Block) -> None:
    for _ in range(2):
        assert block.tx_root == ref_tx_root(block)
        assert block.block_hash == hash_items(
            ["block", block.proposer_id, block.index, block.round,
             block.parent_hash, ref_tx_root(block)]
        )
        assert block.encoded_size() == 200 + sum(ref_encoded_size(tx) for tx in block.transactions)
        assert block.header_valid() is ref_header_ok(block)


class TestBlockMemos:
    @settings(max_examples=40, deadline=None)
    @given(blocks())
    def test_every_memo_equals_a_fresh_derivation(self, block):
        assert block.header_valid()
        assert_block_coherent(block)

    @settings(max_examples=40, deadline=None)
    @given(blocks(), transactions(signed=True))
    def test_tampered_copy_shares_neither_verdict_nor_root(self, block, extra):
        # (a repeat of the last transaction is the one addition the tree's
        # duplicate-last padding cannot see; it is not what is tested here)
        assume(extra not in block.transactions)
        assert block.header_valid() and block.encoded_size()
        tampered = replace(block, transactions=(extra,) + block.transactions)
        assert tampered.tx_root != block.tx_root
        assert not tampered.header_valid()
        assert not tampered.header_valid()  # a failure is re-checked, still a failure
        assert_block_coherent(tampered)
        uncertified = replace(block, certificate=None)
        assert not uncertified.header_valid()
        assert block.header_valid()

    def test_failed_header_check_is_repeated(self, monkeypatch):
        from repro.core import block as block_module

        calls = []

        def counting(*args):
            calls.append(1)
            return verify(*args)

        monkeypatch.setattr(block_module, "verify", counting)
        good = make_block(KEYS[0], 0, 1, [])
        stolen = replace(
            good, transactions=(make_transfer(KEYS[1], "aa" * 20, 1, nonce=0),)
        )
        assert not stolen.header_valid() and not stolen.header_valid()
        assert len(calls) == 2
        assert good.header_valid() and good.header_valid()
        assert len(calls) == 3  # the positive verdict is kept
