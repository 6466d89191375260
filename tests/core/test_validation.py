"""Eager vs lazy validation — the layering §IV-D depends on."""

import pytest

from repro import params
from repro.core.transaction import FIELD_CAP, Transaction, TxType, make_transfer
from repro.core.validation import (
    FIELD_RANGE,
    NONCE_WINDOW,
    check_signature,
    eager_validate,
    lazy_validate,
)
from repro.crypto.keys import generate_keypair
from repro.vm.state import WorldState
from tests.core.test_transaction import signed_by

FUNDS = 10**9


@pytest.fixture
def kp():
    return generate_keypair(5)


@pytest.fixture
def state(kp):
    ws = WorldState()
    ws.create_account(kp.address, FUNDS)
    return ws


class TestEagerValidation:
    def test_valid_transfer_passes(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert eager_validate(tx, state)

    def test_unsigned_fails(self, kp, state):
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert eager_validate(tx, state).error_code == "invalid-sig"

    def test_forged_sender_fails(self, kp, state):
        other = generate_keypair(6)
        tx = make_transfer(other, "aa" * 20, 1, nonce=0)
        forged = Transaction(
            tx_type=tx.tx_type, sender=kp.address, receiver=tx.receiver,
            amount=tx.amount, nonce=tx.nonce, gas_limit=tx.gas_limit,
            gas_price=tx.gas_price, public_key=tx.public_key, signature=tx.signature,
        )
        assert eager_validate(forged, state).error_code == "invalid-sig"

    def test_oversized_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0, padding=params.MAX_TX_SIZE)
        assert eager_validate(tx, state).error_code == "oversized"

    def test_past_nonce_fails(self, kp, state):
        state.bump_nonce(kp.address)
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0)
        assert eager_validate(tx, state).error_code == "bad-nonce"

    def test_future_nonce_within_window_passes(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=NONCE_WINDOW)
        assert eager_validate(tx, state)

    def test_far_future_nonce_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=NONCE_WINDOW + 1)
        assert eager_validate(tx, state).error_code == "bad-nonce"

    def test_zero_balance_sender_fails(self, state):
        broke = generate_keypair(7)
        tx = make_transfer(broke, "aa" * 20, 1, nonce=0)
        outcome = eager_validate(tx, state)
        assert outcome.error_code in ("insufficient-gas", "insufficient-balance")

    def test_amount_beyond_balance_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, FUNDS, nonce=0)
        assert eager_validate(tx, state).error_code == "insufficient-balance"

    def test_gas_limit_above_block_limit_fails(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0,
                           gas_limit=params.BLOCK_GAS_LIMIT + 1)
        assert eager_validate(tx, state).error_code == "exceeds-block-gas"

    def test_unfittable_gas_limit_reported_before_balance(self, kp, state):
        """Regression: a gas limit no block can fit is an *intrinsic*
        defect.  It used to be checked after the balance checks, so a
        sender who (of course) couldn't afford the inflated fee cap got a
        misleading "insufficient-gas" — and RPM reports blamed the wrong
        failure class.  A broke sender must still see exceeds-block-gas."""
        broke = generate_keypair(9)
        state.create_account(broke.address, 1)  # cannot cover any fee cap
        tx = make_transfer(broke, "aa" * 20, 1, nonce=0,
                           gas_limit=params.BLOCK_GAS_LIMIT + 1)
        assert eager_validate(tx, state).error_code == "exceeds-block-gas"


class TestFieldRange:
    """Both passes check every integer field's range before anything
    else; a ``bool`` is not an ``int`` here, and the cap is exclusive."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("amount", -1), ("nonce", -1), ("gas_limit", -1), ("gas_price", -1),
            ("padding", -1), ("amount", FIELD_CAP), ("nonce", FIELD_CAP),
            ("amount", True), ("gas_price", 1.0),
        ],
    )
    def test_out_of_range_field_fails_first(self, kp, state, field, value):
        fields = dict(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        fields[field] = value
        unsigned = Transaction(**fields)
        assert not unsigned.fields_ok
        assert eager_validate(unsigned, state).error_code == FIELD_RANGE
        assert lazy_validate(unsigned, state).error_code == FIELD_RANGE
        signed = signed_by(unsigned, kp)
        assert eager_validate(signed, state).error_code == FIELD_RANGE
        assert lazy_validate(signed, state).error_code == FIELD_RANGE

    def test_largest_in_range_value_passes_the_range_check(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, FIELD_CAP - 1, nonce=0)
        assert tx.fields_ok
        assert eager_validate(tx, state).error_code == "insufficient-balance"
        assert lazy_validate(tx, state).error_code == "insufficient-balance"


class TestLazyValidation:
    def test_valid_passes(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert lazy_validate(tx, state)

    def test_lazy_skips_signature(self, kp, state):
        """Lazy validation is weaker than eager: an unsigned transaction
        passes (the execution layer catches it) — §IV-D's check split."""
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert lazy_validate(tx, state)

    def test_lazy_skips_size(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=0, padding=params.MAX_TX_SIZE)
        assert lazy_validate(tx, state)

    def test_lazy_requires_exact_nonce(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, 1, nonce=1)
        assert lazy_validate(tx, state).error_code == "bad-nonce"

    def test_lazy_checks_balance(self, kp, state):
        tx = make_transfer(kp, "aa" * 20, FUNDS, nonce=0)
        assert lazy_validate(tx, state).error_code == "insufficient-balance"

    def test_lazy_checks_gas_affordability(self, state):
        poor = generate_keypair(8)
        state.create_account(poor.address, 100)  # can't cover 21000 gas
        tx = make_transfer(poor, "aa" * 20, 1, nonce=0)
        assert lazy_validate(tx, state).error_code == "insufficient-gas"

    def test_eager_strictly_stronger(self, kp, state):
        """Everything lazy rejects, eager rejects too (on fresh state)."""
        cases = [
            make_transfer(kp, "aa" * 20, FUNDS, nonce=0),
            make_transfer(kp, "aa" * 20, 1, nonce=NONCE_WINDOW + 5),
        ]
        for tx in cases:
            if not lazy_validate(tx, state):
                assert not eager_validate(tx, state)


class TestSignatureVerdict:
    """``check_signature`` keeps a positive verdict on the transaction
    object; generated-input coverage is in ``test_memo_coherence.py``."""

    def _count_recoveries(self, monkeypatch):
        """Wrap the underlying recover_check with an invocation counter."""
        from repro.core import validation
        from repro.crypto.keys import recover_check as real

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(validation, "recover_check", counting)
        return calls

    def test_second_check_reads_the_kept_verdict(self, kp, monkeypatch):
        calls = self._count_recoveries(monkeypatch)
        tx = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert check_signature(tx)
        assert check_signature(tx)
        assert len(calls) == 1  # one full recovery, then the memo

    def test_negative_results_are_not_kept(self, kp, monkeypatch):
        calls = self._count_recoveries(monkeypatch)
        good = make_transfer(kp, "aa" * 20, 10, nonce=0)
        forged = Transaction(
            tx_type=good.tx_type, sender=generate_keypair(10).address,
            receiver=good.receiver, amount=good.amount, nonce=good.nonce,
            gas_limit=good.gas_limit, gas_price=good.gas_price,
            public_key=good.public_key, signature=good.signature,
        )
        assert not check_signature(forged)
        assert not check_signature(forged)
        assert len(calls) == 2  # both failures recomputed in full

    def test_tampered_resubmission_is_not_vouched_for(self, kp, monkeypatch):
        """Re-submitting tampered content under a verified transaction's
        signature builds a new object, which carries no verdict: the check
        runs in full — and fails — however often the original verified."""
        calls = self._count_recoveries(monkeypatch)
        good = make_transfer(kp, "aa" * 20, 10, nonce=0)
        assert check_signature(good)
        tampered = Transaction(
            tx_type=good.tx_type, sender=good.sender, receiver=good.receiver,
            amount=good.amount + 10**6, nonce=good.nonce,
            gas_limit=good.gas_limit, gas_price=good.gas_price,
            public_key=good.public_key, signature=good.signature,
        )
        assert not check_signature(tampered)
        assert len(calls) == 2
        assert check_signature(good)
        assert len(calls) == 2

    def test_unsigned_rejected_without_recovery(self, kp, monkeypatch):
        calls = self._count_recoveries(monkeypatch)
        tx = Transaction(
            tx_type=TxType.TRANSFER, sender=kp.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        assert not check_signature(tx)
        assert not calls

    def test_concurrent_check_signature(self):
        """Eight threads racing on shared transaction objects (good and
        forged interleaved, switch interval shortened so they really
        interleave) must only ever see the correct verdict."""
        import sys
        import threading

        keypairs = [generate_keypair(8800 + i) for i in range(4)]
        good = [
            make_transfer(kp, "aa" * 20, 1, nonce=n)
            for kp in keypairs
            for n in range(40)
        ]
        forged = [
            Transaction(
                tx_type=tx.tx_type, sender=tx.sender, receiver=tx.receiver,
                amount=tx.amount + 1, nonce=tx.nonce, gas_limit=tx.gas_limit,
                gas_price=tx.gas_price, public_key=tx.public_key,
                signature=tx.signature,
            )
            for tx in good[::4]
        ]
        expected = [(tx, True) for tx in good] + [(tx, False) for tx in forged]
        wrong: list = []

        def worker():
            try:
                for _ in range(3):
                    for tx, verdict in expected:
                        if check_signature(tx) is not verdict:
                            wrong.append(tx)
            except Exception as exc:  # pragma: no cover - failure path
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert all(tx.sig_verified for tx in good)
        assert not any(tx.sig_verified for tx in forged)
