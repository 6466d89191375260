"""Executor: ApplyTransaction semantics, rollback, gas, receipts."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import params, telemetry
from repro.core.block import SuperBlock, make_block
from repro.core.blockchain import Blockchain
from repro.core.rpm import RPM_ADDRESS, RPMContract, certificate_payload, seed_genesis
from repro.core.transaction import Transaction, TxType, make_invoke, make_transfer
from repro.core.validation import check_signature
from repro.crypto.keys import generate_keypair, recover_check
from repro.errors import (
    InsufficientBalance,
    InvalidSignature,
    OutOfGas,
    OversizedTransaction,
    ReproError,
    VMError,
    VMRevert,
)
from repro.vm.contracts import ExchangeContract, MobilityContract, TicketingContract
from repro.vm.contracts.base import NativeContract, NativeRegistry, method
from repro.vm.executor import Executor, Receipt, install_native, native_address_for
from repro.vm.gas import intrinsic_gas
from repro.vm.state import WorldState
from tests.core.test_transaction import signed_by

FUNDS = 10**12


class TestTransfers:
    def test_successful_transfer(self, executor, keypair, keypair2):
        tx = make_transfer(keypair, keypair2.address, 500, nonce=0)
        receipt = executor.execute(tx)
        assert receipt.success
        assert executor.state.balance_of(keypair2.address) == FUNDS + 500
        assert executor.state.nonce_of(keypair.address) == 1

    def test_gas_charged_and_refunded(self, executor, keypair, keypair2):
        before = executor.state.balance_of(keypair.address)
        tx = make_transfer(keypair, keypair2.address, 500, nonce=0, gas_price=2)
        receipt = executor.execute(tx)
        spent = before - executor.state.balance_of(keypair.address)
        assert spent == 500 + receipt.gas_used * 2

    def test_coinbase_receives_fees(self, executor, keypair, keypair2):
        tx = make_transfer(keypair, keypair2.address, 1, nonce=0, gas_price=3)
        receipt = executor.execute(tx, coinbase="f" * 40)
        assert executor.state.balance_of("f" * 40) == receipt.gas_used * 3

    def test_failed_tx_has_no_state_impact(self, executor, keypair, keypair2):
        """The paper's core execution guarantee (§IV-D): invalid
        transactions throw an error without transitioning state."""
        root = executor.state.state_root()
        broke = generate_keypair(777)  # zero balance
        tx = make_transfer(broke, keypair.address, 10, nonce=0)
        receipt = executor.execute(tx)
        assert not receipt.success
        assert executor.state.state_root() == root

    def test_wrong_nonce_fails_lazily(self, executor, keypair, keypair2):
        tx = make_transfer(keypair, keypair2.address, 1, nonce=5)
        receipt = executor.execute(tx)
        assert not receipt.success
        assert receipt.error == "bad-nonce"

    def test_unsigned_rejected_at_execution(self, executor, keypair, keypair2):
        tx = Transaction(
            tx_type=TxType.TRANSFER,
            sender=keypair.address,
            receiver=keypair2.address,
            amount=1,
            nonce=0,
            gas_limit=21_000,
            gas_price=1,
        )
        receipt = executor.apply_transaction(tx)
        assert not receipt.success
        assert receipt.error == "invalid-sig"

    def test_forged_sender_rejected(self, executor, keypair, keypair2):
        """Signature by A claiming sender B raises ErrInvalidSig-equivalent."""
        tx = make_transfer(keypair, keypair2.address, 1, nonce=0)
        forged = Transaction(
            tx_type=tx.tx_type,
            sender=keypair2.address,  # claimed sender ≠ signer
            receiver=tx.receiver,
            amount=tx.amount,
            nonce=tx.nonce,
            gas_limit=tx.gas_limit,
            gas_price=tx.gas_price,
            public_key=tx.public_key,
            signature=tx.signature,
        )
        receipt = executor.apply_transaction(forged)
        assert not receipt.success
        assert receipt.error == "invalid-sig"

    def test_oversized_rejected_at_execution(self, executor, keypair, keypair2):
        tx = make_transfer(
            keypair, keypair2.address, 1, nonce=0,
            gas_limit=30_000_000, padding=params.MAX_TX_SIZE + 1,
        )
        receipt = executor.apply_transaction(tx)
        assert not receipt.success
        assert receipt.error == "oversized"

    def test_insufficient_balance_for_amount(self, executor, keypair, keypair2):
        tx = make_transfer(keypair, keypair2.address, FUNDS * 2, nonce=0)
        receipt = executor.apply_transaction(tx)
        assert not receipt.success
        assert receipt.error == "insufficient-balance"


class WriteThenFault(NativeContract):
    """Writes a storage slot, then faults on its input."""

    name = "write_then_fault"

    @method
    def poke(self, storage, info, divisor):
        storage.set("1", 1)
        return 1 // divisor


class TestInvoke:
    def test_invoke_native_contract(self, executor, keypair):
        exchange = native_address_for("exchange")
        tx = make_invoke(keypair, exchange, "trade", ("AAPL", 15000, 10, "buy"), nonce=0)
        receipt = executor.execute(tx)
        assert receipt.success
        assert receipt.return_value == 10

    def test_invoke_missing_contract_fails(self, executor, keypair):
        tx = make_invoke(keypair, "00" * 20, "f", (), nonce=0)
        receipt = executor.execute(tx)
        assert not receipt.success

    def test_invoke_reverting_native_rolls_back_value(self, executor, keypair):
        """Value attached to a reverting call must return to the sender."""
        exchange = native_address_for("exchange")
        before = executor.state.balance_of(keypair.address)
        tx = make_invoke(
            exchange_kp := keypair, exchange, "trade", ("AAPL", -5, 10, "buy"),
            nonce=0, amount=100,
        )
        receipt = executor.execute(tx)
        assert not receipt.success
        assert executor.state.balance_of(keypair.address) == before
        assert executor.state.balance_of(exchange) == 0

    def test_out_of_gas_native_call(self, executor, keypair):
        exchange = native_address_for("exchange")
        tx = make_invoke(
            keypair, exchange, "trade", ("AAPL", 100, 1, "buy"),
            nonce=0, gas_limit=25_000,  # covers intrinsic but not 3 SSTOREs
        )
        receipt = executor.execute(tx)
        assert not receipt.success
        assert receipt.error in ("out-of-gas",)

    def test_vm_fault_rolls_back(self, executor, keypair):
        """A fault after a storage write reverts the write, the value sent
        and the nonce; the same call without the fault keeps the write."""
        state = executor.state
        executor.registry.register(WriteThenFault())
        address = install_native(state, WriteThenFault.name)
        state.commit()
        root = state.state_root()
        call = make_invoke(keypair, address, "poke", (0,), nonce=0, amount=5)
        receipt = executor.execute(call)
        assert (receipt.success, receipt.error) == (False, VMRevert.code)
        assert state.storage_get(address, "1") is None
        assert state.state_root() == root
        assert executor.execute(
            make_invoke(keypair, address, "poke", (1,), nonce=0, amount=5)
        ).success
        assert state.storage_get(address, "1") == 1
        assert state.balance_of(address) == 5


class TestIntrinsicGas:
    def test_bare_transfer_costs_exactly_g_tx(self, executor, keypair, keypair2):
        tx = make_transfer(keypair, keypair2.address, 1, nonce=0)
        receipt = executor.execute(tx)
        assert receipt.gas_used == 21_000

    def test_payload_bytes_cost_extra(self, executor, keypair):
        exchange = native_address_for("exchange")
        tx = make_invoke(keypair, exchange, "last_price", ("AAPL",), nonce=0)
        receipt = executor.execute(tx)
        assert receipt.gas_used > 21_000

    def test_gas_limit_below_intrinsic_fails(self, executor, keypair, keypair2):
        tx = make_transfer(keypair, keypair2.address, 1, nonce=0, padding=1000,
                           gas_limit=21_500)
        receipt = executor.apply_transaction(tx)
        assert not receipt.success
        assert receipt.error == "out-of-gas"


def test_install_native_well_known_address():
    state = WorldState()
    addr = install_native(state, "exchange")
    assert addr == native_address_for("exchange")
    assert state.accounts[addr].native == "exchange"


@pytest.mark.parametrize(
    "first", ["repro.vm.executor", "repro.vm", "repro.core.blockchain", "repro.core"]
)
def test_vm_core_import_cycle_resolves_from_either_side(first):
    """The executor binds its repro.core names once at import; that must
    work whichever package a fresh interpreter imports first."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    code = (
        f"import {first}\n"
        "import repro.core.validation as validation, repro.vm.executor as executor\n"
        "from repro.core.blockchain import Blockchain\n"
        "assert executor.lazy_validate is validation.lazy_validate\n"
        "assert Blockchain().executor.__class__ is executor.Executor\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr[-2000:]


class TestMalformedCalls:
    """Call inputs that cannot bind to the method, or that fault inside
    it, revert the call: a failed receipt and no state change."""

    def _assert_reverts(self, executor, tx, code=VMRevert.code):
        root = executor.state.state_root()
        receipt = executor.execute(tx, coinbase="f" * 40)
        assert (receipt.success, receipt.gas_used, receipt.error) == (False, 0, code)
        assert executor.state.state_root() == root

    def test_missing_arguments(self, executor, keypair):
        exchange = native_address_for("exchange")
        self._assert_reverts(
            executor, make_invoke(keypair, exchange, "trade", ("AAPL",), nonce=0)
        )

    def test_non_iterable_arguments(self, executor, keypair):
        target = native_address_for("exchange")
        tx = signed_by(Transaction(
            tx_type=TxType.INVOKE, sender=keypair.address, receiver=target,
            amount=3, nonce=0, gas_limit=200_000, gas_price=1,
            payload={"contract": target, "function": "trade", "args": 5},
        ), keypair)
        self._assert_reverts(executor, tx)

    def test_unhashable_call_target(self, executor, keypair):
        tx = signed_by(Transaction(
            tx_type=TxType.INVOKE, sender=keypair.address, receiver="",
            amount=3, nonce=0, gas_limit=200_000, gas_price=1,
            payload={"contract": ["not", "an", "address"], "function": "f"},
        ), keypair)
        self._assert_reverts(executor, tx, VMError.code)

    def test_the_revert_chains_the_fault(self, state):
        with pytest.raises(VMRevert) as info:
            ExchangeContract().call(state, "cc" * 20, "11" * 20, "trade", ("AAPL",), 0, 10**6)
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("method", ["prop_received", "report"])
    def test_non_hex_certificate(self, method):
        member = generate_keypair(100)
        state = WorldState()
        state.create_account(member.address, FUNDS)
        install_native(state, "rpm")
        seed_genesis(state, (member.address,), 1_000)
        state.commit()
        registry = NativeRegistry()
        registry.register(RPMContract(n=4, f=1))
        bad_cert = ("zz", "zz", "zz", "zz")
        args = {
            "prop_received": (bad_cert, "00" * 32, 1, 0, 1),
            "report": (bad_cert, 1, "00" * 32, "00" * 32, 0, ()),
        }[method]
        tx = make_invoke(member, RPM_ADDRESS, method, args, nonce=0, gas_limit=2_000_000)
        self._assert_reverts(Executor(state, registry=registry), tx)


# -- the fused executor against the step-by-step sequence ---------------------


def reference_execute(state, registry, tx, coinbase=""):
    """The executor as a sequence of single writes, each through the
    state's public API: lazy validation (field range, ``nonce_of``,
    ``balance_of``, fee cap, max cost) → snapshot → signature, size, intrinsic gas, balance →
    debit the fee cap → bump the nonce → move the value → run the call →
    refund unused gas → pay the coinbase; any ``ReproError`` reverts to
    the snapshot.  Call inputs that fault while binding to a native method
    revert it (the native dispatch's rule, which it shares)."""
    sender, price = tx.sender, tx.gas_price
    fee_cap = tx.gas_limit * price
    fields = (tx.amount, tx.nonce, tx.gas_limit, tx.gas_price, tx.padding)
    if not all(type(v) is int and 0 <= v < 2**64 for v in fields):
        return Receipt(tx.tx_hash, False, 0, "field-out-of-range")
    if tx.nonce != state.nonce_of(sender):
        return Receipt(tx.tx_hash, False, 0, "bad-nonce")
    if state.balance_of(sender) < fee_cap:
        return Receipt(tx.tx_hash, False, 0, "insufficient-gas")
    if state.balance_of(sender) < tx.amount + fee_cap:
        return Receipt(tx.tx_hash, False, 0, "insufficient-balance")
    snap = state.snapshot()
    try:
        if tx.signature is None or tx.public_key is None or not recover_check(
            tx.public_key, tx.signing_payload(), tx.signature, sender
        ):
            raise InvalidSignature("bad signature")
        if tx.encoded_size() > params.MAX_TX_SIZE:
            raise OversizedTransaction("too big")
        base_gas = intrinsic_gas(tx.data_size())
        if base_gas > tx.gas_limit:
            raise OutOfGas("intrinsic")
        if state.balance_of(sender) < fee_cap + tx.amount:
            raise InsufficientBalance("cost")
        state.sub_balance(sender, fee_cap)
        state.bump_nonce(sender)
        gas_used, value = base_gas, None
        if tx.tx_type is TxType.TRANSFER:
            state.sub_balance(sender, tx.amount)
            state.add_balance(tx.receiver, tx.amount)
        else:
            target = tx.payload.get("contract", tx.receiver)
            if tx.amount:
                state.sub_balance(sender, tx.amount)
                state.add_balance(target, tx.amount)
            account = state._accounts.get(target)
            if account is None or account.native is None:
                raise VMError("not a contract")
            try:
                args = tuple(tx.payload.get("args", ()))
            except TypeError as exc:
                raise VMRevert("args") from exc
            value, used = registry.get(account.native).call(
                state, target, sender, str(tx.payload.get("function", "")),
                args, tx.amount, tx.gas_limit - base_gas,
            )
            gas_used += used
        state.add_balance(sender, (tx.gas_limit - gas_used) * price)
        if coinbase:
            state.add_balance(coinbase, gas_used * price)
        return Receipt(tx.tx_hash, True, gas_used, None, value)
    except ReproError as exc:
        state.revert(snap)
        return Receipt(tx.tx_hash, False, 0, getattr(exc, "code", "error"))


#: two funded clients (also the RPM committee) and one without an account
CLIENTS = [generate_keypair(600 + i) for i in range(3)]
COINBASE = "cb" * 20


def _registry():
    registry = NativeRegistry()
    for contract in (ExchangeContract(), MobilityContract(), TicketingContract(),
                     RPMContract(n=4, f=1)):
        registry.register(contract)
    return registry


def _genesis():
    state = WorldState()
    for kp in CLIENTS[:2]:
        state.create_account(kp.address, 3_000_000)
    for name in ("exchange", "mobility", "ticketing", "rpm"):
        install_native(state, name)
    seed_genesis(state, tuple(kp.address for kp in CLIENTS[:2]), 1_000)
    state.commit()
    return state


def _draw_transaction(data, state):
    """One transaction of a mixed batch; its nonce is usually the sender's
    current one, read from ``state``."""
    draw = data.draw
    kp = draw(st.sampled_from(CLIENTS))
    nonce = state.nonce_of(kp.address) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    price = draw(st.sampled_from([0, 1, 2]))
    amount = draw(st.sampled_from([0, 0, 1, 700, 10**7]))
    receiver = draw(st.sampled_from(
        [CLIENTS[1].address, kp.address, COINBASE, "fe" * 20, CLIENTS[2].address]
    ))
    exchange = native_address_for("exchange")
    kind = draw(st.sampled_from([
        "transfer", "transfer", "below-intrinsic", "oversized", "trade",
        "trade-revert", "trade-out-of-gas", "ride", "ticket", "open-match",
        "missing-contract", "malformed-arity",
        "malformed-args", "malformed-certificate",
    ]))
    gas = {"gas_price": price}
    if kind == "transfer":
        tx = make_transfer(kp, receiver, amount, nonce, **gas)
    elif kind == "below-intrinsic":
        tx = make_transfer(kp, receiver, amount, nonce, padding=100, gas_limit=21_100, **gas)
    elif kind == "oversized":
        tx = make_transfer(
            kp, receiver, amount, nonce, padding=params.MAX_TX_SIZE, gas_price=0,
            gas_limit=30_000_000,
        )
    elif kind.startswith("trade"):
        price_cents = -5 if kind == "trade-revert" else 15_000
        limit = 25_000 if kind == "trade-out-of-gas" else 200_000
        tx = make_invoke(kp, exchange, "trade", ("AAPL", price_cents, 3, "buy"), nonce,
                         amount=amount, gas_limit=limit, **gas)
    elif kind == "ride":
        tx = make_invoke(kp, native_address_for("mobility"), "request_ride", (1, 2, 700),
                         nonce, amount=amount, gas_limit=150_000, **gas)
    elif kind == "ticket":
        tx = make_invoke(kp, native_address_for("ticketing"), "buy_ticket", (1, 1),
                         nonce, amount=amount, **gas)
    elif kind == "open-match":
        tx = make_invoke(kp, native_address_for("ticketing"), "open_match", (1, 2),
                         nonce, amount=amount, **gas)
    elif kind == "missing-contract":
        tx = make_invoke(kp, "00" * 20, "f", (), nonce, amount=amount, **gas)
    elif kind == "malformed-arity":
        tx = make_invoke(kp, exchange, "trade", ("AAPL",), nonce, amount=amount, **gas)
    elif kind == "malformed-args":
        tx = signed_by(Transaction(
            tx_type=TxType.INVOKE, sender=kp.address, receiver=exchange,
            amount=amount, nonce=nonce, gas_limit=200_000, gas_price=price,
            payload={"contract": exchange, "function": "trade", "args": 5},
        ), kp)
    else:
        tx = make_invoke(kp, RPM_ADDRESS, "prop_received",
                         (("zz",) * 4, "00" * 32, 1, 0, 1), nonce,
                         amount=amount, gas_limit=2_000_000, **gas)
    tamper = draw(st.sampled_from([None] * 6 + ["unsigned", "forged"]))
    if tamper is not None:
        other = CLIENTS[(CLIENTS.index(kp) + 1) % len(CLIENTS)]
        tx = Transaction(
            tx_type=tx.tx_type,
            sender=other.address if tamper == "forged" else tx.sender,
            receiver=tx.receiver, amount=tx.amount, nonce=tx.nonce,
            gas_limit=tx.gas_limit, gas_price=tx.gas_price, payload=tx.payload,
            public_key=tx.public_key if tamper == "forged" else None,
            signature=tx.signature if tamper == "forged" else None,
            padding=tx.padding,
        )
    return tx


class TestFusedExecutorMatchesTheStepByStepSequence:
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.data())
    def test_receipts_roots_and_batch_revert(self, data):
        """Same receipts, field for field and in the same order, and the
        same state root after every transaction; one ``revert`` of the
        whole batch restores the genesis root."""
        registry = _registry()
        state, reference = _genesis(), _genesis()
        genesis_root = state.state_root()
        executor = Executor(state, registry=registry)
        snap = state.snapshot()
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            tx = _draw_transaction(data, reference)
            coinbase = data.draw(st.sampled_from(
                ["", COINBASE, tx.sender, CLIENTS[1].address]
            ))
            expected = reference_execute(reference, registry, tx, coinbase)
            got = executor.execute(tx, coinbase=coinbase)
            assert got._asdict() == expected._asdict()
            assert type(got) is Receipt
            assert state.state_root() == reference.state_root()
        state.revert(snap)
        assert state.state_root() == genesis_root


class TestGasPins:
    """``gas_used`` of one call of each native contract, as the executor
    before the fused write path and the method table measured it."""

    def test_native_call_gas(self):
        members = [generate_keypair(100 + i) for i in range(4)]
        state = WorldState()
        for kp in members:
            state.create_account(kp.address, FUNDS)
        for name in ("exchange", "mobility", "ticketing", "rpm"):
            install_native(state, name)
        seed_genesis(state, tuple(kp.address for kp in members), 1_000_000)
        state.commit()
        executor = Executor(state, registry=_registry())
        kp = members[0]
        block = make_block(
            members[1], 1, 1, [make_transfer(members[2], members[3].address, 1, 0)]
        )
        calls = [
            ("trade", make_invoke(
                kp, native_address_for("exchange"), "trade",
                ("AAPL", 15000, 10, "buy"), 0)),
            ("request_ride", make_invoke(
                kp, native_address_for("mobility"), "request_ride", (12, 34, 800), 1,
                amount=800, gas_limit=150_000)),
            ("open_match", make_invoke(
                kp, native_address_for("ticketing"), "open_match", (7,), 2)),
            ("buy_ticket", make_invoke(
                kp, native_address_for("ticketing"), "buy_ticket", (7, 2), 3, amount=2)),
            ("prop_received", make_invoke(
                kp, RPM_ADDRESS, "prop_received", certificate_payload(block) + (1, 1), 4,
                gas_limit=2_000_000)),
        ]
        gas = {}
        for name, tx in calls:
            receipt = executor.execute(tx)
            assert receipt.success, (name, receipt)
            gas[name] = receipt.gas_used
        assert gas == {
            "trade": 38_356,
            "request_ride": 38_260,
            "open_match": 32_884,
            "buy_ticket": 33_216,
            "prop_received": 38_784,
        }


class TestTelemetryParity:
    """The executor's and the signature verdict's counters, booked by an
    enabled registry over one mixed superblock, against the receipts."""

    def test_counters_match_the_receipts(self, keypair, keypair2):
        state = WorldState()
        for kp in (keypair, keypair2):
            state.create_account(kp.address, FUNDS)
        for name in ("exchange", "mobility", "ticketing"):
            install_native(state, name)
        state.commit()
        chain = Blockchain(state=state)
        chain.executor.registry = _registry()
        exchange = native_address_for("exchange")
        unsigned = Transaction(
            tx_type=TxType.TRANSFER, sender=keypair2.address, receiver="aa" * 20,
            amount=1, nonce=0, gas_limit=21_000, gas_price=1,
        )
        txs = [
            make_transfer(keypair, "aa" * 20, 5, nonce=0),
            make_invoke(keypair, exchange, "trade", ("AAPL", 100, 2, "buy"), nonce=1),
            make_invoke(keypair, exchange, "trade", ("AAPL", -1, 2, "buy"), nonce=2),
            make_transfer(keypair, "aa" * 20, 5, nonce=7),  # bad-nonce
            unsigned,  # invalid-sig, before any signature check
            make_invoke(keypair, native_address_for("mobility"), "request_ride",
                        (1, 2, 900), nonce=2, amount=900, gas_limit=150_000),
            make_transfer(keypair2, "bb" * 20, 1, nonce=0, padding=100,
                          gas_limit=21_100),  # out-of-gas (intrinsic)
        ]
        for tx in txs[:2]:  # verdicts already kept, as eager validation leaves them
            assert check_signature(tx)
        superblock = SuperBlock(index=1, blocks=(make_block(keypair2, 0, 1, txs),))
        with telemetry.use_registry() as reg:
            result = chain.commit_superblock(superblock)
            samples = telemetry.parse_prometheus(telemetry.to_prometheus(reg))
        receipts = [r for rs in result.appended_receipts for r in rs]
        errors = [error for _, error in result.discarded]
        assert errors == ["revert", "bad-nonce", "invalid-sig", "out-of-gas"]
        assert samples[("srbb_vm_txs_executed_total", (("status", "ok"),))] == len(receipts) == 3
        assert samples[("srbb_vm_txs_executed_total", (("status", "failed"),))] == 4
        for code in set(errors):
            assert samples[("srbb_vm_tx_failures_total", (("error", code),))] == errors.count(code)
        assert samples[("srbb_vm_gas_used_total", ())] == sum(r.gas_used for r in receipts)
        # each signed transaction past lazy validation is checked once:
        # the two kept verdicts hit; the reverting trade, the ride and the
        # out-of-gas transfer miss (the unsigned one is refused before)
        assert samples[("srbb_sig_cache_hits_total", ())] == 2
        assert samples[("srbb_sig_cache_misses_total", ())] == 3
