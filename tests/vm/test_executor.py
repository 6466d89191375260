"""Executor: ApplyTransaction semantics, rollback, gas, receipts."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import params
from repro.core.transaction import Transaction, TxType, make_deploy, make_invoke, make_transfer
from repro.crypto.keys import generate_keypair
from repro.errors import VMError
from repro.vm.executor import (
    Executor,
    contract_address_for,
    install_native,
    native_address_for,
)
from repro.vm.opcodes import Op, assemble
from repro.vm.state import WorldState

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


class TestDeployAndInvoke:
    def test_deploy_creates_contract(self, executor, keypair):
        code = assemble([(Op.PUSH, 42), Op.RETURN])
        tx = make_deploy(keypair, code, nonce=0)
        receipt = executor.execute(tx)
        assert receipt.success
        address = receipt.contract_address
        assert address == contract_address_for(keypair.address, 0)
        assert executor.state.get_account(address).code == code

    def test_deploy_keeps_value_already_sent_to_its_address(self, executor, keypair):
        """Funds sent to a contract's address before it is deployed there
        stay with the contract: total supply is conserved."""
        state, coinbase = executor.state, "f" * 40
        target = contract_address_for(keypair.address, 1)
        holders = (keypair.address, target, coinbase)
        supply = sum(state.balance_of(a) for a in holders)
        assert executor.execute(
            make_transfer(keypair, target, 40, nonce=0), coinbase=coinbase
        ).success
        deploy = make_deploy(keypair, assemble([Op.STOP]), nonce=1)
        receipt = executor.execute(deploy, coinbase=coinbase)
        assert receipt.success
        assert receipt.contract_address == target
        assert state.balance_of(target) == 40
        assert sum(state.balance_of(a) for a in holders) == supply

    @pytest.mark.parametrize("existing", [{"code": b"\x00"}, {"native": "exchange"}])
    def test_deploy_onto_a_contract_reverts(self, executor, keypair, existing):
        state = executor.state
        target = contract_address_for(keypair.address, 0)
        state.create_account(target, 7, **existing)
        state.commit()
        root = state.state_root()
        receipt = executor.execute(make_deploy(keypair, assemble([Op.STOP]), nonce=0))
        assert not receipt.success
        assert receipt.error == VMError.code
        assert state.state_root() == root
        account = state.get_account(target)
        assert (account.code, account.native) == (
            existing.get("code"), existing.get("native")
        )

    def test_invoke_deployed_bytecode(self, executor, keypair):
        code = assemble([(Op.PUSH, 0), Op.CALLDATALOAD, (Op.PUSH, 1), Op.ADD, Op.RETURN])
        deploy = make_deploy(keypair, code, nonce=0)
        address = executor.execute(deploy).contract_address
        call = make_invoke(keypair, address, "", (41,), nonce=1)
        receipt = executor.execute(call)
        assert receipt.success
        assert receipt.return_value == 42

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
        code = assemble([(Op.PUSH, 1), (Op.PUSH, 1), Op.SSTORE, Op.ADD])  # underflow after write
        deploy = make_deploy(keypair, code, nonce=0)
        address = executor.execute(deploy).contract_address
        call = make_invoke(keypair, address, "", (), nonce=1)
        receipt = executor.execute(call)
        assert not receipt.success
        assert executor.state.storage_get(address, "1") is None


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
    assert state.get_account(addr).native == "exchange"


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
