"""Transaction executor — ``ApplyTransaction`` (Alg. 1 line 36).

The executor realizes the paper's execution semantics:

* ``execute(t)`` first lazy-validates (nonce, gas affordability, balance —
  checks iii–v of §IV-D), then attempts to apply the transaction.
* Execution-time checks cover signature and size (checks i–ii), mirroring
  Geth raising ``ErrInvalidSig`` / overflow exceptions at execution.
* Any failure reverts the state snapshot completely: an invalid transaction
  "has no impact on the blockchain state" and is discarded from its block
  by the commit loop.
* On success: nonce bump, value transfer / contract call, gas fee paid to
  the block proposer (coinbase).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

from repro import params, telemetry
from repro.crypto.hashing import hash_items
from repro.errors import (
    InsufficientBalance,
    InsufficientGas,
    InvalidSignature,
    OutOfGas,
    OversizedTransaction,
    ReproError,
    VMError,
    ValidationError,
)
from repro.vm.contracts.base import NativeRegistry, native_registry
from repro.vm.gas import intrinsic_gas
from repro.vm.state import WorldState
from repro.vm.svm import SVM, CallContext


def _build_metrics(reg: telemetry.MetricsRegistry) -> SimpleNamespace:
    executed = reg.counter(
        "srbb_vm_txs_executed_total", "transactions executed, by outcome"
    )
    return SimpleNamespace(
        ok=executed.labels(status="ok"),
        failed=executed.labels(status="failed"),
        failures=reg.counter(
            "srbb_vm_tx_failures_total", "failed executions, by error code"
        ),
        gas=reg.counter("srbb_vm_gas_used_total", "gas consumed by successful txs"),
    )


_metrics = telemetry.bind(_build_metrics)


@dataclass
class Receipt:
    """Execution outcome of one transaction."""

    tx_hash: bytes
    success: bool
    gas_used: int = 0
    error: str | None = None
    return_value: Any = None
    contract_address: str | None = None
    logs: tuple = ()


def contract_address_for(sender: str, nonce: int) -> str:
    """Deterministic deployed-contract address (Ethereum-style)."""
    return hash_items(["create", sender, nonce])[-20:].hex()


def native_address_for(name: str) -> str:
    """Well-known address of a native contract."""
    return hash_items(["native", name])[-20:].hex()


def install_native(state: WorldState, name: str) -> str:
    """Create the account hosting native contract ``name``; returns address."""
    address = native_address_for(name)
    state.create_account(address, native=name)
    return address


class Executor:
    """Applies transactions to a :class:`WorldState`."""

    def __init__(
        self,
        state: WorldState,
        *,
        registry: NativeRegistry | None = None,
        protocol: params.ProtocolParams | None = None,
    ):
        self.state = state
        self.registry = registry if registry is not None else native_registry
        self.protocol = protocol or params.ProtocolParams()
        self.svm = SVM(state)

    # -- Alg. 1 execute(t) ---------------------------------------------------

    def execute(self, tx: Transaction, *, coinbase: str = "") -> Receipt:
        """Lazy-validate then apply; never raises, returns a Receipt.

        A failed receipt implies zero state transition (full rollback).
        """
        outcome = lazy_validate(tx, self.state)
        if not outcome.ok:
            receipt = Receipt(
                tx_hash=tx.tx_hash, success=False, error=outcome.error_code
            )
        else:
            receipt = self.apply_transaction(tx, coinbase=coinbase)
        if telemetry.get_registry().enabled:
            m = _metrics()
            if receipt.success:
                m.ok.inc()
                m.gas.inc(receipt.gas_used)
            else:
                m.failed.inc()
                m.failures.labels(error=receipt.error or "unknown").inc()
        return receipt

    # -- ApplyTransaction ------------------------------------------------------

    def apply_transaction(self, tx: Transaction, *, coinbase: str = "") -> Receipt:
        """Apply ``tx`` on the current state; rollback-on-error."""
        snap = self.state.snapshot()
        try:
            return self._apply(tx, coinbase)
        except ReproError as exc:
            self.state.revert(snap)
            code = getattr(exc, "code", "error")
            return Receipt(tx_hash=tx.tx_hash, success=False, error=code)

    def _apply(self, tx: "Transaction", coinbase: str) -> Receipt:
        # Execution-time checks (i) signature and (ii) size — §IV-D.
        # A positive ``check_signature`` verdict stays on the transaction,
        # so one already eagerly validated skips the recovery here.
        if tx.signature is None or tx.public_key is None:
            raise InvalidSignature("unsigned transaction")
        if not check_signature(tx):
            raise InvalidSignature("signature does not recover sender")
        if tx.encoded_size() > self.protocol.max_tx_size:
            raise OversizedTransaction(
                f"{tx.encoded_size()} bytes > limit {self.protocol.max_tx_size}"
            )

        sender = tx.sender
        is_create = tx.tx_type is TxType.DEPLOY
        base_gas = intrinsic_gas(tx.data_size(), is_create=is_create)
        if base_gas > tx.gas_limit:
            raise OutOfGas(f"intrinsic gas {base_gas} > limit {tx.gas_limit}")

        # Buy gas up front.
        fee_cap = tx.gas_limit * tx.gas_price
        if self.state.balance_of(sender) < fee_cap + tx.amount:
            raise InsufficientBalance(
                f"balance {self.state.balance_of(sender)} < cost {fee_cap + tx.amount}"
            )
        self.state.sub_balance(sender, fee_cap)
        self.state.bump_nonce(sender)

        gas_used = base_gas
        return_value: Any = None
        contract_address: str | None = None
        logs: tuple = ()
        exec_gas = tx.gas_limit - base_gas

        if tx.tx_type is TxType.TRANSFER:
            self.state.sub_balance(sender, tx.amount)
            self.state.add_balance(tx.receiver, tx.amount)
        elif tx.tx_type is TxType.DEPLOY:
            contract_address = contract_address_for(sender, tx.nonce)
            bytecode = tx.payload.get("bytecode", b"")
            if not isinstance(bytecode, bytes):
                raise VMError("deploy payload must carry bytecode")
            if (
                self.state.account_exists(contract_address)
                and self.state.get_account(contract_address).is_contract
            ):
                raise VMError(f"deploy target {contract_address!r} holds a contract")
            self.state.create_account(contract_address, code=bytecode)
            if tx.amount:
                self.state.sub_balance(sender, tx.amount)
                self.state.add_balance(contract_address, tx.amount)
        elif tx.tx_type is TxType.INVOKE:
            target = tx.payload.get("contract", tx.receiver)
            if tx.amount:
                self.state.sub_balance(sender, tx.amount)
                self.state.add_balance(target, tx.amount)
            account = (
                self.state.get_account(target)
                if self.state.account_exists(target)
                else None
            )
            if account is None or not account.is_contract:
                raise VMError(f"call target {target!r} is not a contract")
            if account.native is not None:
                contract = self.registry.get(account.native)
                return_value, used = contract.call(
                    self.state,
                    target,
                    sender,
                    str(tx.payload.get("function", "")),
                    tuple(tx.payload.get("args", ())),
                    tx.amount,
                    exec_gas,
                )
                gas_used += used
            else:
                context = CallContext(
                    address=target,
                    caller=sender,
                    value=tx.amount,
                    calldata=tuple(
                        a for a in tx.payload.get("args", ()) if isinstance(a, int)
                    ),
                )
                result = self.svm.execute(account.code or b"", context, exec_gas)
                gas_used += result.gas_used
                return_value = result.return_value
                logs = tuple(result.logs)
        else:  # pragma: no cover - exhaustive over TxType
            raise VMError(f"unknown tx type {tx.tx_type!r}")

        # Refund unused gas; pay the proposer.
        refund = (tx.gas_limit - gas_used) * tx.gas_price
        self.state.add_balance(sender, refund)
        if coinbase:
            self.state.add_balance(coinbase, gas_used * tx.gas_price)
        return Receipt(
            tx_hash=tx.tx_hash,
            success=True,
            gas_used=gas_used,
            return_value=return_value,
            contract_address=contract_address,
            logs=logs,
        )


# Bound once, after ``Executor`` and ``Receipt`` exist, not per call:
# repro.core.blockchain imports this module, so when the import starts
# here (vm first) these lines load repro.core, which finds both names
# already defined; when it starts in repro.core, the modules named here
# are loaded before repro.core.blockchain asks for this one.
from repro.core.transaction import Transaction, TxType  # noqa: E402
from repro.core.validation import check_signature, lazy_validate  # noqa: E402
