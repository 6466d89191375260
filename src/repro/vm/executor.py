"""Transaction executor — ``ApplyTransaction`` (Alg. 1 line 36).

The executor realizes the paper's execution semantics:

* ``execute(t)`` first lazy-validates (nonce, gas affordability, balance —
  checks iii–v of §IV-D), then attempts to apply the transaction.
* Execution-time checks cover signature and size (checks i–ii), mirroring
  Geth raising ``ErrInvalidSig`` / overflow exceptions at execution.
* A failure leaves the state as it was: an invalid transaction "has no
  impact on the blockchain state" and is discarded from its block by the
  commit loop.  Every check runs before the first write; only a
  deployment or a contract call can fail after it, and those run under a
  snapshot that the failure reverts.
* On success: nonce bump, value transfer / contract call, gas fee paid to
  the block proposer (coinbase).

Every validator executes every decided transaction, so the transfer path
is kept to one frame here plus the state's writers: one debit-and-bump of
the sender, one credit each to the receiver and the coinbase.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Any, NamedTuple

from repro import params, telemetry
from repro.crypto.hashing import hash_items
from repro.errors import (
    InsufficientBalance,
    InvalidSignature,
    OutOfGas,
    OversizedTransaction,
    ReproError,
    VMError,
    VMRevert,
)
from repro.vm.contracts.base import NativeRegistry, native_registry
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


class Receipt(NamedTuple):
    """Execution outcome of one transaction.

    A tuple: nothing mutates a receipt, and it is built once per executed
    transaction on every node, positionally.  ``logs`` is always a tuple,
    so :class:`~repro.core.receipts.ReceiptStore` stores the fields as
    they are.
    """

    tx_hash: bytes
    success: bool
    gas_used: int = 0
    error: str | None = None
    return_value: Any = None
    contract_address: str | None = None
    logs: tuple = ()


#: ``Receipt`` from all seven fields, without the Python frame of the
#: NamedTuple's generated ``__new__``: every node builds one per
#: committed transaction
_receipt = partial(tuple.__new__, Receipt)


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
        if outcome.ok:
            receipt = self.apply_transaction(tx, coinbase=coinbase)
        else:
            receipt = Receipt(tx.tx_hash, False, 0, outcome.error_code)
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
        """Check (i) signature and (ii) size, buy gas, apply ``tx``.

        Never raises, and every write is journaled.  The checks, intrinsic
        gas and the balance test come before the first write, so they
        return their failed receipt as they are.  A transfer cannot fail
        after them; a deployment or a call runs under a snapshot and a
        failure reverts everything it wrote.
        """
        # Execution-time checks (i) signature and (ii) size — §IV-D.
        # A positive ``check_signature`` verdict stays on the transaction,
        # so one already eagerly validated skips the recovery here.
        if not check_signature(tx):
            return Receipt(tx.tx_hash, False, 0, InvalidSignature.code)
        if tx.encoded_size() > self.protocol.max_tx_size:
            return Receipt(tx.tx_hash, False, 0, OversizedTransaction.code)
        base_gas = tx.intrinsic_gas()
        if base_gas > tx.gas_limit:
            return Receipt(tx.tx_hash, False, 0, OutOfGas.code)
        state, sender, price = self.state, tx.sender, tx.gas_price
        fee_cap = tx.gas_limit * price
        account = state.accounts.get(sender)
        if (0 if account is None else account.balance) < fee_cap + tx.amount:
            return Receipt(tx.tx_hash, False, 0, InsufficientBalance.code)

        if tx.tx_type is _TRANSFER:
            # Gas is exactly ``base_gas``: debit value and fee at once.
            fee = base_gas * price
            state.spend(sender, tx.amount + fee)
            state.add_balance(tx.receiver, tx.amount)
            if coinbase:
                state.add_balance(coinbase, fee)
            return _receipt((tx.tx_hash, True, base_gas, None, None, None, ()))

        snap = state.snapshot()
        try:
            # Buy the whole gas budget up front; the unused part is
            # refunded once the code has run.
            state.spend(sender, fee_cap + tx.amount)
            if tx.tx_type is _DEPLOY:
                gas_used, return_value, logs = base_gas, None, ()
                contract_address = self._deploy(tx)
            else:
                used, return_value, logs = self._invoke(tx, tx.gas_limit - base_gas)
                gas_used, contract_address = base_gas + used, None
        except ReproError as exc:
            state.revert(snap)
            return Receipt(tx.tx_hash, False, 0, getattr(exc, "code", "error"))
        state.add_balance(sender, (tx.gas_limit - gas_used) * price)
        if coinbase:
            state.add_balance(coinbase, gas_used * price)
        return _receipt(
            (tx.tx_hash, True, gas_used, None, return_value, contract_address, logs)
        )

    def _deploy(self, tx: Transaction) -> str:
        """Install ``tx``'s bytecode at its contract address, with its value."""
        state = self.state
        address = contract_address_for(tx.sender, tx.nonce)
        bytecode = tx.payload.get("bytecode", b"")
        if not isinstance(bytecode, bytes):
            raise VMError("deploy payload must carry bytecode")
        existing = state.accounts.get(address)
        if existing is not None and existing.is_contract:
            raise VMError(f"deploy target {address!r} holds a contract")
        state.create_account(address, code=bytecode)
        if tx.amount:
            state.add_balance(address, tx.amount)
        return address

    def _invoke(self, tx: Transaction, exec_gas: int) -> tuple[int, Any, tuple]:
        """Send ``tx``'s value to its target and run the call there;
        returns (gas used beyond intrinsic, return value, logs)."""
        state = self.state
        target = tx.payload.get("contract", tx.receiver)
        if not isinstance(target, str):
            raise VMError(f"call target {target!r} is not an address")
        if tx.amount:
            state.add_balance(target, tx.amount)
        account = state.accounts.get(target)
        if account is None or not account.is_contract:
            raise VMError(f"call target {target!r} is not a contract")
        args = tx.payload.get("args", ())
        if account.native is not None:
            return_value, used = self.registry.get(account.native).call(
                state,
                target,
                tx.sender,
                str(tx.payload.get("function", "")),
                args,
                tx.amount,
                exec_gas,
            )
            return used, return_value, ()
        try:
            calldata = tuple(a for a in args if isinstance(a, int))
        except TypeError as exc:
            raise VMRevert(f"call arguments {args!r} are not a sequence") from exc
        context = CallContext(
            address=target, caller=tx.sender, value=tx.amount, calldata=calldata
        )
        result = self.svm.execute(account.code or b"", context, exec_gas)
        return result.gas_used, result.return_value, tuple(result.logs)


# Bound once, after ``Executor`` and ``Receipt`` exist, not per call:
# repro.core.blockchain imports this module, so when the import starts
# here (vm first) these lines load repro.core, which finds both names
# already defined; when it starts in repro.core, the modules named here
# are loaded before repro.core.blockchain asks for this one.
from repro.core.transaction import Transaction, TxType  # noqa: E402
from repro.core.validation import check_signature, lazy_validate  # noqa: E402

# A member read off an Enum class goes through ``EnumType``'s attribute
# hook, about four times the cost of a module global; every execution
# tests its transaction's type.
_TRANSFER, _DEPLOY = TxType.TRANSFER, TxType.DEPLOY
