"""Transaction executor — ``ApplyTransaction`` (Alg. 1 line 36).

The executor realizes the paper's execution semantics:

* ``execute(t)`` first lazy-validates (nonce, gas affordability, balance —
  checks iii–v of §IV-D), then attempts to apply the transaction.
* Execution-time checks cover signature and size (checks i–ii), mirroring
  Geth raising ``ErrInvalidSig`` / overflow exceptions at execution.
* A failure leaves the state as it was: an invalid transaction "has no
  impact on the blockchain state" and is discarded from its block by the
  commit loop.  Every check runs before the first write; only a contract
  call can fail after it, and it runs under a snapshot that the failure
  reverts.
* On success: nonce bump, value transfer / contract call, gas fee paid to
  the block proposer (coinbase).

Every contract is a native one, installed at genesis
(:func:`install_native`); contract deployment is not modelled.

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
)
from repro.vm.contracts.base import NativeRegistry, native_registry
from repro.vm.state import WorldState


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
    transaction on every node, positionally.
    """

    tx_hash: bytes
    success: bool
    gas_used: int = 0
    error: str | None = None
    return_value: Any = None


#: ``Receipt`` from all five fields, without the Python frame of the
#: NamedTuple's generated ``__new__``: every node builds one per
#: committed transaction
_receipt = partial(tuple.__new__, Receipt)


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
        after them; a call runs under a snapshot and a failure reverts
        everything it wrote.
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
            return _receipt((tx.tx_hash, True, base_gas, None, None))

        snap = state.snapshot()
        try:
            # Buy the whole gas budget up front; the unused part is
            # refunded once the call has run.
            state.spend(sender, fee_cap + tx.amount)
            return_value, used = self._invoke(tx, tx.gas_limit - base_gas)
        except ReproError as exc:
            state.revert(snap)
            return Receipt(tx.tx_hash, False, 0, getattr(exc, "code", "error"))
        gas_used = base_gas + used
        state.add_balance(sender, (tx.gas_limit - gas_used) * price)
        if coinbase:
            state.add_balance(coinbase, gas_used * price)
        return _receipt((tx.tx_hash, True, gas_used, None, return_value))

    def _invoke(self, tx: Transaction, exec_gas: int) -> tuple[Any, int]:
        """Send ``tx``'s value to its target and run the call there;
        returns (return value, gas used beyond intrinsic)."""
        state = self.state
        target = tx.payload.get("contract", tx.receiver)
        if not isinstance(target, str):
            raise VMError(f"call target {target!r} is not an address")
        if tx.amount:
            state.add_balance(target, tx.amount)
        account = state.accounts.get(target)
        if account is None or account.native is None:
            raise VMError(f"call target {target!r} is not a contract")
        return self.registry.get(account.native).call(
            state,
            target,
            tx.sender,
            str(tx.payload.get("function", "")),
            tx.payload.get("args", ()),
            tx.amount,
            exec_gas,
        )


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
_TRANSFER = TxType.TRANSFER
