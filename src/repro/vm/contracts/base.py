"""Native contract framework.

A native contract exposes ``@method``-decorated functions.  Calls are gas
metered: a flat dispatch charge plus per-storage-access charges applied by
the :class:`MeteredState` the method gets (the EVM's SLOAD/SSTORE prices),
so a call burns gas in proportion to the storage work it does.

A method runs on call inputs that nothing validated: the transaction's
arguments reach it as they were signed.  A fault those inputs raise while
the method is bound or run is a revert of that call, never an exception
out of the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ContractNotFound, OutOfGas, VMRevert
from repro.vm.gas import G_BALANCE, G_NATIVE_CALL, G_SLOAD, G_SSTORE, G_TRANSFER
from repro.vm.state import WorldState

#: what malformed call inputs raise inside a method: wrong arity or type,
#: a bad literal (``bytes.fromhex``), a missing key or index, an overflow
_INPUT_FAULTS = (TypeError, ValueError, LookupError, ArithmeticError)


def method(fn: Callable) -> Callable:
    """Mark a contract function as externally callable."""
    fn.__native_method__ = True
    return fn


@dataclass(slots=True)
class CallInfo:
    """Call environment passed to native methods."""

    caller: str
    value: int
    contract: str


class GasMeter:
    """Mutable gas counter: ``charge`` raises :class:`OutOfGas` on overdraw."""

    __slots__ = ("limit", "remaining")

    def __init__(self, limit: int):
        self.limit = limit
        self.remaining = limit

    def charge(self, amount: int, what: str = "") -> None:
        if amount > self.remaining:
            raise OutOfGas(f"native call out of gas ({what or 'charge'})")
        self.remaining -= amount

    @property
    def used(self) -> int:
        return self.limit - self.remaining


class MeteredState(GasMeter):
    """Storage facade that is also the call's gas meter.

    Each accessor charges its cost before it touches the state.  ``get``
    and ``set``, which every contract method runs, charge inline: a
    storage access is one frame here plus the state's own.
    """

    __slots__ = ("_state", "_contract")

    def __init__(self, state: WorldState, contract: str, limit: int):
        self.limit = self.remaining = limit
        self._state = state
        self._contract = contract

    def get(self, key: str, default: Any = None) -> Any:
        if G_SLOAD > self.remaining:
            raise OutOfGas("native call out of gas (sload)")
        self.remaining -= G_SLOAD
        return self._state.storage_get(self._contract, key, default)

    def set(self, key: str, value: Any) -> None:
        if G_SSTORE > self.remaining:
            raise OutOfGas("native call out of gas (sstore)")
        self.remaining -= G_SSTORE
        self._state.storage_set(self._contract, key, value)

    def balance_of(self, address: str) -> int:
        self.charge(G_BALANCE, "balance")
        return self._state.balance_of(address)

    def transfer(self, frm: str, to: str, amount: int) -> None:
        self.charge(G_TRANSFER, "transfer")
        if self._state.balance_of(frm) < amount:
            raise VMRevert(f"transfer of {amount} exceeds balance of {frm!r}")
        self._state.sub_balance(frm, amount)
        self._state.add_balance(to, amount)


class NativeContract:
    """Base class: subclasses define ``name`` and @method functions."""

    #: registry key; subclasses must override
    name: str = ""
    #: ``@method`` functions by name, inherited ones included; built once
    #: per class by ``__init_subclass__``
    _methods: "dict[str, Callable]" = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Walk the MRO base-first, so a subclass's attribute of the same
        # name wins (and a non-method one hides an inherited method), as
        # attribute lookup on an instance would resolve it.
        methods: "dict[str, Callable]" = {}
        for klass in reversed(cls.__mro__):
            for attr, value in vars(klass).items():
                if getattr(value, "__native_method__", False):
                    methods[attr] = value
                else:
                    methods.pop(attr, None)
        cls._methods = methods

    def call(
        self,
        state: WorldState,
        contract_address: str,
        caller: str,
        function: str,
        args: tuple,
        value: int,
        gas_limit: int,
    ) -> tuple[Any, int]:
        """Dispatch ``function(*args)``; returns (result, gas_used).

        Raises VMError subclasses on failure; the executor reverts state.
        ``args`` is any iterable; one that cannot be bound to the method's
        parameters, or whose values make it fault, reverts the call with
        the fault as the ``VMRevert``'s cause.
        """
        storage = MeteredState(state, contract_address, gas_limit)
        storage.charge(G_NATIVE_CALL, "dispatch")
        fn = self._methods.get(function)
        if fn is None:
            raise VMRevert(f"{self.name}: no such method {function!r}")
        try:
            result = fn(self, storage, CallInfo(caller, value, contract_address), *args)
        except _INPUT_FAULTS as exc:
            raise VMRevert(f"{self.name}.{function}: {exc!r}") from exc
        return result, gas_limit - storage.remaining


class NativeRegistry:
    """Name → contract-singleton registry."""

    def __init__(self) -> None:
        self._contracts: dict[str, NativeContract] = {}

    def register(self, contract: NativeContract) -> NativeContract:
        if not contract.name:
            raise ValueError("native contract must define a name")
        self._contracts[contract.name] = contract
        return contract

    def get(self, name: str) -> NativeContract:
        try:
            return self._contracts[name]
        except KeyError:
            raise ContractNotFound(f"no native contract {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._contracts


#: Process-wide default registry; the executor uses it unless given another.
native_registry = NativeRegistry()
