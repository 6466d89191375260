"""Gas schedule of the execution layer.

Costs follow the EVM's relative ordering (storage writes ≫ storage reads)
so workloads exhibit realistic execution-cost distributions.  A native
contract pays a flat call charge plus the storage and balance prices
below, metered by :class:`~repro.vm.contracts.base.MeteredState`.
"""

from __future__ import annotations

#: Intrinsic cost charged before executing any transaction (EVM: 21000).
G_TX = 21_000
#: Extra intrinsic cost per payload byte (EVM non-zero calldata byte: 16).
G_TXDATA_BYTE = 16
#: Storage read (EVM warm SLOAD: 100).
G_SLOAD = 100
#: Storage write (EVM SSTORE to a non-zero slot: 5000).
G_SSTORE = 5_000
#: Balance read (EVM warm BALANCE: 100).
G_BALANCE = 100
#: Value transfer from inside a call (EVM CALL with value: 9000).
G_TRANSFER = 9_000

#: Flat charge for a native-contract call, plus per-op costs metered inside.
G_NATIVE_CALL = 700


def intrinsic_gas(payload_bytes: int) -> int:
    """Intrinsic gas for a transaction with ``payload_bytes`` of data."""
    return G_TX + payload_bytes * G_TXDATA_BYTE
