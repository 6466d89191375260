"""Gas schedule units."""

from repro.vm.gas import (
    G_BALANCE,
    G_NATIVE_CALL,
    G_SLOAD,
    G_SSTORE,
    G_TRANSFER,
    G_TX,
    G_TXDATA_BYTE,
    intrinsic_gas,
)


class TestIntrinsicGas:
    def test_bare_transaction(self):
        assert intrinsic_gas(0) == G_TX == 21_000

    def test_per_byte(self):
        assert intrinsic_gas(100) == G_TX + 100 * G_TXDATA_BYTE


class TestGasTable:
    def test_the_prices_natives_charge(self):
        """The four metered prices and the flat call charge, pinned: every
        recorded ``gas_used`` and state root rests on them."""
        assert (G_SLOAD, G_SSTORE, G_BALANCE, G_TRANSFER) == (100, 5_000, 100, 9_000)
        assert G_NATIVE_CALL == 700

    def test_cost_ordering(self):
        """EVM-like relative ordering: storage writes ≫ reads."""
        assert G_SSTORE > G_SLOAD
