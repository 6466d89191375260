"""Native DApp contracts: exchange (NASDAQ), mobility (Uber), ticketing (FIFA)."""

import pytest

from repro.errors import VMRevert
from repro.vm.contracts import ExchangeContract, MobilityContract, TicketingContract
from repro.vm.contracts.base import GasMeter, NativeContract, NativeRegistry, method
from repro.vm.state import WorldState

GAS = 10_000_000


def call(contract, state, fn, *args, caller="11" * 20, value=0, address="cc" * 20):
    state.get_or_create(address)
    result, gas = contract.call(state, address, caller, fn, args, value, GAS)
    return result


@pytest.fixture
def state():
    ws = WorldState()
    ws.create_account("11" * 20, 10**9)
    return ws


class TestExchange:
    def test_trade_updates_price_volume_position(self, state):
        ex = ExchangeContract()
        assert call(ex, state, "trade", "AAPL", 15000, 10, "buy") == 10
        assert call(ex, state, "trade", "AAPL", 15100, 5, "sell") == 15
        assert call(ex, state, "last_price", "AAPL") == 15100
        assert call(ex, state, "volume", "AAPL") == 15
        assert call(ex, state, "position", "11" * 20, "AAPL") == 5  # 10 - 5

    def test_trade_rejects_nonpositive(self, state):
        ex = ExchangeContract()
        with pytest.raises(VMRevert):
            call(ex, state, "trade", "AAPL", 0, 10)
        with pytest.raises(VMRevert):
            call(ex, state, "trade", "AAPL", 100, -1)

    def test_trade_rejects_bad_side(self, state):
        with pytest.raises(VMRevert):
            call(ExchangeContract(), state, "trade", "AAPL", 100, 1, "hold")

    def test_unknown_method_reverts(self, state):
        with pytest.raises(VMRevert):
            call(ExchangeContract(), state, "rug_pull")

    def test_symbols_independent(self, state):
        ex = ExchangeContract()
        call(ex, state, "trade", "AAPL", 100, 1, "buy")
        assert call(ex, state, "volume", "GOOG") == 0


class TestMobility:
    def test_ride_lifecycle(self, state):
        mob = MobilityContract()
        contract_addr = "cc" * 20
        state.create_account(contract_addr, 10_000)
        ride = call(mob, state, "request_ride", 5, 9, 1200, value=1200)
        assert call(mob, state, "ride_state", ride) == "open"
        driver = "dd" * 20
        call(mob, state, "accept_ride", ride, caller=driver)
        assert call(mob, state, "ride_state", ride) == "accepted"
        fare = call(mob, state, "complete_ride", ride, caller=driver)
        assert fare == 1200
        assert call(mob, state, "ride_state", ride) == "completed"
        assert state.balance_of(driver) == 1200

    def test_underfunded_escrow_reverts(self, state):
        with pytest.raises(VMRevert):
            call(MobilityContract(), state, "request_ride", 1, 2, 500, value=10)

    def test_zone_demand_counts(self, state):
        mob = MobilityContract()
        contract_addr = "cc" * 20
        state.create_account(contract_addr, 10_000)
        call(mob, state, "request_ride", 7, 1, 100, value=100)
        call(mob, state, "request_ride", 7, 2, 100, value=100)
        assert call(mob, state, "zone_demand", 7) == 2
        assert call(mob, state, "zone_demand", 8) == 0

    def test_accept_twice_reverts(self, state):
        mob = MobilityContract()
        state.create_account("cc" * 20, 10_000)
        ride = call(mob, state, "request_ride", 1, 2, 100, value=100)
        call(mob, state, "accept_ride", ride, caller="dd" * 20)
        with pytest.raises(VMRevert):
            call(mob, state, "accept_ride", ride, caller="ee" * 20)

    def test_stranger_cannot_complete(self, state):
        mob = MobilityContract()
        state.create_account("cc" * 20, 10_000)
        ride = call(mob, state, "request_ride", 1, 2, 100, value=100)
        call(mob, state, "accept_ride", ride, caller="dd" * 20)
        with pytest.raises(VMRevert):
            call(mob, state, "complete_ride", ride, caller="99" * 20)

    def test_missing_ride_reverts(self, state):
        with pytest.raises(VMRevert):
            call(MobilityContract(), state, "ride_state", 404)


class TestTicketing:
    def test_buy_until_sold_out(self, state):
        tick = TicketingContract()
        call(tick, state, "open_match", 1, 3, 10)
        call(tick, state, "buy_ticket", 1, 2, value=20)
        call(tick, state, "buy_ticket", 1, 1, value=10)
        assert call(tick, state, "sold", 1) == 3
        with pytest.raises(VMRevert, match="sold out"):
            call(tick, state, "buy_ticket", 1, 1, value=10)

    def test_underpaid_reverts(self, state):
        tick = TicketingContract()
        call(tick, state, "open_match", 1, 100, 10)
        with pytest.raises(VMRevert, match="underpaid"):
            call(tick, state, "buy_ticket", 1, 2, value=5)

    def test_tickets_of_tracks_holder(self, state):
        tick = TicketingContract()
        call(tick, state, "open_match", 2, 100, 1)
        call(tick, state, "buy_ticket", 2, 4, value=4)
        assert call(tick, state, "tickets_of", "11" * 20, 2) == 4
        assert call(tick, state, "tickets_of", "22" * 20, 2) == 0

    def test_unknown_match_reverts(self, state):
        with pytest.raises(VMRevert):
            call(TicketingContract(), state, "buy_ticket", 99, 1, value=1)

    def test_bad_match_params_revert(self, state):
        with pytest.raises(VMRevert):
            call(TicketingContract(), state, "open_match", 1, 0, 1)


class TestFramework:
    def test_registry_lookup(self):
        reg = NativeRegistry()
        ex = reg.register(ExchangeContract())
        assert reg.get("exchange") is ex
        assert "exchange" in reg
        from repro.errors import ContractNotFound

        with pytest.raises(ContractNotFound):
            reg.get("nope")

    def test_unnamed_contract_rejected(self):
        class Anon(NativeContract):
            pass

        with pytest.raises(ValueError):
            NativeRegistry().register(Anon())

    def test_gas_metering_charges_storage(self, state):
        ex = ExchangeContract()
        state.get_or_create("cc" * 20)
        _, gas = ex.call(state, "cc" * 20, "11" * 20, "trade", ("AAPL", 1, 1, "buy"), 0, GAS)
        # 3 SSTOREs (5000) + several SLOADs (100) + dispatch (700)
        assert gas > 3 * 5000

    def test_out_of_gas_in_meter(self):
        from repro.errors import OutOfGas

        meter = GasMeter(10)
        with pytest.raises(OutOfGas):
            meter.charge(11)

    def test_non_method_attribute_not_callable(self, state):
        ex = ExchangeContract()
        with pytest.raises(VMRevert):
            # `name` exists as an attribute but is not @method-decorated
            ex.call(state, "cc" * 20, "11" * 20, "name", (), 0, GAS)


class TestMethodTable:
    """``__init_subclass__`` builds each class's ``@method`` table once;
    dispatch is one lookup in it."""

    @pytest.mark.parametrize("name", ["call", "name", "__init__", "_methods", "nope"])
    def test_only_method_names_dispatch(self, state, name):
        with pytest.raises(VMRevert, match="no such method"):
            ExchangeContract().call(state, "cc" * 20, "11" * 20, name, (), 0, GAS)

    def test_inherited_method_dispatches_and_an_override_hides_it(self, state):
        class Base(NativeContract):
            name = "base"

            @method
            def echo(self, storage, info, x):
                return ("base", x)

            @method
            def hidden(self, storage, info):
                return "reachable"

        class Child(Base):
            name = "child"

            hidden = None  # not a method any more

            @method
            def own(self, storage, info):
                return info.caller

        child = Child()
        assert call(child, state, "echo", 5) == ("base", 5)
        assert call(child, state, "own") == "11" * 20
        assert call(Base(), state, "hidden") == "reachable"
        with pytest.raises(VMRevert, match="no such method"):
            call(child, state, "hidden")
        assert set(Child._methods) == {"echo", "own"}

    def test_dispatch_charge_comes_before_the_lookup(self, state):
        from repro.errors import OutOfGas
        from repro.vm.gas import G_NATIVE_CALL

        with pytest.raises(OutOfGas):
            ExchangeContract().call(
                state, "cc" * 20, "11" * 20, "nope", (), 0, G_NATIVE_CALL - 1
            )
