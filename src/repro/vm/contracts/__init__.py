"""Native (built-in) contracts.

The DApp workloads of the paper (NASDAQ stock exchange, Uber mobility,
FIFA ticketing) execute contract calls; here they are hosted as *native
contracts* — Python classes with explicit gas metering that read and write
:class:`~repro.vm.state.WorldState` storage through its journal, so a
failed call rolls back completely.  They are installed at genesis; contract
deployment is not modelled.  System contracts (committee-reconfiguration
deposits, RPM) use the same framework.
"""

from repro.vm.contracts.base import NativeContract, NativeRegistry, native_registry
from repro.vm.contracts.exchange import ExchangeContract
from repro.vm.contracts.mobility import MobilityContract
from repro.vm.contracts.ticketing import TicketingContract

__all__ = [
    "ExchangeContract",
    "MobilityContract",
    "NativeContract",
    "NativeRegistry",
    "TicketingContract",
    "native_registry",
]
