"""The SRBB execution layer: state, executor and native contracts.

World state (accounts, nonces, balances, per-contract storage), a
transaction executor implementing ``ApplyTransaction`` semantics (Alg. 1
line 36), and a gas-metered native contract framework hosting the DApp
workload contracts and the RPM / committee-reconfiguration system
contracts.  Every contract is native and installed at genesis; contract
deployment is not modelled.
"""

from repro.vm.state import Account, WorldState
from repro.vm.executor import Executor, Receipt
from repro.vm.gas import intrinsic_gas

__all__ = [
    "Account",
    "Executor",
    "Receipt",
    "WorldState",
    "intrinsic_gas",
]
