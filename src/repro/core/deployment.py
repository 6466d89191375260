"""Deployment orchestration: wire validators, network and genesis together.

``Deployment`` is the message-level engine's top-level object: it builds
the simulator, the region topology, the shared genesis state (funded
accounts, native DApp contracts, the RPM contract pre-seeded with the
committee), and the validator set — a seat a fault schedule's
``byzantine_*`` window names is a campaign validator — then
drives client submissions and exposes cross-node correctness checks
(safety/liveness assertions used by the property tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import params
from repro.adversary.byzantine import CampaignValidator
from repro.core.node import ValidatorNode
from repro.core.rpm import RPMContract, seed_genesis
from repro.core.transaction import Transaction
from repro.crypto.keys import KeyPair, generate_keypair
from repro.faults import FaultController, FaultSchedule
from repro.net.simulator import Simulator
from repro.net.topology import Topology, single_region_topology
from repro.net.transport import Network, PartialSynchrony
from repro.vm.contracts import (
    ExchangeContract,
    MobilityContract,
    TicketingContract,
)
from repro.vm.contracts.base import NativeRegistry
from repro.vm.executor import install_native
from repro.vm.state import WorldState

#: generous balance for genesis-funded accounts
GENESIS_BALANCE = 10**15


@dataclass
class GenesisSpec:
    """Deterministic genesis: identical WorldState on every validator."""

    balances: dict[str, int] = field(default_factory=dict)
    validator_addresses: tuple[str, ...] = ()
    validator_deposit: int = params.VALIDATOR_DEPOSIT
    natives: tuple[str, ...] = (
        ExchangeContract.name,
        MobilityContract.name,
        TicketingContract.name,
        RPMContract.name,
    )
    #: optional workload-specific state setup (e.g. opening the FIFA
    #: ticket matches) run last; must be deterministic — every validator
    #: builds genesis independently and the roots have to agree
    extra_setup: "Callable[[WorldState], None] | None" = None

    def build(self, state: WorldState) -> None:
        for name in self.natives:
            install_native(state, name)
        for address, balance in self.balances.items():
            state.create_account(address, balance)
        seed_genesis(state, self.validator_addresses, self.validator_deposit)
        if self.extra_setup is not None:
            self.extra_setup(state)


class Deployment:
    """A full message-level SRBB (or baseline) deployment."""

    def __init__(
        self,
        *,
        protocol: params.ProtocolParams | None = None,
        topology: Topology | None = None,
        extra_balances: dict[str, int] | None = None,
        round_interval: float = 0.25,
        proposer_timeout: float = 2.0,
        seed: int = 1,
        timing: PartialSynchrony | None = None,
        execution_rate: float = 20_000.0,
        net_params: params.NetParams | None = None,
        fault_schedule: FaultSchedule | None = None,
        genesis_setup: Callable[[WorldState], None] | None = None,
    ):
        self.protocol = protocol or params.ProtocolParams()
        n = self.protocol.n
        self.topology = topology or single_region_topology(n)
        if self.topology.n != n:
            raise ValueError(
                f"topology has {self.topology.n} nodes but protocol.n = {n}"
            )
        self.sim = Simulator()
        self.network = Network(
            self.sim, self.topology, seed=seed, timing=timing, net=net_params
        )
        self.keypairs = [generate_keypair(1000 + i) for i in range(n)]
        addresses = tuple(kp.address for kp in self.keypairs)

        balances = {address: GENESIS_BALANCE for address in addresses}
        balances.update(extra_balances or {})
        self.genesis = GenesisSpec(
            balances=balances,
            validator_addresses=addresses,
            validator_deposit=self.protocol.validator_deposit,
            extra_setup=genesis_setup,
        )

        # One registry per deployment so committee-size-dependent contracts
        # (RPM) are parameterized correctly.
        self.registry = NativeRegistry()
        self.registry.register(ExchangeContract())
        self.registry.register(MobilityContract())
        self.registry.register(TicketingContract())
        self.registry.register(RPMContract(n=n, f=self.protocol.f))

        # Seats named by byzantine_* schedule windows are campaign
        # validators (correct until the controller toggles a behaviour on).
        schedule = fault_schedule or FaultSchedule()
        campaign_ids = schedule.byzantine_nodes()
        self.validators: list[ValidatorNode] = []
        for i in range(n):
            cls = CampaignValidator if i in campaign_ids else ValidatorNode
            node = cls(
                node_id=i,
                keypair=self.keypairs[i],
                sim=self.sim,
                network=self.network,
                protocol=self.protocol,
                genesis=self.genesis.build,
                validator_addresses=addresses,
                round_interval=round_interval,
                proposer_timeout=proposer_timeout,
                registry=self.registry,
                execution_rate=execution_rate,
            )
            self.validators.append(node)
        #: faulty seats: every Byzantine seat, and every crash never
        #: followed by a restart (a crash-stop seat is not correct)
        self.byzantine_ids = campaign_ids | schedule.crash_stopped_nodes()

        #: armed chaos engine (None unless a fault schedule was given)
        self.fault_controller: FaultController | None = None
        if fault_schedule is not None:
            self.fault_controller = FaultController(self, fault_schedule)
            self.fault_controller.install()

    # -- helpers --------------------------------------------------------------------

    @property
    def correct_validators(self) -> list[ValidatorNode]:
        return [
            v for v in self.validators if v.node_id not in self.byzantine_ids
        ]

    def start(self) -> None:
        for validator in self.validators:
            validator.start()

    def submit(self, tx: Transaction, validator_id: int, *, at: float | None = None) -> None:
        """Deliver a client transaction to one validator (optionally later)."""
        node = self.validators[validator_id]
        if at is None:
            node.submit_transaction(tx)
        else:
            self.sim.schedule_at(at, node.submit_transaction, tx)

    def crash(self, node_id: int) -> None:
        """Crash one validator: transport eats its traffic, volatile state
        is lost (the :class:`~repro.faults.FaultController` calls this)."""
        self.network.set_down(node_id, True)
        self.validators[node_id].crash()

    def restart(self, node_id: int) -> None:
        """Bring a crashed validator back; it catches up from peers."""
        self.network.set_down(node_id, False)
        self.validators[node_id].restart()

    def run_until(self, time: float, *, max_events: int | None = None) -> None:
        self.sim.run_until(time, max_events=max_events)

    # -- correctness probes -----------------------------------------------------------

    def safety_holds(self) -> bool:
        """Definition 1 safety across all pairs of correct validators."""
        nodes = self.correct_validators
        return all(
            a.blockchain.prefix_consistent_with(b.blockchain)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        )

    def states_agree(self) -> bool:
        """Validators at equal height have identical state roots."""
        by_height: dict[int, set[bytes]] = {}
        for node in self.correct_validators:
            by_height.setdefault(node.blockchain.height, set()).add(
                node.blockchain.state.state_root()
            )
        return all(len(roots) == 1 for roots in by_height.values())

    def committed_everywhere(self, tx: Transaction) -> bool:
        """Liveness probe: is ``tx`` in every correct validator's chain?"""
        return all(
            v.blockchain.contains_tx(tx) for v in self.correct_validators
        )

    def total_committed(self) -> int:
        """Committed tx count on the longest correct chain."""
        return max(
            v.blockchain.committed_count() for v in self.correct_validators
        )


def fund_clients(count: int, *, seed: int = 5000) -> tuple[list[KeyPair], dict[str, int]]:
    """Generate ``count`` client key pairs plus their genesis balances."""
    clients = [generate_keypair(seed + i) for i in range(count)]
    return clients, {kp.address: GENESIS_BALANCE for kp in clients}
