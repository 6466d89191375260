"""Shared fixtures for the SRBB reproduction test suite."""

from __future__ import annotations

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.crypto.keys import generate_keypair
from repro.net.topology import single_region_topology
from repro.vm.contracts import (
    ExchangeContract,
    MobilityContract,
    TicketingContract,
)
from repro.vm.contracts.base import NativeRegistry
from repro.vm.executor import Executor, install_native
from repro.vm.state import WorldState

FUNDS = 10**12


@pytest.fixture
def keypair():
    return generate_keypair(1)


@pytest.fixture
def keypair2():
    return generate_keypair(2)


@pytest.fixture
def state(keypair, keypair2):
    """World state with two funded externally-owned accounts."""
    ws = WorldState()
    ws.create_account(keypair.address, FUNDS)
    ws.create_account(keypair2.address, FUNDS)
    ws.commit()
    return ws


@pytest.fixture
def registry():
    reg = NativeRegistry()
    reg.register(ExchangeContract())
    reg.register(MobilityContract())
    reg.register(TicketingContract())
    return reg


@pytest.fixture
def executor(state, registry):
    for name in (ExchangeContract.name, MobilityContract.name, TicketingContract.name):
        install_native(state, name)
    state.commit()
    return Executor(state, registry=registry)


@pytest.fixture
def small_deployment():
    """4-validator single-region SRBB deployment with 4 funded clients."""
    clients, balances = fund_clients(4)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        extra_balances=balances,
    )
    deployment.client_keypairs = clients  # type: ignore[attr-defined]
    return deployment
