"""Uber workload: ride requests on the mobility DApp.

Envelope (§V): 2 minutes, average 852 TPS, peak 900 TPS — a nearly flat,
sustained load (peak/avg ≈ 1.06).  Uber is the sustained-throughput test:
any chain whose steady-state commit capacity is below ~850 TPS must shed
transactions.
"""

from __future__ import annotations

import numpy as np

from repro import params
from repro.core.transaction import Transaction, make_invoke
from repro.crypto.keys import generate_keypair
from repro.vm.contracts.mobility import MobilityContract
from repro.vm.executor import native_address_for
from repro.workloads.trace import RequestFactory, Trace, shape_to_envelope

ENVELOPE = params.UBER_ENVELOPE


def uber_trace(*, seed: int = 201) -> Trace:
    """Synthetic Uber trace matched to (120 s, avg 852, peak 900)."""
    rng = np.random.default_rng(seed)
    duration = int(ENVELOPE.duration_s)
    t = np.arange(duration)
    # Flat demand with a gentle rush-hour swell and small noise.
    shape = 1.0 + 0.04 * np.sin(2 * np.pi * t / duration) + rng.normal(
        0, 0.01, size=duration
    )
    shape = np.clip(shape, 0.8, None)
    return shape_to_envelope(
        shape,
        avg_tps=ENVELOPE.avg_tps,
        peak_tps=ENVELOPE.peak_tps,
        name=ENVELOPE.name,
    )


def uber_request_factory(
    *, clients: int = 64, seed: int = 202, gas_price: int = 1
) -> RequestFactory:
    """Factory producing mobility ``request_ride`` invocations."""
    rng = np.random.default_rng(seed)
    keypairs = [generate_keypair(seed * 10_000 + i) for i in range(clients)]
    nonces = [0] * clients
    contract = native_address_for(MobilityContract.name)

    def build(i: int, send_time: float) -> Transaction:
        c = i % clients
        nonce = nonces[c]
        nonces[c] += 1
        pickup = int(rng.integers(0, 260))  # NYC taxi-zone-like ids
        dropoff = int(rng.integers(0, 260))
        fare = int(rng.integers(500, 9_000))  # cents
        return make_invoke(
            keypairs[c],
            contract,
            "request_ride",
            (pickup, dropoff, fare),
            nonce,
            amount=fare,
            gas_limit=150_000,
            gas_price=gas_price,
            created_at=send_time,
        )

    build.keypairs = keypairs  # type: ignore[attr-defined]
    return build
