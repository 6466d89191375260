"""FIFA workload: world-cup ticket purchases on the ticketing DApp.

Envelope (§V): 3 minutes, average 3 483 TPS, peak 5 305 TPS — heavy
sustained demand with surges (sale-window openings).  FIFA is the
capacity-exhaustion test: the average alone exceeds every evaluated
chain's commit capacity except SRBB's, and even SRBB only drains the
backlog within the measurement horizon for ~98 % of transactions.
"""

from __future__ import annotations

import numpy as np

from repro import params
from repro.core.transaction import Transaction, make_invoke
from repro.crypto.keys import generate_keypair
from repro.vm.contracts.ticketing import TicketingContract
from repro.vm.executor import native_address_for
from repro.workloads.trace import RequestFactory, Trace, shape_to_envelope

ENVELOPE = params.FIFA_ENVELOPE

#: matches on sale during the trace
MATCH_IDS = tuple(range(1, 17))


def fifa_trace(*, seed: int = 301) -> Trace:
    """Synthetic FIFA trace matched to (180 s, avg 3 483, peak 5 305)."""
    rng = np.random.default_rng(seed)
    duration = int(ENVELOPE.duration_s)
    t = np.arange(duration)
    # Sustained heavy load with three sale-window surges.
    shape = 1.0 + 0.1 * rng.random(duration)
    for surge_at, width, height in ((20, 8, 0.6), (85, 10, 0.8), (150, 6, 0.5)):
        shape += height * np.exp(-0.5 * ((t - surge_at) / width) ** 2)
    return shape_to_envelope(
        shape,
        avg_tps=ENVELOPE.avg_tps,
        peak_tps=ENVELOPE.peak_tps,
        name=ENVELOPE.name,
    )


def fifa_request_factory(
    *, clients: int = 128, seed: int = 302, gas_price: int = 1
) -> RequestFactory:
    """Factory producing ticketing ``buy_ticket`` invocations."""
    rng = np.random.default_rng(seed)
    keypairs = [generate_keypair(seed * 10_000 + i) for i in range(clients)]
    nonces = [0] * clients
    contract = native_address_for(TicketingContract.name)

    def build(i: int, send_time: float) -> Transaction:
        c = i % clients
        nonce = nonces[c]
        nonces[c] += 1
        match_id = MATCH_IDS[int(rng.integers(len(MATCH_IDS)))]
        seats = int(rng.integers(1, 5))
        return make_invoke(
            keypairs[c],
            contract,
            "buy_ticket",
            (match_id, seats),
            nonce,
            amount=seats,  # price 1 per seat by default
            gas_limit=150_000,
            gas_price=gas_price,
            created_at=send_time,
        )

    build.keypairs = keypairs  # type: ignore[attr-defined]
    return build


def fifa_genesis_setup(state) -> None:
    """Put every match on sale at genesis (what ``open_match`` would do).

    ``buy_ticket`` reverts on an unopened match, and TVPR then excludes
    the transaction pre-consensus — so a replay against a bare genesis
    commits nothing.  The paper's deployment has the sale running before
    the trace starts; deterministic genesis state is the equivalent here.
    """
    from repro.vm.contracts.ticketing import DEFAULT_CAPACITY

    contract = native_address_for(TicketingContract.name)
    for match_id in MATCH_IDS:
        state.storage_set(
            contract, f"match:{match_id}", {"capacity": DEFAULT_CAPACITY, "price": 1}
        )
        state.storage_set(contract, f"sold:{match_id}", 0)
