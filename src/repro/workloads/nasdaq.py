"""NASDAQ workload: stock-trade executions on the exchange DApp.

Envelope (§V): 3 minutes, average 168 TPS, peak 19 800 TPS — a quiet
baseline with one enormous opening-auction burst plus a few secondary
spikes, which is what makes NASDAQ the burst-tolerance test: the average
is tiny but the one-second peak exceeds every chain's admission capacity.
"""

from __future__ import annotations

import numpy as np

from repro import params
from repro.core.transaction import Transaction, make_invoke
from repro.crypto.keys import generate_keypair
from repro.vm.contracts.exchange import SYMBOLS, ExchangeContract
from repro.vm.executor import native_address_for
from repro.workloads.trace import RequestFactory, Trace, shape_to_envelope

ENVELOPE = params.NASDAQ_ENVELOPE


def nasdaq_trace(*, seed: int = 101) -> Trace:
    """Synthetic NASDAQ trace matched to (180 s, avg 168, peak 19 800)."""
    rng = np.random.default_rng(seed)
    duration = int(ENVELOPE.duration_s)
    shape = rng.gamma(2.0, 1.0, size=duration)  # quiet trading hum
    shape[0] = 400.0  # opening auction burst dominates everything
    shape[45] = 18.0  # secondary spikes (block trades)
    shape[110] = 12.0
    return shape_to_envelope(
        shape,
        avg_tps=ENVELOPE.avg_tps,
        peak_tps=ENVELOPE.peak_tps,
        name=ENVELOPE.name,
    )


def nasdaq_request_factory(
    *, clients: int = 64, seed: int = 102, gas_price: int = 1
) -> RequestFactory:
    """Factory producing exchange ``trade`` invocations.

    Clients are synthetic funded accounts; per-client nonces advance in
    submission order (DIABLO pre-signs everything up front the same way).
    """
    rng = np.random.default_rng(seed)
    keypairs = [generate_keypair(seed * 10_000 + i) for i in range(clients)]
    nonces = [0] * clients
    contract = native_address_for(ExchangeContract.name)

    def build(i: int, send_time: float) -> Transaction:
        c = i % clients
        nonce = nonces[c]
        nonces[c] += 1
        symbol = SYMBOLS[int(rng.integers(len(SYMBOLS)))]
        price = int(rng.integers(90_00, 310_00))
        qty = int(rng.integers(1, 500))
        side = "buy" if rng.random() < 0.5 else "sell"
        return make_invoke(
            keypairs[c],
            contract,
            "trade",
            (symbol, price, qty, side),
            nonce,
            gas_limit=120_000,
            gas_price=gas_price,
            created_at=send_time,
        )

    build.keypairs = keypairs  # type: ignore[attr-defined]
    return build
