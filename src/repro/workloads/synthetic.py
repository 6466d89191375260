"""Synthetic traces: constants, bursts, flooding mixes."""

from __future__ import annotations

import numpy as np

from repro.adversary.byzantine import invalid_transactions_at
from repro.core.transaction import Transaction, make_transfer
from repro.crypto.keys import generate_keypair
from repro.workloads.trace import RequestFactory, Trace


def constant_trace(tps: int, duration_s: int, *, name: str | None = None) -> Trace:
    """Exactly ``tps`` requests every second."""
    return Trace(
        name=name or f"constant-{tps}",
        counts_per_second=np.full(duration_s, tps, dtype=np.int64),
    )


def burst_trace(
    base_tps: int,
    burst_tps: int,
    duration_s: int,
    *,
    burst_at: int = 10,
    burst_len: int = 1,
    name: str | None = None,
) -> Trace:
    """Constant base load with one rectangular burst."""
    counts = np.full(duration_s, base_tps, dtype=np.int64)
    counts[burst_at : burst_at + burst_len] = burst_tps
    return Trace(name=name or f"burst-{base_tps}-{burst_tps}", counts_per_second=counts)


def transfer_request_factory(
    *, clients: int = 32, seed: int = 900, amount: int = 1
) -> RequestFactory:
    """Plain native-payment transactions between funded synthetic clients."""
    keypairs = [generate_keypair(seed * 10_000 + i) for i in range(clients)]
    nonces = [0] * clients

    def build(i: int, send_time: float) -> Transaction:
        c = i % clients
        nonce = nonces[c]
        nonces[c] += 1
        return make_transfer(
            keypairs[c],
            receiver=keypairs[(c + 1) % clients].address,
            amount=amount,
            nonce=nonce,
            created_at=send_time,
        )

    build.keypairs = keypairs  # type: ignore[attr-defined]
    return build


def flooding_mix(
    valid_count: int,
    invalid_count: int,
    *,
    send_rate_tps: float = 15_000.0,
    clients: int = 32,
    seed: int = 950,
) -> list[Transaction]:
    """The Table I workload: interleaved valid and invalid transactions.

    ``valid_count`` funded transfers and ``invalid_count`` zero-balance
    transfers are interleaved proportionally and timestamped at the given
    open-loop send rate (paper: 20 K valid + 10 K invalid at 15 000 TPS).
    """
    # Work the interleaving out first (True = the next valid transfer),
    # then build each transaction once, stamped with its send time.
    order: list[bool] = []
    ratio = invalid_count / valid_count if valid_count else 1.0
    credit, junk = 0.0, 0
    for _ in range(valid_count):
        order.append(True)
        credit += ratio
        while credit >= 1.0 and junk < invalid_count:
            order.append(False)
            junk += 1
            credit -= 1.0
    order += [False] * (invalid_count - junk)
    times = [i / send_rate_tps for i in range(len(order))]
    factory = transfer_request_factory(clients=clients, seed=seed)
    valid_times = [t for t, v in zip(times, order) if v]
    junk_times = [t for t, v in zip(times, order) if not v]
    valid = iter([factory(k, t) for k, t in enumerate(valid_times)])
    invalid = iter(invalid_transactions_at(junk_times, seed=seed + 1))
    return [next(valid) if v else next(invalid) for v in order]


def factory_balances(factory: RequestFactory, balance: int = 10**15) -> dict[str, int]:
    """Genesis balances for a factory's synthetic clients."""
    keypairs = getattr(factory, "keypairs", None)
    if keypairs is None:
        raise ValueError("factory does not expose its keypairs")
    return {kp.address: balance for kp in keypairs}
