"""Synthetic traces: constants, bursts, flooding mixes."""

from __future__ import annotations

import numpy as np

from repro.adversary.byzantine import make_invalid_transactions
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
    factory = transfer_request_factory(clients=clients, seed=seed)
    valid = [factory(i, 0.0) for i in range(valid_count)]
    invalid = make_invalid_transactions(invalid_count, seed=seed + 1)
    mixed: list[Transaction] = []
    ratio = invalid_count / valid_count if valid_count else 1.0
    vi = ii = 0
    credit = 0.0
    while vi < len(valid) or ii < len(invalid):
        if vi < len(valid):
            mixed.append(valid[vi])
            vi += 1
            credit += ratio
        while credit >= 1.0 and ii < len(invalid):
            mixed.append(invalid[ii])
            ii += 1
            credit -= 1.0
        if vi >= len(valid):
            while ii < len(invalid):
                mixed.append(invalid[ii])
                ii += 1
    # Stamp open-loop send times.
    out = []
    for i, tx in enumerate(mixed):
        send_time = i / send_rate_tps
        out.append(_restamp(tx, send_time))
    return out


def _restamp(tx: Transaction, created_at: float) -> Transaction:
    """Copy a transaction with a new client timestamp (keeps signature:
    created_at is not part of the signed payload, matching DIABLO's
    pre-signed schedules)."""
    return Transaction(
        tx_type=tx.tx_type,
        sender=tx.sender,
        receiver=tx.receiver,
        amount=tx.amount,
        nonce=tx.nonce,
        gas_limit=tx.gas_limit,
        gas_price=tx.gas_price,
        payload=tx.payload,
        public_key=tx.public_key,
        signature=tx.signature,
        padding=tx.padding,
        created_at=created_at,
        uid=tx.uid,
    )


def factory_balances(factory: RequestFactory, balance: int = 10**15) -> dict[str, int]:
    """Genesis balances for a factory's synthetic clients."""
    keypairs = getattr(factory, "keypairs", None)
    if keypairs is None:
        raise ValueError("factory does not expose its keypairs")
    return {kp.address: balance for kp in keypairs}
