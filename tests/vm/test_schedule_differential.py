"""Differential test: block-order execution vs the conflict-group schedule.

Random mixed TRANSFER/DEPLOY/INVOKE blocks (including invalid
transactions and opaque native calls) executed group by group in the
order :func:`~repro.vm.conflicts.analyze_block` derives — members of a
group both forward and reversed — must produce the state root,
per-position receipts and gas total of plain block-order execution.  An
under-approximated access set puts two dependent transactions in one
group, and the reversed pass then diverges.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.transaction import make_deploy, make_invoke, make_transfer
from repro.crypto.keys import generate_keypair
from repro.vm.contracts import (
    ExchangeContract,
    MobilityContract,
    TicketingContract,
)
from repro.vm.conflicts import analyze_block
from repro.vm.contracts.base import NativeRegistry
from repro.vm.executor import (
    Executor,
    contract_address_for,
    install_native,
    native_address_for,
)
from repro.vm.state import WorldState

KPS = [generate_keypair(7700 + i) for i in range(6)]
COINBASE = "cb" * 20


def _registry() -> NativeRegistry:
    reg = NativeRegistry()
    reg.register(ExchangeContract())
    reg.register(MobilityContract())
    reg.register(TicketingContract())
    return reg


def _fresh_state() -> WorldState:
    state = WorldState()
    for kp in KPS:
        state.create_account(kp.address, 10**12)
    for name in ("exchange", "mobility", "ticketing"):
        install_native(state, name)
    state.commit()
    return state


def _build_block(seed: int, length: int) -> list:
    """Deterministic mixed block: transfers, deploys, invokes, junk."""
    rng = random.Random(seed)
    exchange = native_address_for("exchange")
    mobility = native_address_for("mobility")
    ticketing = native_address_for("ticketing")
    nonces = {kp.address: 0 for kp in KPS}
    # transfer targets: the funded accounts plus every address a DEPLOY
    # of this block creates, so DEPLOY's created-address write matters
    receivers = [kp.address for kp in KPS]
    txs = []
    for _ in range(length):
        kp = rng.choice(KPS)
        nonce = nonces[kp.address]
        roll = rng.random()
        if roll < 0.30:
            tx = make_transfer(
                kp, rng.choice(receivers), rng.randint(1, 50), nonce=nonce
            )
        elif roll < 0.45:
            tx = make_deploy(
                kp, bytes([rng.randint(0, 255)]) * rng.randint(1, 8), nonce=nonce
            )
            receivers.append(contract_address_for(kp.address, nonce))
        elif roll < 0.65:
            tx = make_invoke(
                kp, exchange, "trade",
                (rng.choice(("AAPL", "MSFT", "GOOG")), rng.randint(1, 9),
                 rng.randint(1, 9)),
                nonce=nonce,
            )
        elif roll < 0.75:
            tx = make_invoke(
                kp, ticketing, "open_match",
                (rng.randint(1, 3), rng.randint(10, 20), rng.randint(1, 5)),
                nonce=nonce,
            )
        elif roll < 0.85:
            # opaque native call — forces whole-block serialization points
            tx = make_invoke(
                kp, mobility, "complete_ride", (rng.randint(1, 3),), nonce=nonce
            )
        elif roll < 0.95:
            tx = make_invoke(kp, exchange, "last_price", ("AAPL",), nonce=nonce)
        else:
            # invalid on purpose: future nonce → bad-nonce receipt
            tx = make_transfer(kp, KPS[0].address, 1, nonce=nonce + 50)
            nonces[kp.address] -= 1
        nonces[kp.address] += 1
        txs.append(tx)
    return txs


def _receipt_key(receipt):
    return (
        receipt.tx_hash,
        receipt.success,
        receipt.gas_used,
        receipt.error,
        repr(receipt.return_value),
        receipt.contract_address,
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       length=st.integers(min_value=1, max_value=40))
def test_group_schedule_matches_block_order(seed, length):
    txs = _build_block(seed, length)
    registry = _registry()

    oracle_state = _fresh_state()
    oracle = Executor(oracle_state, registry=registry)
    oracle_receipts = [oracle.execute(tx, coinbase=COINBASE) for tx in txs]
    oracle_root = oracle_state.state_root()
    oracle_gas = sum(r.gas_used for r in oracle_receipts)

    groups = analyze_block(txs, coinbase=COINBASE).groups
    assert sorted(i for group in groups for i in group) == list(range(len(txs)))
    for intra in ("forward", "reversed"):
        state = _fresh_state()
        executor = Executor(state, registry=registry)
        receipts = [None] * len(txs)
        for group in groups:
            order = group if intra == "forward" else reversed(group)
            for position in order:
                receipts[position] = executor.execute(
                    txs[position], coinbase=COINBASE
                )
        assert state.state_root() == oracle_root, f"root mismatch ({intra})"
        for position, (want, got) in enumerate(zip(oracle_receipts, receipts)):
            assert _receipt_key(want) == _receipt_key(got), (
                f"receipt {position} diverged ({intra})"
            )
        assert sum(r.gas_used for r in receipts) == oracle_gas
