"""Distributed load balancer + client resend loop (§VI).

TVPR's censorship drawback: a transaction sent only to a censoring
validator never enters a block.  The discussed mitigation is a randomly
forwarding load balancer in front of the validators, with an automated
client resend when no receipt arrives within a timeout — each retry lands
on an independently random validator, so the probability of hitting only
censors decays geometrically (with c censors out of n, P[still censored
after k tries] = (c/n)^k).

Honest pools release a sender's nonces in order, so a transaction whose
lower-nonce predecessor is still unconfirmed waits in an honest pool for
that predecessor, not for a censor.  The resend loop therefore forwards a
sender's lowest unconfirmed nonce first; a higher nonce that times out
behind an unconfirmed predecessor re-arms its timer without counting a
new attempt, so the attempt counts measure censorship alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.deployment import Deployment
from repro.core.transaction import Transaction


@dataclass
class LoadBalancerStats:
    forwarded: int = 0
    resends: int = 0
    confirmed: int = 0
    gave_up: int = 0
    #: per-transaction attempt counts (censorship-cost evidence)
    attempts: dict[bytes, int] = field(default_factory=dict)


class RandomLoadBalancer:
    """Forwards each transaction to a uniformly random validator and
    resends on behalf of the client until a receipt appears."""

    def __init__(
        self,
        deployment: Deployment,
        *,
        receipt_timeout_s: float = 5.0,
        max_attempts: int = 10,
        confirmations: int | None = None,
        seed: int = 3,
    ):
        self.deployment = deployment
        self.receipt_timeout_s = receipt_timeout_s
        self.max_attempts = max_attempts
        self.confirmations = (
            confirmations if confirmations is not None
            else deployment.protocol.f + 1
        )
        self.rng = np.random.default_rng(seed)
        self.stats = LoadBalancerStats()
        #: sender -> nonce -> submitted transaction not yet confirmed
        self._unconfirmed: dict[str, dict[int, Transaction]] = {}

    def submit(self, tx: Transaction, *, at: float = 0.0) -> None:
        """Client entry point: forward now (or at a scheduled time)."""
        self._unconfirmed.setdefault(tx.sender, {})[tx.nonce] = tx
        self.deployment.sim.schedule_at(at, self._attempt, tx, 1)

    # -- internals -----------------------------------------------------------------

    def _attempt(self, tx: Transaction, attempt: int) -> None:
        target = int(self.rng.integers(self.deployment.protocol.n))
        self.stats.forwarded += 1
        self.stats.attempts[tx.tx_hash] = attempt
        self.deployment.validators[target].submit_transaction(tx)
        self.deployment.sim.schedule(
            self.receipt_timeout_s, self._check_receipt, tx, attempt
        )

    def _confirmed(self, tx: Transaction) -> bool:
        count = sum(
            1
            for v in self.deployment.correct_validators
            if v.blockchain.contains_tx(tx)
        )
        return count >= self.confirmations

    def _waits_on_predecessor(self, tx: Transaction) -> bool:
        return any(
            nonce < tx.nonce and not self._confirmed(other)
            for nonce, other in self._unconfirmed[tx.sender].items()
        )

    def _check_receipt(
        self, tx: Transaction, attempt: int, waited: bool = False
    ) -> None:
        if self._confirmed(tx):
            self.stats.confirmed += 1
            self._unconfirmed[tx.sender].pop(tx.nonce, None)
            return
        waiting = self._waits_on_predecessor(tx)
        if waiting or waited:
            # Re-armed, not resent.  One more period after the predecessor
            # is first seen confirmed: it confirmed somewhere inside the
            # last one, and the pool holding ``tx`` needs a full period.
            self.deployment.sim.schedule(
                self.receipt_timeout_s, self._check_receipt, tx, attempt, waiting
            )
            return
        if attempt >= self.max_attempts:
            self.stats.gave_up += 1
            self._unconfirmed[tx.sender].pop(tx.nonce, None)
            return
        # No receipt within the period: automated resend (§VI).
        self.stats.resends += 1
        self._attempt(tx, attempt + 1)


def censorship_probability(n: int, censors: int, attempts: int) -> float:
    """Analytic P[transaction still censored after ``attempts`` forwards]."""
    if not 0 <= censors <= n:
        raise ValueError("censors must be within the validator count")
    return (censors / n) ** attempts
