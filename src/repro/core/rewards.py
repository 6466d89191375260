"""The block-proposal game of §IV-F on the RPM contract's own rules.

A validator plays CORRECT (eagerly validate, propose only valid
transactions) or BYZANTINE (skip validation, include invalid ones).  Its
deposit moves only by :func:`~repro.core.rpm.policy_attestation_reward`
and :func:`~repro.core.rpm.policy_slash` with the contract's ``r_b`` and
``c``.  Two terms are off the deposit book and are explicit inputs:
``tx_fees`` (paid to the coinbase balance) and the compute a deviator
saves off-chain (``skipped_validations · c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.rpm import (
    RPMContract,
    policy_attestation_reward,
    policy_slash,
    read_deposit,
    read_events,
    read_excluded,
)


class Strategy(Enum):
    CORRECT = "correct"
    BYZANTINE = "byzantine"


@dataclass(frozen=True)
class PayoffOutcome:
    """One round's payoff: ``payoff`` is the change of the deposit (what
    the contract pays or slashes), ``off_book`` the fees and saved compute
    that no slash reaches."""

    payoff: int
    deposit_after: int
    slashed: bool
    off_book: float

    @property
    def utility(self) -> float:
        return self.payoff + self.off_book


def correct_payoff(
    rpm: RPMContract, tx_count: int, tx_fees: float, deposit: int
) -> PayoffOutcome:
    """Reward of the correct strategy: validate all, never slashed."""
    r = policy_attestation_reward(rpm.block_reward, rpm.validation_cost, tx_count)
    return PayoffOutcome(r, deposit + r, False, tx_fees)


def byzantine_payoff(
    rpm: RPMContract,
    tx_count: int,
    tx_fees: float,
    deposit: int,
    *,
    skipped_validations: int,
    reported: bool = True,
) -> PayoffOutcome:
    """Reward of a Byzantine proposer that skipped ``skipped_validations``
    eager checks.  Its block is credited like any other; once n−f
    validators report it, the slash takes the whole deposit ``D + R``
    (Theorem 1 proof): ``D_end = 0`` and the payoff is ``−D``."""
    skipped = min(skipped_validations, tx_count)
    off_book = tx_fees + skipped * rpm.validation_cost
    held = deposit + policy_attestation_reward(
        rpm.block_reward, rpm.validation_cost, tx_count
    )
    if reported:
        held -= policy_slash(held, (), "deviator")[0]
    return PayoffOutcome(held - deposit, held, reported, off_book)


def best_response(
    rpm: RPMContract,
    tx_count: int,
    tx_fees: float,
    deposit: int,
    *,
    report_probability: float = 1.0,
) -> Strategy:
    """Rational validator's strategy choice given expected reporting.

    CORRECT dominates once the expected slash exceeds the saved compute;
    Theorem 1 is the ``report_probability == 1`` case.
    """
    correct = correct_payoff(rpm, tx_count, tx_fees, deposit).utility
    caught, free = (
        byzantine_payoff(
            rpm, tx_count, tx_fees, deposit,
            skipped_validations=tx_count, reported=reported,
        ).utility
        for reported in (True, False)
    )
    expected_byz = report_probability * caught + (1 - report_probability) * free
    return Strategy.CORRECT if correct >= expected_byz else Strategy.BYZANTINE


def theorem1_holds(
    rpm: RPMContract, tx_count: int, tx_fees: float, deposit: int
) -> bool:
    """Theorem 1: a reported Byzantine proposer ends at deposit 0, a
    negative payoff, whenever its deposit is positive."""
    outcome = byzantine_payoff(
        rpm, tx_count, tx_fees, deposit,
        skipped_validations=tx_count, reported=True,
    )
    return outcome.payoff < 0 and outcome.deposit_after == 0 if deposit > 0 else True


# -- the deposit book over live runs ---------------------------------------------------


@dataclass(frozen=True)
class DepositSample:
    """One ledger row: every validator's deposit at a sampling instant."""

    t: float
    height: int
    deposits: "tuple[tuple[str, int], ...]"  # (address, deposit), sorted
    excluded: "tuple[str, ...]"
    slash_events: int

    def deposit_of(self, address: str) -> int:
        return dict(self.deposits).get(address, 0)


class DepositLedger:
    """Samples the RPM deposit book off one observer node on a
    deterministic cadence (``byzantine_campaign``: a 0.5 s grid);
    :meth:`stats` gives attacker net payoff (final − initial deposit),
    honest-validator yield and time-to-exclusion."""

    def __init__(self, addresses: "tuple[str, ...]"):
        self.addresses = tuple(addresses)
        self.samples: list[DepositSample] = []

    def sample(self, node) -> DepositSample:
        """Read deposits/exclusions from ``node``'s executed state."""
        state = node.blockchain.state
        row = DepositSample(
            t=node.sim.now,
            height=node.blockchain.height,
            deposits=tuple((a, read_deposit(state, a)) for a in self.addresses),
            excluded=read_excluded(state),
            slash_events=len(read_events(state)),
        )
        self.samples.append(row)
        return row

    def time_to_exclusion(self, address: str) -> "float | None":
        """First sampling instant at which ``address`` was excluded."""
        return next((row.t for row in self.samples if address in row.excluded), None)

    def stats(self, *, attacker: "str | None" = None) -> dict:
        """Headline validator-economics stats over the sampled window."""
        if not self.samples:
            raise ValueError("no samples recorded")
        first, last = self.samples[0], self.samples[-1]
        honest = [a for a in self.addresses if a != attacker]
        honest_yields = [
            (last.deposit_of(a) - first.deposit_of(a)) / first.deposit_of(a)
            for a in honest
            if first.deposit_of(a) > 0
        ]
        out = {
            "honest_yield": (
                sum(honest_yields) / len(honest_yields) if honest_yields else 0.0
            ),
            "slash_events": last.slash_events,
            "excluded_count": len(last.excluded),
        }
        if attacker is not None:
            tte = self.time_to_exclusion(attacker)
            out.update(
                attacker_initial_deposit=first.deposit_of(attacker),
                attacker_final_deposit=last.deposit_of(attacker),
                attacker_net_payoff=last.deposit_of(attacker)
                - first.deposit_of(attacker),
                attacker_excluded=1.0 if attacker in last.excluded else 0.0,
                time_to_exclusion_s=tte if tte is not None else float("inf"),
            )
        return out
