"""The block-proposal game (§IV-F, Theorem 1) on the RPM contract's rules."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro import params
from repro.core.block import make_block
from repro.core.rewards import (
    Strategy,
    best_response,
    byzantine_payoff,
    correct_payoff,
    theorem1_holds,
)
from repro.core.rpm import (
    RPM_ADDRESS,
    RPMContract,
    certificate_payload,
    policy_attestation_reward,
    policy_slash,
    read_deposit,
    seed_genesis,
)
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair
from repro.vm.state import WorldState


DESIGN = RPMContract(n=4, f=1, block_reward=100, validation_cost=0.01)


class TestRewardAlgebra:
    def test_incentive(self):
        # I = r_b is what the book pays; fees are off the book
        outcome = correct_payoff(DESIGN, 0, tx_fees=25, deposit=0)
        assert (outcome.payoff, outcome.off_book) == (100, 25)

    def test_validation_cost(self):
        # C = ⌊|T|·c⌋ on the integer ledger
        assert policy_attestation_reward(100, Fraction(1, 100), 1000) == 100 - 10
        assert policy_attestation_reward(100, Fraction(1, 1000), 300) == 100
        assert policy_attestation_reward(100, Fraction(1, 1000), 1999) == 99

    def test_reward_equation(self):
        # R = I − C − P, with P the whole deposit once reported
        assert policy_slash(1_000, ("a", "b", "c"), "a") == (
            1_000, [("b", 500), ("c", 500)]
        )
        assert policy_slash(7, ("a", "b", "c", "d"), "b") == (
            7, [("a", 3), ("c", 2), ("d", 2)]
        )
        assert policy_slash(0, ("a", "b"), "a") == (0, [])


class TestPayoffs:
    def test_correct_strategy_gains(self):
        outcome = correct_payoff(DESIGN, 1000, tx_fees=50, deposit=10_000)
        assert outcome.payoff == 100 - 10
        assert outcome.utility == 150 - 10
        assert outcome.deposit_after == 10_000 + 90  # fees go to the coinbase
        assert not outcome.slashed

    def test_byzantine_saves_cost_if_unreported(self):
        outcome = byzantine_payoff(
            DESIGN, 1000, tx_fees=50, deposit=10_000,
            skipped_validations=1000, reported=False,
        )
        assert outcome.utility == 150  # pockets the saved compute C = 10
        assert outcome.payoff == 90  # the book credits it like any block
        assert not outcome.slashed

    def test_byzantine_reported_loses_whole_deposit(self):
        outcome = byzantine_payoff(
            DESIGN, 1000, tx_fees=50, deposit=10_000,
            skipped_validations=1000, reported=True,
        )
        assert outcome.payoff == -10_000  # −D, Theorem 1
        assert outcome.deposit_after == 0
        assert outcome.off_book == 60  # fees and saved compute: no slash reaches
        assert outcome.slashed

    def test_partial_skip(self):
        outcome = byzantine_payoff(
            DESIGN, 1000, tx_fees=0, deposit=0,
            skipped_validations=400, reported=False,
        )
        # credit 100 − ⌊1000·0.01⌋ = 90, plus 400·0.01 = 4 of saved compute
        assert outcome.utility == 100 - 6


class TestBestResponse:
    def test_certain_reporting_makes_correct_dominant(self):
        assert (
            best_response(DESIGN, 1000, tx_fees=50, deposit=10_000)
            is Strategy.CORRECT
        )

    def test_no_reporting_makes_byzantine_tempting(self):
        assert (
            best_response(DESIGN, 1000, tx_fees=50, deposit=10_000,
                          report_probability=0.0)
            is Strategy.BYZANTINE
        )

    def test_threshold_probability(self):
        """Correct dominates once p · (D + gain) ≥ savings."""
        deposit = 10_000
        # savings = C = 10; caught utility = −10000 + 60; free utility = 150;
        # correct utility = 140. Indifference: 140 = p(−9940) + (1−p)150
        # → p* ≈ 0.00099; any p above flips to CORRECT.
        assert (
            best_response(DESIGN, 1000, 50, deposit, report_probability=0.01)
            is Strategy.CORRECT
        )
        assert (
            best_response(DESIGN, 1000, 50, deposit, report_probability=0.0001)
            is Strategy.BYZANTINE
        )

    @given(
        st.integers(min_value=1, max_value=100_000),  # tx_count
        st.floats(min_value=0, max_value=10_000, allow_nan=False),
        st.integers(min_value=1, max_value=10**9),  # deposit
    )
    def test_property_theorem1(self, tx_count, tx_fees, deposit):
        """Reported Byzantine proposers always end at zero deposit with a
        strictly negative round payoff (for any positive deposit)."""
        assert theorem1_holds(DESIGN, tx_count, tx_fees, deposit)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=10**8),
    )
    def test_property_correct_beats_reported_byzantine(self, tx_count, deposit):
        correct = correct_payoff(DESIGN, tx_count, 0, deposit).payoff
        byz = byzantine_payoff(
            DESIGN, tx_count, 0, deposit,
            skipped_validations=tx_count, reported=True,
        ).payoff
        assert correct > byz


_ATTESTERS = [generate_keypair(7700 + i) for i in range(4)]
_BLOCK = make_block(
    _ATTESTERS[0], 0, 1,
    [make_transfer(generate_keypair(7790), "cc" * 20, 1, nonce=0)],
)


@settings(max_examples=60, deadline=None)
@example(300, params.EAGER_VALIDATION_COST, params.VALIDATOR_DEPOSIT)
@given(
    st.integers(min_value=0, max_value=params.MAX_BLOCK_TXS),
    st.sampled_from([params.EAGER_VALIDATION_COST, 0.01, 0.003, 0.25]),
    st.integers(min_value=0, max_value=10**7),
)
def test_closed_form_credit_is_the_contract_credit(tx_count, cost, deposit):
    """What :func:`correct_payoff` books equals what one ``prop_received``
    that crosses n − f adds to the proposer's deposit."""
    rpm = RPMContract(n=4, f=1, validation_cost=cost)
    state = WorldState()
    state.get_or_create(RPM_ADDRESS)
    seed_genesis(state, tuple(kp.address for kp in _ATTESTERS), deposit)
    cert, h_t, _ = certificate_payload(_BLOCK)
    paid = [
        rpm.call(
            state, RPM_ADDRESS, kp.address, "prop_received",
            (cert, h_t, tx_count, 0, 1), 0, 10**8,
        )[0]
        for kp in _ATTESTERS[: rpm.n - rpm.f]
    ]
    assert paid == [False, False, True]  # the last call crosses n − f
    outcome = correct_payoff(rpm, tx_count, 0.0, deposit)
    assert read_deposit(state, _ATTESTERS[0].address) == outcome.deposit_after
    assert outcome.deposit_after - deposit == outcome.payoff


class TestDepositLedger:
    def sample(self, t, deposits, excluded=(), slashes=0, height=0):
        from repro.core.rewards import DepositSample

        return DepositSample(
            t=t, height=height, deposits=tuple(sorted(deposits.items())),
            excluded=tuple(excluded), slash_events=slashes,
        )

    def ledger(self, *samples):
        from repro.core.rewards import DepositLedger

        ledger = DepositLedger(("a", "b", "c", "d"))
        ledger.samples.extend(samples)
        return ledger

    def test_stats_requires_samples(self):
        import pytest

        with pytest.raises(ValueError, match="no samples"):
            self.ledger().stats()

    def test_attacker_slash_economics(self):
        ledger = self.ledger(
            self.sample(0.5, {"a": 100, "b": 100, "c": 100, "d": 100}),
            self.sample(1.0, {"a": 100, "b": 100, "c": 100, "d": 100}),
            self.sample(1.5, {"a": 130, "b": 130, "c": 130, "d": 0},
                        excluded=("d",), slashes=1),
        )
        stats = ledger.stats(attacker="d")
        assert stats["attacker_initial_deposit"] == 100
        assert stats["attacker_final_deposit"] == 0
        assert stats["attacker_net_payoff"] == -100
        assert stats["attacker_excluded"] == 1.0
        assert stats["time_to_exclusion_s"] == 1.5
        assert stats["honest_yield"] == pytest_approx(0.3)
        assert stats["slash_events"] == 1
        assert stats["excluded_count"] == 1

    def test_never_excluded_reports_infinity(self):
        ledger = self.ledger(
            self.sample(0.5, {"a": 100, "b": 100, "c": 100, "d": 100}),
        )
        stats = ledger.stats(attacker="d")
        assert stats["time_to_exclusion_s"] == float("inf")
        assert stats["attacker_excluded"] == 0.0
        assert ledger.time_to_exclusion("d") is None

    def test_deposit_of_unknown_address_is_zero(self):
        row = self.sample(0.0, {"a": 7})
        assert row.deposit_of("a") == 7
        assert row.deposit_of("zz") == 0


def pytest_approx(x):
    import pytest

    return pytest.approx(x)
