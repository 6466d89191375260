"""RPM contract as a state machine under random call sequences.

Invariants that must survive any interleaving of attestations and
reports, honest or duplicated:

* token conservation — total deposits only grow by paid block rewards
  (minus validation costs, summed with the contract's own
  :func:`policy_attestation_reward`); slashing redistributes, never burns
  or mints;
* at-most-once payment per (proposer, block, slot, round);
* slashing zeroes the offender and never drives any deposit negative.
"""

from hypothesis import given, settings, strategies as st

from repro.core.block import make_block
from repro.core.rpm import (
    RPM_ADDRESS,
    RPMContract,
    certificate_payload,
    policy_attestation_reward,
    read_deposit,
    report_payload,
    seed_genesis,
)
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair
from repro.vm.state import WorldState

N, F = 4, 1
DEPOSIT = 1_000_000
RPM_ADDR = RPM_ADDRESS
VALIDATORS = [generate_keypair(8800 + i) for i in range(N)]
BLOCKS = [
    make_block(
        VALIDATORS[p],
        p,
        1,
        [make_transfer(generate_keypair(8900 + p), "aa" * 20, 1, nonce=i)
         for i in range(3)],
        round=1,
    )
    for p in range(N)
]
GAS = 50_000_000
BLOCK_REWARD = 100


def fresh_state() -> WorldState:
    state = WorldState()
    state.get_or_create(RPM_ADDR)
    seed_genesis(state, tuple(kp.address for kp in VALIDATORS), DEPOSIT)
    return state


def total_deposits(state) -> int:
    return sum(read_deposit(state, kp.address) for kp in VALIDATORS)


# action: (kind, caller_idx, block_idx, slot, round)
action = st.tuples(
    st.sampled_from(["attest", "report"]),
    st.integers(min_value=0, max_value=N - 1),
    st.integers(min_value=0, max_value=N - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=2),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(action, max_size=30),
    # 3 transactions per block: ⌊3·c⌋ is 0, 1 and 21 tokens
    st.sampled_from([0.001, 0.4, 7.0]),
)
def test_rpm_invariants_under_random_calls(actions, validation_cost):
    rpm = RPMContract(
        n=N, f=F, block_reward=BLOCK_REWARD, validation_cost=validation_cost
    )
    state = fresh_state()
    rewards_paid = 0
    for kind, caller_idx, block_idx, slot, round_ in actions:
        caller = VALIDATORS[caller_idx].address
        block = BLOCKS[block_idx]
        if kind == "attest":
            cert, h_t, count = certificate_payload(block)
            paid, _ = rpm.call(
                state, RPM_ADDR, caller, "prop_received",
                (cert, h_t, count, slot, round_), 0, GAS,
            )
            if paid:
                rewards_paid += policy_attestation_reward(
                    rpm.block_reward, rpm.validation_cost, count
                )
        else:
            bad = block.transactions[0]
            payload = report_payload(block, bad.tx_hash)
            cert, bad_hex, h_t, index, siblings = payload
            rpm.call(
                state, RPM_ADDR, caller, "report",
                (cert, 1, bad_hex, h_t, index, siblings), 0, GAS,
            )
        # conservation after every single step
        assert total_deposits(state) == N * DEPOSIT + rewards_paid
        for kp in VALIDATORS:
            deposit, _ = rpm.call(
                state, RPM_ADDR, caller, "deposit_of", (kp.address,), 0, GAS
            )
            assert deposit >= 0


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(N))))
def test_attest_order_does_not_change_payout(order):
    """The n−f-th attestation pays regardless of caller order."""
    rpm = RPMContract(n=N, f=F, block_reward=BLOCK_REWARD, validation_cost=0.001)
    state = fresh_state()
    block = BLOCKS[0]
    cert, h_t, count = certificate_payload(block)
    paid_flags = []
    for caller_idx in order:
        paid, _ = rpm.call(
            state, RPM_ADDR, VALIDATORS[caller_idx].address, "prop_received",
            (cert, h_t, count, 0, 1), 0, GAS,
        )
        paid_flags.append(paid)
    assert paid_flags.count(True) == 1
    assert paid_flags.index(True) == N - F - 1  # exactly the (n−f)-th call
    proposer = VALIDATORS[0].address
    deposit, _ = rpm.call(
        state, RPM_ADDR, proposer, "deposit_of", (proposer,), 0, GAS
    )
    assert deposit == DEPOSIT + BLOCK_REWARD
