"""A transaction field out of range is refused on every path (§IV-D).

Validation compares a balance against ``gas_limit * gas_price + amount``,
and a negative term passes that test while moving value the wrong way: a
transfer of ``amount = -5`` to an empty account, or a negative
``gas_price`` debiting the coinbase, made ``WorldState`` raise out of
``Executor.execute`` on every node.  Each field is checked for range
first, at admission (``eager_validate``) and before execution
(``lazy_validate``), because a Byzantine proposer's block reaches
execution without an admission check.
"""

import pytest

from repro import params
from repro.core.block import SuperBlock, make_block
from repro.core.blockchain import Blockchain
from repro.core.deployment import Deployment, fund_clients
from repro.core.rpm import read_excluded
from repro.core.transaction import make_transfer
from repro.core.validation import FIELD_RANGE, eager_validate
from repro.crypto.keys import generate_keypair
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology
from repro.vm.state import WorldState

#: an account nobody funded, so a negative transfer to it overdraws it
RECEIVER = "ab" * 20

NEGATIVE = {
    "amount": {"amount": -5},
    "nonce": {"nonce": -1},
    "gas_limit": {"gas_limit": -21_000},
    "gas_price": {"gas_price": -1},
}


def bad_transfer(keypair, field):
    fields = {"amount": 5, "nonce": 0, **NEGATIVE[field]}
    return make_transfer(
        keypair, RECEIVER, fields.pop("amount"), fields.pop("nonce"), **fields
    )


def accounts_of(deployment, *addresses):
    """(balance, nonce) of each address on every validator."""
    return [
        [(v.blockchain.state.balance_of(a), v.blockchain.state.nonce_of(a))
         for a in addresses]
        for v in deployment.validators
    ]


def run(field, *, seat, schedule=None):
    """Submit one bad transfer to ``seat`` and one good transfer from
    another client to seat 0; the good one commits, the bad one moves
    nothing."""
    clients, balances = fund_clients(2)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        fault_schedule=schedule,
        extra_balances=balances,
    )
    sender = clients[0]
    before = accounts_of(deployment, sender.address, RECEIVER)
    tx = bad_transfer(sender, field)
    good = make_transfer(clients[1], "cd" * 20, 7, nonce=0)
    deployment.start()
    deployment.submit(tx, validator_id=seat, at=0.05)
    deployment.submit(good, validator_id=0, at=0.1)
    deployment.run_until(6.0)
    assert deployment.safety_holds()
    assert deployment.committed_everywhere(good)
    assert not any(v.blockchain.contains_tx(tx) for v in deployment.validators)
    assert accounts_of(deployment, sender.address, RECEIVER) == before
    return deployment, tx


@pytest.mark.parametrize("field", sorted(NEGATIVE))
def test_honest_seat_refuses_a_negative_field(field):
    deployment, tx = run(field, seat=0)
    seat = deployment.validators[0]
    assert seat.stats.eager_failures == 1
    assert eager_validate(tx, seat.blockchain.state).error_code == FIELD_RANGE


@pytest.mark.parametrize("field", sorted(NEGATIVE))
def test_byzantine_proposer_including_a_negative_field_is_slashed(field):
    """Seat 3 pools whatever arrives and proposes it: its block reaches
    every honest node's lazy check with no eager one.  The code is
    reportable, so the n - f honest reports slash and exclude seat 3."""
    deployment, _ = run(
        field, seat=3, schedule=FaultSchedule().byzantine_flood(3, at=0.0, per_block=0)
    )
    flooder = deployment.validators[3].keypair.address
    for validator in deployment.correct_validators:
        assert flooder in read_excluded(validator.blockchain.state)


@pytest.mark.parametrize("field", sorted(NEGATIVE))
def test_commit_loop_discards_a_negative_field_without_eager_check(field):
    kp = generate_keypair(31)
    state = WorldState()
    state.create_account(kp.address, 10**9)
    state.commit()
    chain = Blockchain(protocol=params.ProtocolParams(n=4), state=state)
    root = state.state_root()
    bad = bad_transfer(kp, field)
    proposer = generate_keypair(32)
    block = make_block(proposer, 0, 1, [bad])
    result = chain.commit_superblock(
        SuperBlock(index=1, blocks=(block,)),
        coinbase_of=lambda _: proposer.address,
    )
    assert result.discarded == [(bad, FIELD_RANGE)]
    assert result.invalid_by_proposer == [(0, bad, FIELD_RANGE)]
    assert chain.height == 0
    assert chain.state.state_root() == root
