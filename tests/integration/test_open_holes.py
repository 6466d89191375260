"""Three known holes, pinned as strict xfails until their fixes land.

(a) Eager validation checks each transaction alone against the current
state, so two transfers that are each valid but together overdraw their
sender, sent to two seats, both reach a decided superblock.  The second
fails with ``insufficient-balance``, which is reportable, and the honest
proposer that included it is slashed and excluded.

(b) A contract call that reverts at execution is discarded with its state
changes, its nonce among them.  Every later transaction of that sender
then carries a nonce gap and never commits; a revert also costs no gas.

(c) A client's address is derived from ``PublicKey.raw`` alone, and
nothing ties the ``binding`` (which pins the verification key) to
``raw``.  Pairing a victim's public ``raw`` with one's own binding signs
for the victim's address.

ROADMAP.md names the fix direction of each.  Each xfail turns into a
failure once its fix lands.
"""

import pytest

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.rpm import RPM_ADDRESS, read_deposit, read_excluded
from repro.core.transaction import make_invoke, make_transfer
from repro.core.validation import check_signature
from repro.crypto.keys import KeyPair, PublicKey, generate_keypair
from repro.net.topology import single_region_topology


def _deployment(balances):
    return Deployment(
        protocol=params.ProtocolParams(n=4, rpm=True),
        topology=single_region_topology(4),
        extra_balances=balances,
    )


@pytest.mark.xfail(
    strict=True,
    reason="an overdraft split over two seats gets an honest proposer slashed",
)
def test_an_overdraft_over_two_seats_slashes_no_honest_proposer():
    poor = generate_keypair(b"overdraft")
    deployment = _deployment({poor.address: 30_000})  # one transfer's gas, not two
    for nonce, seat in ((0, 1), (1, 2)):
        deployment.submit(
            make_transfer(poor, "aa" * 20, 1, nonce), validator_id=seat, at=0.2
        )
    deployment.start()
    deployment.run_until(15.0)
    assert deployment.safety_holds()
    state = deployment.validators[0].blockchain.state
    assert read_excluded(state) == ()
    assert all(
        read_deposit(state, kp.address) > 0 for kp in deployment.keypairs
    )


@pytest.mark.xfail(
    strict=True,
    reason="a call reverted at execution consumes no nonce, so later ones never commit",
)
def test_a_reverted_call_does_not_strand_its_senders_later_transactions():
    clients, balances = fund_clients(2, seed=4_600)
    sender, receiver = clients[0], clients[1].address
    deployment = _deployment(balances)
    txs = [
        make_transfer(sender, receiver, 1, 0),
        make_invoke(sender, RPM_ADDRESS, "join", (0,), 1),  # reverts: no deposit
        make_transfer(sender, receiver, 1, 2),
        make_transfer(sender, receiver, 1, 3),
    ]
    for k, tx in enumerate(txs):
        deployment.submit(tx, validator_id=k % 3, at=0.1 + 0.5 * k)
    deployment.start()
    deployment.run_until(30.0)
    assert deployment.safety_holds()
    chain = deployment.validators[0].blockchain
    assert chain.contains_tx(txs[0])
    assert chain.contains_tx(txs[2]) and chain.contains_tx(txs[3])


@pytest.mark.xfail(
    strict=True,
    reason="an address is derived from PublicKey.raw alone, which the binding does not pin",
)
def test_a_borrowed_public_key_does_not_sign_for_its_address():
    victim, attacker = generate_keypair(b"victim"), generate_keypair(b"attacker")
    borrowed = PublicKey(victim.public.raw, attacker.public.binding)
    forger = KeyPair(private=attacker.private, public=borrowed)
    assert forger.address == victim.address
    tx = make_transfer(forger, attacker.address, 12_345, 0)
    assert tx.sender == victim.address
    assert not check_signature(tx)
