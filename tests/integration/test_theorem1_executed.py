"""Theorem 1, executed: the deposit book a live run commits is the book
the RPM's pure rules predict, and a reported flooder ends where the
closed form says (payoff −D₀, deposit 0).

Seat 3 of a seeded n = 4 deployment floods from t = 0.  The observer's
committed RPM INVOKE transactions are folded, in chain order, through
:func:`policy_attestation_reward` and :func:`policy_slash` from the
genesis book; ``Receipt.return_value`` is True exactly when an
attestation paid or a report slashed.
"""

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.rewards import byzantine_payoff
from repro.core.rpm import (
    RPM_ADDRESS,
    RPMContract,
    decode_certificate,
    policy_attestation_reward,
    policy_slash,
    read_deposit,
)
from repro.core.transaction import TxType, make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology

FLOOD_PER_BLOCK = 20


def _run():
    clients, balances = fund_clients(4, seed=4_400)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4, rpm=True),
        topology=single_region_topology(4),
        fault_schedule=FaultSchedule().byzantine_flood(
            3, at=0.0, per_block=FLOOD_PER_BLOCK
        ),
        extra_balances=balances,
        seed=7,
    )
    for i in range(12):
        tx = make_transfer(
            clients[i % 4], clients[(i + 1) % 4].address, 1, nonce=i // 4
        )
        deployment.submit(tx, validator_id=i % 3, at=0.05 + 0.2 * i)
    deployment.start()
    deployment.run_until(10.0)
    return deployment


def _fold(observer, rpm: RPMContract, validators: tuple, deposit: int):
    """Replay the committed RPM calls through the pure rules."""
    book = dict.fromkeys(validators, deposit)
    paid = slashed = 0
    for block in observer.blockchain.chain[1:]:
        for tx in block.transactions:
            if (
                tx.tx_type is not TxType.INVOKE
                or tx.payload["contract"] != RPM_ADDRESS
                or observer.receipts.get(tx.tx_hash).receipt.return_value
                is not True
            ):
                continue
            args = tx.payload["args"]
            proposer = decode_certificate(tuple(args[0])).proposer_address()
            if tx.payload["function"] == "prop_received":
                book[proposer] += policy_attestation_reward(
                    rpm.block_reward, rpm.validation_cost, args[2]
                )
                paid += 1
            else:
                assert tx.payload["function"] == "report"
                penalty, shares = policy_slash(book[proposer], validators, proposer)
                book[proposer] -= penalty
                for address, share in shares:
                    book[address] += share
                slashed += 1
    return book, paid, slashed


def test_executed_book_is_the_closed_form():
    deployment = _run()
    observer = deployment.validators[0]
    rpm = deployment.registry.get(RPMContract.name)
    validators = tuple(kp.address for kp in deployment.keypairs)
    d0 = deployment.genesis.validator_deposit

    book, paid, slashed = _fold(observer, rpm, validators, d0)
    assert paid > 0 and slashed > 0  # both rules were exercised
    state = observer.blockchain.state
    assert book == {a: read_deposit(state, a) for a in validators}

    attacker = validators[3]
    closed = byzantine_payoff(
        rpm, FLOOD_PER_BLOCK, 0, d0,
        skipped_validations=FLOOD_PER_BLOCK, reported=True,
    )
    assert read_deposit(state, attacker) - d0 == closed.payoff == -d0
    assert read_deposit(state, attacker) == closed.deposit_after == 0
