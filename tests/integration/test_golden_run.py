"""Golden run: one small deployment pinned byte for byte.

A change that claims to alter no digest, wire size or chain hash (memoising
derived values, a faster hash or Merkle routine) must leave every constant
below untouched.  They were recorded at the commit *before* derived values
moved onto the transaction and block objects; re-record them only for a
change that means to alter the chain or the wire format, and say so.
"""

import hashlib

from repro import params
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_invoke, make_transfer
from repro.crypto.keys import generate_keypair
from repro.net.topology import single_region_topology
from repro.vm.executor import native_address_for

GOLDEN_HEIGHT = 36
GOLDEN_HEAD_HASH = "93298555b0486b9502848d9179bd8ca7857b6ed4fbae8415c6104b374d05121f"
#: sha256 over the concatenated block hashes, genesis first
GOLDEN_CHAIN_DIGEST = "980733e34959cb59f582402e2478d01f9face0d21876b62b4637e6fb0dbfb050"
GOLDEN_STATE_ROOT = "9f4588df32c8a2b4017125a9ea1e53b99cdba45840f63cda0ccd807c84cf31ea"
GOLDEN_WIRE = (3_807_352, 1_088)  # (bytes, messages) the network carried
GOLDEN_COMMITTED = 164  # client transactions plus the RPM attestations


def run_golden_deployment() -> Deployment:
    """n = 4, 24 transfers and 12 exchange calls over 1.2 s round-robin,
    plus one transfer eager validation rejects (unfunded sender) and one
    that passes it but fails at execution (a nonce already spent through
    another validator), so the discard path and a filtered block are in
    the chain too."""
    clients, balances = fund_clients(6)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4),
        topology=single_region_topology(4),
        extra_balances=balances,
        seed=11,
    )
    deployment.start()
    exchange = native_address_for("exchange")
    at = 0.05
    for nonce in range(6):
        for c, client in enumerate(clients):
            if c < 4:
                tx = make_transfer(
                    client, clients[(c + 1) % 6].address, 10 + nonce, nonce=nonce
                )
            else:
                tx = make_invoke(
                    client, exchange, "trade",
                    ("AAPL" if c == 4 else "MSFT", 100_00 + nonce, 1 + nonce, "buy"),
                    nonce=nonce,
                )
            deployment.submit(tx, validator_id=(c + nonce) % 4, at=at)
            at += 1.2 / 36
    unfunded = make_transfer(generate_keypair(77), clients[0].address, 1, nonce=0)
    deployment.submit(unfunded, validator_id=1, at=0.3)
    respent = make_transfer(clients[0], clients[3].address, 999, nonce=0)
    deployment.submit(respent, validator_id=3, at=0.06)
    deployment.run_until(6.0)
    return deployment


def test_golden_run_is_byte_identical():
    deployment = run_golden_deployment()
    assert deployment.safety_holds() and deployment.states_agree()
    chain = deployment.validators[0].blockchain
    stats = deployment.network.stats
    hashes = chain.block_hashes()
    assert chain.height == GOLDEN_HEIGHT
    assert hashes[-1].hex() == GOLDEN_HEAD_HASH
    assert hashlib.sha256(b"".join(hashes)).hexdigest() == GOLDEN_CHAIN_DIGEST
    assert chain.state.state_root().hex() == GOLDEN_STATE_ROOT
    assert (stats.bytes, stats.messages) == GOLDEN_WIRE
    assert deployment.total_committed() == GOLDEN_COMMITTED
    observer = deployment.validators[0].stats
    assert (observer.txs_committed, observer.txs_discarded) == (GOLDEN_COMMITTED, 1)
    assert deployment.validators[1].stats.eager_failures == 1
