"""An in-process committee checks each RPM certificate once, not n² times.

In Alg. 2 every validator attests every decided block, and every replica
executes every attestation, so one deployment of n seats runs each
certificate check n² times on equal arguments.  The check is a pure
function of those arguments: the contract keeps its verdicts in
process-wide memos keyed by the whole input.  Likewise every replica
cuts the same invalid transactions out of a flooder's decided block, and
the first one's root of the kept transactions serves the rest.

A count, not a clock: on a seeded n = 4 run with a flooding seat, the
signature checks equal the distinct (certificate, ``h_t``) pairs checked,
and the roots derived for shortened chain blocks equal the distinct kept
sets.  Checked once per replica, the same run makes about n times more
of each.
"""

from collections import Counter

from repro import params
from repro.core import block as block_module
from repro.core import rpm
from repro.core.blockchain import Blockchain
from repro.core.deployment import Deployment, fund_clients
from repro.core.transaction import make_transfer
from repro.faults import FaultSchedule
from repro.net.topology import single_region_topology

N = 4


def _run(monkeypatch):
    for memo in (rpm._proposer, rpm._signs, rpm._count_key):
        memo.cached.cache_clear()  # count this run's checks only
    checks, roots, kept, calls = Counter(), Counter(), set(), Counter()
    verify, transactions_hash = rpm.verify, block_module.transactions_hash
    commit_superblock = Blockchain.commit_superblock

    def counting_verify(public, message, signature):
        checks[public.raw, public.binding, signature.tag, signature.vk, message] += 1
        return verify(public, message, signature)

    def counting_root(txs):
        roots[tuple(tx.tx_hash for tx in txs)] += 1
        return transactions_hash(txs)

    def recording_commit(self, superblock, **kwargs):
        result = commit_superblock(self, superblock, **kwargs)
        decided = {b.proposer_id: len(b) for b in superblock.blocks}
        for block in result.appended_blocks:
            if len(block) < decided[block.proposer_id]:
                kept.add(tuple(tx.tx_hash for tx in block.transactions))
        for tx in (tx for b in superblock.blocks for tx in b.transactions):
            if tx.payload.get("contract") == rpm.RPM_ADDRESS:
                calls[tx.payload["function"]] += 1
        return result

    monkeypatch.setattr(rpm, "verify", counting_verify)
    monkeypatch.setattr(block_module, "transactions_hash", counting_root)
    monkeypatch.setattr(Blockchain, "commit_superblock", recording_commit)
    clients, balances = fund_clients(8, seed=4_500)
    deployment = Deployment(
        protocol=params.ProtocolParams(n=N, rpm=True),
        topology=single_region_topology(N),
        fault_schedule=FaultSchedule().byzantine_flood(3, at=0.0, per_block=10),
        extra_balances=balances,
        seed=11,
    )
    for i in range(48):
        tx = make_transfer(clients[i % 8], clients[(i + 1) % 8].address, 1, nonce=i // 8)
        deployment.submit(tx, validator_id=i % N, at=0.05 + 0.1 * i)
    deployment.start()
    deployment.run_until(10.0)
    assert deployment.safety_holds()
    return checks, roots, kept, calls


def test_each_certificate_and_kept_set_is_checked_once(monkeypatch):
    checks, roots, kept, calls = _run(monkeypatch)
    # every replica executed every attestation and report
    executed = calls["prop_received"] + calls["report"]
    assert calls["report"] > 0 and executed >= N * N * len(checks) // 2
    assert sum(checks.values()) == len(checks)  # one check per distinct pair
    assert len(kept) > 0
    assert sum(roots[k] for k in kept) == len(kept)  # one root per kept set
