"""Superblock set consensus: union of decided proposals, Byzantine cases."""

import random

import pytest

from repro.consensus.messages import ConsensusMessage, MsgKind
from repro.consensus.superblock import SuperBlockConsensus
from repro.core.block import make_block
from repro.core.transaction import make_transfer
from repro.crypto.keys import generate_keypair


def _block(kp, proposer_id, txs=1, seed=None):
    seed = seed if seed is not None else 10 + proposer_id
    sender = generate_keypair(seed)
    transactions = [
        make_transfer(sender, "aa" * 20, 1, nonce=i) for i in range(txs)
    ]
    return make_block(kp, proposer_id, 1, transactions, round=1)


class SBCluster:
    def __init__(self, n, f, *, byzantine=(), validate_header=None):
        self.n, self.f = n, f
        self.superblocks = {}
        self.queue = []
        self.byzantine = set(byzantine)
        self.keypairs = [generate_keypair(1000 + i) for i in range(n)]
        self.nodes = {}
        for i in range(n):
            if i in self.byzantine:
                continue
            self.nodes[i] = SuperBlockConsensus(
                n=n, f=f, my_id=i, index=1,
                broadcast=self.queue.append,
                on_superblock=self._make_cb(i),
                validate_header=validate_header,
            )

    def _make_cb(self, i):
        def on_superblock(sb):
            self.superblocks[i] = sb
        return on_superblock

    def propose_all(self, txs=1):
        for i, node in self.nodes.items():
            node.propose(_block(self.keypairs[i], i, txs=txs))

    def run(self, rng=None, timeout_after=None):
        steps = 0
        fired_timeout = False
        while steps < 500_000:
            if not self.queue:
                if timeout_after is not None and not fired_timeout:
                    for node in self.nodes.values():
                        node.timeout_silent_proposers()
                    fired_timeout = True
                    steps += 1
                    continue
                break
            if rng is not None and len(self.queue) > 1:
                idx = rng.randrange(len(self.queue))
                self.queue[idx], self.queue[-1] = self.queue[-1], self.queue[idx]
                msg = self.queue.pop()
            else:
                # FIFO delivery approximates a synchronous network
                msg = self.queue.pop(0)
            for node in self.nodes.values():
                node.on_message(msg)
            steps += 1


class TestAllCorrect:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
    def test_fifo_superblock_contains_all_proposals(self, n, f):
        """With timely delivery every validator's block makes the
        superblock — the §VI no-single-winner property."""
        cluster = SBCluster(n, f)
        cluster.propose_all()
        cluster.run()
        assert len(cluster.superblocks) == n
        for sb in cluster.superblocks.values():
            assert sorted(b.proposer_id for b in sb.blocks) == list(range(n))

    def test_close_round_rule_walks_the_slots_once(self, monkeypatch):
        """n−f slots decided 1 → input 0 wherever there is none: one walk
        over the slots per node, not one more for each later decide-1."""
        zero_votes = []
        original = SuperBlockConsensus._vote

        def counted(self, instance_id, value):
            if value == 0:
                zero_votes.append(self.my_id)
            original(self, instance_id, value)

        monkeypatch.setattr(SuperBlockConsensus, "_vote", counted)
        cluster = SBCluster(7, 2)
        cluster.propose_all()
        cluster.run()
        for i, node in cluster.nodes.items():
            assert sorted(node.decisions.values()) == [1] * 7  # f+1 past n−f
            assert zero_votes.count(i) == 7

    def test_superblocks_identical_across_nodes(self):
        """Under adversarial delivery orders the superblock may be a
        subset of proposals (RBBC allows it) but must be identical at
        every correct node and contain ≥ n−f blocks."""
        for seed in range(5):
            cluster = SBCluster(4, 1)
            cluster.propose_all(txs=3)
            cluster.run(rng=random.Random(seed))
            hashes = {
                (sb.index, sb.round, tuple(b.block_hash for b in sb))
                for sb in cluster.superblocks.values()
            }
            assert len(hashes) == 1
            assert len(next(iter(cluster.superblocks.values()))) >= 3


class TestSilentProposer:
    def test_round_terminates_without_one_proposer(self):
        cluster = SBCluster(4, 1, byzantine={3})
        cluster.propose_all()
        cluster.run(rng=random.Random(1), timeout_after=True)
        assert len(cluster.superblocks) == 3
        for sb in cluster.superblocks.values():
            ids = sorted(b.proposer_id for b in sb.blocks)
            assert 3 not in ids
            assert len(ids) >= 3 - 1  # at least n−f−… all correct proposals land
            assert ids == [0, 1, 2]

    def test_decisions_agree_on_silent_slot(self):
        cluster = SBCluster(4, 1, byzantine={3})
        cluster.propose_all()
        cluster.run(timeout_after=True)
        decisions = {tuple(sorted(n.decisions.items())) for n in cluster.nodes.values()}
        assert len(decisions) == 1


class TestInvalidHeaders:
    def test_uncertified_proposal_voted_out(self):
        """A proposal without a valid certificate is discarded (Alg. 1 l.16)."""
        from repro.core.block import Block

        cluster = SBCluster(4, 1, byzantine={3})
        cluster.propose_all()
        bad_block = Block(proposer_id=3, index=1, transactions=())
        cluster.queue.append(ConsensusMessage(
            kind=MsgKind.RBC_SEND, index=1, instance=3, round=0,
            value=bad_block, sender=3,
        ))
        cluster.run(rng=random.Random(2), timeout_after=True)
        for i, sb in cluster.superblocks.items():
            assert 3 not in [b.proposer_id for b in sb.blocks]
            assert 3 in cluster.nodes[i].discarded_headers

    def test_garbage_payload_voted_out(self):
        cluster = SBCluster(4, 1, byzantine={3})
        cluster.propose_all()
        cluster.queue.append(ConsensusMessage(
            kind=MsgKind.RBC_SEND, index=1, instance=3, round=0,
            value="not a block", sender=3,
        ))
        cluster.run(rng=random.Random(3), timeout_after=True)
        for sb in cluster.superblocks.values():
            assert 3 not in [b.proposer_id for b in sb.blocks]


class TestMessageRouting:
    def test_wrong_index_ignored(self):
        cluster = SBCluster(4, 1)
        node = cluster.nodes[0]
        node.on_message(ConsensusMessage(
            kind=MsgKind.RBC_SEND, index=99, instance=0, round=0,
            value=b"x", sender=0,
        ))
        assert not node.proposals

    def test_out_of_range_instance_ignored(self):
        cluster = SBCluster(4, 1)
        node = cluster.nodes[0]
        node.on_message(ConsensusMessage(
            kind=MsgKind.BVAL, index=1, instance=77, round=1, value=1, sender=0,
        ))  # silently dropped, no crash
