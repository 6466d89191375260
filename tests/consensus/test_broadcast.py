"""Bracha reliable broadcast: validity, agreement, equivocation defence."""

import random

import pytest

from repro import params
from repro.consensus.broadcast import ReliableBroadcast, _digest
from repro.consensus.messages import ConsensusMessage, MsgKind
from repro.core.deployment import Deployment
from repro.net.topology import single_region_topology
from tests.consensus.test_vote_runs import _rbc_untouched
from tests.core.test_vote_authenticity import _batch, _wire


class RBCCluster:
    def __init__(self, n, f, *, byzantine=()):
        self.n, self.f = n, f
        self.delivered = {}  # node -> {slot: payload}
        self.queue = []
        self.byzantine = set(byzantine)
        self.nodes = {}
        for i in range(n):
            if i in self.byzantine:
                continue
            self.nodes[i] = ReliableBroadcast(
                n=n, f=f, my_id=i, index=0,
                broadcast=self.queue.append,
                on_deliver=self._make_deliver(i),
            )

    def _make_deliver(self, i):
        def deliver(slot, payload):
            self.delivered.setdefault(i, {})[slot] = payload
        return deliver

    def run(self, rng=None):
        steps = 0
        while self.queue and steps < 100_000:
            if rng is not None and len(self.queue) > 1:
                idx = rng.randrange(len(self.queue))
                self.queue[idx], self.queue[-1] = self.queue[-1], self.queue[idx]
            msg = self.queue.pop()
            for node in self.nodes.values():
                node.on_message(msg)
            steps += 1

    def inject(self, **kw):
        self.queue.append(ConsensusMessage(index=0, round=0, **kw))


class TestValidity:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
    def test_correct_broadcaster_delivers_everywhere(self, n, f):
        cluster = RBCCluster(n, f)
        cluster.nodes[0].broadcast_payload(b"block-0")
        cluster.run()
        for i in cluster.nodes:
            assert cluster.delivered[i][0] == b"block-0"

    def test_all_nodes_broadcast_all_slots_deliver(self):
        cluster = RBCCluster(4, 1)
        for i, node in cluster.nodes.items():
            node.broadcast_payload(f"block-{i}".encode())
        cluster.run(rng=random.Random(3))
        for i in cluster.nodes:
            assert set(cluster.delivered[i]) == {0, 1, 2, 3}


class TestAgreement:
    def test_equivocating_broadcaster_never_splits(self):
        """Byzantine node 3 sends payload A to half, B to the other half:
        at most one payload can ever be delivered, identically everywhere."""
        for seed in range(8):
            cluster = RBCCluster(4, 1, byzantine={3})
            for dst, payload in ((0, b"A"), (1, b"A"), (2, b"B")):
                # targeted SENDs: simulate by delivering directly
                cluster.nodes[dst].on_message(ConsensusMessage(
                    kind=MsgKind.RBC_SEND, index=0, instance=3, round=0,
                    value=payload, sender=3,
                ))
            cluster.run(rng=random.Random(seed))
            values = {
                tuple(sorted(d.items())) for d in cluster.delivered.values()
            }
            delivered_payloads = {
                payload for d in cluster.delivered.values() for payload in d.values()
            }
            assert len(delivered_payloads) <= 1

    def test_spoofed_send_ignored(self):
        """A SEND claiming slot 1 but sent by node 3 must be ignored."""
        cluster = RBCCluster(4, 1)
        cluster.inject(kind=MsgKind.RBC_SEND, instance=1, value=b"fake", sender=3)
        cluster.run()
        assert all(1 not in d for d in cluster.delivered.values())

    def test_ready_amplification(self):
        """f+1 READYs trigger a READY even without 2f+1 ECHOs (totality)."""
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        digest_payload = (b"\x01" * 32, b"payload")
        for sender in (1, 2):
            node.on_message(ConsensusMessage(
                kind=MsgKind.RBC_READY, index=0, instance=2, round=0,
                value=digest_payload, sender=sender,
            ))
        sent_kinds = [m.kind for m in cluster.queue]
        assert MsgKind.RBC_READY in sent_kinds


class TestThresholds:
    def test_single_echo_insufficient(self):
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        node.on_message(ConsensusMessage(
            kind=MsgKind.RBC_ECHO, index=0, instance=2, round=0,
            value=(b"\x02" * 32, b"p"), sender=1,
        ))
        assert not cluster.queue  # no READY yet
        assert not node.delivered(2)

    def test_duplicate_echo_not_counted(self):
        cluster = RBCCluster(4, 1)
        node = cluster.nodes[0]
        for _ in range(5):
            node.on_message(ConsensusMessage(
                kind=MsgKind.RBC_ECHO, index=0, instance=2, round=0,
                value=(b"\x02" * 32, b"p"), sender=1,
            ))
        assert not cluster.queue


class TestPayloadMatchesDigest:
    """A vote is only as good as its digest: the payload a node keeps,
    forwards and delivers for digest ``d`` is the first one that hashes
    to ``d`` — not the first one that arrives."""

    BLOCK = b"block-1"

    def _node(self):
        out, delivered = [], []
        node = ReliableBroadcast(
            n=4, f=1, my_id=0, index=0, broadcast=out.append,
            on_deliver=lambda slot, payload: delivered.append((slot, payload)),
        )
        return node, out, delivered

    def _vote(self, node, kind, payload, sender):
        node.on_message(ConsensusMessage(
            kind=kind, index=0, instance=1, round=0,
            value=(_digest(self.BLOCK), payload), sender=sender,
        ))

    @pytest.mark.parametrize("first", [b"forged", None, "absent"])
    def test_first_payload_that_hashes_wins(self, first):
        """Byzantine seat 3 ECHOs slot 1's digest first, with a forged
        payload or none, before the SEND reaches node 0; the honest votes
        carry the real block.  (Before the digest rule node 0 delivered
        ``b"forged"``; a payload-less first ECHO left it forwarding
        ``READY(d, None)`` and never delivering.)"""
        node, out, delivered = self._node()
        if first != "absent":
            self._vote(node, MsgKind.RBC_ECHO, first, sender=3)
        for sender in (1, 2, 0):
            self._vote(node, MsgKind.RBC_ECHO, self.BLOCK, sender)
        for sender in (1, 2, 3):
            self._vote(node, MsgKind.RBC_READY, self.BLOCK, sender)
        assert [m.value[1] for m in out] == [self.BLOCK]  # its READY carries it
        assert delivered == [(1, self.BLOCK)]

    def test_forged_payload_alone_never_delivers(self):
        node, out, delivered = self._node()
        for sender in (1, 2, 3):
            self._vote(node, MsgKind.RBC_READY, b"forged", sender)
        assert [m.value for m in out] == [(_digest(self.BLOCK), None)]
        assert not delivered and not node.delivered(1)
        self._vote(node, MsgKind.RBC_READY, self.BLOCK, 0)  # a READY that carries it
        assert delivered == [(1, self.BLOCK)]


class TestOneVotePerSender:
    """Bracha's rule: a sender's first ECHO and first READY for a slot
    count, whatever their digest, and no later one does.  A Byzantine
    sender voting a fresh digest each time on an undelivered slot opens
    at most one other-digest entry per kind (before the rule, one per
    digest, each keeping the payload that hashes to it)."""

    GENUINE = b"block-1"

    def _vote(self, node, kind, payload, sender):
        node.on_message(ConsensusMessage(
            kind=kind, index=0, instance=1, round=0,
            value=(_digest(payload), payload), sender=sender,
        ))

    def test_fresh_digests_open_one_entry_per_kind(self):
        out, delivered = [], []
        node = ReliableBroadcast(
            n=4, f=1, my_id=0, index=0, broadcast=out.append,
            on_deliver=lambda slot, payload: delivered.append((slot, payload)),
        )
        node.on_message(ConsensusMessage(
            kind=MsgKind.RBC_SEND, index=0, instance=1, round=0,
            value=self.GENUINE, sender=1,
        ))
        for k in range(50):
            self._vote(node, MsgKind.RBC_ECHO, b"echo-%d" % k, sender=3)
            self._vote(node, MsgKind.RBC_READY, b"ready-%d" % k, sender=3)
        assert sorted(node._others) == sorted(
            [(1, _digest(b"echo-0")), (1, _digest(b"ready-0"))]
        )
        # seat 3 has cast both votes: the genuine digest gets neither
        self._vote(node, MsgKind.RBC_ECHO, self.GENUINE, sender=3)
        self._vote(node, MsgKind.RBC_READY, self.GENUINE, sender=3)
        assert (node._echoes[1], node._readies[1]) == (0, 0)
        # the honest seats still deliver the genuine block
        for kind in (MsgKind.RBC_ECHO, MsgKind.RBC_READY):
            for sender in (0, 1, 2):
                self._vote(node, kind, self.GENUINE, sender)
        assert delivered == [(1, self.GENUINE)]


class TestMalformedVotes:
    """An ECHO/READY whose value is not a ``(bytes digest, payload)`` pair
    is nobody's vote: a node drops it, batched or alone, tallies nothing
    and keeps serving."""

    @pytest.mark.parametrize("value", [5, None, (b"d",), (b"d", b"p", 3), "xy", ("d", b"p")])
    @pytest.mark.parametrize("batched", [False, True])
    def test_dropped_not_raised(self, value, batched):
        deployment = Deployment(
            protocol=params.ProtocolParams(n=4), topology=single_region_topology(4)
        )
        node = deployment.validators[3]
        votes = [
            ConsensusMessage(kind=kind, index=1, instance=slot, round=0, value=value, sender=0)
            for kind in (MsgKind.RBC_ECHO, MsgKind.RBC_READY)
            for slot in (1, 2)
        ]
        if batched:
            node.on_message(_batch(votes, wire_sender=0))
        else:
            for vote in votes:
                node.on_message(_wire(vote, 0))
        rbc = node._consensus[1].rbc
        assert _rbc_untouched(rbc)
        assert node.vote_batcher.pending == 0
        # a well-formed vote from the same seat still counts
        node.on_message(_wire(votes[0]._replace(value=(b"d", b"p")), 0))
        assert rbc._echoes[1] == 1
