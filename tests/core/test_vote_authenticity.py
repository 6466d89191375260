"""A vote speaks only for the seat that sent it — on every node.

A seat's logical sender id is its node id, so a consensus constituent
whose ``sender`` differs from the transport-level sender of the wire
message that carried it is a forgery: one seat stuffing a batch with votes
"from" the others could otherwise reach any quorum alone.  Never-crashed,
recovering and restarted nodes take consensus traffic through the same
routine, so the same wire batches must leave them in the same state.
"""

import pytest

from repro import params
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind
from repro.consensus.superblock import SuperBlockConsensus
from repro.core.deployment import Deployment
from repro.core.node import CONSENSUS_KIND
from repro.net.topology import single_region_topology
from repro.net.transport import Message
from tests.consensus.test_vote_runs import INDEX as ROUND_INDEX, honest_traffic

INDEX = 1


def _bval(sender, instance):
    return ConsensusMessage(
        kind=MsgKind.BVAL, index=INDEX, instance=instance, round=1, value=1,
        sender=sender,
    )


def _wire(cmsg, wire_sender):
    return Message(kind=CONSENSUS_KIND, payload=cmsg, sender=wire_sender)


def _batch(votes, wire_sender):
    return _wire(
        ConsensusMessage(
            kind=MsgKind.BATCH, index=-1, instance=-1, round=0,
            value=ConsensusBatch(messages=tuple(votes), sender=wire_sender),
            sender=wire_sender,
        ),
        wire_sender,
    )


@pytest.fixture
def node():
    deployment = Deployment(
        protocol=params.ProtocolParams(n=4), topology=single_region_topology(4)
    )
    return deployment.validators[3]


def _tallies(node):
    consensus = node._consensus.get(INDEX)
    if consensus is None:
        return [0] * 4
    return [consensus.votes.bval_count(1, 1, i) for i in range(4)]


def test_forged_batch_moves_no_tally_and_emits_nothing(node):
    # 2f+1 = 3 BVAL(1) per instance: accepted, they would echo and AUX
    forged = [_bval(sender, i) for sender in (0, 1, 2) for i in range(4)]
    node.on_message(_batch(forged, wire_sender=3))
    assert _tallies(node) == [0, 0, 0, 0]
    assert node.vote_batcher.pending == 0

    # the same votes, each seat speaking for itself, do count
    for sender in (0, 1, 2):
        node.on_message(_batch([_bval(sender, i) for i in range(4)], wire_sender=sender))
    assert _tallies(node) == [3, 3, 3, 3]
    assert node.vote_batcher.pending > 0


def test_forged_votes_inside_an_honest_batch_are_skipped(node):
    votes = [_bval(2, 0), _bval(0, 1), _bval(2, 2), _bval(1, 3), _bval(2, 3)]
    node.on_message(_batch(votes, wire_sender=2))
    assert _tallies(node) == [1, 0, 1, 1]


def test_forged_single_message_is_dropped(node):
    node.on_message(_wire(_bval(0, 0), wire_sender=2))  # the unbatched path
    assert _tallies(node) == [0, 0, 0, 0]
    node.on_message(_wire(_bval(2, 0), wire_sender=2))
    assert _tallies(node) == [1, 0, 0, 0]


def test_forged_constituents_are_not_buffered_during_recovery(node):
    node._recovering = True
    node.on_message(_batch([_bval(0, 0), _bval(2, 1)], wire_sender=2))
    assert [item.sender for item, _ in node._catchup_buffer] == [2]


@pytest.mark.parametrize("n", (4, 7))
def test_restarted_node_tallies_the_same_batches_by_the_run(n, monkeypatch):
    """The recorded traffic of an all-correct round, a forged batch mixed
    in, fed to a never-crashed node and to one that crashed, restarted and
    recovered (``_catchup_floor`` stays set for life)."""
    calls = {"on_run": 0, "on_constituent": 0}
    for name in calls:
        original = getattr(SuperBlockConsensus, name)

        def counted(self, item, _name=name, _original=original):
            calls[_name] += 1
            _original(self, item)

        monkeypatch.setattr(SuperBlockConsensus, name, counted)

    traffic = list(honest_traffic(n, 0))
    forger = traffic[0][0]
    traffic.insert(1, ((forger + 1) % n, traffic[0][1]))  # forged: wrong link
    votes = sum(len(messages) for _, messages in traffic)

    def fed(restarted):
        deployment = Deployment(
            protocol=params.ProtocolParams(n=n), topology=single_region_topology(n)
        )
        node = deployment.validators[n - 1]
        if restarted:
            node.crash()
            node.restart()
            node._finish_recovery()
            assert node._catchup_floor > 0 and not node._recovering
        calls.update(on_run=0, on_constituent=0)
        for sender, messages in traffic:
            node.on_message(_batch(messages, wire_sender=sender))
        consensus = node._consensus[ROUND_INDEX]
        return (
            dict(calls), consensus.decisions, consensus.proposals,
            consensus.finished, consensus.superblock,
            consensus.votes._counts, consensus.votes._seen,
            list(node.vote_batcher._buffer),
        )

    never_crashed, restarted = fed(False), fed(True)
    assert restarted == never_crashed
    assert never_crashed[3] and len(never_crashed[1]) == n  # the round decided
    # by the run, not one call per vote
    assert restarted[0]["on_run"] > 0
    assert sum(restarted[0].values()) < votes
