"""A vote speaks only for the seat that sent it.

On the base ``ValidatorNode`` a seat's logical sender id is its node id,
so a consensus constituent whose ``sender`` differs from the transport-
level sender of the wire message that carried it is a forgery: one seat
stuffing a batch with votes "from" the others could otherwise reach any
quorum alone.
"""

import pytest

from repro import params
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind
from repro.core.deployment import Deployment
from repro.core.node import CONSENSUS_KIND
from repro.net.topology import single_region_topology
from repro.net.transport import Message

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
    node._recovering = True  # the per-constituent branch of the BATCH loop
    node.on_message(_batch([_bval(0, 0), _bval(2, 1)], wire_sender=2))
    assert [c.sender for c, _, _ in node._catchup_buffer] == [2]
