"""Vote runs: a batch tallied by the run behaves as if tallied by the vote.

``ConsensusBatch.runs()`` folds stretches of like votes so that a receiver
makes one call per stretch (``SuperBlockConsensus.on_run``) instead of one
per vote.  The property that must hold is plain: whatever stream of
batches arrives, a node fed through ``runs()`` emits the same messages in
the same order, decides the same slots and builds the same superblock as a
node fed the same constituents one ``on_constituent`` at a time — and both
match a node fed the stream with every repeated vote filtered out by this
file's own set-based statement of the double-vote rule.

The streams are the recorded traffic of an all-correct round (so that
thresholds, decisions, the n−f close-round rule and the superblock are
actually reached), cut into batches at random points and then damaged:
batches and votes duplicated, dropped and reordered, both values from one
sender, foreign and garbage constituents pushed into the middle of
stretches, garbage senders, values, rounds, indexes and instances.
"""

import random
import sys
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.broadcast import ReliableBroadcast
from repro.consensus.dbft import VoteTable
from repro.consensus.messages import (
    RUN_INSTANCE_LIMIT,
    ConsensusBatch,
    ConsensusMessage,
    MsgKind,
    VoteRun,
)
from repro.consensus.superblock import SuperBlockConsensus
from repro.core.block import make_block
from repro.crypto.keys import generate_keypair

INDEX = 5
VOTE_KINDS = (MsgKind.BVAL, MsgKind.AUX)
RBC_VOTE_KINDS = (MsgKind.RBC_ECHO, MsgKind.RBC_READY)
GHOST_SENDERS = (-1, 10**9, "3", None)  # plus n itself, added per case


def _vote(kind=MsgKind.BVAL, index=INDEX, instance=0, round=1, value=1, sender=0):
    return ConsensusMessage(
        kind=kind, index=index, instance=instance,
        round=round, value=value, sender=sender,
    )


def _flatten(runs):
    out = []
    for item in runs:
        out.extend(item.messages if type(item) is VoteRun else (item,))
    return out


@lru_cache(maxsize=None)
def _blocks(n):
    return tuple(
        make_block(generate_keypair(7000 + i), i, INDEX, [], round=INDEX)
        for i in range(n)
    )


def _node(n, my_id, out, superblocks):
    return SuperBlockConsensus(
        n=n, f=(n - 1) // 3, my_id=my_id, index=INDEX,
        broadcast=out.append, on_superblock=superblocks.append,
    )


def _wire(messages, sender):
    return _vote(
        kind=MsgKind.BATCH, index=-1, instance=-1, round=0,
        value=ConsensusBatch(messages=tuple(messages), sender=sender),
        sender=sender,
    )


@lru_cache(maxsize=None)
def honest_traffic(n, seed):
    """``(sender, constituents)`` for every batch an all-correct round of
    ``n`` nodes exchanges (f of them propose nothing), in delivery order.
    Tick by tick, as a deployment does: every node flushes what it has
    buffered, then all those batches are delivered — except that a node
    may sit a tick out or flush only a prefix of its buffer, so stretches
    are also cut at arbitrary points.  RBC SENDs ride inside the batches."""
    rng = random.Random(seed)
    buffers = {i: [] for i in range(n)}
    nodes = [_node(n, i, buffers[i], []) for i in range(n)]
    silent = set(rng.sample(range(n), (n - 1) // 3))
    for i in range(n):
        if i not in silent:
            nodes[i].propose(_blocks(n)[i])
    traffic = []
    while any(buffers.values()):
        tick = []
        for sender in rng.sample(range(n), n):
            buffer = buffers[sender]
            if not buffer or rng.random() < 0.15:
                continue
            cut = len(buffer) if rng.random() < 0.7 else rng.randint(1, len(buffer))
            tick.append((sender, tuple(buffer[:cut])))
            del buffer[:cut]
        traffic += tick
        for sender, messages in tick:
            wire = _wire(messages, sender)
            for node in nodes:
                node.on_message(wire)
    assert all(node.finished for node in nodes)
    return tuple(traffic)


# -- damaging a stream ---------------------------------------------------------


def garbage_votes(n):
    """Arbitrary single constituents: every kind, wrong and right indexes,
    rounds, values, senders and instances."""
    blocks = _blocks(n)
    digests = [b.block_hash for b in blocks] + [b"\x00" * 32]
    binary = st.builds(
        _vote,
        kind=st.sampled_from((MsgKind.BVAL, MsgKind.AUX, MsgKind.COORD)),
        index=st.sampled_from((INDEX, INDEX, INDEX, INDEX + 1)),
        instance=st.one_of(
            st.integers(0, n - 1),
            st.sampled_from((n, n + 7, -1, RUN_INSTANCE_LIMIT, 10**9)),
        ),
        round=st.sampled_from((1, 1, 2, 2, 3, 0, -1, 64, 65, 70)),
        value=st.sampled_from((0, 1, 0, 1, 2, 42, -1, True, 1.0)),
        sender=st.one_of(st.integers(0, n - 1), st.sampled_from(GHOST_SENDERS + (n,))),
    )
    rbc_votes = st.builds(
        _vote,
        kind=st.sampled_from(RBC_VOTE_KINDS),
        index=st.sampled_from((INDEX, INDEX, INDEX, INDEX + 1)),
        instance=st.one_of(st.integers(0, n - 1), st.sampled_from((n, -1, 10**9))),
        round=st.just(0),
        value=st.tuples(
            st.sampled_from(digests), st.sampled_from(blocks + (None, b"junk"))
        ),
        sender=st.one_of(st.integers(0, n - 1), st.sampled_from(GHOST_SENDERS + (n,))),
    )
    sends = st.builds(
        lambda slot, payload: _vote(
            kind=MsgKind.RBC_SEND, instance=slot, round=0, value=payload, sender=slot
        ),
        st.integers(0, n - 1),
        st.sampled_from(blocks + (b"junk",)),
    )
    return st.one_of(binary, binary, rbc_votes, sends)


@st.composite
def damaged_streams(draw):
    n = draw(st.sampled_from((4, 4, 7, 7, 32)))
    traffic = [
        [sender, list(messages)]
        for sender, messages in honest_traffic(n, draw(st.integers(0, 1)))
    ]
    garbage = garbage_votes(n)
    where = st.floats(0, 1, exclude_max=True)

    def batch():
        return traffic[int(draw(where) * len(traffic))]

    for edit in draw(st.lists(st.integers(0, 8), max_size=24)):
        if edit == 0:  # a whole batch again, anywhere later or earlier
            sender, messages = batch()
            traffic.insert(int(draw(where) * len(traffic)), [sender, list(messages)])
        elif edit == 1:  # one vote again, right next to itself or far away
            messages = batch()[1]
            at = int(draw(where) * len(messages))
            near = draw(st.booleans())
            to = at + draw(st.integers(0, 2)) if near else int(draw(where) * len(messages))
            messages.insert(to, messages[at])
        elif edit == 2 and len(traffic) > 1:  # a batch lost
            traffic.remove(batch())
        elif edit == 3 and len(traffic) > 1:  # two batches swapped
            at = int(draw(where) * (len(traffic) - 1))
            traffic[at], traffic[at + 1] = traffic[at + 1], traffic[at]
        elif edit == 4:  # the other value too, from the same sender
            messages = batch()[1]
            at = int(draw(where) * len(messages))
            if messages[at].kind in VOTE_KINDS:
                flipped = replace(messages[at], value=1 - messages[at].value)
                messages.insert(at + draw(st.integers(0, 1)), flipped)
        elif edit == 5:  # one field of one vote turned to garbage
            messages = batch()[1]
            at = int(draw(where) * len(messages))
            field, values = draw(st.sampled_from((
                ("sender", GHOST_SENDERS + (n,)),
                ("instance", (n, -1, RUN_INSTANCE_LIMIT, 10**9)),
                ("index", (INDEX + 1,)),
                ("round", (0, 65)),
            )))
            messages[at] = replace(messages[at], **{field: draw(st.sampled_from(values))})
        else:  # anything at all pushed into the middle of a batch
            messages = batch()[1]
            messages.insert(int(draw(where) * (len(messages) + 1)), draw(garbage))
    my_id = draw(st.integers(0, n - 1))
    return n, my_id, [(s, tuple(m)) for s, m in traffic if m]


def drop_repeated_votes(messages, seen):
    """The double-vote rule, stated on sets: a sender's BVAL counts once
    per (instance, round, value), its AUX once per (instance, round), its
    ECHO/READY once per (slot, digest).  Only well-formed votes claim a
    key, so everything dropped here is a vote the protocol must ignore."""
    kept = []
    for m in messages:
        key = None
        if m.kind in VOTE_KINDS and type(m.value) is int and m.value in (0, 1):
            key = (m.kind, m.index, m.instance, m.round, repr(m.sender))
            if m.kind is MsgKind.BVAL:
                key += (m.value,)
        elif m.kind in RBC_VOTE_KINDS:
            key = (m.kind, m.index, m.instance, m.value[0], repr(m.sender))
        if key is not None:
            if key in seen:
                continue
            seen.add(key)
        kept.append(m)
    return kept


def _emitted(out):
    """Emission trace with exact types (``1 == 1.0 == True`` would hide a
    vote echoed with the wrong round or value type)."""
    trace = []
    for m in out:
        value = m.value
        if isinstance(value, tuple):
            value = (value[0], id(value[1]))
        elif not isinstance(value, (int, float)):
            value = id(value)
        trace.append((m.kind, m.index, m.instance, repr(m.round), repr(value), m.sender))
    return trace


def _outcome(node, out, superblocks):
    return (
        _emitted(out), dict(node.decisions), node.finished, node.superblock,
        sorted(node.proposals), list(superblocks),
    )


@settings(max_examples=200, deadline=None)
@given(damaged_streams())
def test_runs_tally_like_single_votes(case):
    n, my_id, stream = case

    def fresh():
        out, superblocks = [], []
        return _node(n, my_id, out, superblocks), out, superblocks

    by_run, by_vote, deduplicated = fresh(), fresh(), fresh()
    seen = set()
    for sender, messages in stream:
        by_run[0].on_message(_wire(messages, sender))
        for m in messages:
            by_vote[0].on_constituent(m)
        for m in drop_repeated_votes(messages, seen):
            deduplicated[0].on_constituent(m)
    assert _outcome(*by_run) == _outcome(*by_vote)
    assert _outcome(*by_vote) == _outcome(*deduplicated)


def test_honest_traffic_is_not_trivial():
    """The recorded rounds really do fold (else the property above would
    compare the single-vote path with itself) and really do decide."""
    for n in (4, 7, 32):
        traffic = honest_traffic(n, 0)
        runs = [
            item
            for sender, messages in traffic
            for item in ConsensusBatch(messages=messages, sender=sender).runs()
        ]
        folded = [r for r in runs if type(r) is VoteRun and len(r.messages) > 1]
        assert len(folded) >= 2 * n
        # at least a third of all votes travel in runs longer than one
        assert 3 * sum(len(r.messages) for r in folded) > sum(len(m) for _, m in traffic)
        out, superblocks = [], []
        node = _node(n, 0, out, superblocks)
        for sender, messages in traffic:
            node.on_message(_wire(messages, sender))
        assert len(superblocks) == 1
        assert sorted(node.decisions.values()).count(1) >= n - (n - 1) // 3


def test_regrouping_across_a_constituent_would_be_observable():
    """[BVAL(0), READY, BVAL(1)] is not [BVAL(0, 1), READY]: the READY
    delivers slot 3's proposal, whose COORD and first BVAL must leave
    *before* the echo that the second BVAL stretch triggers."""
    n = 4  # f = 1: echo at 2 BVALs, READY at 2 READYs, delivery at 3
    block = _blocks(n)[3]

    def batch(sender, *, second_stretch):
        messages = [
            _vote(instance=0, sender=sender),
            _vote(kind=MsgKind.RBC_READY, instance=3, round=0,
                  value=(block.block_hash, block), sender=sender),
        ]
        if second_stretch:
            messages.append(_vote(instance=1, sender=sender))
        return sender, tuple(messages)

    batches = [
        batch(1, second_stretch=True),
        batch(2, second_stretch=False),
        batch(3, second_stretch=True),  # third READY and second BVAL(1)
    ]
    outs = _feed_both_ways(n, 0, batches)
    assert outs[0] == outs[1]
    assert [(m[0], m[2]) for m in outs[0]] == [
        (MsgKind.BVAL, 0), (MsgKind.RBC_READY, 3),
        (MsgKind.COORD, 3), (MsgKind.BVAL, 3), (MsgKind.BVAL, 1),
    ]
    runs = ConsensusBatch(messages=batches[2][1], sender=3).runs()
    assert [(r.kind, r.instances) for r in runs] == [
        (MsgKind.BVAL, (0,)), (None, ()), (MsgKind.BVAL, (1,)),
    ]


def _feed_both_ways(n, my_id, batches):
    """Emission traces of one node fed ``batches`` by the run and another
    fed the same constituents by the vote."""
    traces = []
    for feed_runs in (True, False):
        out, superblocks = [], []
        node = _node(n, my_id, out, superblocks)
        for sender, messages in batches:
            if feed_runs:
                node.on_message(_wire(messages, sender))
            else:
                for m in messages:
                    node.on_constituent(m)
        traces.append(_emitted(out))
    return traces


def test_columns_are_woken_as_their_counter_moves_not_after_the_run():
    """A decision made in the middle of a run can input 0 to a *later*
    instance of the same run (n−f slots decided 1 → vote 0 elsewhere).
    That instance must find its own counter not yet bumped, as it would
    vote by vote: tallying the whole run first and waking afterwards lets
    slot 3 below leave round 1 inside slot 2's decision, and its
    BVAL(2) overtakes slot 2's."""
    n = 4  # f = 1; this node is seat 3 and never gets slot 3's proposal
    blocks = _blocks(n)
    aux = MsgKind.AUX
    batches = []
    for sender in (0, 1, 2):
        batches.append((sender, tuple(
            _vote(kind=MsgKind.RBC_READY, instance=slot, round=0,
                  value=(blocks[slot].block_hash, blocks[slot]), sender=sender)
            for slot in (0, 1, 2)
        )))  # third READY delivers: slots 0-2 get input 1
    for sender in (0, 1, 2):  # 1 enters bin_values everywhere, slot 3 included
        batches.append((sender, tuple(_vote(instance=i, sender=sender) for i in range(n))))
    for sender in (0, 1):
        batches.append((sender, tuple(_vote(kind=aux, instance=i, sender=sender) for i in range(n))))
    batches.append((2, tuple(_vote(kind=aux, instance=i, sender=2) for i in (0, 1))))
    # slots 0 and 1 have decided 1; slots 2 and 3 are one AUX short, and
    # that AUX arrives for both in one run: slot 2 decides (the third 1),
    # which inputs 0 to slot 3, whose own third AUX is next in the run
    batches.append((2, tuple(_vote(kind=aux, instance=i, sender=2) for i in (2, 3))))
    assert [len(ConsensusBatch(messages=m, sender=s).runs()) for s, m in batches[-2:]] == [1, 1]

    by_run, by_vote = _feed_both_ways(n, 3, batches)
    assert by_run == by_vote
    assert [(m[0], m[2], m[3], m[4]) for m in by_run[-4:]] == [
        (MsgKind.BVAL, 3, "1", "0"),  # slot 3's late input
        (MsgKind.AUX, 3, "1", "1"),
        (MsgKind.BVAL, 2, "2", "1"),  # slot 2 moves on first...
        (MsgKind.BVAL, 3, "2", "1"),  # ...then slot 3 hears its third AUX
    ]


# -- runs() itself -------------------------------------------------------------


class TestRuns:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_flattening_gives_back_the_constituents(self, data):
        n = data.draw(st.sampled_from((4, 7, 32)))
        messages = tuple(data.draw(st.lists(garbage_votes(n), min_size=1, max_size=12)))
        # garbage alone rarely repeats a key: lay stretches in between,
        # some of them split by one foreign constituent
        for _ in range(data.draw(st.integers(0, 4))):
            base = data.draw(garbage_votes(n))
            stretch = [
                replace(base, instance=i)
                for i in data.draw(st.lists(st.integers(0, n), max_size=n))
            ]
            if data.draw(st.booleans()):
                split = data.draw(st.integers(0, len(stretch)))
                stretch.insert(split, data.draw(garbage_votes(n)))
            at = data.draw(st.integers(0, len(messages)))
            messages = messages[:at] + tuple(stretch) + messages[at:]
        batch = ConsensusBatch(messages=messages, sender=0)
        runs = batch.runs()
        assert _flatten(runs) == list(messages)
        assert all(a is b for a, b in zip(_flatten(runs), messages))
        for run in runs:
            if type(run) is not VoteRun:
                continue
            first = run.messages[0]
            assert (run.index, run.sender) == (first.index, first.sender)
            if run.kind is None:
                assert {m.kind for m in run.messages} <= set(RBC_VOTE_KINDS)
                assert {(m.index, m.sender) for m in run.messages} == {
                    (run.index, run.sender)
                }
                continue
            assert run.kind in VOTE_KINDS and type(run.value) is int
            assert run.instances == tuple(m.instance for m in run.messages)
            assert len(set(run.instances)) == len(run.instances)
            assert run.mask == sum(1 << i for i in run.instances)
            assert {
                (m.kind, m.index, m.round, m.value, m.sender, type(m.value))
                for m in run.messages
            } == {(run.kind, run.index, run.round, run.value, run.sender, int)}

    def test_maximal_stretches_fold_and_others_stay_single(self):
        messages = (
            _vote(instance=0), _vote(instance=1), _vote(instance=2),
            _vote(instance=1),  # repeated instance: a new run
            _vote(instance=3, value=0),  # other value
            _vote(instance=4, value=0, round=2),  # other round
            _vote(kind=MsgKind.COORD, instance=0),
            _vote(kind=MsgKind.AUX, instance=0), _vote(kind=MsgKind.AUX, instance=5),
            _vote(kind=MsgKind.AUX, instance=6, sender=1),  # other sender
            _vote(kind=MsgKind.AUX, instance=7, index=INDEX + 1, sender=1),
            _vote(instance=0, value=True), _vote(instance=1, value=2),
            _vote(instance=-1), _vote(instance=RUN_INSTANCE_LIMIT),
            _vote(kind=MsgKind.RBC_SEND, instance=0, value=b"p"),
            _vote(kind=MsgKind.RBC_ECHO, instance=0, value=(b"d", b"p")),
            _vote(kind=MsgKind.RBC_READY, instance=0, value=(b"d", b"p")),
            _vote(kind=MsgKind.RBC_ECHO, instance=1, value=(b"d", b"p")),
            _vote(kind=MsgKind.RBC_ECHO, instance=1, value=(b"d", b"p"), sender=2),
        )
        shape = [
            (r.kind, r.instances or len(r.messages)) if type(r) is VoteRun else r.kind
            for r in ConsensusBatch(messages=messages, sender=0).runs()
        ]
        assert shape == [
            (MsgKind.BVAL, (0, 1, 2)), (MsgKind.BVAL, (1,)), (MsgKind.BVAL, (3,)),
            (MsgKind.BVAL, (4,)), MsgKind.COORD, (MsgKind.AUX, (0, 5)),
            (MsgKind.AUX, (6,)), (MsgKind.AUX, (7,)),
            MsgKind.BVAL, MsgKind.BVAL, MsgKind.BVAL, MsgKind.BVAL,
            MsgKind.RBC_SEND, (None, 3), (None, 1),
        ]

    def test_memoised_and_invisible_to_eq_and_hash(self):
        messages = tuple(_vote(instance=i) for i in range(4))
        batch = ConsensusBatch(messages=messages, sender=0)
        untouched = ConsensusBatch(messages=messages, sender=0)
        before = hash(batch)
        runs = batch.runs()
        assert batch.runs() is runs
        assert "_runs" not in untouched.__dict__
        assert batch == untouched and hash(batch) == before == hash(untouched)
        assert replace(batch, sender=1).__dict__.get("_runs") is None
        # sizes are still a function of ``messages`` alone
        assert batch.approx_size() == untouched.approx_size()


# -- the tally boundary --------------------------------------------------------


class _Column:
    """Stands in for a BinaryConsensus: records being woken."""

    def __init__(self):
        self.round = 1
        self.woken = []

    def _check_bval(self, r, value):
        self.woken.append(("bval", r, value))

    def _try_advance(self, r):
        self.woken.append(("aux", r))


def _table(n):
    table = VoteTable(n=n, f=(n - 1) // 3, columns=n)
    table.owners[:] = [_Column() for _ in range(n)]
    return table


def _stored_ints(table):
    yield from table._seen.values()
    for counts in table._counts.values():
        yield from counts


class TestRangeChecks:
    N = 7

    @pytest.mark.parametrize("sender", [-1, N, 10**9, "3", None])
    def test_ghost_senders_move_no_tally(self, sender):
        table = _table(self.N)
        everyone = tuple(range(self.N))
        for _ in range(3):
            table.bval(1, 1, sender, everyone, (1 << self.N) - 1)
            table.aux(1, 0, sender, everyone, (1 << self.N) - 1)
        assert not any(_stored_ints(table))
        assert not any(owner.woken for owner in table.owners)

        delivered = []
        rbc = ReliableBroadcast(
            n=self.N, f=2, my_id=0, index=INDEX,
            broadcast=delivered.append, on_deliver=lambda *a: delivered.append(a),
        )
        for kind in RBC_VOTE_KINDS:
            rbc.on_message(_vote(kind=kind, instance=1, value=(b"d", b"p"), sender=sender))
        assert not delivered
        assert all(not s.echoes and not s.readies for s in rbc._slots.values())

    @pytest.mark.parametrize("instance", [N, N + 100, RUN_INSTANCE_LIMIT - 1])
    def test_unknown_instances_move_no_tally(self, instance):
        table = _table(self.N)
        table.bval(1, 1, 0, (instance,), 1 << instance)
        table.aux(1, 1, 0, (instance,), 1 << instance)
        # ...alone or beside known ones, which still count
        table.bval(1, 1, 1, (2, instance), 1 << 2 | 1 << instance)
        assert table.bval_count(1, 1, 2) == 1
        assert sorted(filter(None, _stored_ints(table))) == [1, 1 << self.N + 2]

        rbc = ReliableBroadcast(
            n=self.N, f=2, my_id=0, index=INDEX,
            broadcast=lambda m: None, on_deliver=lambda *a: None,
        )
        for kind in (MsgKind.RBC_SEND, *RBC_VOTE_KINDS):
            for bad in (instance, -1, 10**9, "1", None):
                rbc.on_message(_vote(kind=kind, instance=bad, value=(b"d", b"p"), sender=1))
        assert not rbc._slots
        assert not rbc.delivered(instance)

    def test_ghosts_in_a_batch_neither_raise_nor_allocate(self):
        n = self.N
        out, superblocks = [], []
        node = _node(n, 0, out, superblocks)
        messages = tuple(
            _vote(kind=kind, instance=instance, sender=sender)
            for kind in VOTE_KINDS
            for sender in (-1, n, 10**9, "3", None)
            for instance in (0, 1, n, 10**9)
        ) + tuple(
            _vote(kind=kind, instance=instance, value=(b"d", b"p"), sender=sender)
            for kind in RBC_VOTE_KINDS
            for sender in (-1, n, 10**9, "3", None, 2)
            for instance in (n, 10**9)
        )
        node.on_message(_wire(messages, 0))
        for m in messages:
            node.on_message(m)
        assert not out and not superblocks
        assert not any(_stored_ints(node.votes))
        assert not node.rbc._slots
        word = sys.getsizeof(1 << (n + 64))
        assert all(sys.getsizeof(v) <= word for v in _stored_ints(node.votes))
        for run in ConsensusBatch(messages=messages, sender=0).runs():
            if type(run) is VoteRun:
                assert sys.getsizeof(run.mask) <= sys.getsizeof(1 << RUN_INSTANCE_LIMIT)


class TestThresholds:
    def test_only_exact_crossings_wake_and_only_the_moved_columns(self):
        n = 7  # f = 2: echo at 3, bin_values at 5, round exit at 5 AUX
        table = _table(n)
        cols, mask = (0, 1, 2), 0b111
        for sender in range(n):
            table.bval(1, 1, sender, cols, mask)
            table.bval(1, 1, sender, cols, mask)  # repeated run: nothing
        for col in cols:
            assert table.owners[col].woken == [("bval", 1, 1), ("bval", 1, 1)]
            assert table.bval_count(1, 1, col) == n
        assert not table.owners[3].woken

        table.owners[1].round = 2  # column 1 already left round 1
        for sender in range(n):
            table.aux(1, sender % 2, sender, cols, mask)
            table.aux(1, 1 - sender % 2, sender, cols, mask)  # second AUX: ignored
        assert table.aux_counts(1, 0) == (4, 3)
        assert table.owners[0].woken[2:] == [("aux", 1)] * 3  # 5th, 6th, 7th
        assert table.owners[1].woken[2:] == []

    def test_a_partly_counted_run_bumps_only_what_is_new(self):
        table = _table(4)
        table.bval(1, 0, 2, (1,), 0b0010)
        table.bval(1, 0, 2, (0, 1, 2, 3), 0b1111)
        assert [table.bval_count(1, 0, c) for c in range(4)] == [1, 1, 1, 1]
        table.bval(1, 0, 3, (3, 1), 0b1010)
        assert [table.bval_count(1, 0, c) for c in range(4)] == [1, 2, 1, 2]
        assert table.owners[1].woken == [("bval", 1, 0)]  # f + 1 = 2
        assert table.bval_count(9, 0, 0) == 0 and table.aux_counts(9, 0) == (0, 0)
