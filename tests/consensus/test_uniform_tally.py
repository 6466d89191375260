"""The uniform add against a per-vote walk.

:class:`VoteTable` counts a BVAL/AUX run that covers every column with
one add per field, and :class:`ReliableBroadcast` an ECHO/READY run that
covers every slot; both then wake only the columns that can land on a
threshold.  Each is diffed here against the same rules walked one vote
at a time, on sets, at n = 4, 7 and 32: every wake (column, order and
the counts it reads) and every count after every run.

The streams mix full-width and partial runs, double votes, unknown
columns and rounds no instance is in.  The instances standing in for
``BinaryConsensus`` react the way it does: at n − f AUX one leaves the
round, and a wake may input 0 to another column — possibly a later one
of the same run, which starts at once and reads its own AUX counts — or
release the table in the middle of a run.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.consensus.broadcast import ReliableBroadcast, _digest
from repro.consensus.dbft import MAX_ROUNDS, VoteTable
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind, VoteRun

SIZES = (4, 7, 32)
ROUNDS = (0, 1, 2, 3)


class PerVoteTable:
    """BVAL/AUX tallies walked one vote at a time: a sender's first
    BVAL(r, v) and first AUX(r) per column count; a column is woken when
    its BVAL(r, v) count lands on f+1 or 2f+1, and on every AUX at or past
    n − f while its instance is in round r.  Released, it counts nothing."""

    def __init__(self, n, f, columns):
        self.n, self.f, self.columns = n, f, columns
        self.owners = [None] * columns
        self.bvals = {}  # (r, value, col) -> senders
        self.auxes = {}  # (r, col) -> {sender: value}
        self.released = False

    def moved(self, left, entered):
        pass

    def release(self):
        self.released = True
        self.bvals, self.auxes = {}, {}

    def _columns(self, r, sender, columns):
        if type(sender) is not int or not 0 <= sender < self.n or r > MAX_ROUNDS:
            return
        for col in columns:
            if self.released:
                return
            if 0 <= col < self.columns:
                yield col

    def bval(self, r, value, sender, columns, mask):
        for col in self._columns(r, sender, columns):
            voters = self.bvals.setdefault((r, value, col), set())
            if sender not in voters:
                voters.add(sender)
                if len(voters) in (self.f + 1, 2 * self.f + 1):
                    self.owners[col]._check_bval(r, value)

    def aux(self, r, value, sender, columns, mask):
        for col in self._columns(r, sender, columns):
            votes = self.auxes.setdefault((r, col), {})
            if sender not in votes:
                votes[sender] = value
                owner = self.owners[col]
                if len(votes) >= self.n - self.f and owner.round == r:
                    owner._try_advance(r)

    def bval_count(self, r, value, col):
        return len(self.bvals.get((r, value, col), ()))

    def aux_counts(self, r, col):
        values = list(self.auxes.get((r, col), {}).values())
        return values.count(0), values.count(1)


class Instance:
    """Stands in for a ``BinaryConsensus``: logs each wake with the counts
    it reads (its own, as an instance does) and reacts like one."""

    def __init__(self, script, col):
        self.script, self.col, self.round = script, col, 0

    def _check_bval(self, r, value):
        count = self.script.table.bval_count(r, value, self.col)
        self.script.log.append(("bval", self.col, r, value, count))
        if count == self.script.bin_at:  # value enters bin_values
            self.script.react(self)

    def _try_advance(self, r):
        counts = self.script.table.aux_counts(r, self.col)
        self.script.log.append(("aux", self.col, r, counts))
        if self.round == r and sum(counts) >= self.script.aux_at:
            self.script.enter(self, r + 1)
            self.script.react(self)


class Script:
    """A table, its instances and their scripted reactions: the first
    reaction of each column inputs 0 to its victim column (which starts
    round 1 and reads its own AUX counts at once), and the reaction
    numbered ``release_at`` releases the table instead."""

    def __init__(self, table, case):
        n = case["n"]
        f = (n - 1) // 3
        self.table, self.log, self.seen = table, [], Counter()
        self.bin_at, self.aux_at = 2 * f + 1, n - f
        self.victims, self.release_at = case["victims"], case["release_at"]
        self.reactions, self.run = 0, ()
        self.instances = [Instance(self, col) for col in range(n)]
        table.owners[:] = self.instances
        for instance, r in zip(self.instances, case["rounds"]):
            if r:
                self.enter(instance, r)

    def enter(self, instance, r):
        self.table.moved(instance.round, r)
        instance.round = r

    def react(self, instance):
        self.reactions += 1
        later = self.run[self.run.index(instance.col) + 1:] if instance.col in self.run else ()
        if self.reactions == self.release_at:
            self.seen["released mid-run"] += bool(later)
            self.table.release()
            return
        victim = self.instances[self.victims[instance.col]]
        if victim.round == 0:  # input 0: the victim starts round 1 right away
            self.seen["input 0 to a later column", self.log[-1][0]] += victim.col in later
            self.enter(victim, 1)
            victim._try_advance(1)

    def feed(self, kind, r, value, sender, columns):
        self.run = columns
        mask = 0
        for col in columns:
            mask |= 1 << col
        getattr(self.table, kind)(r, value, sender, columns, mask)
        self.run = ()


def _tally_case(n, rnd):
    """Waves of BVAL or AUX runs, one per sender, mostly full-width and in
    one column order, with partial runs, double votes and unknown columns
    mixed in."""
    runs = []
    for _ in range(rnd.randint(2, 10)):
        kind = rnd.choice(("bval", "aux"))
        r = rnd.choice((1, 1, 1, 2, 2, 0, 3))
        order = tuple(rnd.sample(range(n), n))
        value = rnd.randrange(2)
        for sender in rnd.sample(range(n), rnd.randint(1, n)):
            if rnd.random() < 0.2:
                value = rnd.randrange(2)
            draw = rnd.random()
            if draw < 0.65:
                columns = order
            elif draw < 0.75:
                columns = tuple(rnd.sample(range(n), n))
            elif draw < 0.8:
                columns = order + (n + rnd.randrange(3),)  # an unknown column
            else:
                columns = tuple(rnd.sample(range(n + 2), rnd.randint(1, n)))
            runs.append((kind, r, value, sender, columns))
            if rnd.random() < 0.1:  # the same run again, or a vote of it
                runs.append((kind, r, value, sender, columns[-rnd.randint(1, 2):]))
    return {
        "n": n,
        "rounds": [rnd.choice((0, 1, 1, 1, 1, 2)) for _ in range(n)],
        "victims": [rnd.randrange(n) for _ in range(n)],
        "release_at": rnd.choice((None, None, rnd.randint(1, n))),
        "runs": runs,
    }


SEEDS = st.integers(0, 2**32 - 1).map(random.Random)
tally_cases = st.builds(_tally_case, st.sampled_from(SIZES), SEEDS)


def _counts(table, n):
    return [
        (table.bval_count(r, 0, col), table.bval_count(r, 1, col), table.aux_counts(r, col))
        for r in ROUNDS for col in range(n)
    ]


def _feed_tally(case):
    n = case["n"]
    scripts = [
        Script(cls(n=n, f=(n - 1) // 3, columns=n) if cls is VoteTable
               else cls(n, (n - 1) // 3, n), case)
        for cls in (VoteTable, PerVoteTable)
    ]
    for run in case["runs"]:
        for script in scripts:
            script.feed(*run)
        table, reference = scripts
        assert table.log == reference.log
        assert _counts(table.table, n) == _counts(reference.table, n)
    return scripts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tally_cases)
def test_vote_table_equals_the_per_vote_walk(case):
    _feed_tally(case)


def test_tally_cases_are_not_trivial():
    """The generated streams reach what the uniform add must get right."""
    seen = Counter()
    for n in SIZES:
        for seed in range(12):
            table, _ = _feed_tally(_tally_case(n, random.Random(seed)))
            seen.update(table.seen)
            seen["wakes", n] += len(table.log)
    assert all(seen["wakes", n] for n in SIZES)
    assert seen["released mid-run"]
    assert seen["input 0 to a later column", "bval"]
    assert seen["input 0 to a later column", "aux"]


# -- RBC -----------------------------------------------------------------------

ECHO, READY = MsgKind.RBC_ECHO, MsgKind.RBC_READY


class PerVoteRBC:
    """Bracha's ECHO/READY rules walked one vote at a time, for genuine
    digests only: a seat's first vote per (kind, slot) counts; a slot is
    checked for READY when its ECHOs land on 2f+1 or its READYs on f+1,
    and for delivery on every READY at or past 2f+1; a delivered slot
    takes no vote."""

    def __init__(self, n, log):
        self.n, self.f, self.log = n, (n - 1) // 3, log
        self.voters = {}  # (kind, slot) -> senders
        self.paid, self.echoed, self.ready_sent, self.delivered = set(), set(), set(), set()

    def on_message(self, m):
        slot = m.instance
        if m.kind is MsgKind.RBC_SEND:
            if slot not in self.echoed:
                self.echoed.add(slot)
                self.paid.add(slot)
                self.log.append(("RBC_ECHO", slot))
            return
        if not 0 <= slot < self.n or slot in self.delivered:
            return
        voters = self.voters.setdefault((m.kind, slot), set())
        if m.sender in voters:
            return
        voters.add(m.sender)
        if m.value[1] is not None:
            self.paid.add(slot)
        count, quorum = len(voters), 2 * self.f + 1
        if m.kind is ECHO and count == quorum or m.kind is READY and count == self.f + 1:
            self._check_ready(slot)
        if m.kind is READY and count >= quorum:
            self._check_deliver(slot)

    def count(self, kind, slot):
        return len(self.voters.get((kind, slot), ()))

    def _check_ready(self, slot):
        self.log.append(("ready?", slot))
        if slot not in self.ready_sent and (
            self.count(ECHO, slot) >= 2 * self.f + 1 or self.count(READY, slot) >= self.f + 1
        ):
            self.ready_sent.add(slot)
            self.log.append(("RBC_READY", slot))
            self._check_deliver(slot)

    def _check_deliver(self, slot):
        self.log.append(("deliver?", slot))
        if (
            slot not in self.delivered
            and self.count(READY, slot) >= 2 * self.f + 1
            and slot in self.paid
        ):
            self.delivered.add(slot)
            self.log.append(("deliver", slot))


class LoggedRBC(ReliableBroadcast):
    """The run tally, logging each slot it checks."""

    def __init__(self, n, log):
        self.log = log
        super().__init__(
            n=n, f=(n - 1) // 3, my_id=0, index=0,
            broadcast=lambda m: log.append((m.kind.name, m.instance)),
            on_deliver=lambda slot, payload: log.append(("deliver", slot)),
        )

    def _check_ready(self, instance, digest):
        self.log.append(("ready?", instance))
        super()._check_ready(instance, digest)

    def _check_deliver(self, instance, digest):
        self.log.append(("deliver?", instance))
        super()._check_deliver(instance, digest)


def _payload(slot):
    return b"block-%d" % slot


def _rbc_case(n, rnd):
    """Most owners' SENDs, then waves of ECHO or READY runs, mostly
    full-width; some READYs carry no payload, some votes come twice, and
    a few runs name an unknown slot."""
    stream = [
        [ConsensusMessage(MsgKind.RBC_SEND, 0, slot, 0, _payload(slot), slot)]
        for slot in range(n) if rnd.random() < 0.9
    ]
    for _ in range(rnd.randint(2, 6)):
        kind = rnd.choice((ECHO, READY))
        order = rnd.sample(range(n), n)
        for sender in rnd.sample(range(n), rnd.randint(1, n)):
            draw = rnd.random()
            if draw < 0.7:
                slots = order
            elif draw < 0.9:
                slots = rnd.sample(range(n), rnd.randint(1, n))
            else:
                slots = order + [n + rnd.randrange(3)]
            hollow = kind is READY and rnd.random() < 0.2
            stream.append([
                ConsensusMessage(kind, 0, slot, 0, (
                    _digest(_payload(slot)), None if hollow else _payload(slot)
                ), sender)
                for slot in slots
            ])
            if rnd.random() < 0.1:
                stream.append(stream[-1][-rnd.randint(1, 2):])
    rnd.shuffle(stream)
    return n, stream


rbc_cases = st.builds(_rbc_case, st.sampled_from(SIZES), SEEDS)


def _feed_rbc(case):
    n, stream = case
    log, ref_log = [], []
    rbc, reference = LoggedRBC(n, log), PerVoteRBC(n, ref_log)
    shapes = Counter()
    for messages in stream:
        for item in ConsensusBatch(messages=tuple(messages), sender=0).runs():
            if type(item) is VoteRun:
                shapes["full-width"] += item.mask == rbc._all
                rbc.on_run(item)
            else:
                rbc.on_message(item)
        for m in messages:
            reference.on_message(m)
        assert log == ref_log
        assert [rbc.delivered(slot) for slot in range(n)] == [
            slot in reference.delivered for slot in range(n)
        ]
        assert [
            rbc._tally(slot, rbc._digests[slot])[:2] for slot in range(n)
            if rbc._digests[slot] is not None
        ] == [
            (reference.count(ECHO, slot), reference.count(READY, slot)) for slot in range(n)
            if rbc._digests[slot] is not None
        ]
    return shapes, log


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rbc_cases)
def test_rbc_run_tally_equals_the_per_vote_walk(case):
    _feed_rbc(case)


def test_rbc_cases_are_not_trivial():
    seen = Counter()
    for n in SIZES:
        for seed in range(6):
            shapes, log = _feed_rbc(_rbc_case(n, random.Random(seed)))
            seen["full-width", n] += shapes["full-width"]
            seen["deliveries", n] += sum(entry[0] == "deliver" for entry in log)
    assert all(seen["full-width", n] and seen["deliveries", n] for n in SIZES)
