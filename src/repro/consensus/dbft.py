"""DBFT-style leaderless binary Byzantine consensus.

Round structure (Mostéfaoui-Moumen-Raynal BV-broadcast core, as used by
DBFT, with DBFT's weak-coordinator hint and a deterministic round-parity
fallback in place of the common coin):

1. **BV-broadcast** — every node broadcasts ``BVAL(r, est)``.  A node that
   receives ``f+1`` BVALs for a value echoes it (so a value backed by one
   correct node reaches everyone); a value with ``2f+1`` BVALs enters
   ``bin_values[r]`` (so every value in ``bin_values`` was proposed by a
   correct node — Byzantine-only values never get 2f+1).
2. **AUX** — once ``bin_values[r]`` is non-empty the node broadcasts one of
   its values (preferring the round coordinator's suggestion when it is
   already in ``bin_values``).
3. **Collect** — wait for ``n − f`` AUX messages whose values all lie in
   ``bin_values[r]``; let ``values`` be the set of their values.
   * ``values == {v}`` and ``v == r mod 2`` → **decide v** (and keep
     participating for two more rounds so laggards can decide too);
   * ``values == {v}`` → ``est = v``;
   * otherwise → ``est = r mod 2``.

Safety (agreement + validity) is unconditional; termination holds for all
fair schedules (the classic FLP-style adversarial schedule can delay it,
which the property tests acknowledge by bounding rounds generously).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from repro import telemetry
from repro.consensus.messages import ConsensusMessage, MsgKind
from repro.errors import ConsensusError

#: Rounds a decided node keeps participating so peers can finish.
GRACE_ROUNDS = 2
#: Hard cap: a correct run of this protocol decides in a handful of rounds;
#: hitting the cap indicates a broken schedule and fails loudly.
MAX_ROUNDS = 64

logger = logging.getLogger("repro.consensus.dbft")

# hot-loop locals: one global load instead of an Enum attribute walk per
# message (this dispatcher sees every vote of every binary instance)
_BVAL = MsgKind.BVAL
_AUX = MsgKind.AUX
_COORD = MsgKind.COORD


def _build_metrics(reg: telemetry.MetricsRegistry) -> SimpleNamespace:
    decisions = reg.counter(
        "srbb_consensus_decisions_total", "binary-instance decisions, by value"
    )
    return SimpleNamespace(
        # pre-resolved labeled children: one dict lookup on the hot path
        decisions={0: decisions.labels(value="0"), 1: decisions.labels(value="1")},
        rounds=reg.histogram(
            "srbb_consensus_rounds_to_decision",
            "BV-broadcast rounds until a binary instance decided",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, MAX_ROUNDS),
        ),
        coin=reg.counter(
            "srbb_consensus_coin_fallbacks_total",
            "rounds resolved by the coin/parity fallback (split AUX values)",
        ),
    )


_metrics = telemetry.bind(_build_metrics)


@dataclass(slots=True)
class _RoundState:
    """One instance's own flags for one round (the votes it *heard* are
    tallied in the :class:`VoteTable`)."""

    bval_echoed: int = 0  # bit v: BVAL(v) echoed
    bin_values: int = 0  # bit v: v is in bin_values
    aux_sent: bool = False
    coord_value: int | None = None


class _Released:
    """Stands in for every instance of a released :class:`VoteTable`."""

    __slots__ = ()
    round = -1  # no AUX tally wakes it

    def _check_bval(self, r: int, value: int) -> None:
        pass


_RELEASED = _Released()


class VoteTable:
    """Column-wise BVAL/AUX quorum tallies: one column per binary instance.

    A :class:`~repro.consensus.superblock.SuperBlockConsensus` owns one
    table for the ``n`` instances of its chain index, so a run of votes
    that differ only in their instance (a
    :class:`~repro.consensus.messages.VoteRun`) is deduplicated with one
    mask operation and counted with one list bump per instance.  A
    standalone :class:`BinaryConsensus` owns a one-column table and feeds
    it runs of one — the same code.

    Only the instances a vote moves across a threshold are woken, and
    they are woken as their counter moves, in the order the run lists
    them: exactly where a vote-by-vote walk would have reacted.  That
    matters because instances are coupled through their owner (a
    decision may input 0 to a later instance of the same run, which then
    reads its own — not yet bumped — counter).

    A run that covers every column (*full-width*) moves every counter of
    its field by one, so it is counted with one per-field *uniform add*
    and only a column that can wake is looked at.  A BVAL column wakes
    when its count lands on f+1 or 2f+1; only that column's own
    :meth:`BinaryConsensus._check_bval` reads its count, so a full-width
    BVAL run adds first and then wakes those columns in run order.  An
    AUX wake can input 0 to a later column that reads its own count, so a
    full-width AUX run takes the ordered walk whenever some column's
    total can reach n − f in a round that some instance is still in.
    Each field keeps the highest of its per-column counters for those
    tests; every partial run takes the ordered walk.

    Layout, chosen so that opening a round costs one allocation and a
    (round, sender) one dict entry: a standalone instance owns a whole
    table, and every container is one more object for the cyclic
    collector to walk.  Per round, one flat counter list of four
    ``columns``-wide fields: BVAL(0), BVAL(1), AUX(0), AUX(1) — distinct
    senders counted, per column, less the field's uniform add — then, per
    field, its uniform add and its highest counter (its lowest is ≥ 0).
    Per (round, sender), one integer of three ``columns``-bit fields: the
    columns in which that sender's BVAL(0), BVAL(1) and AUX (one per
    sender, whichever value) have been counted — what keeps a Byzantine
    double vote from counting twice.  Per round, how many instances are in
    it.
    """

    __slots__ = (
        "n", "columns", "owners",
        "_all", "_echo_at", "_bin_at", "_aux_at", "_counts", "_seen", "_in_round",
    )

    def __init__(self, *, n: int, f: int, columns: int):
        self.n = n
        self.columns = columns
        #: column -> the instance reading it (set by BinaryConsensus)
        self.owners: "list[BinaryConsensus | None]" = [None] * columns
        self._all = (1 << columns) - 1
        self._echo_at = f + 1
        self._bin_at = 2 * f + 1
        self._aux_at = n - f
        self._counts: dict[int, list[int]] = {}  # round -> 4 fields, 4 (add, top)
        self._seen: dict[tuple[int, int], int] = {}  # (round, sender) -> 3 fields of bits
        self._in_round = {0: columns}  # round -> instances in it (0: not started)

    # bval() and aux() are the two hottest functions of a committee run and
    # also the whole of the single-vote path, so each spells out its own
    # preamble instead of sharing one more call frame per run:
    # * the sender must be a seat — an ``int`` in ``range(n)``; anything
    #   else is nobody's vote (and must never size a ``1 << sender``);
    # * columns at or past ``columns`` are unknown instances: masked off;
    # * ``new`` is what the sender had not voted yet — the double-vote rule;
    # * thresholds are shifted by the uniform add, to compare with counters.

    def bval(
        self, r: int, value: int, sender: int, columns: tuple[int, ...], mask: int
    ) -> None:
        """Count ``BVAL(r, value)`` from ``sender`` in each of ``columns``
        (``mask`` is their bitmask; ``value`` is exactly 0 or 1)."""
        if type(sender) is not int or not 0 <= sender < self.n or r > MAX_ROUNDS:
            return
        width = self.columns
        field = value * width  # BVAL(value)'s field, bits and counters alike
        voted = self._seen.get((r, sender), 0)
        new = mask & self._all & ~(voted >> field)
        if not new:
            return
        self._seen[r, sender] = voted | new << field
        counts = self._counts.get(r)
        if counts is None:
            counts = self._counts[r] = [0] * (4 * width + 8)
        span = 4 * width + 2 * value  # the field's add, then its top
        partial = new != mask
        if new == self._all:
            # Nothing but a column's own _check_bval reads its BVAL counter,
            # so the add may come first and the wakes after, in run order.
            add = counts[span] = counts[span] + 1
            echo_at, bin_at = self._echo_at - add, self._bin_at - add
            high = counts[span + 1]
            if 0 <= echo_at <= high or 0 <= bin_at <= high:
                for col in columns:
                    if partial and not new >> col & 1:
                        continue
                    count = counts[field + col]
                    if count == echo_at or count == bin_at:
                        self.owners[col]._check_bval(r, value)
            return
        add = counts[span]
        echo_at, bin_at = self._echo_at - add, self._bin_at - add
        top = 0
        for col in columns:
            if partial and not new >> col & 1:
                continue
            count = counts[field + col] = counts[field + col] + 1
            if count > top:
                top = count
            # Exact crossings only: the flags _check_bval sets make every
            # other call to it a no-op.
            if count == echo_at or count == bin_at:
                self.owners[col]._check_bval(r, value)
        if top > counts[span + 1]:
            counts[span + 1] = top

    def aux(
        self, r: int, value: int, sender: int, columns: tuple[int, ...], mask: int
    ) -> None:
        """Count ``AUX(r, value)`` from ``sender`` in each of ``columns``:
        one AUX per sender, round and column, whichever its value."""
        if type(sender) is not int or not 0 <= sender < self.n or r > MAX_ROUNDS:
            return
        width = self.columns
        voted = self._seen.get((r, sender), 0)
        new = mask & self._all & ~(voted >> 2 * width)
        if not new:
            return
        self._seen[r, sender] = voted | new << 2 * width
        counts = self._counts.get(r)
        if counts is None:
            counts = self._counts[r] = [0] * (4 * width + 8)
        field = (2 + value) * width
        other = (3 - value) * width
        span = 4 * width + 2 * (2 + value)
        other_span = 4 * width + 2 * (3 - value)
        aux_at = self._aux_at - counts[span] - counts[other_span]
        if new == self._all:
            if counts[span + 1] + counts[other_span + 1] + 1 < aux_at or not self._in_round.get(r):
                counts[span] += 1
                return
        partial = new != mask
        top = 0
        for col in columns:
            if partial and not new >> col & 1:
                continue
            count = counts[field + col] = counts[field + col] + 1
            if count > top:
                top = count
            # Below n−f AUX in total the round cannot end, and an instance
            # that left round r no longer reads r's tallies.  (No
            # _maybe_send_aux here: whenever r is the current round,
            # bin_values is non-empty and the node participates, the AUX
            # has already gone out — _check_bval and _start_round see to it.)
            if count + counts[other + col] >= aux_at:
                owner = self.owners[col]
                if owner.round == r:
                    owner._try_advance(r)
        if top > counts[span + 1]:
            counts[span + 1] = top

    def moved(self, left: int, entered: int) -> None:
        """Book an instance's move from round ``left`` to ``entered``."""
        in_round = self._in_round
        in_round[left] = in_round.get(left, 0) - 1
        in_round[entered] = in_round.get(entered, 0) + 1

    def release(self) -> None:
        """Forget every tally and detach the instances: with ``n = 0``
        every later vote fails the seat check, and a run still being
        tallied (the one that quiesced the owning index) wakes no one."""
        self.n = 0
        self.owners = [_RELEASED] * self.columns
        self._counts = {}
        self._seen = {}
        self._in_round = {}

    def bval_count(self, r: int, value: int, col: int) -> int:
        """Distinct senders whose ``BVAL(r, value)`` column ``col`` counted."""
        counts = self._counts.get(r)
        if counts is None:
            return 0
        width = self.columns
        return counts[value * width + col] + counts[4 * width + 2 * value]

    def aux_counts(self, r: int, col: int) -> tuple[int, int]:
        """Distinct senders whose ``AUX(r, 0)`` / ``AUX(r, 1)`` it counted."""
        counts = self._counts.get(r)
        if counts is None:
            return 0, 0
        width = self.columns
        return (
            counts[2 * width + col] + counts[4 * width + 4],
            counts[3 * width + col] + counts[4 * width + 6],
        )


class BinaryConsensus:
    """One binary consensus instance for one (chain index, proposer) slot."""

    def __init__(
        self,
        *,
        n: int,
        f: int,
        my_id: int,
        index: int,
        instance: int,
        broadcast: Callable[[ConsensusMessage], None],
        on_decide: Callable[[int, int], None],
        coin: str = "parity",
        table: VoteTable | None = None,
        on_quiet: Callable[[], None] | None = None,
    ):
        if not f < n / 3:
            raise ConsensusError(f"requires f < n/3 (n={n}, f={f})")
        if coin not in ("parity", "hash"):
            raise ConsensusError(f"unknown coin scheme {coin!r}")
        #: fallback-value scheme: "parity" (r mod 2, the deterministic
        #: DBFT-style fallback) or "hash" (a shared pseudo-random coin
        #: derived from (index, instance, round) — harder for a schedule
        #: adversary to predict rounds ahead, same agreement proof)
        self.coin = coin
        self.n = n
        self.f = f
        self.my_id = my_id
        self.index = index
        self.instance = instance
        #: outgoing-message sink.  Direct harnesses pass the wire broadcast;
        #: a ValidatorNode interposes a :class:`~repro.consensus.batching.
        #: VoteBatcher` here so per-round BVAL/AUX/COORD votes coalesce into
        #: one BATCH wire message per tick instead of going out one by one.
        self.sink = broadcast
        self._on_decide = on_decide
        #: called once, when the instance leaves its last grace round: from
        #: then on it sends nothing, whatever it hears
        self._on_quiet = on_quiet

        self.est: int | None = None
        self.round = 0
        self.decided: int | None = None
        self._decided_round: int | None = None
        self._rounds: dict[int, _RoundState] = {}
        self._started = False
        #: where the votes this instance hears are tallied: column
        #: ``instance`` of the owning superblock's table, or — standalone —
        #: the only column of a table of its own
        if table is None:
            table = VoteTable(n=n, f=f, columns=1)
            self._col = 0
        else:
            self._col = instance
        self._table = table
        table.owners[self._col] = self
        self._cols = (self._col,)
        self._bit = 1 << self._col

    # -- public API -----------------------------------------------------------

    def propose(self, value: int) -> None:
        """Input this node's estimate (0 or 1); idempotent."""
        if value not in (0, 1):
            raise ConsensusError(f"binary value required, got {value!r}")
        if self._started:
            return
        self._started = True
        self.est = value
        self._table.moved(0, 1)
        self.round = 1
        self._start_round()

    @property
    def has_input(self) -> bool:
        return self._started

    def on_message(self, msg: ConsensusMessage) -> None:
        """Feed a BVAL/AUX/COORD message addressed to this instance."""
        r = msg.round
        if r > MAX_ROUNDS:
            return
        kind = msg.kind
        if kind is _BVAL:
            value = int(msg.value)
            if value in (0, 1):  # else Byzantine garbage
                # a run of one: same tally code as a whole batch stretch
                self._table.bval(r, value, msg.sender, self._cols, self._bit)
        elif kind is _AUX:
            value = int(msg.value)
            if value in (0, 1):
                self._table.aux(r, value, msg.sender, self._cols, self._bit)
        elif kind is _COORD:
            state = self._round_state(r)
            coord = (r - 1) % self.n
            if msg.sender == coord and state.coord_value is None:
                value = int(msg.value)
                if value in (0, 1):
                    state.coord_value = value
                    self._maybe_send_aux(r)

    # -- internals -----------------------------------------------------------

    def _round_state(self, r: int) -> _RoundState:
        state = self._rounds.get(r)
        if state is None:
            state = self._rounds[r] = _RoundState()
        return state

    def _participating(self) -> bool:
        """Whether this node still sends messages (grace after decide)."""
        if self.decided is None:
            return True
        assert self._decided_round is not None
        return self.round <= self._decided_round + GRACE_ROUNDS

    def _send(self, kind: MsgKind, round_: int, value: int) -> None:
        self.sink(
            ConsensusMessage(
                kind, self.index, self.instance, round_, value, self.my_id
            )
        )

    def _start_round(self) -> None:
        if not self._participating():
            # Rounds move up one at a time, so this holds exactly once.
            if (
                self._on_quiet is not None
                and self.round == self._decided_round + GRACE_ROUNDS + 1
            ):
                self._on_quiet()
            return
        if self.round > MAX_ROUNDS:
            logger.error(
                "binary consensus exceeded %d rounds (index=%d, instance=%d)",
                MAX_ROUNDS, self.index, self.instance,
            )
            raise ConsensusError(
                f"binary consensus exceeded {MAX_ROUNDS} rounds "
                f"(index={self.index}, instance={self.instance})"
            )
        assert self.est is not None
        coord = (self.round - 1) % self.n
        if self.my_id == coord:
            self._send(MsgKind.COORD, self.round, self.est)
        state = self._round_state(self.round)
        if not state.bval_echoed >> self.est & 1:
            state.bval_echoed |= 1 << self.est
            self._send(MsgKind.BVAL, self.round, self.est)
        # Votes may have arrived before we started this round.  Their echo
        # and bin_values flags were set as each count crossed its threshold
        # (_check_bval acts whatever the current round is); only the AUX,
        # which waits for r == round, can be outstanding.
        self._try_advance(self.round)

    def _check_bval(self, r: int, value: int) -> None:
        state = self._round_state(r)
        count = self._table.bval_count(r, value, self._col)
        # Echo once f+1 distinct nodes back the value (amplification).
        bit = 1 << value
        if count >= self.f + 1 and not state.bval_echoed & bit:
            state.bval_echoed |= bit
            if r <= self.round + 1 and self._participating():
                self._send(MsgKind.BVAL, r, value)
        # 2f+1 distinct BVALs: at least one correct proposer → bin_values.
        if count >= 2 * self.f + 1 and not state.bin_values & bit:
            state.bin_values |= bit
            self._maybe_send_aux(r, state)
            self._try_advance(r, state)

    def _maybe_send_aux(self, r: int, state: _RoundState | None = None) -> None:
        if state is None:
            state = self._round_state(r)
        if state.aux_sent or not state.bin_values or r != self.round:
            return
        if not self._participating():
            return
        coord = state.coord_value
        if coord is not None and state.bin_values >> coord & 1:
            value = coord
        else:
            value = 0 if state.bin_values & 1 else 1
        state.aux_sent = True
        self._send(MsgKind.AUX, r, value)

    def _try_advance(self, r: int, state: _RoundState | None = None) -> None:
        """Check the round-r exit condition and move to round r+1."""
        if r != self.round or not self._started:
            return
        if state is None:
            state = self._round_state(r)
        self._maybe_send_aux(r, state)
        bin_values = state.bin_values
        if not bin_values:
            return
        # n−f AUX messages whose values are all in bin_values
        c0, c1 = self._table.aux_counts(r, self._col)
        if not bin_values & 1:
            c0 = 0
        if not bin_values & 2:
            c1 = 0
        if c0 + c1 < self.n - self.f:
            return
        coin = self._coin(r)
        if not (c0 and c1):
            v = 0 if c0 else 1
            if v == coin and self.decided is None:
                self.decided = v
                self._decided_round = r
                if telemetry.get_registry().enabled:
                    m = _metrics()
                    m.rounds.observe(r)
                    m.decisions[v].inc()
                self._on_decide(self.instance, v)
            self.est = v
        else:
            if telemetry.get_registry().enabled:
                _metrics().coin.inc()
            self.est = coin
        self._table.moved(r, r + 1)
        self.round = r + 1
        self._start_round()

    def _coin(self, r: int) -> int:
        """Round fallback value, identical at every correct node."""
        if self.coin == "parity":
            return r % 2
        from repro.crypto.hashing import hash_items

        return hash_items(["coin", self.index, self.instance, r])[0] & 1
