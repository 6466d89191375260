"""Declarative, seeded fault timelines for chaos runs.

A :class:`FaultSchedule` is a pure description — an ordered list of
:class:`FaultEvent` records built through a fluent API::

    schedule = (
        FaultSchedule(seed=13)
        .drop_rate(0.05, until=25.0)
        .crash(3, at=4.0)
        .restart(3, at=10.0)
        .hard_partition([[0, 1], [2, 3]], at=14.0, heal_at=18.0)
        .duplicate(0.02, at=2.0, until=20.0)
        .reorder(0.1, spread=0.3, until=25.0)
    )

Nothing happens until a :class:`~repro.faults.controller.FaultController`
applies it to a deployment: crash/restart events fire at their scheduled
instants on the deployment clock, and the window-based link faults
(drop/duplicate/reorder/partition) answer the transport's per-message
questions.  The schedule's ``seed`` feeds the controller's RNG, so the
same schedule on the same deployment seed reproduces the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

__all__ = ["FaultEvent", "FaultSchedule", "EVENT_KINDS", "BYZANTINE_KINDS"]

#: schedule-driven misbehaviour windows: the controller toggles the
#: behaviour on the target node at ``at`` and off again at ``until``
BYZANTINE_KINDS = (
    "byzantine_flood",
    "byzantine_equivocate",
    "byzantine_withhold",
    "byzantine_censor",
)

EVENT_KINDS = (
    "crash", "restart", "drop", "duplicate", "reorder", "partition",
) + BYZANTINE_KINDS

_INF = float("inf")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``kind`` is one of :data:`EVENT_KINDS`.  Point events (crash,
    restart) use only ``at`` and ``node``; window events are active on
    ``at <= now < until`` and scope by ``node``/``link``/``groups``.
    """

    kind: str
    at: float
    until: float = _INF
    node: "int | None" = None
    link: "tuple[int, int] | None" = None
    p: float = 0.0
    spread: float = 0.0
    groups: "tuple[frozenset[int], ...]" = ()
    #: intensity knobs for Byzantine windows, as a sorted (key, value)
    #: tuple so the event stays hashable; the controller forwards them to
    #: ``CampaignValidator.set_misbehaviour``
    knobs: "tuple[tuple[str, object], ...]" = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.until < self.at:
            raise ValueError(
                f"fault window ends ({self.until}) before it starts ({self.at})"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.kind in ("crash", "restart") and self.node is None:
            raise ValueError(f"{self.kind} events require a node id")
        if self.kind in BYZANTINE_KINDS and self.node is None:
            raise ValueError(f"{self.kind} events require a node id")

    def active(self, now: float) -> bool:
        return self.at <= now < self.until

    def touches(self, src: int, dst: int) -> bool:
        """Does this window event apply to the (src, dst) link?"""
        if self.link is not None:
            return self.link == (src, dst)
        if self.node is not None:
            return src == self.node or dst == self.node
        return True


@dataclass(frozen=True)
class FaultSchedule:
    """Immutable, seeded timeline of fault events (builder-style API)."""

    events: "tuple[FaultEvent, ...]" = ()
    seed: int = 0

    # -- builders (each returns a new schedule) -----------------------------------

    def _add(self, event: FaultEvent) -> "FaultSchedule":
        ordered = tuple(sorted(
            self.events + (event,), key=lambda e: (e.at, e.kind)
        ))
        return replace(self, events=ordered)

    def crash(self, node: int, *, at: float) -> "FaultSchedule":
        """Halt ``node`` at ``at``: volatile state lost, traffic eaten."""
        return self._add(FaultEvent(kind="crash", at=at, node=node))

    def restart(self, node: int, *, at: float) -> "FaultSchedule":
        """Bring ``node`` back at ``at``; it catches up via snapshots."""
        return self._add(FaultEvent(kind="restart", at=at, node=node))

    def drop_rate(
        self,
        p: float,
        *,
        node: "int | None" = None,
        link: "tuple[int, int] | None" = None,
        at: float = 0.0,
        until: float = _INF,
    ) -> "FaultSchedule":
        """Lose matching transmissions with probability ``p`` in the window."""
        return self._add(FaultEvent(
            kind="drop", at=at, until=until, node=node,
            link=tuple(link) if link else None, p=p,
        ))

    def duplicate(
        self,
        p: float,
        *,
        node: "int | None" = None,
        link: "tuple[int, int] | None" = None,
        at: float = 0.0,
        until: float = _INF,
    ) -> "FaultSchedule":
        """Deliver matching transmissions twice with probability ``p``."""
        return self._add(FaultEvent(
            kind="duplicate", at=at, until=until, node=node,
            link=tuple(link) if link else None, p=p,
        ))

    def reorder(
        self,
        p: float,
        *,
        spread: float,
        node: "int | None" = None,
        at: float = 0.0,
        until: float = _INF,
    ) -> "FaultSchedule":
        """With probability ``p`` delay a transmission by U(0, spread) s
        beyond the partial-synchrony clamp, so it overtakes later sends."""
        if spread < 0:
            raise ValueError(f"reorder spread must be >= 0, got {spread}")
        return self._add(FaultEvent(
            kind="reorder", at=at, until=until, node=node, p=p, spread=spread,
        ))

    def hard_partition(
        self,
        groups: "Sequence[Iterable[int]]",
        *,
        at: float,
        heal_at: float,
    ) -> "FaultSchedule":
        """Sever all cross-group links on ``at <= now < heal_at``."""
        sets = tuple(frozenset(g) for g in groups)
        seen: set[int] = set()
        for g in sets:
            if g & seen:
                raise ValueError("hard_partition groups must be disjoint")
            seen |= g
        return self._add(FaultEvent(
            kind="partition", at=at, until=heal_at, p=1.0, groups=sets,
        ))

    def byzantine_flood(
        self,
        node: int,
        *,
        at: float,
        until: float = _INF,
        per_block: int = 100,
        total: "int | None" = None,
        seed: "int | None" = None,
    ) -> "FaultSchedule":
        """``node`` floods blocks with invalid txs on ``at <= now < until``.

        ``per_block`` invalid transactions ride in each proposal until
        ``total`` are spent (None = unbounded); ``seed`` keys their senders
        (None keeps :class:`~repro.adversary.byzantine.CampaignValidator`'s
        default).
        """
        knobs = (("per_block", int(per_block)), ("seed", seed), ("total", total))
        return self._add(FaultEvent(
            kind="byzantine_flood", at=at, until=until, node=node, knobs=knobs,
        ))

    def byzantine_equivocate(
        self, node: int, *, at: float, until: float = _INF
    ) -> "FaultSchedule":
        """``node`` sends conflicting proposals to different peers."""
        return self._add(FaultEvent(
            kind="byzantine_equivocate", at=at, until=until, node=node,
        ))

    def byzantine_withhold(
        self, node: int, *, at: float, until: float = _INF
    ) -> "FaultSchedule":
        """``node`` withholds all its consensus votes (silent participant)."""
        return self._add(FaultEvent(
            kind="byzantine_withhold", at=at, until=until, node=node,
        ))

    def byzantine_censor(
        self, node: int, *, at: float, until: float = _INF
    ) -> "FaultSchedule":
        """``node`` proposes empty blocks, discarding its pool."""
        return self._add(FaultEvent(
            kind="byzantine_censor", at=at, until=until, node=node,
        ))

    # -- lookups -------------------------------------------------------------------

    def point_events(self) -> "tuple[FaultEvent, ...]":
        """Crash/restart events, in time order."""
        return tuple(e for e in self.events if e.kind in ("crash", "restart"))

    def window_events(self) -> "tuple[FaultEvent, ...]":
        """Link-fault windows (drop/duplicate/reorder/partition)."""
        return tuple(
            e for e in self.events
            if e.kind not in ("crash", "restart") and e.kind not in BYZANTINE_KINDS
        )

    def byzantine_events(self) -> "tuple[FaultEvent, ...]":
        """Misbehaviour windows the controller toggles on the clock."""
        return tuple(e for e in self.events if e.kind in BYZANTINE_KINDS)

    def byzantine_nodes(self) -> "frozenset[int]":
        return frozenset(
            e.node for e in self.events
            if e.kind in BYZANTINE_KINDS and e.node is not None
        )

    def crash_stopped_nodes(self) -> "frozenset[int]":
        """Nodes whose last crash is never followed by a restart."""
        last = {e.node: e.kind for e in self.point_events()}
        return frozenset(node for node, kind in last.items() if kind == "crash")

    @property
    def horizon(self) -> float:
        """Last finite instant any event fires or any window closes."""
        times = [e.at for e in self.events]
        times += [e.until for e in self.events if e.until != _INF]
        return max(times, default=0.0)

    def validate(self, *, n: "int | None" = None, f: "int | None" = None) -> None:
        """Sanity-check the timeline.

        Every restart must follow a crash of the same node; with ``n``
        given, every node id an event names — its ``node``, both ``link``
        endpoints, every partition group member — must be in range; with
        ``f`` given, the number of
        nodes *simultaneously* faulty — crashed or inside a Byzantine
        misbehaviour window, counting each node once however many ways it
        misbehaves — must never exceed ``f`` (DBFT tolerates at most f
        faulty members per round).
        """
        downtime: dict[int, float] = {}
        # (start, end, node) spans during which a node is faulty
        faulty_spans: list[tuple[float, float, int]] = []
        for event in self.events:
            if n is not None:
                named = [] if event.node is None else [event.node]
                named += list(event.link or ())
                named += [i for group in event.groups for i in group]
                for node in named:
                    if not 0 <= node < n:
                        raise ValueError(
                            f"{event.kind} fault names node {node}, "
                            f"committee has {n}"
                        )
            if event.kind in BYZANTINE_KINDS:
                faulty_spans.append((event.at, event.until, event.node))
                continue
            if event.kind not in ("crash", "restart"):
                continue
            node = event.node
            if event.kind == "crash":
                if node in downtime:
                    raise ValueError(f"node {node} crashed twice without restart")
                downtime[node] = event.at
            else:
                if node not in downtime:
                    raise ValueError(f"restart of node {node} without a crash")
                if event.at <= downtime[node]:
                    raise ValueError(
                        f"restart of node {node} does not follow its crash"
                    )
                faulty_spans.append((downtime.pop(node), event.at, node))
        for node, at in downtime.items():  # crashes never restarted
            faulty_spans.append((at, _INF, node))
        if f is not None:
            # Merge each node's spans so one node misbehaving several ways
            # at once still only spends one unit of the budget.
            per_node: dict[int, list[tuple[float, float]]] = {}
            for start, end, node in faulty_spans:
                per_node.setdefault(node, []).append((start, end))
            edges: list[tuple[float, int]] = []  # (time, +1/-1)
            for spans in per_node.values():
                spans.sort()
                cur_start, cur_end = spans[0]
                merged = []
                for start, end in spans[1:]:
                    if start <= cur_end:
                        cur_end = max(cur_end, end)
                    else:
                        merged.append((cur_start, cur_end))
                        cur_start, cur_end = start, end
                merged.append((cur_start, cur_end))
                for start, end in merged:
                    edges.append((start, +1))
                    if end != _INF:
                        edges.append((end, -1))
            faulty = 0
            # recoveries (-1) sort before onsets (+1) at equal times
            for _, delta in sorted(edges):
                faulty += delta
                if faulty > f:
                    raise ValueError(
                        f"schedule crashes more than f={f} nodes at once "
                        "(crashed + Byzantine combined)"
                    )
