"""Transaction conflict analysis (Definition 1's "non-conflicting").

Two transactions conflict when they access the same datum (account
balance/nonce or contract storage key) and at least one access is a write
— the ParBlockchain criterion the paper cites.  This module derives
read/write sets for the native transaction types, builds the conflict
graph of a block, and greedily schedules transactions into conflict-free
parallel groups, reporting the theoretical parallel speedup a
multi-threaded executor could reach.

The serial executor stays the source of truth (deterministic commit
order); this analysis quantifies the headroom and powers the validity
check that committed blocks contain no *unserialized* conflicts — in a
serial executor every conflict is trivially serialized, which is exactly
how SRBB satisfies the property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Sequence

import networkx as nx

from repro.core.transaction import Transaction, TxType
from repro.vm.executor import contract_address_for


@dataclass(frozen=True)
class AccessSet:
    """Datum keys a transaction reads, writes, or commutatively updates.

    ``commutes`` holds pure-increment targets (balance credits): two
    commutative updates to the same key reorder freely (Block-STM-style
    delta writes), but a commutative update still conflicts with a read
    or an ordinary write of that key.  ``opaque`` marks transactions whose
    effects cannot be bounded statically (e.g. a native call that moves
    balances to storage-derived addresses); an opaque transaction
    conflicts with everything.
    """

    reads: frozenset[str]
    writes: frozenset[str]
    commutes: frozenset[str] = frozenset()
    opaque: bool = False

    def conflicts_with(self, other: "AccessSet") -> bool:
        if self.opaque or other.opaque:
            return True
        if (
            self.writes & other.writes
            or self.writes & other.reads
            or self.reads & other.writes
        ):
            return True
        # commutative-vs-(read|write) conflicts; commute-vs-commute is free
        return bool(
            self.commutes & (other.reads | other.writes)
            or other.commutes & (self.reads | self.writes)
        )


def _balance_key(address: str) -> str:
    return f"acct:{address}"


def access_set(tx: Transaction, *, coinbase: str = "") -> AccessSet:
    """Static read/write sets for one transaction.

    Native-contract calls are attributed to the contract's storage at
    function granularity (argument-keyed where the ABI makes it obvious:
    per-symbol for the exchange, per-match for ticketing), which keeps
    the analysis sound-but-useful without executing the transaction.
    Argument-scoped accesses also *read* the whole-contract container key
    so a coarse (whole-contract) access orders against every fine one.

    When a ``coinbase`` is given, every transaction commutatively credits
    it (the gas fee), so a transaction touching the coinbase account
    directly serializes against all others.
    """
    reads = {_balance_key(tx.sender)}
    writes = {_balance_key(tx.sender)}
    commutes: set[str] = set()
    opaque = False
    if coinbase:
        commutes.add(_balance_key(coinbase))
    if tx.tx_type is TxType.TRANSFER:
        # the receiver is only credited: a commutative delta
        commutes.add(_balance_key(tx.receiver))
    elif tx.tx_type is TxType.DEPLOY:
        # The executor creates (and possibly funds) the account at the
        # deterministic create address — not some "code:{sender}" datum.
        created = contract_address_for(tx.sender, tx.nonce)
        writes.add(_balance_key(created))
        writes.add(f"store:{created}")
    elif tx.tx_type is TxType.INVOKE:
        contract = str(tx.payload.get("contract", tx.receiver))
        function = str(tx.payload.get("function", ""))
        args = tuple(tx.payload.get("args", ()))
        scope = _invoke_scope(contract, function, args)
        container = f"store:{contract}"
        if function not in _SAFE_FUNCTIONS:
            # Unknown ABI (SVM bytecode, arbitrary function): no static
            # bound on the touched data — serialize against everything.
            opaque = True
        if _is_readonly(function):
            reads.add(scope)
            reads.add(container)
        else:
            writes.add(scope)
            if scope != container:
                reads.add(container)
            if tx.amount:
                commutes.add(_balance_key(contract))  # value credit
    return AccessSet(
        reads=frozenset(reads),
        writes=frozenset(writes),
        commutes=frozenset(commutes),
        opaque=opaque,
    )


_READONLY_FUNCTIONS = {
    "last_price", "volume", "position", "ride_state", "zone_demand",
    "sold", "tickets_of", "deposit_of", "validators", "excluded", "events",
}

#: Functions whose effects the static scopes above fully capture: storage
#: writes inside the scoped keys plus declared balance commutes.  Anything
#: else (``complete_ride`` moves native balance to a storage-derived
#: driver address; SVM bytecode is arbitrary) is opaque.
_SAFE_FUNCTIONS = _READONLY_FUNCTIONS | {
    "trade", "open_match", "buy_ticket", "request_ride", "accept_ride",
}


def _is_readonly(function: str) -> bool:
    return function in _READONLY_FUNCTIONS


def _invoke_scope(contract: str, function: str, args: tuple) -> str:
    """Finest sound storage scope for a native call."""
    if function in ("trade", "last_price", "volume") and args:
        return f"store:{contract}:symbol:{args[0]}"
    if function in ("buy_ticket", "sold", "open_match") and args:
        return f"store:{contract}:match:{args[0]}"
    # everything else shares the whole contract's storage
    return f"store:{contract}"


# ---------------------------------------------------------------------------
# Block-level analysis
# ---------------------------------------------------------------------------


@dataclass
class ConflictReport:
    """Conflict structure of one batch of transactions."""

    tx_count: int
    conflict_pairs: list[tuple[int, int]]
    #: parallel groups: lists of tx indices with no intra-group conflicts
    groups: list[list[int]] = field(default_factory=list)

    @property
    def conflict_count(self) -> int:
        return len(self.conflict_pairs)

    @property
    def parallel_depth(self) -> int:
        """Rounds a conflict-respecting parallel executor needs."""
        return len(self.groups)

    @property
    def speedup(self) -> float:
        """Theoretical speedup vs serial execution (unit-cost txs)."""
        return self.tx_count / self.parallel_depth if self.groups else 1.0


def conflict_graph(txs: Sequence[Transaction], *, coinbase: str = "") -> nx.Graph:
    """Graph with one node per tx index, edges between conflicting pairs."""
    graph = nx.Graph()
    sets = [access_set(tx, coinbase=coinbase) for tx in txs]
    graph.add_nodes_from(range(len(txs)))
    # index datum -> txs touching it, to avoid O(n²) pair checks
    writers: dict[str, list[int]] = {}
    readers: dict[str, list[int]] = {}
    commuters: dict[str, list[int]] = {}
    opaques: list[int] = []
    for i, acc in enumerate(sets):
        if acc.opaque:
            opaques.append(i)
        for key in acc.writes:
            writers.setdefault(key, []).append(i)
        for key in acc.reads:
            readers.setdefault(key, []).append(i)
        for key in acc.commutes:
            commuters.setdefault(key, []).append(i)
    keys = set(writers) | set(commuters)
    for key in keys:
        ws = writers.get(key, ())
        rs = readers.get(key, ())
        cs = commuters.get(key, ())
        # write vs anything; commute vs read/write — commute pairs are free
        for writer in ws:
            for other in set(ws) | set(rs) | set(cs):
                if other != writer:
                    graph.add_edge(writer, other)
        for commuter in cs:
            for other in rs:
                if other != commuter:
                    graph.add_edge(commuter, other)
    # opaque transactions conflict with every other transaction
    for i in opaques:
        for j in range(len(txs)):
            if j != i:
                graph.add_edge(i, j)
    return graph


def analyze_block(txs: Sequence[Transaction], *, coinbase: str = "") -> ConflictReport:
    """Conflict pairs + greedy conflict-free grouping (order-preserving).

    Grouping is a serializable schedule: a transaction joins the earliest
    group after every group containing a conflicting predecessor, so
    executing groups in order respects all conflict dependencies — every
    conflicting pair ``i < j`` lands with ``group(i) < group(j)``.
    """
    graph = conflict_graph(txs, coinbase=coinbase)
    pairs = sorted(tuple(sorted(edge)) for edge in graph.edges)
    group_of: dict[int, int] = {}
    groups: list[list[int]] = []
    for i in range(len(txs)):
        earliest = 0
        for j in graph.neighbors(i):
            if j < i:
                earliest = max(earliest, group_of[j] + 1)
        if earliest == len(groups):
            groups.append([])
        group_of[i] = earliest
        groups[earliest].append(i)
    return ConflictReport(
        tx_count=len(txs), conflict_pairs=[tuple(p) for p in pairs], groups=groups
    )


def blocks_are_conflict_serialized(
    txs: Sequence[Transaction],
    groups: Sequence[Sequence[int]] | None = None,
    *,
    coinbase: str = "",
) -> bool:
    """Definition 1 validity check for a parallel schedule.

    A schedule (``groups``, defaulting to the one :func:`analyze_block`
    derives) serializes the block iff (a) it covers every transaction
    exactly once and (b) for every conflicting pair ``i < j`` the earlier
    transaction's group strictly precedes the later's — executing groups
    in order then respects all conflict dependencies.  A corrupted
    schedule (a conflicting pair sharing a group, or ordered backwards)
    fails the check.
    """
    graph = conflict_graph(txs, coinbase=coinbase)
    if groups is None:
        groups = analyze_block(txs, coinbase=coinbase).groups
    group_of: dict[int, int] = {}
    for group_index, group in enumerate(groups):
        for i in group:
            if i in group_of:  # duplicated index
                return False
            group_of[i] = group_index
    if sorted(group_of) != list(range(len(txs))):  # missing/alien index
        return False
    return all(
        group_of[min(edge)] < group_of[max(edge)] for edge in graph.edges
    )


def parallel_commit_time_s(
    txs: Sequence[Transaction],
    *,
    workers: int,
    exec_rate: float,
    coinbase: str = "",
) -> float:
    """Unit-cost headroom model (no execution): each conflict-free group
    costs ``ceil(len(group) / workers) / exec_rate`` seconds."""
    report = analyze_block(txs, coinbase=coinbase)
    unit = 1.0 / exec_rate
    return sum(ceil(len(g) / workers) * unit for g in report.groups)
