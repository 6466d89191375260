"""Post-hoc critical-path attribution of end-to-end commit latency.

Reads one trace (:mod:`repro.telemetry.tracing`) and answers *where the
time goes*.  Every transaction on the message-level engine is stamped by
``tx.<phase>`` events at each phase boundary it crosses (simulated
clock, per node):

    submit → gossip → pool → propose → rbc → decide → commit → execute → receipt

* ``submit``  — client submission reached a validator (§IV-C Reception);
* ``gossip``  — a peer's gossiped copy arrived (non-TVPR mode only);
* ``pool``    — admitted to a transaction pool (Alg. 1 line 7);
* ``propose`` — taken into a block proposal (Alg. 1 lines 11-12);
* ``rbc``     — the carrying block was RBC-delivered at a node;
* ``decide``  — the superblock containing it was DBFT-decided;
* ``commit``  — applied by the ordered commit loop;
* ``execute`` / ``receipt`` — VM execution done and receipt indexed, at
  the per-tx execution time ``tx.commit`` carries in ``commit_times``.

A transaction is stamped for the same phase on many nodes (every replica
commits it) and, after crash/recycle, more than once per node.
:func:`resolve` therefore reconstructs one *monotone* timeline per tx:
phases are walked in canonical order and each resolves to the earliest
stamp not before the previous resolved phase.  Every phase duration is
non-negative and the durations telescope exactly to ``last − first``.

Each committed timeline is folded into six raw buckets that telescope
exactly to the end-to-end latency,

======================  ======================================
bucket                  boundary (monotone resolved times)
======================  ======================================
``admit``               submit → pool admit (incl. gossip hop)
``pool_wait``           pool admit → proposal inclusion
``propagate``           proposal → RBC echo/ready quorum
``consensus``           RBC deliver → DBFT decide
``commit_wait``         decide → ordered commit
``execute``             commit → VM execute → receipt
======================  ======================================

``pool_wait`` and ``commit_wait`` are *queue* time: the tx sits behind
the round cadence, and the cadence itself is split between ordering work
and execution work.  The analyzer measures that split — ``exec_share``,
the fraction of the busiest node's commit loop spent executing
(``Σ exec_s`` from ``node.commit`` trace events, over the simulated
time between them) — and reattributes the queue buckets
proportionally.  The **attributed** breakdown is therefore

* ``execute``  = raw execute + exec_share · (pool_wait + commit_wait)
* ``ordering`` = (1 − exec_share) · (pool_wait + commit_wait)
* ``admit`` / ``propagate`` / ``consensus`` unchanged,

which still telescopes to the same end-to-end latency while charging
queueing delay to the resource that caused it.  At saturation with a
slow VM this correctly pins ``execute`` as dominant even though most of
a tx's wall time is spent *waiting* rather than executing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PHASES",
    "RAW_BUCKETS",
    "ATTRIBUTED_BUCKETS",
    "TxLifecycle",
    "PhaseStats",
    "CriticalPathReport",
    "stamps_from_trace",
    "resolve",
    "analyze",
    "exec_share_from_trace",
]

#: canonical phase order (the resolve() walk and every report follow it)
PHASES = (
    "submit",
    "gossip",
    "pool",
    "propose",
    "rbc",
    "decide",
    "commit",
    "execute",
    "receipt",
)

#: raw buckets, pipeline order (telescoping: they sum to e2e)
RAW_BUCKETS = (
    "admit", "pool_wait", "propagate", "consensus", "commit_wait", "execute"
)

#: attributed buckets after queue-wait reattribution, pipeline order
ATTRIBUTED_BUCKETS = ("admit", "propagate", "consensus", "ordering", "execute")

#: lifecycle phase duration -> raw bucket
_PHASE_BUCKET = {
    "gossip": "admit",
    "pool": "admit",
    "propose": "pool_wait",
    "rbc": "propagate",
    "decide": "consensus",
    "commit": "commit_wait",
    "execute": "execute",
    "receipt": "execute",
}


@dataclass
class TxLifecycle:
    """One transaction's resolved (monotone) timeline.

    ``times`` maps each *present* phase to its resolved simulated time;
    ``durations`` maps each present phase (except the first) to the
    non-negative time since the previous present phase.  The durations
    sum exactly to ``e2e`` (``last − first``).
    """

    tx: str
    index: "int | None"
    times: "dict[str, float]" = field(default_factory=dict)
    durations: "dict[str, float]" = field(default_factory=dict)

    @property
    def e2e(self) -> float:
        if not self.times:
            return 0.0
        return max(self.times.values()) - min(self.times.values())

    @property
    def committed(self) -> bool:
        return "commit" in self.times


def stamps_from_trace(trace_records: "list[dict]"):
    """Per-tx raw stamps rebuilt from the trace's ``tx.*`` events.

    Returns ``(stamps, index)``: ``stamps`` maps a hex tx hash to
    ``{phase: [(t, node), ...]}`` in record order (txs in first-stamp
    order), ``index`` maps it to the superblock index of the first event
    that named one.  A ``tx.commit`` also stamps ``execute`` and
    ``receipt`` at each tx's ``commit_times`` entry.
    """
    stamps: "dict[str, dict[str, list[tuple[float, int]]]]" = {}
    index: "dict[str, int]" = {}
    for record in trace_records:
        name = record.get("name", "")
        if record.get("type") != "event" or not name.startswith("tx."):
            continue
        phase = name[3:]
        if phase not in PHASES:
            raise ValueError(f"unknown lifecycle phase {phase!r}")
        attrs = record["attrs"]
        t, node, at = record["ts"], attrs["node"], attrs.get("index")
        executed = attrs.get("commit_times")
        for i, tx in enumerate(attrs["txs"]):
            phases = stamps.setdefault(tx, {})
            phases.setdefault(phase, []).append((t, node))
            if executed is not None:
                phases.setdefault("execute", []).append((executed[i], node))
                phases.setdefault("receipt", []).append((executed[i], node))
            if at is not None and tx not in index:
                index[tx] = at
    return stamps, index


def resolve(trace_records: "list[dict]") -> "list[TxLifecycle]":
    """Every stamped tx's monotone timeline (see module docstring), in
    first-stamp order."""
    stamps, index = stamps_from_trace(trace_records)
    out = []
    for tx, raw in stamps.items():
        lc = TxLifecycle(tx=tx, index=index.get(tx))
        prev: "float | None" = None
        for phase in PHASES:
            phase_stamps = raw.get(phase)
            if not phase_stamps:
                continue
            if prev is None:
                resolved = min(t for t, _ in phase_stamps)
            else:
                onward = [t for t, _ in phase_stamps if t >= prev]
                # All stamps predate the previous phase (e.g. the origin
                # node's pool admit precedes a peer's gossip arrival and
                # no later re-admission exists): clamp to zero duration
                # rather than produce a negative one.
                resolved = min(onward) if onward else prev
                lc.durations[phase] = resolved - prev
            lc.times[phase] = resolved
            prev = resolved
        out.append(lc)
    return out


@dataclass
class PhaseStats:
    """Aggregate seconds for one bucket across committed transactions."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p99: float = 0.0

    @classmethod
    def from_samples(cls, samples: "np.ndarray") -> "PhaseStats":
        if samples.size == 0:
            return cls()
        return cls(
            count=int(samples.size),
            mean=float(samples.mean()),
            p50=float(np.percentile(samples, 50)),
            p99=float(np.percentile(samples, 99)),
        )


@dataclass
class CriticalPathReport:
    """Scenario-level latency attribution (see module docstring)."""

    txs: int = 0
    committed: int = 0
    exec_share: float = 0.0
    e2e: PhaseStats = field(default_factory=PhaseStats)
    raw: "dict[str, PhaseStats]" = field(default_factory=dict)
    attributed: "dict[str, PhaseStats]" = field(default_factory=dict)
    dominant_phase: str = ""
    #: per-superblock chain summaries, index order
    superblocks: "list[dict]" = field(default_factory=list)

    def headline(self, prefix: str = "latency_breakdown") -> "dict[str, float]":
        """Flat numeric keys for a BENCH artifact headline block."""
        out: "dict[str, float]" = {
            f"{prefix}:txs": float(self.committed),
            f"{prefix}:exec_share": round(self.exec_share, 4),
            f"{prefix}:e2e_p50_s": round(self.e2e.p50, 4),
            f"{prefix}:e2e_p99_s": round(self.e2e.p99, 4),
            f"{prefix}:dominant_execute": (
                1.0 if self.dominant_phase == "execute" else 0.0
            ),
        }
        for bucket in ATTRIBUTED_BUCKETS:
            stats = self.attributed.get(bucket, PhaseStats())
            out[f"{prefix}:{bucket}_p50_s"] = round(stats.p50, 4)
            out[f"{prefix}:{bucket}_p99_s"] = round(stats.p99, 4)
        return out

    def render_text(self) -> str:
        """Terminal table: raw and attributed breakdowns side by side."""
        lines = [
            f"critical path — {self.committed}/{self.txs} txs committed, "
            f"exec_share={self.exec_share:.2f}, "
            f"e2e p50={self.e2e.p50:.3f}s p99={self.e2e.p99:.3f}s",
            f"{'bucket':<12} {'mean':>9} {'p50':>9} {'p99':>9}   share of e2e",
        ]
        e2e_mean = self.e2e.mean or 1.0
        for bucket in ATTRIBUTED_BUCKETS:
            stats = self.attributed.get(bucket, PhaseStats())
            share = stats.mean / e2e_mean
            bar = "#" * max(0, min(30, round(share * 30)))
            marker = "  ◀ dominant" if bucket == self.dominant_phase else ""
            lines.append(
                f"{bucket:<12} {stats.mean:>8.3f}s {stats.p50:>8.3f}s "
                f"{stats.p99:>8.3f}s   {share:>5.1%} {bar}{marker}"
            )
        if self.superblocks:
            lines.append("")
            lines.append(
                f"{'superblock':<11} {'txs':>5} {'e2e p50':>9} {'slowest bucket'}"
            )
            for sb in self.superblocks:
                lines.append(
                    f"{sb['index']:<11} {sb['txs']:>5} "
                    f"{sb['e2e_p50_s']:>8.3f}s {sb['slowest_bucket']}"
                )
        return "\n".join(lines)


def exec_share_from_trace(trace_records: "list[dict]") -> "float | None":
    """Fraction of the commit loop spent executing, from ``node.commit``
    trace events (their ``exec_s`` attr), measured on the node that
    committed the most superblocks.

    A commit's execution time delays the *next* round, so each
    commit-to-commit interval is attributed the leading commit's
    ``exec_s``.  Only intervals whose leading commit actually executed
    work count — empty drain rounds after the backlog clears (and idle
    rounds before load arrives) would otherwise dilute the share of a
    saturated window.  Returns None when the trace carries no usable
    commit events (analysis then skips reattribution).
    """
    by_node: "dict[int, list[tuple[float, float]]]" = {}
    for record in trace_records or ():
        if record.get("type") != "event" or record.get("name") != "node.commit":
            continue
        attrs = record.get("attrs", {})
        if "exec_s" not in attrs:
            continue
        node = attrs.get("node", -1)
        by_node.setdefault(node, []).append(
            (float(record["ts"]), float(attrs["exec_s"]))
        )
    if not by_node:
        return None
    commits = sorted(max(by_node.values(), key=len))
    if len(commits) < 2:
        return None
    exec_total = 0.0
    interval_total = 0.0
    for (t0, exec_s), (t1, _) in zip(commits, commits[1:]):
        if exec_s > 0 and t1 > t0:
            exec_total += exec_s
            interval_total += t1 - t0
    if interval_total <= 0:
        return None
    return max(0.0, min(1.0, exec_total / interval_total))


def _bucketize(lifecycle: TxLifecycle) -> "dict[str, float]":
    """Fold one resolved timeline into the raw buckets (telescoping)."""
    buckets = {bucket: 0.0 for bucket in RAW_BUCKETS}
    for phase, duration in lifecycle.durations.items():
        bucket = _PHASE_BUCKET.get(phase)
        if bucket is not None:
            buckets[bucket] += duration
    return buckets


def analyze(
    trace_records: "list[dict]",
    *,
    exec_share: "float | None" = None,
) -> CriticalPathReport:
    """Build the attribution report from one trace's records.

    ``exec_share`` overrides the trace-derived measurement; when neither
    is available, queue wait is charged entirely to ``ordering``.
    """
    lifecycles = resolve(trace_records)
    committed = [lc for lc in lifecycles if lc.committed]

    if exec_share is None:
        exec_share = exec_share_from_trace(trace_records)
    if exec_share is None:
        exec_share = 0.0

    report = CriticalPathReport(
        txs=len(lifecycles), committed=len(committed), exec_share=exec_share,
    )
    if not committed:
        report.raw = {bucket: PhaseStats() for bucket in RAW_BUCKETS}
        report.attributed = {b: PhaseStats() for b in ATTRIBUTED_BUCKETS}
        return report

    raw_rows = [_bucketize(lc) for lc in committed]
    e2e = np.array([lc.e2e for lc in committed])
    report.e2e = PhaseStats.from_samples(e2e)
    for bucket in RAW_BUCKETS:
        samples = np.array([row[bucket] for row in raw_rows])
        report.raw[bucket] = PhaseStats.from_samples(samples)

    attributed_rows = []
    for row in raw_rows:
        queue_wait = row["pool_wait"] + row["commit_wait"]
        attributed_rows.append({
            "admit": row["admit"],
            "propagate": row["propagate"],
            "consensus": row["consensus"],
            "ordering": (1.0 - exec_share) * queue_wait,
            "execute": row["execute"] + exec_share * queue_wait,
        })
    for bucket in ATTRIBUTED_BUCKETS:
        samples = np.array([row[bucket] for row in attributed_rows])
        report.attributed[bucket] = PhaseStats.from_samples(samples)
    report.dominant_phase = max(
        ATTRIBUTED_BUCKETS, key=lambda b: report.attributed[b].mean
    )

    by_index: "dict[int, list[tuple[TxLifecycle, dict]]]" = {}
    for lc, row in zip(committed, raw_rows):
        if lc.index is not None:
            by_index.setdefault(lc.index, []).append((lc, row))
    for index in sorted(by_index):
        group = by_index[index]
        group_e2e = np.array([lc.e2e for lc, _ in group])
        bucket_means = {
            bucket: float(np.mean([row[bucket] for _, row in group]))
            for bucket in RAW_BUCKETS
        }
        report.superblocks.append({
            "index": index,
            "txs": len(group),
            "e2e_p50_s": round(float(np.percentile(group_e2e, 50)), 6),
            "e2e_p99_s": round(float(np.percentile(group_e2e, 99)), 6),
            "slowest_bucket": max(bucket_means, key=bucket_means.get),
        })
    return report
