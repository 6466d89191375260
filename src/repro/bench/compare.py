"""Diff two benchmark artifacts (or raw metric dumps) with thresholds.

``flatten_doc`` normalizes every supported input — a ``BENCH_*.json``
artifact, a ``telemetry.to_json`` snapshot, or Prometheus exposition
text — into one flat ``key -> value`` mapping:

* headline stats become ``headline:<name>``;
* scalar metrics become ``name{label="v",...}``;
* histograms fan out into ``...:count``, ``...:sum``, ``...:p50/p90/p99``.

``diff_docs`` then applies *direction-aware* per-metric thresholds
(throughput may not drop, message counts may not grow) and
``render_comparison`` prints a terminal table with sparkline deltas.
A non-empty regression list maps to a non-zero exit code in the CLI, so
CI can gate merges on ``repro metrics-diff baseline.json current.json``.

Wall-clock headline keys (``engine_scaling``'s absolute timings, peak
RSS) are reported but never gated — only simulated-time and count
metrics are stable enough across hosts to enforce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

import numpy as np

from repro.analysis.timeseries import sparkline
from repro.bench.artifact import ARTIFACT_SCHEMA
from repro.telemetry import parse_prometheus

__all__ = [
    "Threshold",
    "MetricDelta",
    "ComparisonResult",
    "DEFAULT_THRESHOLDS",
    "WALL_CLOCK_HEADLINE_MARKERS",
    "flatten_doc",
    "diff_docs",
    "is_wall_clock_key",
    "render_comparison",
    "compare_files",
]


@dataclass(frozen=True)
class Threshold:
    """Direction-aware regression bound for metrics matching ``pattern``.

    ``direction="higher"`` means higher values are better (throughput):
    a drop of more than ``tolerance_pct`` percent is a regression.
    ``direction="lower"`` means lower is better (latency, message
    counts): growth beyond ``tolerance_pct`` percent *plus* ``abs_slack``
    is a regression — the absolute slack keeps near-zero baselines (0
    drops -> 1 drop) from tripping percentage math.
    """

    pattern: str
    direction: str  # "higher" | "lower"
    tolerance_pct: float
    abs_slack: float = 0.0

    def __post_init__(self):
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction must be higher|lower, got {self.direction!r}")

    def matches(self, key: str) -> bool:
        return fnmatchcase(key, self.pattern)

    def is_regression(self, old: float, new: float) -> bool:
        tol = self.tolerance_pct / 100.0
        if self.direction == "higher":
            return new < old * (1.0 - tol) - self.abs_slack
        return new > old * (1.0 + tol) + self.abs_slack


#: first matching threshold wins; anything unmatched is informational
DEFAULT_THRESHOLDS: "tuple[Threshold, ...]" = (
    # -- higher is better: throughput, commit rates, ratios ------------------
    Threshold("*throughput_tps*", "higher", 5.0),
    Threshold("*saturation_tps*", "higher", 5.0),
    Threshold("*commit_rate*", "higher", 5.0),
    Threshold("headline:*_ratio", "higher", 5.0),
    Threshold("headline:rpm_gain", "higher", 5.0, abs_slack=0.02),
    # -- vote-batching ablation: safety is binary (1.0 means the batched
    # and unbatched arms decided byte-identical superblocks), the
    # reduction factors must not erode
    Threshold("headline:chains_identical", "higher", 0.0),
    # -- chaos soak: safety is binary, recovery time must not balloon --------
    Threshold("headline:safety_holds", "higher", 0.0),
    Threshold("headline:state_roots_match", "higher", 0.0),
    Threshold("headline:states_agree", "higher", 0.0),
    Threshold("headline:rpm_nonce_survived", "higher", 0.0),
    Threshold("headline:recovery_time_s", "lower", 25.0, abs_slack=1.0),
    Threshold("headline:retransmissions_total", "lower", 10.0, abs_slack=20.0),
    # -- byzantine_campaign: deterrence must keep biting.  Honest-chain
    # agreement is binary; the committed-invalid collapse and the
    # attacker's economics are direction-gated (the slash must stay
    # total, exclusion prompt, honest redistribution positive).  The
    # attacker payoff is deeply negative, where percentage math
    # misbehaves — gate it with pure absolute slack.
    Threshold("headline:honest_chains_identical", "higher", 0.0),
    Threshold("headline:honest_state_roots_match", "higher", 0.0),
    Threshold("headline:invalid_committed_drop", "higher", 5.0, abs_slack=0.05),
    Threshold("headline:invalid_committed_with_rpm", "lower", 10.0, abs_slack=50.0),
    Threshold("headline:attacker_slashed", "higher", 0.0),
    Threshold("headline:attacker_excluded*", "higher", 0.0),
    Threshold("headline:attacker_final_deposit", "lower", 0.0, abs_slack=0.0),
    Threshold("headline:attacker_deposit_with_rpm", "lower", 0.0, abs_slack=0.0),
    Threshold("headline:attacker_net_payoff", "lower", 0.0, abs_slack=100_000.0),
    Threshold("headline:time_to_exclusion_s", "lower", 25.0, abs_slack=1.0),
    Threshold("headline:honest_yield", "higher", 10.0, abs_slack=0.01),
    Threshold("headline:message_reduction", "higher", 5.0),
    Threshold("headline:net_bytes_reduction", "higher", 5.0),
    Threshold("headline:votes_per_batch_avg", "higher", 10.0),
    Threshold("headline:*_consensus_msgs", "lower", 10.0, abs_slack=20.0),
    Threshold("*txs_committed_total*", "higher", 5.0, abs_slack=1.0),
    # -- critical-path latency breakdown (the saturation probe): the
    # dominant-phase identification is binary evidence, the attributed
    # per-phase quantiles and tick-engine phase latencies must not grow
    Threshold("headline:latency_breakdown:dominant_execute", "higher", 0.0),
    Threshold("headline:latency_breakdown:txs", "higher", 5.0, abs_slack=1.0),
    Threshold("headline:latency_breakdown:*_s", "lower", 15.0, abs_slack=0.1),
    Threshold("headline:*_phase_*_s", "lower", 15.0, abs_slack=0.1),
    # -- engine_scaling: event counts are deterministic (tight), the
    # wall-time scaling exponent is host-measured (generous — hosts vary
    # in speed, not asymptotics); absolute wall keys never reach these
    # thresholds (wall-clock markers short-circuit to informational)
    Threshold("headline:event_scaling_exponent", "lower", 2.0, abs_slack=0.05),
    # The fit uses min-of-N process-CPU times, which are stable enough
    # to gate hard.
    Threshold("headline:wall_scaling_exponent", "lower", 10.0, abs_slack=0.2),
    Threshold("headline:events_n*", "lower", 10.0, abs_slack=50.0),
    Threshold("headline:committed_n*", "higher", 5.0, abs_slack=1.0),
    # -- lower is better: latency (simulated time only; quantiles only —
    # a histogram's :count/:sum grow with *more commits*, which is good)
    Threshold("*latency_s", "lower", 10.0, abs_slack=0.05),
    Threshold("*latency_seconds*:p??", "lower", 10.0, abs_slack=0.05),
    # -- lower is better: traffic and loss -----------------------------------
    Threshold("headline:net_messages_total", "lower", 10.0, abs_slack=20.0),
    Threshold("headline:net_bytes_total", "lower", 10.0, abs_slack=16_384.0),
    Threshold("srbb_net_messages_total*", "lower", 10.0, abs_slack=20.0),
    Threshold("srbb_net_bytes_total*", "lower", 10.0, abs_slack=16_384.0),
    Threshold("srbb_consensus_messages_total*", "lower", 10.0, abs_slack=20.0),
    Threshold("headline:consensus_msgs_per_committed_tx", "lower", 10.0, abs_slack=1.0),
    Threshold("srbb_gossip_*_total*", "lower", 10.0, abs_slack=20.0),
    Threshold("*dropped*", "lower", 10.0, abs_slack=5.0),
    Threshold("*duplicates*", "lower", 10.0, abs_slack=20.0),
)

#: wall-clock quantities — never gated, whatever the patterns say
#: (the engine_scaling scenario's absolute keys and peak RSS;
#: note "wall_s_n" deliberately does NOT match "wall_scaling_exponent",
#: which stays gated under its own generous threshold)
_WALL_CLOCK_MARKERS = (
    "events_per_sec",
    "wall_s_n",
    "wall_scaling_exponent_full",
    "peak_rss_mb",
)

#: every headline key whose *value* depends on the host's wall clock —
#: the ungated markers above plus the (gated, but still host-measured)
#: scaling-exponent fit.  Determinism assertions filter with this.
WALL_CLOCK_HEADLINE_MARKERS = _WALL_CLOCK_MARKERS + ("wall_scaling_exponent",)


def is_wall_clock_key(key: str) -> bool:
    """True when a flattened key (``headline:<name>`` or metric key) is
    wall-clock-derived and therefore varies across identical seeded runs;
    same-run determinism checks must skip these."""
    return any(marker in key for marker in WALL_CLOCK_HEADLINE_MARKERS)


def _fmt_label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _flatten_snapshot(snapshot: dict) -> "dict[str, float]":
    out: "dict[str, float]" = {}
    for name, entry in snapshot.items():
        if not isinstance(entry, dict) or "samples" not in entry:
            continue
        for sample in entry["samples"]:
            key = name + _fmt_label_suffix(sample.get("labels", {}))
            if entry.get("type") == "histogram":
                out[f"{key}:count"] = float(sample["count"])
                out[f"{key}:sum"] = float(sample["sum"])
                for q in ("p50", "p90", "p99"):
                    out[f"{key}:{q}"] = float(sample[q])
            else:
                out[key] = float(sample["value"])
    return out


def flatten_doc(doc) -> "dict[str, float]":
    """Normalize an artifact / JSON snapshot / Prometheus text to flat
    ``key -> value``. See module docstring for the key grammar."""
    if isinstance(doc, str):
        samples = parse_prometheus(doc)
        out = {}
        for (name, label_items), value in samples.items():
            out[name + _fmt_label_suffix(dict(label_items))] = float(value)
        return out
    if isinstance(doc, dict) and doc.get("schema") == ARTIFACT_SCHEMA:
        flat = {
            f"headline:{k}": float(v) for k, v in doc.get("headline", {}).items()
        }
        flat.update(_flatten_snapshot(doc.get("metrics", {})))
        return flat
    if isinstance(doc, dict):
        return _flatten_snapshot(doc)
    raise TypeError(f"cannot flatten {type(doc).__name__} into metrics")


@dataclass
class MetricDelta:
    """One metric's before/after comparison."""

    key: str
    old: "float | None"
    new: "float | None"
    threshold: "Threshold | None"
    status: str  # "ok" | "regression" | "improved" | "info" | "added" | "removed"

    @property
    def pct_change(self) -> "float | None":
        if self.old is None or self.new is None:
            return None
        if self.old == 0:
            return None if self.new == 0 else float("inf")
        return 100.0 * (self.new - self.old) / abs(self.old)


@dataclass
class ComparisonResult:
    """Full diff of two flattened dumps."""

    deltas: "list[MetricDelta]" = field(default_factory=list)

    @property
    def regressions(self) -> "list[MetricDelta]":
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _match_threshold(
    key: str, thresholds: "tuple[Threshold, ...]"
) -> "Threshold | None":
    if any(marker in key for marker in _WALL_CLOCK_MARKERS):
        return None
    for threshold in thresholds:
        if threshold.matches(key):
            return threshold
    return None


def diff_docs(
    old_doc,
    new_doc,
    *,
    thresholds: "tuple[Threshold, ...]" = DEFAULT_THRESHOLDS,
) -> ComparisonResult:
    """Compare two documents (any mix of artifact/snapshot/Prometheus)."""
    old_flat = flatten_doc(old_doc)
    new_flat = flatten_doc(new_doc)
    result = ComparisonResult()
    for key in sorted(old_flat.keys() | new_flat.keys()):
        old = old_flat.get(key)
        new = new_flat.get(key)
        threshold = _match_threshold(key, thresholds)
        if old is None or new is None:
            status = "added" if old is None else "removed"
        elif threshold is None:
            status = "info"
        elif threshold.is_regression(old, new):
            status = "regression"
        elif threshold.is_regression(new, old):
            # would have regressed in the other direction -> clear win
            status = "improved"
        else:
            status = "ok"
        result.deltas.append(MetricDelta(key, old, new, threshold, status))
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_STATUS_ORDER = {"regression": 0, "removed": 1, "added": 2, "improved": 3,
                 "ok": 4, "info": 5}
_STATUS_MARK = {
    "regression": "FAIL", "improved": "better", "ok": "ok",
    "info": "info", "added": "added", "removed": "removed",
}


def _fmt_num(value: "float | None") -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def _delta_cell(delta: MetricDelta) -> str:
    pct = delta.pct_change
    if pct is None:
        return "-"
    if pct == float("inf"):
        return "+inf"
    return f"{pct:+.1f}%"


def _spark_cell(delta: MetricDelta) -> str:
    if delta.old is None or delta.new is None:
        return "  "
    return sparkline(np.array([delta.old, delta.new], dtype=float), width=2)


def render_comparison(
    result: ComparisonResult,
    *,
    max_rows: int = 40,
    show_unchanged: bool = False,
) -> str:
    """Terminal table: regressions first, then changes; sparkline deltas."""
    rows = [
        d for d in result.deltas
        if show_unchanged or d.status != "info" or d.old != d.new
    ]
    rows.sort(key=lambda d: (_STATUS_ORDER.get(d.status, 9),
                             -abs(d.pct_change or 0.0), d.key))
    hidden = len(rows) - max_rows
    rows = rows[:max_rows]
    header = f"{'metric':<58} {'old':>12} {'new':>12} {'delta':>8} {'':2} status"
    lines = [header, "-" * len(header)]
    for d in rows:
        key = d.key if len(d.key) <= 58 else d.key[:55] + "..."
        lines.append(
            f"{key:<58} {_fmt_num(d.old):>12} {_fmt_num(d.new):>12} "
            f"{_delta_cell(d):>8} {_spark_cell(d)} {_STATUS_MARK.get(d.status, d.status)}"
        )
    if hidden > 0:
        lines.append(f"... and {hidden} more changed metrics (truncated)")
    gated = [d for d in result.deltas if d.threshold is not None
             and d.pct_change not in (None, float("inf"))]
    if gated:
        deltas = np.array([abs(d.pct_change) for d in gated])
        lines.append(
            f"gated deltas |%|: {sparkline(deltas, width=min(60, len(deltas)))} "
            f"(n={len(gated)}, max {deltas.max():.1f}%)"
        )
    if result.regressions:
        lines.append(
            f"REGRESSION: {len(result.regressions)} metric(s) crossed their "
            "threshold: " + ", ".join(d.key for d in result.regressions[:8])
            + ("..." if len(result.regressions) > 8 else "")
        )
    else:
        changed = sum(1 for d in result.deltas if d.old != d.new)
        lines.append(f"ok: no thresholded metric regressed ({changed} changed)")
    return "\n".join(lines)


def _load_file(path: str):
    """Load a comparison input: JSON (artifact or snapshot) or Prometheus."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.loads(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # Prometheus exposition text


def compare_files(
    old_path: str,
    new_path: str,
    *,
    thresholds: "tuple[Threshold, ...]" = DEFAULT_THRESHOLDS,
    max_rows: int = 40,
    show_unchanged: bool = False,
) -> "tuple[str, int]":
    """Diff two dump files; returns (rendered table, exit code)."""
    result = diff_docs(
        _load_file(old_path), _load_file(new_path), thresholds=thresholds
    )
    text = render_comparison(
        result, max_rows=max_rows, show_unchanged=show_unchanged
    )
    return text, (0 if result.ok else 1)
