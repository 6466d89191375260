"""Periodic congestion observatory for message-level deployments.

Samples the queues where congestion actually accumulates — on the
simulated clock, every ``interval_s`` — and keeps the time series for
the ``repro report`` CLI:

* per node: txpool depth and oldest-tx age, vote-batcher backlog,
  open consensus instances, crashed flag;
* network-wide: un-acked reliable sends in flight (retransmit queue),
  cumulative messages / bytes / retransmissions / drops.

Each sample also updates ``srbb_obs_*`` gauges on the global metrics
registry (no-ops while it is disabled), so ``--metrics-out`` snapshots
carry the *latest* congestion state and the saved sample series carries
the full history.  Sampling only reads state — installing the
observatory never changes simulation results.

Rendering is dependency-free: :meth:`render_text` draws unicode
sparklines per signal, :meth:`render_html` emits one self-contained
HTML file with inline SVG charts.
"""

from __future__ import annotations

import html
import json
from types import SimpleNamespace

import numpy as np

from repro.telemetry.registry import bind

__all__ = [
    "CongestionObservatory",
    "render_samples_text",
    "render_samples_html",
    "render_samples_figures",
]

_metrics = bind(
    lambda reg: SimpleNamespace(
        pool_depth=reg.gauge(
            "srbb_obs_pool_depth", "txpool depth at last observatory sample"
        ),
        pool_age=reg.gauge(
            "srbb_obs_pool_oldest_age_seconds",
            "age of the oldest pooled tx at last observatory sample",
        ),
        vote_buffer=reg.gauge(
            "srbb_obs_vote_buffer", "vote-batcher backlog at last sample"
        ),
        consensus_open=reg.gauge(
            "srbb_obs_consensus_open", "open consensus instances at last sample"
        ),
        inflight=reg.gauge(
            "srbb_obs_net_inflight",
            "un-acked reliable sends in flight at last sample",
        ),
        byzantine_active=reg.gauge(
            "srbb_faults_byzantine_active",
            "schedule-driven Byzantine misbehaviour windows currently open",
        ),
    )
)

#: node signals captured per sample (key -> how to read it off a node)
_NODE_SIGNALS = (
    "pool_depth",
    "pool_age_s",
    "vote_buffer",
    "consensus_open",
)

#: signals aggregated across nodes by max (everything else sums)
_MAX_AGGREGATED = frozenset({"pool_age_s"})


class CongestionObservatory:
    """Self-rescheduling sampler attached to one :class:`Deployment`."""

    def __init__(
        self,
        deployment,
        *,
        interval_s: float = 1.0,
        horizon_s: "float | None" = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.deployment = deployment
        self.interval_s = interval_s
        self.horizon_s = horizon_s
        self.samples: "list[dict]" = []
        self._installed = False

    def install(self) -> "CongestionObservatory":
        """Schedule the first sample (t=0) and the periodic cadence."""
        if not self._installed:
            self._installed = True
            self.deployment.sim.schedule(0.0, self._tick)
        return self

    def _tick(self) -> None:
        self.sample()
        now = self.deployment.sim.now
        if self.horizon_s is None or now + self.interval_s <= self.horizon_s:
            self.deployment.sim.schedule(self.interval_s, self._tick)

    def sample(self) -> dict:
        """Take one sample now; appended to :attr:`samples` and returned."""
        deployment = self.deployment
        now = deployment.sim.now
        m = _metrics()
        nodes: "dict[int, dict]" = {}
        for node in deployment.validators:
            row = {
                "pool_depth": len(node.pool),
                "pool_age_s": round(node.pool.oldest_age(now), 6),
                "vote_buffer": node.vote_batcher.pending,
                "consensus_open": len(node._consensus),
                "crashed": bool(node.crashed),
            }
            nodes[node.node_id] = row
            labels = {"node": str(node.node_id)}
            m.pool_depth.labels(**labels).set(row["pool_depth"])
            m.pool_age.labels(**labels).set(row["pool_age_s"])
            m.vote_buffer.labels(**labels).set(row["vote_buffer"])
            m.consensus_open.labels(**labels).set(row["consensus_open"])

        network = deployment.network
        stats = network.stats
        fault_controller = getattr(deployment, "fault_controller", None)
        byzantine_active = (
            fault_controller.byzantine_windows_open
            if fault_controller is not None
            and hasattr(fault_controller, "byzantine_windows_open")
            else 0
        )
        net = {
            "inflight": network.inflight(),
            "messages": stats.messages,
            "bytes": stats.bytes,
            "retransmissions": stats.retransmissions,
            "dropped": stats.dropped,
            "byzantine_active": byzantine_active,
        }
        m.inflight.set(net["inflight"])
        m.byzantine_active.set(byzantine_active)
        sample = {"t": round(now, 6), "nodes": nodes, "net": net}
        self.samples.append(sample)
        return sample

    # -- export / rendering -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def render_text(self) -> str:
        return render_samples_text(self.samples)

    def render_html(self, title: str = "congestion observatory") -> str:
        return render_samples_html(self.samples, title=title)


# -- pure rendering over sample lists (also used on re-loaded JSON) -------------


def _series(samples: "list[dict]") -> "dict[str, np.ndarray]":
    """Aggregate each signal across nodes into one time series."""
    out: "dict[str, list[float]]" = {sig: [] for sig in _NODE_SIGNALS}
    out["net_inflight"] = []
    out["net_retransmissions"] = []
    out["byzantine_active"] = []
    for sample in samples:
        rows = list(sample.get("nodes", {}).values())
        for sig in _NODE_SIGNALS:
            # row.get: samples saved by older builds lack newer signals
            values = [
                row.get(sig, 0.0) for row in rows if not row.get("crashed")
            ]
            if sig in _MAX_AGGREGATED:
                out[sig].append(max(values) if values else 0.0)
            else:
                out[sig].append(float(sum(values)))
        net = sample.get("net", {})
        out["net_inflight"].append(float(net.get("inflight", 0)))
        out["net_retransmissions"].append(float(net.get("retransmissions", 0)))
        out["byzantine_active"].append(float(net.get("byzantine_active", 0)))
    # cumulative counter -> per-interval rate shape
    retrans = np.asarray(out["net_retransmissions"])
    if retrans.size:
        out["net_retransmissions"] = list(
            np.diff(retrans, prepend=retrans[:1])
        )
    return {sig: np.asarray(vals, dtype=float) for sig, vals in out.items()}


def render_samples_text(samples: "list[dict]") -> str:
    """Terminal report: one sparkline row per congestion signal."""
    if not samples:
        return "observatory: no samples"
    from repro.analysis.timeseries import sparkline

    t0, t1 = samples[0]["t"], samples[-1]["t"]
    lines = [
        f"congestion observatory — {len(samples)} samples over "
        f"[{t0:.1f}s, {t1:.1f}s]"
    ]
    labels = {
        "pool_depth": "txpool depth (Σ nodes)",
        "pool_age_s": "oldest tx age (max, s)",
        "vote_buffer": "vote-batcher backlog",
        "consensus_open": "open consensus instances",
        "net_inflight": "un-acked sends in flight",
        "net_retransmissions": "retransmissions / interval",
        "byzantine_active": "byzantine windows open",
    }
    for sig, values in _series(samples).items():
        label = labels.get(sig, sig)
        lines.append(
            f"{label:<26} last={values[-1]:>8.1f} peak={values.max():>8.1f}  "
            f"{sparkline(values, width=48)}"
        )
    crashed = sorted({
        node_id
        for sample in samples
        for node_id, row in sample.get("nodes", {}).items()
        if row.get("crashed")
    })
    if crashed:
        lines.append(f"crashed at some sample: nodes {crashed}")
    return "\n".join(lines)


def _svg_polyline(values: np.ndarray, *, width=640, height=80) -> str:
    if values.size == 0:
        return ""
    peak = float(values.max()) or 1.0
    n = max(1, values.size - 1)
    points = " ".join(
        f"{i * width / n:.1f},{height - (v / peak) * (height - 4) - 2:.1f}"
        for i, v in enumerate(values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'style="background:#111;border:1px solid #333">'
        f'<polyline fill="none" stroke="#6cf" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def render_samples_figures(samples: "list[dict]") -> str:
    """The observatory charts as an HTML fragment (``<p>`` + ``<figure>``
    elements, inline SVG) — embeddable in a larger report page."""
    if not samples:
        return "<p>no samples</p>"
    t0, t1 = samples[0]["t"], samples[-1]["t"]
    body = [
        f"<p>{len(samples)} samples over [{t0:.1f}s, {t1:.1f}s] "
        "of simulated time</p>"
    ]
    for sig, values in _series(samples).items():
        body.append(
            f"<figure><figcaption>{html.escape(sig)} "
            f"(last={values[-1]:.1f}, peak={values.max():.1f})"
            f"</figcaption>{_svg_polyline(values)}</figure>"
        )
    return "\n".join(body)


def render_samples_html(
    samples: "list[dict]", *, title: str = "congestion observatory"
) -> str:
    """One self-contained HTML page, inline SVG charts, zero deps."""
    return "\n".join([
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        "<style>body{font:13px monospace;background:#181818;color:#ddd;"
        "margin:2em}h1{font-size:16px}figure{margin:1em 0}"
        "figcaption{margin-bottom:4px;color:#9c9}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        render_samples_figures(samples),
        "</body></html>",
    ])
