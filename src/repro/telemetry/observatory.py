"""Congestion samples on the simulated clock, and their renderers.

:func:`start_sampling` makes a deployment emit one ``obs.sample`` trace
event every simulated second (``SAMPLE_INTERVAL_S``), reading the queues
where congestion accumulates:

* ``nodes`` — per node: txpool depth and oldest-tx age, vote-batcher
  backlog, open (unfinished) consensus instances, crashed flag;
* ``net`` — network-wide: un-acked reliable sends in flight (retransmit
  queue), cumulative messages / bytes / retransmissions / drops, open
  Byzantine windows.

Sampling only reads state, so a traced run decides the same chain as an
untraced one.  The trace holds the whole series; :func:`samples_from_trace`
reads it back for ``repro report``.

Rendering is dependency-free: :func:`render_samples_text` draws unicode
sparklines per signal, :func:`render_samples_figures` inline SVG charts.
"""

from __future__ import annotations

import html

import numpy as np

from repro.telemetry import tracing

__all__ = [
    "SAMPLE_INTERVAL_S",
    "start_sampling",
    "sample",
    "samples_from_trace",
    "render_samples_text",
    "render_samples_figures",
]

#: simulated seconds between two ``obs.sample`` events
SAMPLE_INTERVAL_S = 1.0

#: node signals captured per sample (key -> how to read it off a node)
_NODE_SIGNALS = (
    "pool_depth",
    "pool_age_s",
    "vote_buffer",
    "consensus_open",
)

#: signals aggregated across nodes by max (everything else sums)
_MAX_AGGREGATED = frozenset({"pool_age_s"})


def start_sampling(deployment) -> None:
    """Sample ``deployment`` at t = 0 and every ``SAMPLE_INTERVAL_S`` on."""
    sim = deployment.sim

    def tick() -> None:
        sample(deployment)
        sim.schedule(SAMPLE_INTERVAL_S, tick)

    sim.schedule(0.0, tick)


def sample(deployment) -> None:
    """Emit one ``obs.sample`` event for ``deployment`` now."""
    now = deployment.sim.now
    nodes = {
        node.node_id: {
            "pool_depth": len(node.pool),
            "pool_age_s": round(node.pool.oldest_age(now), 6),
            "vote_buffer": node.vote_batcher.pending,
            # finished rounds stay for RETIRE_WINDOW more committed indices
            "consensus_open": sum(
                1 for c in node._consensus.values() if not c.finished
            ),
            "crashed": bool(node.crashed),
        }
        for node in deployment.validators
    }
    network = deployment.network
    stats = network.stats
    fault_controller = deployment.fault_controller
    net = {
        "inflight": network.inflight(),
        "messages": stats.messages,
        "bytes": stats.bytes,
        "retransmissions": stats.retransmissions,
        "dropped": stats.dropped,
        "byzantine_active": (
            fault_controller.byzantine_windows_open
            if fault_controller is not None else 0
        ),
    }
    tracing.event("obs.sample", now, nodes=nodes, net=net)


def samples_from_trace(trace_records: "list[dict]") -> "list[dict]":
    """The ``obs.sample`` series of a trace as ``{t, nodes, net}`` dicts."""
    return [
        {"t": record["ts"], **record["attrs"]}
        for record in trace_records
        if record.get("type") == "event" and record.get("name") == "obs.sample"
    ]


# -- rendering over sample lists ---------------------------------------------------


def _series(samples: "list[dict]") -> "dict[str, np.ndarray]":
    """Aggregate each signal across nodes into one time series."""
    out: "dict[str, list[float]]" = {sig: [] for sig in _NODE_SIGNALS}
    out["net_inflight"] = []
    out["net_retransmissions"] = []
    out["byzantine_active"] = []
    for sample in samples:
        rows = list(sample.get("nodes", {}).values())
        for sig in _NODE_SIGNALS:
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
