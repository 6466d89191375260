"""Exporters: Prometheus text exposition and JSON snapshots.

``to_prometheus`` renders a registry in the text format a Prometheus
scrape (or ``promtool``) accepts: ``# HELP``/``# TYPE`` headers, labeled
samples, histograms as cumulative ``_bucket{le=...}`` plus ``_sum`` and
``_count``.  ``parse_prometheus`` is the minimal inverse — enough for
round-trip tests and the CI smoke check, not a full scraper.
"""

from __future__ import annotations

import json
import math
import re

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "to_prometheus",
    "to_json",
    "parse_prometheus",
    "write_metrics",
]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_LABEL_NAME_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_LABEL_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_label_name(name) -> str:
    """Coerce a label *name* into Prometheus's ``[a-zA-Z_][a-zA-Z0-9_]*``.

    Label values are escaped, but names cannot be — exposition offers no
    quoting for them — so anything invalid is mapped onto the legal
    charset instead of emitting a dump no scraper can parse.
    """
    name = str(name)
    if _LABEL_NAME_OK.match(name):
        return name
    name = _LABEL_NAME_BAD_CHARS.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _fmt_labels(labels: dict, extra: "dict | None" = None) -> str:
    merged: dict = {}
    for source in (labels, extra or {}):
        for key, value in source.items():
            key = _sanitize_label_name(key)
            if key in merged:
                raise ValueError(
                    f"duplicate label name {key!r} after merge/sanitization"
                )
            merged[key] = value
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _scalar_lines(metric, lines: "list[str]") -> None:
    targets = [metric] if (not metric._children or metric.value) else []
    targets.extend(metric.children)
    for target in targets:
        lines.append(
            f"{metric.name}{_fmt_labels(target._labels)} {_fmt_value(target.value)}"
        )


def _histogram_lines(metric: Histogram, lines: "list[str]") -> None:
    targets = metric.children if metric._children else [metric]
    if metric._children and metric.count:
        targets = [metric] + list(targets)
    for target in targets:
        for bound, cumulative in target.cumulative_buckets():
            le = "+Inf" if bound == math.inf else _fmt_value(bound)
            lines.append(
                f"{metric.name}_bucket"
                f"{_fmt_labels(target._labels, {'le': le})} {_fmt_value(cumulative)}"
            )
        lines.append(
            f"{metric.name}_sum{_fmt_labels(target._labels)} {_fmt_value(target.sum)}"
        )
        lines.append(
            f"{metric.name}_count{_fmt_labels(target._labels)} {_fmt_value(target.count)}"
        )


def to_prometheus(registry: "MetricsRegistry | None" = None) -> str:
    """Render the registry in Prometheus text exposition format."""
    registry = registry or get_registry()
    lines: list[str] = []
    for metric in registry.collect():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            _histogram_lines(metric, lines)
        else:
            _scalar_lines(metric, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def _scalar_json(target) -> dict:
    return {"labels": dict(target._labels), "value": target.value}


def _histogram_json(target: Histogram) -> dict:
    return {
        "labels": dict(target._labels),
        "count": target.count,
        "sum": target.sum,
        "min": None if target.min == math.inf else target.min,
        "max": None if target.max == -math.inf else target.max,
        "mean": target.mean,
        "p50": target.percentile(50),
        "p90": target.percentile(90),
        "p99": target.percentile(99),
        "buckets": [
            {"le": "+Inf" if b == math.inf else b, "count": c}
            for b, c in target.cumulative_buckets()
        ],
    }


def to_json(registry: "MetricsRegistry | None" = None) -> dict:
    """Snapshot the registry as plain JSON-serializable data."""
    registry = registry or get_registry()
    out: dict = {}
    for metric in registry.collect():
        if isinstance(metric, Histogram):
            render, include_parent = _histogram_json, metric.count > 0
        else:
            render, include_parent = _scalar_json, bool(metric.value) or not metric._children
        samples = []
        if not metric._children or include_parent:
            samples.append(render(metric))
        samples.extend(render(child) for child in metric.children)
        out[metric.name] = {
            "type": metric.kind,
            "help": metric.help,
            "samples": samples,
        }
    return out


def parse_prometheus(text: str) -> "dict[tuple[str, tuple], float]":
    """Parse exposition text into ``{(name, ((label, value), ...)): value}``.

    Minimal by design: supports the subset :func:`to_prometheus` emits.
    Raises ``ValueError`` on a malformed sample line (the CI smoke check).
    """
    samples: dict[tuple[str, tuple], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value_str = line.rpartition(" ")
        if not head:
            raise ValueError(f"malformed sample line: {raw!r}")
        if "{" in head:
            name, _, label_blob = head.partition("{")
            if not label_blob.endswith("}"):
                raise ValueError(f"malformed labels: {raw!r}")
            labels = []
            blob = label_blob[:-1]
            while blob:
                key, sep, rest = blob.partition('="')
                if not sep:
                    raise ValueError(f"malformed labels: {raw!r}")
                # scan to the closing quote, honoring backslash escapes
                chars: list[str] = []
                i = 0
                while i < len(rest):
                    ch = rest[i]
                    if ch == "\\" and i + 1 < len(rest):
                        chars.append({"n": "\n"}.get(rest[i + 1], rest[i + 1]))
                        i += 2
                        continue
                    if ch == '"':
                        break
                    chars.append(ch)
                    i += 1
                else:
                    raise ValueError(f"malformed labels: {raw!r}")
                labels.append((key, "".join(chars)))
                blob = rest[i + 1 :].lstrip(",")
            label_key = tuple(sorted(labels))
        else:
            name, label_key = head, ()
        value = math.inf if value_str == "+Inf" else float(value_str)
        samples[(name, label_key)] = value
    return samples


def write_metrics(path: str, registry: "MetricsRegistry | None" = None) -> None:
    """Dump the registry to ``path`` — JSON if it ends in ``.json``,
    Prometheus text otherwise."""
    registry = registry or get_registry()
    with open(path, "w") as fh:
        if str(path).endswith(".json"):
            json.dump(to_json(registry), fh, indent=2, default=str)
            fh.write("\n")
        else:
            fh.write(to_prometheus(registry))
