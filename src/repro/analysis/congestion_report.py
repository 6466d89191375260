"""Render saved observability artifacts into one congestion report.

``repro report --observatory obs.json --lifecycle lc.json --trace t.jsonl``
lands here: each input is optional, previously written by the CLI's
``--observatory-out`` / ``--lifecycle-out`` / ``--trace-out`` flags, and
the report combines whatever is present —

* **critical path** — lifecycle records fed through
  :func:`repro.telemetry.critical_path.analyze` (with ``exec_share``
  measured from the trace's ``node.commit`` events when one is supplied);
* **observatory** — congestion sample series as sparklines (terminal) or
  inline-SVG charts (HTML).

Output is a plain-text terminal report or one self-contained HTML page
(zero external assets), chosen by the caller.
"""

from __future__ import annotations

import html as _html
import json

__all__ = [
    "load_observatory",
    "load_lifecycle",
    "load_trace",
    "build_congestion_report",
]


def load_observatory(path: str) -> "list[dict]":
    """Sample list from a ``CongestionObservatory.save`` file (or a bare
    JSON list of samples)."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("samples", []) if isinstance(doc, dict) else doc


def load_lifecycle(path: str) -> "list[dict]":
    """Lifecycle records from a ``--lifecycle-out`` file (a JSON list, or
    a mapping with a ``records`` key)."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("records", []) if isinstance(doc, dict) else doc


def load_trace(path: str) -> "list[dict]":
    """Tracer records from a ``--trace-out`` JSONL file."""
    from repro.telemetry.trace_event import load_jsonl

    return load_jsonl(path)


def _dropped_records(trace_records: "list[dict]") -> int:
    """Records the tracer's ring buffer shed, per the ``tracer.dropped``
    meta trailer stamped into truncated traces (0 when absent)."""
    for record in trace_records:
        if (
            record.get("type") == "meta"
            and record.get("name") == "tracer.dropped"
        ):
            return int(record.get("dropped_records", 0))
    return 0


def build_congestion_report(
    *,
    samples: "list[dict] | None" = None,
    lifecycle_records: "list[dict] | None" = None,
    trace_records: "list[dict] | None" = None,
    html: bool = False,
    title: str = "SRBB congestion report",
) -> str:
    """Assemble the report from whatever inputs are present."""
    critical = None
    if lifecycle_records:
        from repro.telemetry.critical_path import analyze

        critical = analyze(lifecycle_records, trace_records=trace_records)
    dropped = _dropped_records(trace_records) if trace_records else 0
    render = _render_html if html else _render_text
    return render(samples=samples, critical=critical, dropped=dropped, title=title)


#: what a truncated trace costs the report: exec_share sees the late run only
_TRUNCATED = (
    "⚠ trace truncated: ring buffer dropped {dropped} oldest records — "
    "exec_share above is measured on the late run only"
)


def _render_text(*, samples, critical, dropped=0, title) -> str:
    sections = [title, "=" * len(title)]
    if critical is not None:
        sections.append("")
        sections.append(critical.render_text())
    if samples is not None:
        from repro.telemetry.observatory import render_samples_text

        sections.append("")
        sections.append(render_samples_text(samples))
    if dropped:
        sections.append("")
        sections.append(_TRUNCATED.format(dropped=dropped))
    if len(sections) == 2:
        sections.append("no inputs — pass --observatory/--lifecycle/--trace")
    return "\n".join(sections) + "\n"


def _render_html(*, samples, critical, dropped=0, title) -> str:
    body = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        "<style>body{font:13px monospace;background:#181818;color:#ddd;"
        "margin:2em}h1{font-size:16px}h2{font-size:14px;color:#9c9}"
        "pre{background:#111;border:1px solid #333;padding:1em}"
        "figure{margin:1em 0}figcaption{margin-bottom:4px;color:#9c9}</style>"
        "</head><body>",
        f"<h1>{_html.escape(title)}</h1>",
    ]
    if critical is not None:
        body.append("<h2>critical path</h2>")
        body.append(f"<pre>{_html.escape(critical.render_text())}</pre>")
    if samples is not None:
        from repro.telemetry.observatory import render_samples_figures

        body.append("<h2>congestion observatory</h2>")
        body.append(render_samples_figures(samples))
    if dropped:
        body.append(f"<p>{_TRUNCATED.format(dropped=dropped)}</p>")
    if critical is None and samples is None:
        body.append("<p>no inputs — pass --observatory/--lifecycle/"
                    "--trace</p>")
    body.append("</body></html>")
    return "\n".join(body) + "\n"
