"""Render one saved trace into a congestion report.

``repro report --trace t.jsonl`` lands here.  The trace written by
``--trace-out`` holds everything the report needs —

* **critical path** — the ``tx.*`` lifecycle events fed through
  :func:`repro.telemetry.critical_path.analyze` (with ``exec_share``
  measured from the same trace's ``node.commit`` events);
* **congestion series** — the ``obs.sample`` events as sparklines
  (terminal) or inline-SVG charts (HTML).

Output is a plain-text terminal report or one self-contained HTML page
(zero external assets), chosen by the caller.
"""

from __future__ import annotations

import html as _html

__all__ = ["build_congestion_report"]


def build_congestion_report(
    trace_records: "list[dict]",
    *,
    html: bool = False,
    title: str = "SRBB congestion report",
) -> str:
    """Assemble the report from whatever the trace holds."""
    from repro.telemetry.critical_path import analyze
    from repro.telemetry.observatory import samples_from_trace

    critical = None
    if any(r.get("name", "").startswith("tx.") for r in trace_records):
        critical = analyze(trace_records)
    samples = samples_from_trace(trace_records) or None
    render = _render_html if html else _render_text
    return render(samples=samples, critical=critical, title=title)


def _render_text(*, samples, critical, title) -> str:
    sections = [title, "=" * len(title)]
    if critical is not None:
        sections.append("")
        sections.append(critical.render_text())
    if samples is not None:
        from repro.telemetry.observatory import render_samples_text

        sections.append("")
        sections.append(render_samples_text(samples))
    if len(sections) == 2:
        sections.append("no tx.* or obs.sample events in the trace")
    return "\n".join(sections) + "\n"


def _render_html(*, samples, critical, title) -> str:
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
    if critical is None and samples is None:
        body.append("<p>no tx.* or obs.sample events in the trace</p>")
    body.append("</body></html>")
    return "\n".join(body) + "\n"
