"""``repro.telemetry`` — metrics, tracing and exporters for the SRBB pipeline.

Three layers, all off by default and one-branch-cheap until enabled:

* **Metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  in a :class:`MetricsRegistry` (labeled children, bounded streaming
  quantiles).  A process-global default registry backs the CLI's
  ``--metrics-out``; ``use_registry()`` scopes a fresh one for tests.
* **Tracing** — :func:`span` context managers and point :func:`event` s
  buffered by a global :class:`Tracer` and dumped as JSONL
  (``--trace-out``).
* **Exporters / timing** — Prometheus text + JSON snapshots, and the
  :func:`timed` wall-clock histogram decorator for hot paths.

Where the simulator itself spends CPU is answered from outside the
engines: ``repro profile`` runs its target under the stack sampler in
:mod:`repro.telemetry.profiling`, which nothing in the engines calls.

The metric catalogue (names, labels, units) lives in
``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.critical_path import CriticalPathReport
from repro.telemetry.critical_path import analyze as analyze_critical_path
from repro.telemetry.exporters import (
    parse_prometheus,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.telemetry.lifecycle import (
    PHASES,
    LifecycleRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.telemetry.logconfig import configure_logging, verbosity_to_level
from repro.telemetry.observatory import CongestionObservatory
from repro.telemetry.registry import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    EXEMPLAR_RING,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    bind,
    disable,
    enable,
    get_registry,
    set_registry,
    use_registry,
)
from repro.telemetry.timing import timed
from repro.telemetry.trace_event import to_trace_events, validate_trace_event
from repro.telemetry.tracing import (
    Tracer,
    current_span_id,
    event,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "EXEMPLAR_RING",
    "PHASES",
    "CongestionObservatory",
    "Counter",
    "CriticalPathReport",
    "Gauge",
    "Histogram",
    "LifecycleRecorder",
    "MetricsRegistry",
    "QuantileSketch",
    "Tracer",
    "analyze_critical_path",
    "bind",
    "configure_logging",
    "current_span_id",
    "disable",
    "enable",
    "event",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "parse_prometheus",
    "set_recorder",
    "set_registry",
    "set_tracer",
    "span",
    "timed",
    "to_json",
    "to_prometheus",
    "to_trace_events",
    "use_recorder",
    "use_registry",
    "validate_trace_event",
    "verbosity_to_level",
    "write_metrics",
]
