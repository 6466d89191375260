"""``repro.telemetry`` — metrics, tracing and exporters for the SRBB pipeline.

Three layers, all off by default and one-branch-cheap until enabled:

* **Metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  in a :class:`MetricsRegistry` (labeled children, bounded streaming
  quantiles).  A process-global default registry backs the CLI's
  ``--metrics-out``; ``use_registry()`` scopes a fresh one for tests.
* **Tracing** — point :func:`event` s stamped with the simulated clock,
  buffered by a global :class:`Tracer` and dumped as JSONL
  (``--trace-out``); a seeded run's trace is byte-identical run to run.
  The trace is the one per-run record: per-transaction lifecycle stamps
  are ``tx.<phase>`` events (:func:`stamp_txs`) and congestion samples
  are ``obs.sample`` events (:mod:`repro.telemetry.observatory`), read
  back by :mod:`repro.telemetry.critical_path` and ``repro report``.
* **Exporters** — Prometheus text + JSON snapshots, and the Chrome
  trace-event (Perfetto) export of the trace, with per-tx flow arrows.

Every record here is on the simulated clock.  Where the simulator itself
spends host CPU is answered from outside the engines: ``repro profile``
runs its target under the stack sampler in
:mod:`repro.telemetry.profiling`, which nothing in the engines calls.

The metric catalogue (names, labels, units) lives in
``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.critical_path import PHASES, CriticalPathReport
from repro.telemetry.critical_path import analyze as analyze_critical_path
from repro.telemetry.exporters import (
    parse_prometheus,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.telemetry.logconfig import configure_logging, verbosity_to_level
from repro.telemetry.registry import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
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
from repro.telemetry.trace_event import to_trace_events, validate_trace_event
from repro.telemetry.tracing import (
    Tracer,
    event,
    get_tracer,
    set_tracer,
    stamp_txs,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "PHASES",
    "Counter",
    "CriticalPathReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "Tracer",
    "analyze_critical_path",
    "bind",
    "configure_logging",
    "disable",
    "enable",
    "event",
    "get_registry",
    "get_tracer",
    "parse_prometheus",
    "set_registry",
    "set_tracer",
    "stamp_txs",
    "to_json",
    "to_prometheus",
    "to_trace_events",
    "use_registry",
    "validate_trace_event",
    "verbosity_to_level",
    "write_metrics",
]
