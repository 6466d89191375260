"""Metrics registry — Counters, Gauges and Histograms for the SRBB pipeline.

Design goals, in order:

1. **Cheap when off.** The process-global default registry starts
   *disabled*.  Instrumented sites read their registry's ``enabled`` flag
   once and, while it is off, skip the :func:`bind` lookup, the label
   resolution and every ``inc``/``set``/``observe``, so instrumentation
   on hot paths (per-transaction validation and execution, per-message
   transport accounting) costs one branch per call until someone opts in
   (``--metrics-out`` or :func:`enable`).  A call that does reach a
   disabled metric still records nothing: each mutation checks the flag.
2. **Standalone metrics stay live.** A metric constructed without a
   registry (``Counter("x")``) always records — that is how the per-node
   ``NodeStats`` / ``LatencySample`` views keep exact per-instance counts
   independently of whether global telemetry is on.
3. **Bounded memory.** ``Histogram`` keeps fixed cumulative buckets for
   Prometheus exposition plus a DDSketch-style log-bucket sketch for
   streaming quantiles — O(bins), never O(observations) (the
   ``LatencySample`` unbounded-list bug this replaces).

Prometheus semantics: a metric may carry an unlabeled value and/or
labeled children (``counter.labels(source="client")``); the exporter
emits whichever exist.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry import tracing as _tracing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable",
    "disable",
    "bind",
    "DEFAULT_BUCKETS",
    "COUNT_BUCKETS",
]

#: default histogram buckets — latency-flavoured, seconds
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: buckets for count-valued histograms (queue depths, block sizes, rounds)
COUNT_BUCKETS = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000,
    10_000, 25_000, 50_000, 100_000, 500_000,
)

_RESERVED_LABELS = frozenset({"le", "quantile"})

#: exemplar ring size per histogram (child) — a handful of recent
#: observations with their span IDs is enough to jump from a bad p99
#: bucket to the offending superblock round in the trace
EXEMPLAR_RING = 8


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared machinery: registration, labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", registry: "MetricsRegistry | None" = None):
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._registry = registry
        self._labels: dict = {}
        self._children: "dict[tuple, _Metric]" = {}

    # -- labels ----------------------------------------------------------------

    def labels(self, **labels) -> "_Metric":
        """Get or create the child metric for this label set."""
        if not labels:
            return self
        bad = _RESERVED_LABELS.intersection(labels)
        if bad:
            raise ValueError(f"reserved label name(s): {sorted(bad)}")
        key = _label_key({k: str(v) for k, v in labels.items()})
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            child._labels = dict(key)
            self._children[key] = child
        return child

    def _new_child(self) -> "_Metric":
        child = type(self)(self.name, self.help, self._registry)
        return child

    @property
    def children(self) -> "list[_Metric]":
        return [self._children[k] for k in sorted(self._children)]

    def _reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", registry: "MetricsRegistry | None" = None):
        super().__init__(name, help, registry)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        reg = self._registry
        if reg is None or reg.enabled:
            self.value += amount

    def total(self) -> float:
        """Own value plus every labeled child's."""
        return self.value + sum(c.value for c in self._children.values())

    def _reset(self) -> None:
        self.value = 0.0
        for child in self._children.values():
            child._reset()


class Gauge(_Metric):
    """Instantaneous value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", registry: "MetricsRegistry | None" = None):
        super().__init__(name, help, registry)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        reg = self._registry
        if reg is None or reg.enabled:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        reg = self._registry
        if reg is None or reg.enabled:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        reg = self._registry
        if reg is None or reg.enabled:
            self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0
        for child in self._children.values():
            child._reset()


class QuantileSketch:
    """DDSketch-style streaming quantile sketch with bounded memory.

    Values are mapped to logarithmic buckets with relative accuracy
    ``alpha`` (a reported quantile is within ``alpha`` of the true value,
    relatively).  When the number of bins exceeds ``max_bins`` the lowest
    bins collapse into one — quantile error then grows only at the far
    low end, which no caller asks about (p50 and up).  Supports weighted
    observations, matching the cohort-based simulator.
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "max_bins", "_bins", "_zero", "_min_key")

    def __init__(self, alpha: float = 0.01, max_bins: int = 2048):
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.gamma = (1 + alpha) / (1 - alpha)
        self._log_gamma = math.log(self.gamma)
        self.max_bins = max_bins
        self._bins: dict[int, float] = {}
        self._zero = 0.0  # weight of observations <= _MIN_VALUE
        self._min_key: int | None = None

    _MIN_VALUE = 1e-9

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            return
        if value <= 1e-9:  # _MIN_VALUE, inlined for the hot path
            self._zero += weight
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        min_key = self._min_key
        if min_key is not None and key < min_key:
            key = min_key
        bins = self._bins
        bins[key] = bins.get(key, 0.0) + weight
        if len(bins) > self.max_bins:
            self._collapse()

    def _collapse(self) -> None:
        keys = sorted(self._bins)
        floor_key = keys[len(keys) - self.max_bins]
        merged = 0.0
        for key in keys:
            if key >= floor_key:
                break
            merged += self._bins.pop(key)
        self._bins[floor_key] = self._bins.get(floor_key, 0.0) + merged
        self._min_key = floor_key

    @property
    def total_weight(self) -> float:
        return self._zero + sum(self._bins.values())

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        total = self.total_weight
        if total <= 0:
            return 0.0
        rank = q * total
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for key in sorted(self._bins):
            seen += self._bins[key]
            if seen >= rank:
                # midpoint of the bucket (gamma^(key-1), gamma^key]
                return 2.0 * self.gamma ** key / (self.gamma + 1.0)
        last = max(self._bins)  # pragma: no cover - float slack
        return 2.0 * self.gamma ** last / (self.gamma + 1.0)

    def _reset(self) -> None:
        self._bins.clear()
        self._zero = 0.0
        self._min_key = None


class Histogram(_Metric):
    """Fixed-bucket histogram plus bounded streaming quantiles.

    ``observe(value, weight)`` feeds Prometheus-style cumulative buckets
    (for exposition), exact count/sum/min/max, and a
    :class:`QuantileSketch` (for ``percentile``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        registry: "MetricsRegistry | None" = None,
        buckets: "tuple[float, ...]" = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, registry)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0.0] * (len(self.buckets) + 1)  # +Inf slot
        self.count: float = 0.0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.sketch = QuantileSketch()
        #: bounded ring of recent observations linked to the span that
        #: produced them — only populated while the global tracer runs
        self.exemplars: "deque[dict]" = deque(maxlen=EXEMPLAR_RING)

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self._registry, self.buckets)

    def observe(self, value: float, weight: float = 1.0) -> None:
        # hot path: the enablement check is inlined (no property call)
        reg = self._registry
        if weight <= 0 or (reg is not None and not reg.enabled):
            return
        self.count += weight
        self.sum += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # bisect_left finds the first bound >= value (le is inclusive);
        # past-the-end lands in the +Inf slot at -1.
        buckets = self.buckets
        i = bisect.bisect_left(buckets, value)
        self.bucket_counts[i if i < len(buckets) else -1] += weight
        self.sketch.add(value, weight)
        tracer = _tracing.get_tracer()
        if tracer.enabled and tracer._stack:
            self.exemplars.append(
                {
                    "value": value,
                    "span_id": tracer._stack[-1],
                    "ts": round(tracer.now(), 6),
                }
            )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Streaming percentile, ``q`` in [0, 100]; ~1% relative error."""
        if self.count <= 0:
            return 0.0
        value = self.sketch.quantile(q / 100.0)
        # The sketch reports bucket midpoints; clamp into the observed range.
        return min(max(value, self.min if self.min is not math.inf else 0.0), self.max)

    def cumulative_buckets(self) -> "list[tuple[float, float]]":
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out = []
        running = 0.0
        for bound, count in zip(self.buckets, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.bucket_counts[-1]))
        return out

    def _reset(self) -> None:
        self.bucket_counts = [0.0] * (len(self.buckets) + 1)
        self.count = 0.0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sketch._reset()
        self.exemplars.clear()
        for child in self._children.values():
            child._reset()


class MetricsRegistry:
    """Named metric store; get-or-create semantics, optional no-op mode."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._metrics: "dict[str, _Metric]" = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, self, **kwargs)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: "tuple[float, ...]" = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> "_Metric | None":
        return self._metrics.get(name)

    def collect(self) -> "list[_Metric]":
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every metric (keeps registrations); for fresh runs/tests."""
        for metric in self._metrics.values():
            metric._reset()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False


# ---------------------------------------------------------------------------
# Process-global default registry
# ---------------------------------------------------------------------------

#: disabled by default: importing repro must not make hot paths pay for
#: telemetry nobody asked for (the CLI enables it on --metrics-out)
_default_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: "MetricsRegistry | None" = None) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (default: a fresh enabled one)."""
    registry = registry if registry is not None else MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enable() -> None:
    """Turn on the default registry (instrumentation starts recording)."""
    _default_registry.enabled = True


def disable() -> None:
    _default_registry.enabled = False


def bind(factory):
    """Cache ``factory(registry)`` per registry; re-run after a swap.

    Instrumented modules use this to resolve their metric handles once per
    registry instead of per call::

        _metrics = bind(lambda reg: SimpleNamespace(
            sent=reg.counter("srbb_sim_txs_sent_total")))
        ...
        if get_registry().enabled:
            _metrics().sent.inc()

    The guard reads the flag of the registry ``get()`` would resolve, so
    a disabled registry costs the caller one branch and no lookup.
    """
    cache: "dict[int, object]" = {}

    def get():
        registry = get_registry()
        key = id(registry)
        handle = cache.get(key)
        if handle is None or handle[0] is not registry:
            handle = (registry, factory(registry))
            cache.clear()  # registries are swapped, not multiplexed
            cache[key] = handle
        return handle[1]

    return get
