"""Wall-clock timing helper for hot paths.

``@timed("name")`` wraps a function and records each call's duration into
a histogram in the *current* default registry (resolved per call, so a
test's ``use_registry`` swap is respected).  It is a one-branch no-op
while telemetry is disabled, so it can stay on hot paths permanently.
"""

from __future__ import annotations

import functools
import time

from repro.telemetry.registry import DEFAULT_BUCKETS, get_registry

__all__ = ["timed"]

#: sub-millisecond-capable buckets: hot paths live well under 1 s
TIMING_BUCKETS = (1e-6, 1e-5, 1e-4, 5e-4) + DEFAULT_BUCKETS


def timed(name: "str | None" = None, help: str = ""):
    """Decorator: record the wrapped function's wall time per call.

    Metric name defaults to ``repro_<module>_<func>_seconds`` (dots
    become underscores).
    """

    def decorate(func):
        metric_name = name or (
            "repro_"
            + f"{func.__module__}_{func.__qualname__}".replace(".", "_").replace(
                "<locals>_", ""
            )
            + "_seconds"
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            registry = get_registry()
            if not registry.enabled:
                return func(*args, **kwargs)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                registry.histogram(metric_name, help, buckets=TIMING_BUCKETS).observe(
                    time.perf_counter() - start
                )

        wrapper.__timed_metric__ = metric_name
        return wrapper

    return decorate
