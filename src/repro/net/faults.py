"""Delay faults for the simulated network: :func:`slow_nodes`.

A delay function ``(src, dst, now) -> extra seconds`` goes in
``Network.adversarial_delay``; the transport clamps every delay at the
partial-synchrony bound, so such a fault stretches messages but never
loses one.  Every other injected fault — crash, restart, drop,
duplicate, reorder, partition and the Byzantine windows — is a
:class:`repro.faults.FaultSchedule` entry.  ``docs/FAULTS.md`` describes
the fault models and which protocol guarantee each preserves.
"""

from __future__ import annotations

from typing import Callable, Iterable

#: extra delivery delay in seconds for one message
DelayFn = Callable[[int, int, float], float]


def slow_nodes(nodes: Iterable[int], extra_s: float) -> DelayFn:
    """All traffic to or from the given nodes takes ``extra_s`` longer —
    the 'weak validator' scenario of §VI."""
    slow = frozenset(nodes)

    def fn(src: int, dst: int, now: float) -> float:
        return extra_s if (src in slow or dst in slow) else 0.0

    return fn
