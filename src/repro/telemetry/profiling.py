"""Stack sampler behind ``repro profile``: where the simulator spends CPU.

A ``SIGPROF`` interval timer fires every :data:`INTERVAL_S` of process CPU
time (Linux checks it once per scheduler tick, which may be longer).  The
handler counts the interrupted Python stack, as a root-first tuple of code
objects, in a :class:`collections.Counter`; names are formatted only at
export.  The engines carry no hook for it, so a sampled run executes
exactly the code an unsampled one does.

* :func:`to_collapsed` — collapsed stacks (``frame;frame;… <samples>``),
  which both ``flamegraph.pl`` and speedscope load;
* :func:`render_table` — sample shares per ``repro/`` module and the top
  leaf functions;
* :func:`render_memory` — tracemalloc's top allocation sites and peak RSS.

Unix only (``SIGPROF``) and main thread only (``signal.signal``).  A
signal that lands inside one long C call is counted once, when it returns.
"""

from __future__ import annotations

import collections
import os
import resource
import signal
import tracemalloc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["INTERVAL_S", "render_memory", "render_table", "sample", "to_collapsed"]

#: sampling period, seconds of process CPU time
INTERVAL_S = 0.001

#: the directory holding the ``repro`` package, stripped from frame names
_SRC = os.path.dirname(os.path.dirname(os.path.dirname(__file__))) + os.sep


@contextmanager
def sample() -> Iterator["collections.Counter[tuple]"]:
    """Sample the Python stack while the block runs.

    Yields the counter it fills: root-first tuples of code objects →
    samples.  On exit, also when the block raises, the timer is disarmed
    and the previous ``SIGPROF`` handler is restored.
    """
    stacks: "collections.Counter[tuple]" = collections.Counter()

    def on_prof(signum, frame) -> None:
        codes = []
        while frame is not None:
            codes.append(frame.f_code)
            frame = frame.f_back
        codes.reverse()
        stacks[tuple(codes)] += 1

    previous = signal.signal(signal.SIGPROF, on_prof)
    try:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        yield stacks
    finally:
        # Disarm before restoring: SIGPROF under SIG_DFL ends the process.
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)


def _module(code) -> str:
    """``repro/<path>.py`` for package code, else the file's base name."""
    path = code.co_filename
    return path[len(_SRC):] if path.startswith(_SRC) else os.path.basename(path)


def _frame(code) -> str:
    name = getattr(code, "co_qualname", code.co_name)
    # collapsed format: ';' separates frames, the last ' ' starts the count
    return f"{_module(code)}:{name}".replace(" ", "_").replace(";", ",")


def to_collapsed(stacks: "collections.Counter[tuple]") -> str:
    """One ``frame;frame;… <samples>`` line per distinct stack, sorted."""
    merged: "collections.Counter[str]" = collections.Counter()
    for stack, count in stacks.items():
        merged[";".join(map(_frame, stack))] += count
    return "".join(f"{stack} {count}\n" for stack, count in sorted(merged.items()))


def render_table(stacks: "collections.Counter[tuple]", *, top: int = 15) -> str:
    """Shares per ``repro/`` module, then the ``top`` leaf functions.

    A sample counts for the module of its innermost ``repro/`` frame, so
    library code (dataclass ``__init__``, ``heapq``, ``hashlib``) is
    charged to the module that called it.
    """
    total = sum(stacks.values())
    modules: "collections.Counter[str]" = collections.Counter()
    leaves: "collections.Counter[str]" = collections.Counter()
    for stack, count in stacks.items():
        leaves[_frame(stack[-1])] += count
        owner = next(
            (m for m in map(_module, reversed(stack)) if m.startswith("repro/")),
            "(outside repro/)",
        )
        modules[owner] += count
    lines = [f"profile: {total} samples of the Python stack"]
    for title, table in (("repro/ module", modules), ("leaf function", leaves)):
        lines += ["", f"{title:<64} {'samples':>8} {'share':>7}"]
        for name, count in table.most_common(top):
            lines.append(f"{name[-64:]:<64} {count:>8} {100 * count / total:>6.1f}%")
    return "\n".join(lines)


def render_memory(*, top: int = 15) -> str:
    """The ``top`` live allocation sites (tracemalloc is on) and peak RSS."""
    lines = [f"{'allocation site':<64} {'MB':>8} {'blocks':>8}"]
    for stat in tracemalloc.take_snapshot().statistics("lineno")[:top]:
        site = f"{stat.traceback[0].filename}:{stat.traceback[0].lineno}"
        lines.append(f"{site[-64:]:<64} {stat.size / 1e6:>8.2f} {stat.count:>8}")
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return "\n".join(lines + [f"peak RSS {peak_mb:.1f} MB"])
