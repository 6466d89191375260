"""Structured tracing — point events on the simulated clock, dumped as JSONL.

A trace is an append-only sequence of records, each stamped with the
simulated second at which it happened, so a whole DIABLO run can be
replayed after the fact:

* ``{"ts": 0.6010534923978069, "type": "event", "name": "node.commit", "attrs": {...}}``

Two event families carry the per-transaction and per-queue view that
``repro report`` and the critical path read back:

* ``tx.<phase>`` (:func:`stamp_txs`) — a batch of transactions crossing
  one lifecycle phase together on one node (``node``, hex ``txs``, and
  ``index`` / ``commit_times`` where known);
* ``obs.sample`` — one congestion sample per simulated second
  (:mod:`repro.telemetry.observatory`).

Call sites pass their simulator's clock (``event(name, sim.now, ...)``);
``ts`` is written unrounded, so a consumer reads back exactly the time
the engine saw.  Nothing here reads the host's clock, which makes the
trace of a seeded run byte-identical from one run to the next.  Within a
run the simulator fires events in time order, so records are dumped in
the order they were appended.

Like the metrics registry, the process-global tracer starts *disabled*.
Call sites read ``get_tracer().enabled`` once and, while it is off, make
no call into :func:`event` or :func:`stamp_txs` at all; the CLI's
``--trace-out`` (or a test) enables it.

A trace never sheds a record.  Memory stays bounded one way:
``stream_to(path)`` flushes the buffer to a JSONL file every
``flush_every`` records, so an hours-long run holds at most one chunk in
memory, and the file holds the same bytes as one ``dumps()`` of the whole
buffered trace (the CLI streams ``--trace-out`` unless the Perfetto
export, which needs every record, is also asked for).
"""

from __future__ import annotations

import json

__all__ = [
    "Tracer",
    "get_tracer",
    "set_tracer",
    "event",
    "stamp_txs",
]


class Tracer:
    """Buffering trace recorder; cheap no-op while disabled."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._records: "list[dict]" = []
        self._stream = None
        self._stream_path: "str | None" = None
        self._flush_every = 10_000

    # -- recording -------------------------------------------------------------

    def event(self, name: str, t: float, **attrs) -> None:
        """Record a point event at simulated time ``t`` (seconds)."""
        if not self.enabled:
            return
        records = self._records
        records.append({"ts": t, "type": "event", "name": name, "attrs": attrs})
        if self._stream is not None and len(records) >= self._flush_every:
            self.flush_stream()

    # -- access / export -------------------------------------------------------

    @property
    def records(self) -> "list[dict]":
        return list(self._records)

    def clear(self) -> None:
        """Drop buffered records."""
        self._records.clear()

    def dumps(self) -> str:
        """The whole buffered trace as JSONL, one record per line in
        append order.  When streaming, this covers the un-flushed tail."""
        return "".join(json.dumps(r, default=str) + "\n" for r in self._records)

    def dump(self, path: str) -> None:
        if self._stream is not None and path == self._stream_path:
            self.close_stream()
            return
        with open(path, "w") as fh:
            fh.write(self.dumps())

    def dump_trace_event(self, path: str) -> None:
        """Export the buffered trace as Chrome trace-event JSON (loadable
        at ``ui.perfetto.dev`` / ``chrome://tracing``): per-node tracks,
        with flow arrows following each transaction's ``tx.*`` events
        across nodes on the simulated clock."""
        from repro.telemetry.trace_event import to_trace_events

        doc = to_trace_events(self.records)
        with open(path, "w") as fh:
            json.dump(doc, fh, default=str)
            fh.write("\n")

    # -- streaming flush (bounded-memory soak runs) ----------------------------

    def stream_to(self, path: str, *, flush_every: int = 10_000) -> None:
        """Flush the trace incrementally to ``path`` as JSONL.

        Every ``flush_every`` buffered records are appended to the file
        and dropped from memory, so arbitrarily long runs hold one chunk
        at most.  The file holds the same lines, in the same order, as
        one :meth:`dumps` of an unbounded buffer.
        """
        self.close_stream()
        self._stream = open(path, "w")
        self._stream_path = path
        self._flush_every = max(1, int(flush_every))

    def flush_stream(self) -> None:
        """Write buffered records to the stream file and drop them."""
        if self._stream is None or not self._records:
            return
        write = self._stream.write
        for record in self._records:
            write(json.dumps(record, default=str) + "\n")
        self._records.clear()
        self._stream.flush()

    def close_stream(self) -> None:
        """Flush the tail and close the streaming file (if any)."""
        if self._stream is None:
            return
        self.flush_stream()
        self._stream.close()
        self._stream = None
        self._stream_path = None


#: disabled by default, mirroring the metrics registry
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def event(name: str, t: float, **attrs) -> None:
    """Point event at simulated time ``t`` on the global tracer."""
    tracer = _default_tracer
    if tracer.enabled:
        tracer.event(name, t, **attrs)


def stamp_txs(phase: str, t: float, txs, **attrs) -> None:
    """One ``tx.<phase>`` event on the global tracer for every transaction
    in ``txs`` (objects with ``tx_hash``) crossing ``phase`` together at
    simulated time ``t``.  Hashes are written as hex: the JSONL dump
    stringifies anything else with ``str()``."""
    _default_tracer.event(
        "tx." + phase, t, txs=[tx.tx_hash.hex() for tx in txs], **attrs
    )
