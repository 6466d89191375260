"""Chrome trace-event (Perfetto) export of tracer records.

Converts the tracer's JSONL event records into the Trace Event Format
understood by ``ui.perfetto.dev`` and ``chrome://tracing``.  Everything
is stamped with the simulated clock, so it shares one process, **pid 1
"simulated clock"**, and one set of per-node tracks (``tid`` = node + 1;
records without a node land on tid 0, the *driver* track):

* every tracer event except ``tx.*`` becomes a thread-scoped instant
  (``"ph": "i"``);
* ``tx.*`` events are per-transaction lifecycle stamps: each tx's
  earliest stamp per phase becomes a small slice on the stamping node's
  track, and the first ``max_flows`` transactions with two or more
  stamps additionally get flow arrows (``"ph": "s"/"t"/"f"``) threading
  their slices together, so a tx can be followed across nodes through
  submit → pool → … → receipt.

Timestamps are simulated seconds scaled to microseconds.

:func:`validate_trace_event` checks the structural contract (required
keys, non-negative µs timestamps and durations, globally sorted ``ts``,
every flow id opened exactly once and closed exactly once) — CI runs it
over a freshly exported trace so format drift fails the gate.
"""

from __future__ import annotations

import json

from repro.telemetry.critical_path import PHASES, stamps_from_trace

__all__ = ["to_trace_events", "validate_trace_event", "load_jsonl"]

_US = 1_000_000  # seconds -> microseconds (trace-event unit)
#: rendered width of a lifecycle phase-crossing slice (µs of sim time)
_STAMP_SLICE_US = 200


def load_jsonl(path: str) -> "list[dict]":
    """Read a tracer JSONL dump (``--trace-out`` file) back into records."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _node_tid(attrs: dict) -> int:
    node = attrs.get("node")
    return int(node) + 1 if isinstance(node, (int, float)) else 0


def to_trace_events(records: "list[dict]", *, max_flows: int = 200) -> dict:
    """Build the trace-event document (see module docstring)."""
    events: "list[dict]" = []
    tids: "set[int]" = set()

    for record in records:
        if record.get("name", "").startswith("tx."):
            continue
        attrs = record.get("attrs", {})
        tid = _node_tid(attrs)
        tids.add(tid)
        events.append({
            "name": record.get("name", "?"),
            "cat": "trace",
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "pid": 1,
            "tid": tid,
            "ts": round(float(record.get("ts", 0.0)) * _US, 3),
            "args": dict(attrs),
        })

    flow_count = 0
    dropped_flows = 0
    stamps, _ = stamps_from_trace(records)
    for flow_id, (tx, phases) in enumerate(stamps.items(), start=1):
        # earliest stamp per phase, pipeline order, then time-sorted so
        # the flow arrows always run forward
        points = []
        for phase in PHASES:
            if phase in phases:
                t, node = min(phases[phase], key=lambda s: s[0])
                points.append((float(t), int(node), phase))
        points.sort(key=lambda p: p[0])
        short = tx[:12]
        # a single stamp draws no arrow, so it takes no flow slot
        with_flow = len(points) > 1 and flow_count < max_flows
        if with_flow:
            flow_count += 1
        elif len(points) > 1:
            dropped_flows += 1
        for i, (t, node, phase) in enumerate(points):
            tid = node + 1 if node >= 0 else 0
            tids.add(tid)
            ts = round(t * _US, 3)
            events.append({
                "name": phase,
                "cat": "lifecycle",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": ts,
                "dur": _STAMP_SLICE_US,
                "args": {"tx": short, "phase": phase},
            })
            if not with_flow:
                continue
            flow = {
                "name": f"tx {short}",
                "cat": "tx-flow",
                "pid": 1,
                "tid": tid,
                "ts": ts,
                "id": flow_id,
            }
            if i == 0:
                flow["ph"] = "s"
            elif i == len(points) - 1:
                flow["ph"] = "f"
                flow["bp"] = "e"  # bind to the enclosing slice
            else:
                flow["ph"] = "t"
            events.append(flow)

    meta: "list[dict]" = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
        "args": {"name": "simulated clock"},
    }]
    for tid in sorted(tids):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "ts": 0,
            "args": {"name": "driver" if tid == 0 else f"node {tid - 1}"},
        })

    events.sort(key=lambda e: (e["ts"], e["tid"]))
    doc = {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.telemetry.trace_event",
            "flows": flow_count,
            "flows_dropped": dropped_flows,
        },
    }
    return doc


def validate_trace_event(doc: dict) -> "list[str]":
    """Structural validation; returns a list of problems (empty = valid)."""
    problems: "list[str]" = []
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        return ["document must be an object with a traceEvents list"]

    flow_opens: "dict[object, int]" = {}
    flow_closes: "dict[object, int]" = {}
    flow_first: "dict[object, float]" = {}
    flow_last: "dict[object, float]" = {}
    prev_ts: "float | None" = None

    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in ev:
                problems.append(f"{where}: missing required key {key!r}")
        ph = ev.get("ph")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: ts missing or non-numeric")
            continue
        if ts < 0:
            problems.append(f"{where}: negative ts {ts}")
        if prev_ts is not None and ts < prev_ts:
            problems.append(
                f"{where}: ts {ts} not monotonic (previous {prev_ts})"
            )
        prev_ts = ts
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur")
        elif ph in ("s", "t", "f"):
            flow_id = ev.get("id")
            if flow_id is None:
                problems.append(f"{where}: flow event missing id")
                continue
            if ph == "s":
                flow_opens[flow_id] = flow_opens.get(flow_id, 0) + 1
                flow_first.setdefault(flow_id, ts)
            elif ph == "f":
                flow_closes[flow_id] = flow_closes.get(flow_id, 0) + 1
                flow_last[flow_id] = ts

    for flow_id, opens in flow_opens.items():
        closes = flow_closes.get(flow_id, 0)
        if opens != 1 or closes != 1:
            problems.append(
                f"flow {flow_id}: expected exactly one s and one f, "
                f"got {opens} s / {closes} f"
            )
        elif flow_last[flow_id] < flow_first[flow_id]:
            problems.append(f"flow {flow_id}: finish precedes start")
    for flow_id in flow_closes:
        if flow_id not in flow_opens:
            problems.append(f"flow {flow_id}: f without matching s")
    return problems
