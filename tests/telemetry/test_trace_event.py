"""Chrome trace-event export: tracks, flows, validation, JSONL loader."""

import json

from repro import telemetry
from repro.telemetry import Tracer
from repro.telemetry.trace_event import (
    load_jsonl,
    to_trace_events,
    validate_trace_event,
)


def _tracer_records():
    tracer = Tracer()
    tracer.event("node.commit", 1.0, node=0)
    tracer.event("sim.run", 2.0, chain="srbb")
    return tracer.records


class _Tx:
    def __init__(self, tx_hash):
        self.tx_hash = tx_hash


def _stamps(stamps):
    """``tx.*`` records for ``(tx_hash, phase, node, t)`` stamps."""
    tracer = Tracer()
    previous = telemetry.set_tracer(tracer)
    try:
        for tx, phase, node, t in stamps:
            telemetry.stamp_txs(phase, t, [_Tx(tx)], node=node)
    finally:
        telemetry.set_tracer(previous)
    return tracer.records


def _lifecycle_records(n=1):
    stamps = []
    for i in range(n):
        tx = bytes([i]) * 4
        stamps += [
            (tx, "submit", 0, 0.1 * i),
            (tx, "pool", 0, 0.1 * i + 0.2),
            (tx, "commit", 1, 0.1 * i + 1.0),
        ]
    # record order is simulated-time order, as a run appends them
    return _stamps(sorted(stamps, key=lambda s: s[3]))


class TestToTraceEvents:
    def test_events_are_instants_on_simulated_clock(self):
        doc = to_trace_events(_tracer_records())
        payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert {(e["pid"], e["ph"]) for e in payload} == {(1, "i")}
        by_name = {e["name"]: e for e in payload}
        assert by_name["node.commit"]["tid"] == 1  # node 0 -> tid 1
        assert by_name["node.commit"]["ts"] == 1_000_000  # simulated µs
        assert by_name["sim.run"]["tid"] == 0  # no node attr -> driver
        assert by_name["sim.run"]["ts"] == 2_000_000

    def test_events_and_lifecycle_share_one_clock_and_track(self):
        doc = to_trace_events(_tracer_records() + _lifecycle_records())
        processes = [
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"] if e["name"] == "process_name"
        ]
        assert processes == [(1, "simulated clock")]
        node0 = [
            (e["name"], e["ph"]) for e in doc["traceEvents"]
            if e["ph"] in ("X", "i") and e["tid"] == 1
        ]
        # node 0's lifecycle slices at 0.0 s / 0.2 s, then its commit
        # event at 1.0 s: one time base, one track
        assert node0 == [("submit", "X"), ("pool", "X"), ("node.commit", "i")]

    def test_lifecycle_slices_and_flow_arrows(self):
        doc = to_trace_events(_lifecycle_records())
        sim = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        slices = [e for e in sim if e["ph"] == "X"]
        flows = [e for e in sim if e["ph"] in ("s", "t", "f")]
        assert [e["name"] for e in slices] == ["submit", "pool", "commit"]
        assert [e["ph"] for e in flows] == ["s", "t", "f"]
        assert flows[-1]["bp"] == "e"
        assert len({e["id"] for e in flows}) == 1
        assert doc["otherData"]["flows"] == 1

    def test_max_flows_cap_counts_dropped(self):
        doc = to_trace_events(_lifecycle_records(5), max_flows=2)
        assert doc["otherData"]["flows"] == 2
        assert doc["otherData"]["flows_dropped"] == 3
        # capped txs keep their slices, just without arrows
        slices = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X"
        ]
        assert len(slices) == 15

    def test_single_point_tx_gets_no_flow(self):
        doc = to_trace_events(_stamps([(b"solo", "submit", 0, 0.0)]))
        assert not [
            e for e in doc["traceEvents"] if e["ph"] in ("s", "t", "f")
        ]
        assert doc["otherData"]["flows"] == 0
        assert doc["otherData"]["flows_dropped"] == 0

    def test_single_point_tx_takes_no_flow_slot(self):
        # submitted, then eager-rejected: one stamp, no arrow to draw
        records = _stamps([
            (b"solo", "submit", 0, 0.0),
            (b"full", "submit", 0, 0.1),
            (b"full", "pool", 0, 0.2),
            (b"full", "commit", 1, 1.0),
        ])
        doc = to_trace_events(records, max_flows=1)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        assert doc["otherData"]["flows"] == len(starts) == 1
        assert doc["otherData"]["flows_dropped"] == 0
        assert starts[0]["name"] == "tx " + b"full".hex()
        assert validate_trace_event(doc) == []

    def test_tx_events_are_slices_not_instants(self):
        doc = to_trace_events(_tracer_records() + _lifecycle_records())
        instants = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert instants == {"node.commit", "sim.run"}

    def test_metadata_names_processes_and_threads(self):
        doc = to_trace_events(_tracer_records() + _lifecycle_records())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["pid"], e["tid"], e["args"]["name"])
            for e in meta if e["name"] == "thread_name"
        }
        assert (1, 0, "driver") in names
        assert (1, 1, "node 0") in names
        assert (1, 2, "node 1") in names

    def test_output_validates_clean(self):
        doc = to_trace_events(_tracer_records() + _lifecycle_records(3))
        assert validate_trace_event(doc) == []


class TestValidate:
    def test_rejects_non_document(self):
        assert validate_trace_event([]) != []
        assert validate_trace_event({"traceEvents": 3}) != []

    def test_missing_keys_flagged(self):
        doc = {"traceEvents": [{"ph": "i", "ts": 0}]}
        problems = validate_trace_event(doc)
        assert any("pid" in p for p in problems)

    def test_non_monotonic_ts_flagged(self):
        doc = {"traceEvents": [
            {"ph": "i", "pid": 1, "tid": 0, "name": "a", "ts": 5, "s": "t"},
            {"ph": "i", "pid": 1, "tid": 0, "name": "b", "ts": 1, "s": "t"},
        ]}
        assert any("monotonic" in p for p in validate_trace_event(doc))

    def test_negative_dur_flagged(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 0, "name": "a", "ts": 0, "dur": -1},
        ]}
        assert any("dur" in p for p in validate_trace_event(doc))

    def test_unbalanced_flow_flagged(self):
        doc = {"traceEvents": [
            {"ph": "s", "pid": 2, "tid": 0, "name": "f", "ts": 0, "id": 9},
        ]}
        assert any("flow 9" in p for p in validate_trace_event(doc))


class TestLoadJsonl(object):
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = _tracer_records()
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records) + "\n"
        )
        assert load_jsonl(str(path)) == records


class TestTracerDumpTraceEvent:
    def test_dump_writes_valid_document(self, tmp_path):
        tracer = Tracer()
        tracer.event("node.commit", 0.5, node=0)
        path = tmp_path / "te.json"
        tracer.dump_trace_event(str(path))
        doc = json.loads(path.read_text())
        assert validate_trace_event(doc) == []
