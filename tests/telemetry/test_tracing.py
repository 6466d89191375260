"""Tracer events on the simulated clock, JSONL dump, global no-op behavior."""

import json

from repro import telemetry
from repro.telemetry import Tracer, get_tracer, set_tracer


class TestTracer:
    def test_event_stamped_with_simulated_time(self):
        tracer = Tracer()
        tracer.event("node.commit", 1.5, node=0, committed=3)
        (rec,) = tracer.records
        assert rec == {
            "ts": 1.5,
            "type": "event",
            "name": "node.commit",
            "attrs": {"node": 0, "committed": 3},
        }

    def test_ts_written_unrounded(self):
        tracer = Tracer()
        t = 0.6010534923978069
        tracer.event("node.commit", t)
        assert json.loads(tracer.dumps())["ts"] == t

    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.event("x", 0.0)
        assert tracer.records == []

    def test_dumps_jsonl_in_append_order(self):
        # Within a run records arrive in simulated-time order; the dump
        # keeps that order and never re-sorts.
        tracer = Tracer()
        tracer.event("late", 2.0)
        tracer.event("early", 1.0)
        lines = [json.loads(line) for line in tracer.dumps().splitlines()]
        assert [r["name"] for r in lines] == ["late", "early"]

    def test_dump_to_file(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", 0.0, k="v")
        path = tmp_path / "trace.jsonl"
        tracer.dump(str(path))
        assert json.loads(path.read_text().splitlines()[0])["name"] == "a"


class TestBoundedMemory:
    def test_stream_to_flushes_and_empties_buffer(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        tracer.stream_to(str(path), flush_every=2)
        tracer.event("a", 0.0)
        tracer.event("b", 0.0)  # hits flush_every -> flushed to disk
        assert tracer.records == []
        tracer.event("tail", 0.0)
        tracer.close_stream()
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["a", "b", "tail"]
        assert tracer._stream_path is None

    def test_streamed_file_equals_buffered_dump(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        buffered, streamed = Tracer(), Tracer()
        streamed.stream_to(str(path), flush_every=3)
        for i in range(10):
            for tracer in (buffered, streamed):
                tracer.event("e", 0.1 * (i % 4), i=i)
        streamed.close_stream()
        assert path.read_text() == buffered.dumps()

    def test_dump_to_stream_path_closes_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tracer = Tracer()
        tracer.stream_to(str(path))
        tracer.event("only", 0.0)
        tracer.dump(str(path))  # same path: finalize the stream, no rewrite
        assert tracer._stream_path is None
        assert json.loads(path.read_text())["name"] == "only"


class TestGlobalTracer:
    def test_default_disabled(self):
        assert not get_tracer().enabled

    def test_module_level_helpers_noop_when_disabled(self):
        before = len(get_tracer().records)
        telemetry.event("ignored", 0.0)
        assert len(get_tracer().records) == before

    def test_module_level_helpers_record_when_swapped(self):
        fresh = Tracer()
        previous = set_tracer(fresh)
        try:
            telemetry.event("e", 3.25, node=1)
        finally:
            set_tracer(previous)
        (rec,) = fresh.records
        assert (rec["name"], rec["ts"], rec["attrs"]) == ("e", 3.25, {"node": 1})
