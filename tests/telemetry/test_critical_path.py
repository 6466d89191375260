"""Critical-path analyzer: buckets, attribution, exec_share, headline,
truncated traces."""

import pytest

from repro import telemetry
from repro.telemetry.critical_path import (
    ATTRIBUTED_BUCKETS,
    PHASES,
    RAW_BUCKETS,
    analyze,
    exec_share_from_trace,
)
from repro.telemetry.trace_event import load_jsonl


class _Tx:
    def __init__(self, tx_hash):
        self.tx_hash = tx_hash


def _stamp(rec, tx, phase, t, **attrs):
    """One ``tx.<phase>`` event for ``tx`` on ``rec`` (a Tracer)."""
    previous = telemetry.set_tracer(rec)
    try:
        telemetry.stamp_txs(phase, t, [_Tx(tx)], **attrs)
    finally:
        telemetry.set_tracer(previous)


def _committed_tx(rec, tx, *, base=0.0, index=0):
    """One tx crossing every phase, 1s apart, starting at ``base``."""
    for i, phase in enumerate(PHASES[:6]):
        _stamp(rec, tx, phase, base + float(i), node=0, index=index)
    _stamp(rec, tx, "commit", base + 6.0, node=0, index=index,
           commit_times=[base + 7.0])


class TestAnalyze:
    def test_raw_buckets_telescope_to_e2e(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        report = analyze(rec.records)
        assert report.committed == 1
        total = sum(report.raw[b].mean for b in RAW_BUCKETS)
        assert total == pytest.approx(report.e2e.mean)

    def test_attributed_buckets_telescope_too(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        report = analyze(rec.records, exec_share=0.7)
        total = sum(report.attributed[b].mean for b in ATTRIBUTED_BUCKETS)
        assert total == pytest.approx(report.e2e.mean)

    def test_exec_share_reattributes_queue_wait(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        zero = analyze(rec.records, exec_share=0.0)
        full = analyze(rec.records, exec_share=1.0)
        queue_wait = (
            zero.raw["pool_wait"].mean + zero.raw["commit_wait"].mean
        )
        assert zero.attributed["ordering"].mean == pytest.approx(queue_wait)
        assert full.attributed["ordering"].mean == pytest.approx(0.0)
        assert full.attributed["execute"].mean == pytest.approx(
            zero.attributed["execute"].mean + queue_wait
        )

    def test_uncommitted_txs_excluded(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        _stamp(rec, b"pending", "submit", 0.0, node=0)
        _stamp(rec, b"pending", "pool", 1.0, node=0)
        report = analyze(rec.records)
        assert report.txs == 2
        assert report.committed == 1

    def test_accepts_record_list(self, tmp_path):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        path = tmp_path / "trace.jsonl"
        rec.dump(str(path))
        report = analyze(load_jsonl(str(path)))
        assert report.committed == 1
        assert report.e2e.mean == analyze(rec.records).e2e.mean

    def test_empty_recorder(self):
        report = analyze([])
        assert report.committed == 0
        assert set(report.attributed) == set(ATTRIBUTED_BUCKETS)

    def test_superblock_summaries_grouped_by_index(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a", base=0.0, index=1)
        _committed_tx(rec, b"b", base=0.5, index=1)
        _committed_tx(rec, b"c", base=5.0, index=2)
        report = analyze(rec.records)
        assert [sb["index"] for sb in report.superblocks] == [1, 2]
        assert report.superblocks[0]["txs"] == 2

    def test_headline_keys_flat_numeric(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        head = analyze(rec.records, exec_share=0.9).headline()
        assert head["latency_breakdown:txs"] == 1.0
        assert head["latency_breakdown:dominant_execute"] in (0.0, 1.0)
        for bucket in ATTRIBUTED_BUCKETS:
            assert f"latency_breakdown:{bucket}_p99_s" in head
        assert all(isinstance(v, float) for v in head.values())

    def test_render_text_marks_dominant(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"a")
        report = analyze(rec.records, exec_share=1.0)
        assert report.dominant_phase == "execute"
        assert "◀ dominant" in report.render_text()

    def test_committed_tx_without_submit_stamp_still_counts(self):
        rec = telemetry.Tracer()
        _committed_tx(rec, b"early", base=0.0, index=1)
        _committed_tx(rec, b"late", base=10.0, index=2)
        records = [
            r for r in rec.records
            if not (r["name"] == "tx.submit" and r["ts"] == 0.0)
        ]
        assert analyze(records).committed == 2


class TestExecShareFromTrace:
    @staticmethod
    def _commit(t, exec_s, node=0):
        return {
            "type": "event", "name": "node.commit",
            "ts": t, "attrs": {"node": node, "exec_s": exec_s},
        }

    def test_share_over_busy_intervals(self):
        # two 1s intervals, each 0.5s of execution -> 0.5
        records = [self._commit(0.0, 0.5), self._commit(1.0, 0.5),
                   self._commit(2.0, 0.0)]
        assert exec_share_from_trace(records) == pytest.approx(0.5)

    def test_empty_drain_rounds_excluded(self):
        # saturated first second, then nine idle commits: still 0.5
        records = [self._commit(0.0, 0.5), self._commit(1.0, 0.0)]
        records += [self._commit(1.0 + i, 0.0) for i in range(1, 10)]
        assert exec_share_from_trace(records) == pytest.approx(0.5)

    def test_busiest_node_wins(self):
        records = [self._commit(0.0, 1.0, node=1), self._commit(1.0, 0.0, node=1)]
        records += [self._commit(float(i), 0.25, node=2) for i in range(4)]
        assert exec_share_from_trace(records) == pytest.approx(0.25)

    def test_no_usable_events_returns_none(self):
        assert exec_share_from_trace([]) is None
        assert exec_share_from_trace(
            [{"type": "event", "name": "other", "attrs": {}}]
        ) is None
        assert exec_share_from_trace([self._commit(0.0, 0.5)]) is None

    def test_clamped_to_unit_interval(self):
        records = [self._commit(0.0, 5.0), self._commit(1.0, 0.0)]
        assert exec_share_from_trace(records) == 1.0
