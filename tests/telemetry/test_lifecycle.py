"""Lifecycle stamps as ``tx.<phase>`` trace events: stamping, monotone
resolution, the global tracer, export."""

import json

import pytest

from repro import telemetry
from repro.telemetry import Tracer
from repro.telemetry.critical_path import PHASES, resolve, stamps_from_trace
from repro.telemetry.trace_event import load_jsonl


class Tx:
    def __init__(self, tx_hash: bytes):
        self.tx_hash = tx_hash


class Stamper:
    """A private tracer with the call sites' stamping helper."""

    def __init__(self, **kwargs):
        self.tracer = Tracer(**kwargs)

    def stamp(self, tx_hash, phase, *, node=0, t=0.0, **attrs):
        self.stamp_txs([Tx(tx_hash)], phase, node=node, t=t, **attrs)

    def stamp_txs(self, txs, phase, *, node=0, t=0.0, **attrs):
        previous = telemetry.set_tracer(self.tracer)
        try:
            telemetry.stamp_txs(phase, t, txs, node=node, **attrs)
        finally:
            telemetry.set_tracer(previous)

    def resolve(self, tx_hash):
        by_tx = {lc.tx: lc for lc in resolve(self.tracer.records)}
        return by_tx.get(tx_hash.hex())


class TestStamping:
    def test_stamp_and_resolve_ordered_phases(self):
        rec = Stamper()
        for i, phase in enumerate(PHASES[:6]):  # submit .. decide
            rec.stamp(b"tx1", phase, node=0, t=float(i))
        # tx.commit carries each tx's execute (and receipt) time
        rec.stamp(b"tx1", "commit", node=0, t=6.0, commit_times=[7.0])
        lc = rec.resolve(b"tx1")
        assert list(lc.times) == list(PHASES)
        assert lc.times["submit"] == 0.0
        assert lc.times["execute"] == lc.times["receipt"] == 7.0
        assert lc.e2e == 7.0
        assert lc.durations.pop("receipt") == 0.0
        assert all(d == 1.0 for d in lc.durations.values())

    def test_unknown_phase_raises(self):
        rec = Stamper()
        rec.stamp(b"tx", "warp")
        with pytest.raises(ValueError):
            stamps_from_trace(rec.tracer.records)

    def test_stamp_txs_shares_one_clock_read(self):
        rec = Stamper()
        rec.stamp_txs([Tx(b"a"), Tx(b"b")], "pool", node=2, t=1.0)
        (record,) = rec.tracer.records  # one event for the batch
        assert record == {
            "ts": 1.0, "type": "event", "name": "tx.pool",
            "attrs": {"txs": ["61", "62"], "node": 2},
        }
        assert rec.resolve(b"a").times["pool"] == 1.0
        assert rec.resolve(b"b").times["pool"] == 1.0

    def test_index_recorded_once(self):
        rec = Stamper()
        rec.stamp(b"a", "submit", t=0.5)  # no index yet
        rec.stamp(b"a", "decide", t=1.0, index=4)
        rec.stamp(b"a", "decide", t=2.0, index=9)  # replica: ignored
        assert rec.resolve(b"a").index == 4


class TestMonotoneResolution:
    def test_out_of_order_stamps_clamp_to_zero_duration(self):
        rec = Stamper()
        rec.stamp(b"tx", "pool", node=0, t=5.0)
        rec.stamp(b"tx", "gossip", node=1, t=9.0)  # arrives after admit
        rec.stamp(b"tx", "submit", node=0, t=4.0)
        lc = rec.resolve(b"tx")
        # gossip has no stamp >= submit resolution that precedes pool's,
        # so it clamps forward; every duration stays non-negative
        assert all(d >= 0.0 for d in lc.durations.values())
        assert lc.times["gossip"] == 9.0
        assert lc.times["pool"] == 9.0  # clamped to prev (no onward stamp)

    def test_durations_telescope_to_e2e(self):
        rec = Stamper()
        # duplicate stamps per phase across nodes, deliberately messy
        rec.stamp(b"tx", "submit", node=0, t=1.0)
        rec.stamp(b"tx", "pool", node=0, t=1.5)
        rec.stamp(b"tx", "pool", node=1, t=3.0)
        rec.stamp(b"tx", "propose", node=2, t=2.0)
        rec.stamp(b"tx", "commit", node=0, t=6.0, commit_times=[6.25])
        rec.stamp(b"tx", "commit", node=1, t=7.0, commit_times=[7.5])
        lc = rec.resolve(b"tx")
        assert sum(lc.durations.values()) == pytest.approx(lc.e2e)
        assert lc.times["receipt"] == 6.25

    def test_resolve_unknown_tx_is_none(self):
        assert Stamper().resolve(b"nope") is None


class TestExport:
    def test_to_records_roundtrip(self, tmp_path):
        rec = Stamper()
        rec.stamp(b"\x01\x02", "submit", node=0, t=0.25)
        rec.stamp(b"\x01\x02", "commit", node=1, t=1.5, index=3,
                  commit_times=[1.75])
        path = tmp_path / "trace.jsonl"
        rec.tracer.dump(str(path))
        assert json.loads(path.read_text().splitlines()[0])["attrs"]["txs"] == [
            "0102"
        ]
        (clone,) = resolve(load_jsonl(str(path)))
        lc = rec.resolve(b"\x01\x02")
        assert clone.times == lc.times
        assert clone.index == 3


class TestGlobals:
    def test_default_recorder_disabled(self):
        tracer = telemetry.get_tracer()
        assert not tracer.enabled
        telemetry.stamp_txs("submit", 1.0, [Tx(b"tx")], node=0)  # no-op
        assert tracer.records == []

    def test_use_recorder_scopes_and_restores(self):
        rec = Stamper()
        rec.stamp(b"tx", "submit", t=1.0)  # set_tracer scoped, restored
        assert not telemetry.get_tracer().enabled
        assert rec.resolve(b"tx").times["submit"] == 1.0

    def test_disabled_recorder_ignores_direct_stamp(self):
        rec = Stamper(enabled=False)
        rec.stamp(b"tx", "submit", t=1.0)
        assert rec.tracer.records == []

    def test_clear(self):
        rec = Stamper()
        rec.stamp(b"a", "submit", t=0.0)
        rec.stamp(b"b", "submit", t=0.0)
        rec.tracer.clear()
        assert rec.tracer.records == []
        rec.stamp(b"c", "submit", t=0.0)
        assert rec.resolve(b"c") is not None
