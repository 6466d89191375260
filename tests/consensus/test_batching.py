"""VoteBatcher unit tests: buffering, flush scheduling, ablation path."""

import pytest

from repro import telemetry
from repro.consensus.batching import BATCHABLE_KINDS, VoteBatcher
from repro.consensus.messages import ConsensusBatch, ConsensusMessage, MsgKind
from repro.net.simulator import Simulator


def _vote(kind=MsgKind.BVAL, index=1, instance=0, round=1, value=1, sender=0):
    return ConsensusMessage(
        kind=kind, index=index, instance=instance,
        round=round, value=value, sender=sender,
    )


@pytest.fixture
def sent():
    return []


@pytest.fixture
def batcher(sent):
    return VoteBatcher(node_id=3, sink=sent.append)  # sim=None: manual flush


class TestSubmit:
    def test_batchable_kinds_are_buffered(self, batcher, sent):
        for kind in sorted(BATCHABLE_KINDS, key=lambda k: k.value):
            batcher.submit(_vote(kind=kind))
        assert sent == []
        assert batcher.pending == len(BATCHABLE_KINDS)

    def test_every_kind_but_send_and_batch_is_batchable(self):
        # submit() tests the two exceptions by identity, not set membership
        assert BATCHABLE_KINDS == set(MsgKind) - {MsgKind.RBC_SEND, MsgKind.BATCH}

    def test_a_batch_goes_direct(self, batcher, sent):
        msg = _vote(kind=MsgKind.BATCH, value=ConsensusBatch((_vote(),), sender=0))
        batcher.submit(msg)
        assert sent == [msg]
        assert batcher.pending == 0

    def test_rbc_send_goes_direct(self, batcher, sent):
        msg = _vote(kind=MsgKind.RBC_SEND, value=b"proposal")
        batcher.submit(msg)
        assert sent == [msg]
        assert batcher.pending == 0

    def test_disabled_passes_everything_through(self, sent):
        batcher = VoteBatcher(node_id=0, sink=sent.append, enabled=False)
        msgs = [_vote(), _vote(kind=MsgKind.AUX)]
        for m in msgs:
            batcher.submit(m)
        assert sent == msgs
        assert batcher.pending == 0

    def test_negative_tick_rejected(self, sent):
        with pytest.raises(ValueError):
            VoteBatcher(node_id=0, sink=sent.append, tick=-0.1)


class TestFlush:
    def test_flush_sends_one_batch_in_emission_order(self, batcher, sent):
        votes = [_vote(instance=i, value=i % 2) for i in range(5)]
        for v in votes:
            batcher.submit(v)
        batcher.flush()
        assert len(sent) == 1
        wire = sent[0]
        assert wire.kind is MsgKind.BATCH
        assert wire.sender == 3
        assert isinstance(wire.value, ConsensusBatch)
        assert list(wire.value) == votes  # deterministic emission order
        assert batcher.pending == 0

    def test_empty_flush_is_noop(self, batcher, sent):
        batcher.flush()
        assert sent == []

    def test_counters(self, batcher):
        with telemetry.use_registry() as reg:
            for i in range(4):
                batcher.submit(_vote(instance=i))
            batcher.flush()
            batcher.submit(_vote())
            batcher.flush()
        assert reg.get("srbb_consensus_batches_total").total() == 2
        assert reg.get("srbb_consensus_batch_votes").sum == 5
        assert reg.get("srbb_consensus_batch_bytes_saved_total").total() > 0


class TestScheduling:
    def test_flush_at_next_tick_boundary(self):
        sim = Simulator()
        sent_at = []
        batcher = VoteBatcher(
            node_id=0,
            sink=lambda m: sent_at.append((sim.now, len(m.value))),
            sim=sim,
            tick=0.02,
        )
        sim.schedule(0.005, batcher.submit, _vote(instance=0))
        sim.schedule(0.012, batcher.submit, _vote(instance=1))
        sim.run_until(1.0)
        # both votes coalesced into the single flush at the 0.02 boundary
        assert sent_at == [(0.02, 2)]

    def test_submissions_in_different_ticks_flush_separately(self):
        sim = Simulator()
        sent_at = []
        batcher = VoteBatcher(
            node_id=0,
            sink=lambda m: sent_at.append((round(sim.now, 6), len(m.value))),
            sim=sim,
            tick=0.02,
        )
        sim.schedule(0.005, batcher.submit, _vote(instance=0))
        sim.schedule(0.031, batcher.submit, _vote(instance=1))
        sim.run_until(1.0)
        assert sent_at == [(0.02, 1), (0.04, 1)]

    def test_zero_tick_flushes_end_of_instant(self):
        sim = Simulator()
        sent_at = []
        batcher = VoteBatcher(
            node_id=0,
            sink=lambda m: sent_at.append((sim.now, len(m.value))),
            sim=sim,
            tick=0.0,
        )

        def cascade():
            # two votes emitted within one event still coalesce
            batcher.submit(_vote(instance=0))
            batcher.submit(_vote(instance=1))

        sim.schedule(0.5, cascade)
        sim.run_until(1.0)
        assert sent_at == [(0.5, 2)]

    def test_only_one_flush_scheduled_per_window(self):
        sim = Simulator()
        sent = []
        batcher = VoteBatcher(
            node_id=0, sink=sent.append, sim=sim, tick=0.02
        )
        for i in range(10):
            sim.schedule(0.001 * i, batcher.submit, _vote(instance=i))
        sim.run_until(1.0)
        assert len(sent) == 1
        assert len(sent[0].value) == 10
