"""Reliable delivery: ack/retransmit, dedup, retry cap, crash interplay."""

from repro import params
from repro.net import transport
from repro.net.simulator import Simulator
from repro.net.topology import single_region_topology
from repro.net.transport import ACK_KIND, Message, Network, _SeqTracker


class Sink:
    """Endpoint that records every delivered message."""

    def __init__(self):
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


class StaticFaults:
    """LinkFaultModel with fixed per-direction drop/duplicate probabilities."""

    def __init__(self, drop=None, duplicate=None, delay=0.0):
        self.drop = drop or {}
        self.duplicate = duplicate or {}
        self.delay = delay

    def drop_probability(self, src, dst, now):
        return self.drop.get((src, dst), 0.0)

    def duplicate_probability(self, src, dst, now):
        return self.duplicate.get((src, dst), 0.0)

    def extra_delay_s(self, src, dst, now):
        return self.delay


def make_network(n=2, *, faults=None, seed=11, **net_kwargs):
    sim = Simulator()
    network = Network(
        sim,
        single_region_topology(n),
        seed=seed,
        net=params.NetParams(reliable_delivery=True, **net_kwargs),
        faults=faults,
    )
    sinks = [Sink() for _ in range(n)]
    for i, sink in enumerate(sinks):
        network.register(i, sink)
    return sim, network, sinks


def payloads(sink):
    return [m.payload for m in sink.received if m.kind != ACK_KIND]


class TestSeqTracker:
    def test_compacts_contiguous_prefix(self):
        t = _SeqTracker()
        assert t.mark(0) and t.mark(1) and t.mark(2)
        assert t.cum == 2 and not t.sparse

    def test_reorder_gap_then_fill(self):
        t = _SeqTracker()
        assert t.mark(0)
        assert t.mark(2)  # gap: held sparse
        assert t.sparse == {2}
        assert t.mark(1)  # fill: prefix compacts through 2
        assert t.cum == 2 and not t.sparse

    def test_duplicates_rejected_in_both_regimes(self):
        t = _SeqTracker()
        t.mark(0)
        t.mark(5)
        assert not t.mark(0)  # below high-water mark
        assert not t.mark(5)  # in the sparse set


class TestReliableDelivery:
    def test_clean_link_delivers_exactly_once(self):
        sim, network, sinks = make_network()
        for i in range(5):
            network.send(0, 1, Message(kind="tx", payload=i, sender=0))
        sim.run_until(10.0)
        # Jitter may reorder (partial synchrony allows it) but every
        # message arrives exactly once.
        assert sorted(payloads(sinks[1])) == [0, 1, 2, 3, 4]
        assert network.stats.retransmissions == 0
        assert not network._pending  # every send acked

    def test_lossy_link_still_delivers_exactly_once(self, monkeypatch):
        faults = StaticFaults(drop={(0, 1): 0.5})
        # cap=12 makes per-message abandonment odds ~0.01% at p=0.5
        monkeypatch.setattr(transport, "RETRANSMIT_CAP", 12)
        sim, network, sinks = make_network(faults=faults)
        for i in range(20):
            network.send(0, 1, Message(kind="tx", payload=i, sender=0))
        sim.run_until(120.0)
        # Retransmission recovers every loss; dedup suppresses any extras.
        assert sorted(payloads(sinks[1])) == list(range(20))
        assert network.stats.retransmissions > 0
        assert network.stats.dropped > 0
        assert not network._pending

    def test_duplicated_link_is_suppressed(self):
        faults = StaticFaults(duplicate={(0, 1): 1.0})
        sim, network, sinks = make_network(faults=faults)
        for i in range(5):
            network.send(0, 1, Message(kind="tx", payload=i, sender=0))
        sim.run_until(10.0)
        assert sorted(payloads(sinks[1])) == [0, 1, 2, 3, 4]
        assert network.stats.duplicates_dropped >= 5

    def test_lost_acks_cause_retransmits_not_redelivery(self):
        # Forward link is clean; the reverse (ack) direction loses
        # everything for a while, so the sender keeps retransmitting and
        # the receiver must re-ack each copy while delivering only one.
        faults = StaticFaults(drop={(1, 0): 1.0})
        sim, network, sinks = make_network(faults=faults)
        network.send(0, 1, Message(kind="tx", payload="x", sender=0))
        sim.run_until(2.0)
        faults.drop.clear()  # acks start getting through
        sim.run_until(60.0)
        assert payloads(sinks[1]) == ["x"]
        assert network.stats.retransmissions >= 1
        assert network.stats.duplicates_dropped >= 1
        assert not network._pending

    def test_severed_link_gives_up_after_retry_cap(self, monkeypatch):
        faults = StaticFaults(drop={(0, 1): 1.0})
        monkeypatch.setattr(transport, "RETRANSMIT_CAP", 3)
        sim, network, sinks = make_network(faults=faults)
        network.send(0, 1, Message(kind="tx", payload="x", sender=0))
        sim.run_until(600.0)
        assert payloads(sinks[1]) == []
        assert network.stats.retransmissions == 3  # capped, not forever
        assert not network._pending  # the abandoned send left no timer

    def test_retransmissions_count_wire_but_not_logical_traffic(self, monkeypatch):
        faults = StaticFaults(drop={(0, 1): 1.0})
        monkeypatch.setattr(transport, "RETRANSMIT_CAP", 2)
        sim, network, _ = make_network(faults=faults)
        network.send(0, 1, Message(kind="tx", payload="x", sender=0, count=4))
        before_logical = network.stats.logical_messages
        sim.run_until(60.0)
        wire = network.stats.by_kind["tx"][0]
        assert wire == 3  # original + 2 retransmits
        assert network.stats.logical_messages == before_logical  # no growth

    def test_loopback_skips_the_reliable_machinery(self):
        sim, network, sinks = make_network()
        network.send(0, 0, Message(kind="tx", payload="self", sender=0))
        sim.run_until(1.0)
        assert payloads(sinks[0]) == ["self"]
        assert not network._pending


def test_one_tracker_per_link_not_per_delivery(monkeypatch):
    built = []

    class CountingTracker(_SeqTracker):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(transport, "_SeqTracker", CountingTracker)
    faults = StaticFaults(duplicate={(0, 1): 0.5, (2, 1): 0.5})
    sim, network, sinks = make_network(3, faults=faults)
    for i in range(10):
        for src, dst in ((0, 1), (2, 1), (1, 0)):
            network.send(src, dst, Message(kind="tx", payload=i, sender=src))
    sim.run_until(30.0)
    assert len(payloads(sinks[1])) == 20 and network.stats.duplicates_dropped
    assert len(built) == len(network._rx_seen) == 3


class TestCrashInterplay:
    def test_traffic_to_down_node_is_lost(self):
        sim, network, sinks = make_network()
        network.set_down(1, True)
        network.send(0, 1, Message(kind="tx", payload="x", sender=0))
        sim.run_until(60.0)
        assert payloads(sinks[1]) == []
        assert network.stats.dropped > 0

    def test_set_down_cancels_senders_pending_timers(self):
        # A dead process stops retrying: crashing the *sender* mid-flight
        # must cancel its retransmission timers.
        faults = StaticFaults(drop={(0, 1): 1.0})
        sim, network, _ = make_network(faults=faults)
        network.send(0, 1, Message(kind="tx", payload="x", sender=0))
        assert network._pending
        network.set_down(0, True)
        assert not network._pending
        retrans_before = network.stats.retransmissions
        sim.run_until(60.0)
        assert network.stats.retransmissions == retrans_before

    def test_receiver_restart_forgets_dedup_state(self):
        sim, network, _ = make_network()
        network.send(0, 1, Message(kind="tx", payload="x", sender=0))
        sim.run_until(5.0)
        assert (0, 1) in network._rx_seen
        network.set_down(1, True)
        assert (0, 1) not in network._rx_seen  # volatile RAM gone
        # ...but the sender's monotonic counter survives, so post-restart
        # sequence numbers cannot collide with pre-crash ones.
        assert network._next_seq[(0, 1)] == 1
        network.set_down(1, False)
        network.send(0, 1, Message(kind="tx", payload="y", sender=0))
        sim.run_until(10.0)
        assert network._next_seq[(0, 1)] == 2


class TestDefaultPathUnchanged:
    def test_reliable_delivery_off_sends_no_acks(self):
        sim = Simulator()
        network = Network(sim, single_region_topology(2), seed=11)
        sinks = [Sink(), Sink()]
        for i, sink in enumerate(sinks):
            network.register(i, sink)
        network.send(0, 1, Message(kind="tx", payload="x", sender=0))
        sim.run_until(5.0)
        assert payloads(sinks[1]) == ["x"]
        assert ACK_KIND not in network.stats.by_kind
        assert not network._pending and not network._rx_seen
