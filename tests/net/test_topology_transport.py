"""Topologies, latency model, transport, partial synchrony, gossip."""

import pytest

from repro import params
from repro.errors import NetworkError
from repro.net.gossip import GossipLayer
from repro.net.simulator import Simulator
from repro.net.topology import global_topology, single_region_topology
from repro.net.transport import Message, Network, PartialSynchrony


class Sink:
    def __init__(self):
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


class TestTopology:
    def test_global_topology_round_robins_regions(self):
        topo = global_topology(20)
        assert topo.n == 20
        assert topo.region_of(0) == params.AWS_REGIONS[0]
        assert topo.region_of(10) == params.AWS_REGIONS[0]
        assert topo.region_of(1) == params.AWS_REGIONS[1]

    def test_overlay_connected(self):
        topo = global_topology(50, degree=4)
        reached, frontier = {0}, [0]
        while frontier:
            frontier = [w for v in frontier for w in topo.peers[v] if w not in reached]
            reached.update(frontier)
        assert reached == set(range(50))
        assert all(v in topo.peers[w] for v in range(50) for w in topo.peers[v])

    def test_single_region_full_mesh(self):
        topo = single_region_topology(4)
        for i in range(4):
            assert sorted(topo.peers_of(i)) == [j for j in range(4) if j != i]

    def test_latency_symmetric(self):
        topo = global_topology(20)
        for a, b in ((0, 5), (3, 17), (2, 9)):
            assert topo.latency_s(a, b) == topo.latency_s(b, a)

    def test_intra_region_cheaper_than_cross(self):
        assert params.region_latency_ms("sydney", "sydney") < params.region_latency_ms(
            "sydney", "stockholm"
        )

    def test_unknown_region_raises(self):
        with pytest.raises(KeyError):
            params.region_latency_ms("sydney", "atlantis")

    def test_region_latency_matrix_complete(self):
        for a in params.AWS_REGIONS:
            for b in params.AWS_REGIONS:
                assert params.region_latency_ms(a, b) > 0


class TestNetwork:
    def _net(self, n=4, **kw):
        sim = Simulator()
        topo = single_region_topology(n)
        net = Network(sim, topo, **kw)
        sinks = [Sink() for _ in range(n)]
        for i, sink in enumerate(sinks):
            net.register(i, sink)
        return sim, net, sinks

    def test_send_delivers(self):
        sim, net, sinks = self._net()
        net.send(0, 1, Message(kind="x", payload="hi", sender=0))
        sim.run()
        assert sinks[1].received[0].payload == "hi"

    def test_unknown_destination_raises(self):
        sim, net, _ = self._net(2)
        with pytest.raises(NetworkError):
            net.send(0, 9, Message(kind="x", payload=None, sender=0))

    def test_double_register_raises(self):
        sim, net, _ = self._net(2)
        with pytest.raises(NetworkError):
            net.register(0, Sink())

    def test_broadcast_reaches_everyone_including_self(self):
        sim, net, sinks = self._net()
        net.broadcast(0, Message(kind="x", payload=1, sender=0))
        sim.run()
        assert all(len(s.received) == 1 for s in sinks)

    def test_broadcast_exclude_self(self):
        sim, net, sinks = self._net()
        net.broadcast(0, Message(kind="x", payload=1, sender=0), include_self=False)
        sim.run()
        assert len(sinks[0].received) == 0
        assert all(len(s.received) == 1 for s in sinks[1:])

    def test_stats_accumulate(self):
        sim, net, _ = self._net()
        net.send(0, 1, Message(kind="k", payload=None, sender=0, size_bytes=100))
        net.send(0, 2, Message(kind="k", payload=None, sender=0, size_bytes=50))
        assert net.stats.messages == 2
        assert net.stats.bytes == 150
        assert net.stats.by_kind["k"] == [2, 150]

    def test_stats_track_region_pairs(self):
        from repro.telemetry import MetricsRegistry, to_json, use_registry

        with use_registry(MetricsRegistry(enabled=True)) as reg:
            sim = Simulator()
            topo = global_topology(4)  # nodes land in distinct regions
            net = Network(sim, topo)
            for i in range(4):
                net.register(i, Sink())
            net.send(0, 1, Message(kind="consensus", payload=None, sender=0,
                                   size_bytes=100))
            net.broadcast(0, Message(kind="gossip", payload=None, sender=0,
                                     size_bytes=10))
            src = topo.region_of(0)
            dst = topo.region_of(1)
            snap = to_json(reg)["srbb_net_messages_total"]
            labeled = {
                (s["labels"]["kind"], s["labels"]["src_region"],
                 s["labels"]["dst_region"]): s["value"]
                for s in snap["samples"] if s["labels"]
            }
            by_pair = {}
            for (_kind, s, d), value in labeled.items():
                by_pair[(s, d)] = by_pair.get((s, d), 0) + value
            assert by_pair[(src, dst)] == 2  # send + broadcast
            assert by_pair[(src, src)] == 1  # loopback leg
            assert labeled[("consensus", src, dst)] == 1
            assert labeled[("gossip", src, src)] == 1
            # region-pair children partition the total: no double counting
            assert sum(labeled.values()) == net.stats.messages

    def test_larger_messages_arrive_later(self):
        sim, net, sinks = self._net(jitter_s=0.0, bandwidth_bytes_per_s=1000.0)
        arrivals = {}

        class Recorder:
            def __init__(self, name):
                self.name = name

            def on_message(self, msg):
                arrivals[self.name] = sim.now

        net._endpoints[1] = Recorder("small")
        net._endpoints[2] = Recorder("big")
        net.send(0, 1, Message(kind="x", payload=None, sender=0, size_bytes=10))
        net.send(0, 2, Message(kind="x", payload=None, sender=0, size_bytes=10_000))
        sim.run()
        assert arrivals["big"] > arrivals["small"]

    def test_partial_synchrony_bounds_delay(self):
        """After GST every delay respects δ + serialization."""
        timing = PartialSynchrony(gst=0.0, delta=0.1)
        sim = Simulator()
        topo = global_topology(10)
        net = Network(
            sim, topo, timing=timing,
            adversarial_delay=lambda s, d, t: 99.0,  # adversary stretches hard
        )
        delay = net.delay_for(0, 5, 256)
        assert delay <= 0.1 + 256 / net.bandwidth + 1e-9

    def test_pre_gst_allows_longer_delays(self):
        timing = PartialSynchrony(gst=100.0, delta=0.1, pre_gst_max_delay=5.0)
        sim = Simulator()
        net = Network(
            sim, single_region_topology(4), timing=timing,
            adversarial_delay=lambda s, d, t: 99.0,
        )
        delay = net.delay_for(0, 1, 256)
        assert 4.9 < delay <= 5.0 + 256 / net.bandwidth + 1e-9


class TestGossip:
    def _mesh(self, n=6):
        sim = Simulator()
        topo = single_region_topology(n)
        net = Network(sim, topo)
        delivered = {i: [] for i in range(n)}
        layers = {}

        class Node:
            def __init__(self, i):
                self.i = i

            def on_message(self, msg):
                layers[self.i].handle(msg)

        for i in range(n):
            node = Node(i)
            layers[i] = GossipLayer(
                i, net, lambda payload, sender, i=i: delivered[i].append(payload)
            )
            net.register(i, node)
        return sim, net, layers, delivered

    def test_publish_floods_to_all(self):
        sim, net, layers, delivered = self._mesh()
        layers[0].publish("item-1", {"tx": 1}, 200)
        sim.run()
        for i in range(1, 6):
            assert delivered[i] == [{"tx": 1}]

    def test_originator_does_not_deliver_to_itself(self):
        sim, net, layers, delivered = self._mesh()
        layers[0].publish("item-1", "x", 100)
        sim.run()
        assert delivered[0] == []

    def test_duplicates_suppressed(self):
        from repro.telemetry import use_registry

        with use_registry() as reg:
            sim, net, layers, delivered = self._mesh()
            layers[0].publish("item-1", "x", 100)
            sim.run()
        assert all(len(v) == 1 for i, v in delivered.items() if i != 0)
        # full mesh of 6: each of the 5 peers forwards its first copy to
        # its 5 peers, and every one of those 25 envelopes is a duplicate
        received = reg.get("srbb_gossip_received_total").value
        assert reg.get("srbb_gossip_duplicates_total").value == 25
        assert received == 5 + 25

    def test_republish_ignored(self):
        sim, net, layers, delivered = self._mesh()
        layers[0].publish("item-1", "x", 100)
        layers[0].publish("item-1", "x", 100)
        sim.run()
        assert all(len(v) <= 1 for v in delivered.values())

    def test_redundancy_counts_measure_flooding_cost(self):
        """The §III-A claim quantified: one published tx costs O(edges)
        messages network-wide."""
        sim, net, layers, delivered = self._mesh(6)
        before = net.stats.messages
        layers[0].publish("tx", "x", 100)
        sim.run()
        sent = net.stats.messages - before
        # full mesh with 6 nodes has 15 edges; flood sends on most twice
        assert sent >= 15
