"""A broadcast is one fan-out: differential test against a send loop.

``Network.broadcast`` books its traffic once and walks its cached
destinations in one loop.  Whatever the configuration, it must leave the
simulation exactly where a loop of per-destination ``send`` calls (the
broadcast as it used to be written, reproduced below) would: the same
scheduled ``(time, seq, callback, args)`` stream, the same deliveries,
equal ``NetStats`` down to ``by_kind``'s insertion order, the same RNG states and
the same enabled-registry dump.
"""

import itertools

import pytest

from repro import params, telemetry
from repro.net.simulator import Simulator
from repro.net.topology import global_topology, single_region_topology
from repro.net.transport import Message, Network, PartialSynchrony


class Sink:
    def __init__(self, network, node_id, log):
        self.network, self.node_id, self.log = network, node_id, log

    def on_message(self, msg):
        self.log.append((self.network.sim.now, self.node_id, msg.kind, msg.payload))


class Faults:
    """Drop, duplicate and delay on every link, varying by link."""

    def drop_probability(self, src, dst, now):
        return 0.2 if (src + dst) % 2 else 0.0

    def duplicate_probability(self, src, dst, now):
        return 0.3

    def extra_delay_s(self, src, dst, now):
        return 0.01 * dst - 0.02  # negative on some links: clamped to 0


def adversary(src, dst, now):
    # negative (ignored), small, and past the pre-GST cap, by destination
    return (dst - 2) * 0.2


def reference_broadcast(network, src, msg, include_self=True):
    """The per-destination loop ``broadcast`` replaced."""
    for dst in network._endpoints:
        if dst == src and not include_self:
            continue
        if dst == src:
            network.sim.schedule(0.0, network._deliver, dst, msg)
            region = network._link(src, src)[1]
            network.stats.record(msg, (((region, region), 1),))
        else:
            network.send(src, dst, msg)


def scheduled(sim):
    """The live heap as a comparable stream."""
    return sorted(
        (time, seq, event.callback.__name__, event.args)
        for time, seq, event in sim._heap
        if not event.cancelled
    )


def run(broadcast, *, topology, include_self, reliable, faults, adversarial):
    """Drive one network through broadcasts at pre- and post-GST times,
    a late registration included; return everything observable."""
    sim = Simulator()
    network = Network(
        sim,
        topology,
        timing=PartialSynchrony(gst=1.0, delta=0.3, pre_gst_max_delay=0.5),
        seed=5,
        adversarial_delay=adversary if adversarial else None,
        net=params.NetParams(reliable_delivery=reliable),
        faults=Faults() if faults else None,
    )
    delivered, streams = [], []
    for node in (4, 0, 5, 2, 1, 3):  # registration order is broadcast order
        network.register(node, Sink(network, node, delivered))

    def cast(src, msg):
        broadcast(network, src, msg, include_self=include_self)
        streams.append(scheduled(sim))

    def late_join():
        network.register(9, Sink(network, 9, delivered))
        cast(9, Message(kind="late", payload=9, sender=9, size_bytes=80))
        cast(0, Message(kind="late", payload=0, sender=0, size_bytes=80))

    sim.schedule_at(0.0, cast, 0, Message(kind="a", payload=0, sender=0, size_bytes=300))
    sim.schedule_at(0.0, cast, 2, Message(kind="a", payload=1, sender=2, size_bytes=300))
    sim.schedule_at(
        0.7, cast, 3, Message(kind="b", payload=2, sender=3, size_bytes=50_000, count=7)
    )
    sim.schedule_at(1.5, cast, 5, Message(kind="a", payload=3, sender=5, size_bytes=100))
    sim.schedule_at(2.0, late_join)
    sim.run_until(30.0)
    stats = network.stats
    return {
        "streams": streams,
        "delivered": delivered,
        "events": sim.events_processed,
        "stats": stats,
        "order": list(stats.by_kind.items()),
        "rng": network.rng.bit_generator.state,
        "fault_rng": network._fault_rng.bit_generator.state,
    }


CONFIGS = list(
    itertools.product(
        ("one-region", "multi-region"),  # topology
        (True, False),  # include_self
        (False, True),  # reliable delivery
        (False, True),  # link faults
        (False, True),  # adversarial delay
    )
)


@pytest.mark.parametrize("topology,include_self,reliable,faults,adversarial", CONFIGS)
def test_broadcast_equals_a_loop_of_sends(topology, include_self, reliable, faults, adversarial):
    def observe(broadcast):
        with telemetry.use_registry() as reg:
            outcome = run(
                broadcast,
                topology=(
                    single_region_topology(6)
                    if topology == "one-region"
                    else global_topology(6, degree=2)
                ),
                include_self=include_self,
                reliable=reliable,
                faults=faults,
                adversarial=adversarial,
            )
            outcome["dump"] = telemetry.to_prometheus(reg)
        return outcome

    fan_out = observe(Network.broadcast)
    reference = observe(reference_broadcast)
    assert fan_out["delivered"]  # the run is not vacuous
    for key in reference:
        assert fan_out[key] == reference[key], key


def test_configurations_exercise_what_they_claim():
    with telemetry.use_registry() as reg:
        outcome = run(
            reference_broadcast,
            topology=global_topology(6, degree=2),
            include_self=True,
            reliable=True,
            faults=True,
            adversarial=True,
        )
    stats = outcome["stats"]
    assert stats.dropped and stats.retransmissions and stats.duplicates_dropped
    pairs = {
        (sample["labels"]["src_region"], sample["labels"]["dst_region"])
        for sample in telemetry.to_json(reg)["srbb_net_messages_total"]["samples"]
        if sample["labels"]
    }
    assert len(pairs) > 6  # several region pairs, loopbacks too
    assert any(node == 9 for _, node, _, _ in outcome["delivered"])


def _network(nodes):
    network = Network(Simulator(), single_region_topology(4), seed=3)
    received = []
    for node in nodes:
        network.register(node, Sink(network, node, received))
    return network, received


def test_register_after_a_broadcast_reaches_the_new_node():
    network, received = _network((0, 1, 2))
    network.broadcast(0, Message(kind="x", payload="first", sender=0))
    network.register(3, Sink(network, 3, received))
    network.broadcast(0, Message(kind="x", payload="second", sender=0))
    network.sim.run()
    assert sorted(node for _, node, _, payload in received if payload == "first") == [0, 1, 2]
    assert sorted(node for _, node, _, payload in received if payload == "second") == [0, 1, 2, 3]
    assert network.stats.by_kind["x"][0] == 7


def test_a_broadcast_to_nobody_books_nothing():
    network, _ = _network((0,))
    network.broadcast(0, Message(kind="x", payload=None, sender=0), include_self=False)
    assert network.stats == Network(Simulator(), single_region_topology(1)).stats
    assert not network.sim.pending
