"""Gossip flood properties on random connected overlays."""

from hypothesis import given, settings, strategies as st

from repro.net.gossip import GossipLayer
from repro.net.simulator import Simulator
from repro.net.topology import Topology, global_topology
from repro.net.transport import Network


def connected(peers) -> bool:
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [w for v in frontier for w in peers[v] if w not in reached]
        reached.update(frontier)
    return len(reached) == len(peers)


def build_mesh(peers):
    regions = ("sydney",)
    topology = Topology(
        regions=regions,
        node_regions=tuple("sydney" for _ in peers),
        peers=peers,
    )
    sim = Simulator()
    network = Network(sim, topology)
    delivered = {i: [] for i in range(len(peers))}
    layers = {}

    class Node:
        def __init__(self, i):
            self.i = i

        def on_message(self, msg):
            layers[self.i].handle(msg)

    for i in range(len(peers)):
        layers[i] = GossipLayer(
            i, network, lambda payload, sender, i=i: delivered[i].append(payload)
        )
        network.register(i, Node(i))
    return sim, network, layers, delivered


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=25),
    degree=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    origin_pick=st.integers(min_value=0, max_value=10_000),
)
def test_flood_reaches_every_node_exactly_once(n, degree, seed, origin_pick):
    """On any connected overlay, one publish delivers the payload to every
    other node exactly once (dedup suppresses the extras)."""
    peers = global_topology(n, degree=min(degree, n - 1), seed=seed).peers
    assert connected(peers)
    sim, network, layers, delivered = build_mesh(peers)
    origin = origin_pick % n
    layers[origin].publish("item", {"payload": 1}, 200)
    sim.run()
    for node in range(n):
        if node == origin:
            assert delivered[node] == []
        else:
            assert delivered[node] == [{"payload": 1}], node


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_flood_cost_at_least_edges(n, seed):
    """§III-A's cost claim: one publish costs at least one message per
    overlay edge (most edges carry the item in both directions)."""
    peers = global_topology(n, degree=4, seed=seed).peers
    sim, network, layers, delivered = build_mesh(peers)
    layers[0].publish("item", "x", 100)
    sim.run()
    assert network.stats.messages >= sum(map(len, peers)) // 2


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=3, max_value=12), seed=st.integers(min_value=0, max_value=999))
def test_hop_limit_bounds_spread(n, seed):
    """A TTL of 1 hop confines the item to the origin's neighbourhood."""
    peers = global_topology(n, degree=2, seed=seed).peers
    sim, network, layers, delivered = build_mesh(peers)
    for layer in layers.values():
        layer.max_hops = 1
    layers[0].publish("item", "x", 100)
    sim.run()
    neighbours = set(peers[0])
    for node in range(n):
        if node in neighbours:
            assert delivered[node] == ["x"]
        elif node != 0:
            assert delivered[node] == []