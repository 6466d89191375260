"""Deployment topologies: node → region placement and peer graphs.

The paper deploys 200 validators over 10 AWS regions; Table I uses 4
validators in Sydney.  A :class:`Topology` assigns each node a region and
its peer (gossip) set.  The §V overlay is a connected random regular-ish
graph, matching devp2p-style overlays where each node keeps a bounded
peer set; Table I's is a full mesh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import params


@dataclass
class Topology:
    """Node placement and overlay graph for one deployment."""

    regions: tuple[str, ...]
    node_regions: tuple[str, ...]  # region of node i
    peers: tuple[tuple[int, ...], ...]  # sorted overlay neighbours of node i

    @property
    def n(self) -> int:
        return len(self.node_regions)

    def region_of(self, node: int) -> str:
        """Region of a node; ids beyond the validator set (client
        endpoints) are placed round-robin over the same regions."""
        if 0 <= node < len(self.node_regions):
            return self.node_regions[node]
        return self.regions[node % len(self.regions)]

    def peers_of(self, node: int) -> tuple[int, ...]:
        return self.peers[node]

    def latency_s(self, a: int, b: int) -> float:
        """One-way base latency between two nodes, in seconds."""
        return params.region_latency_ms(self.region_of(a), self.region_of(b)) / 1000.0


def _full_mesh(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


def _random_regular_edges(d: int, n: int, seed: int) -> set[tuple[int, int]]:
    """networkx 3.x ``random_regular_graph(d, n, seed)``'s edge set, draw for
    draw: pair shuffled stubs, re-pair the clashing ones, and start over
    when no clash can be resolved.  Needs ``0 <= d < n`` and ``n*d`` even."""
    rng = random.Random(seed)

    def resolvable(edges: set[tuple[int, int]], clashes: dict[int, int]) -> bool:
        # networkx's ``_suitable``, verbatim: the swap rebinds the outer
        # ``s1`` for the rest of the inner loop, which moves the ``break``.
        # A plain "any two clashing stubs not yet joined" check answers
        # differently on some draws (8 nodes, d = 6, seed 2), and from
        # there every later draw differs.
        if not clashes:
            return True
        for s1 in clashes:
            for s2 in clashes:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def attempt() -> "set[tuple[int, int]] | None":
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * d
        while stubs:
            clashes: dict[int, int] = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    clashes[s1] = clashes.get(s1, 0) + 1
                    clashes[s2] = clashes.get(s2, 0) + 1
            if not resolvable(edges, clashes):
                return None
            stubs = [node for node, k in clashes.items() for _ in range(k)]
        return edges

    edges = attempt() if d else set()
    while edges is None:
        edges = attempt()
    return edges


def _overlay(n: int, degree: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Connected bounded-degree overlay (devp2p keeps ~25-50 peers)."""
    if n <= 1:
        return ((),) * n
    degree = min(degree, n - 1)
    if degree * n % 2 == 1:
        degree = max(1, degree - 1)
    if degree * n % 2 == 1 or degree < 0:
        return _full_mesh(n)
    # Neighbour lists in networkx's insertion order (the edge set's
    # iteration order), so the BFS below fills each component's set in the
    # same order and ``next(iter(component))`` picks the same node.
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in _random_regular_edges(degree, n, seed):
        adj[u].append(v)
        adj[v].append(u)
    # Stitch components together if the random graph came out disconnected.
    components: list[set[int]] = []
    placed: set[int] = set()
    for source in range(n):
        if source in placed:
            continue
        component, level = {source}, [source]
        while level:
            reached = []
            for v in level:
                for w in adj[v]:
                    if w not in component:
                        component.add(w)
                        reached.append(w)
            level = reached
        placed |= component
        components.append(component)
    for a, b in zip(components, components[1:]):
        u, v = next(iter(a)), next(iter(b))
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(peers)) for peers in adj)


def global_topology(
    n: int = 200,
    *,
    regions: tuple[str, ...] = params.AWS_REGIONS,
    degree: int = 25,
    seed: int = 7,
) -> Topology:
    """Paper §V deployment: ``n`` validators round-robined over 10 regions."""
    node_regions = tuple(regions[i % len(regions)] for i in range(n))
    return Topology(
        regions=regions,
        node_regions=node_regions,
        peers=_overlay(n, degree, seed),
    )


def single_region_topology(
    n: int = 4, *, region: str = "sydney", seed: int = 7
) -> Topology:
    """Table I deployment: ``n`` validators in one region, full mesh."""
    return Topology(
        regions=(region,),
        node_regions=tuple(region for _ in range(n)),
        peers=_full_mesh(n),
    )
