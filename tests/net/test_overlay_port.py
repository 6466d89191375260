"""The peer overlay is networkx's, draw for draw.

``repro.net.topology`` ports networkx 3.x's ``random_regular_graph`` (the
pairing model) and the component stitching the overlay used to do with
networkx, so every seeded deployment keeps its peer graph.  networkx is
the oracle here and is not a runtime dependency.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import _overlay, global_topology

nx = pytest.importorskip("networkx")


def networkx_overlay(n: int, degree: int, seed: int):
    """(sorted peers, components before stitching) as networkx builds them."""
    if n <= 1:
        return ((),) * n, n
    degree = min(degree, n - 1)
    if degree * n % 2 == 1:
        degree = max(1, degree - 1)
    try:
        g = nx.random_regular_graph(degree, n, seed=seed)
    except nx.NetworkXError:
        g = nx.complete_graph(n)
    components = list(nx.connected_components(g))
    for a, b in zip(components, components[1:]):
        g.add_edge(next(iter(a)), next(iter(b)))
    assert nx.is_connected(g)
    return tuple(tuple(sorted(g.neighbors(i))) for i in range(n)), len(components)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=70),
    degree=st.integers(min_value=-1, max_value=8) | st.just(25),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_overlay_matches_networkx(n, degree, seed):
    assert _overlay(n, degree, seed) == networkx_overlay(n, degree, seed)[0]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=70),
    degree=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sparse_overlays_are_stitched_alike(n, degree, seed):
    """d <= 2 graphs mostly come out disconnected: the stitch edges join
    each component's first set element, which depends on the order the
    BFS filled the set in."""
    assert _overlay(n, degree, seed) == networkx_overlay(n, degree, seed)[0]


@pytest.mark.parametrize(
    "n, degree, seed, components",
    [(8, 1, 0, 4), (12, 2, 0, 2), (30, 2, 1, 4), (41, 2, 1, 5), (69, 2, 1, 4), (70, 1, 2, 35)],
)
def test_disconnected_draws_are_stitched_alike(n, degree, seed, components):
    expected, raw_components = networkx_overlay(n, degree, seed)
    assert raw_components == components
    assert _overlay(n, degree, seed) == expected


def _geo_flood_topology_seed(seed: int) -> int:
    # benchmarks/perf/workloads.py's sub_seed(seed, "geo_flood_n16.topology")
    digest = hashlib.sha256(f"{seed}|geo_flood_n16.topology".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@pytest.mark.parametrize(
    "n, degree, seed",
    [
        (16, 6, _geo_flood_topology_seed(17)),  # geo_flood_n16
        (200, 12, 7),  # table1_scale_200
        (200, 25, 7),  # global_topology()'s defaults: the paper's §V fleet
        (8, 4, 7),  # weak_validator
    ],
)
def test_deployed_overlays_match_networkx(n, degree, seed):
    topology = global_topology(n, degree=degree, seed=seed)
    assert topology.peers == networkx_overlay(n, degree, seed)[0]
