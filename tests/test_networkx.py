"""Differential checks against networkx on medium-sized networks.

The brute-force oracles stop at a handful of vertices; networkx is an
independent implementation that handles hundreds.  It is a test-only
dependency, so the module skips when it is missing.
"""

import random

import pytest

from interlock import (
    OneModeNetwork,
    TwoModeNetwork,
    betweenness_centrality,
    closeness_centrality,
    project_events,
    weak_components,
)

nx = pytest.importorskip("networkx")
bipartite = pytest.importorskip("networkx.algorithms.bipartite")

SEEDS = range(6)


def fragmented_network(seed: int) -> OneModeNetwork:
    """50-300 vertices in many components: a sparse random graph plus a
    few denser clusters, so there are isolates, pairs and larger pieces."""
    rng = random.Random(seed)
    n = rng.randint(50, 300)
    net = OneModeNetwork(f"v{i}" for i in range(n))
    names = net.vertices
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(int(0.6 * n))}
    for _ in range(3):
        cluster = rng.sample(range(n), rng.randint(5, 20))
        pairs |= {
            (min(a, b), max(a, b))
            for a in cluster
            for b in cluster
            if a != b and rng.random() < 0.4
        }
    for a, b in sorted(pairs):
        net.add_edge(names[a], names[b], rng.randint(1, 5))
    return net


def to_networkx(net: OneModeNetwork):
    graph = nx.Graph()
    graph.add_nodes_from(net.vertices)
    graph.add_weighted_edges_from(net.edges())
    return graph


@pytest.fixture(scope="module", params=SEEDS)
def pair(request):
    net = fragmented_network(request.param)
    return net, to_networkx(net)


def test_instances_have_many_components(pair):
    net, graph = pair
    assert 50 <= net.n <= 300
    assert nx.number_connected_components(graph) >= 10


def test_betweenness(pair):
    net, graph = pair
    got = betweenness_centrality(net)
    # networkx ignores the weights unless asked, as the library does
    expected = nx.betweenness_centrality(graph)
    for v in net.vertices:
        assert got[v] == pytest.approx(expected[v], abs=1e-12)


@pytest.mark.parametrize("variant, wf_improved", [("paper", False), ("component", True)])
def test_closeness(pair, variant, wf_improved):
    net, graph = pair
    expected = nx.closeness_centrality(graph, wf_improved=wf_improved)
    for v in net.vertices:
        assert closeness_centrality(net, v, variant) == pytest.approx(expected[v], abs=1e-12)


def test_weak_components(pair):
    net, graph = pair
    got = weak_components(net)
    expected = {frozenset(c) for c in nx.connected_components(graph)}
    assert {frozenset(c) for c in got} == expected
    assert len(got) == len(expected)
    firsts = [net.index(members[0]) for members in got]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("seed", SEEDS)
def test_event_projection(seed):
    rng = random.Random(1000 + seed)
    two_mode = TwoModeNetwork()
    n_events = rng.randint(50, 300)
    for e in range(n_events):
        two_mode.add_event(f"E{e}")
    for a in range(n_events):
        for e in rng.sample(range(n_events), rng.choice((1, 1, 2, 3, 5))):
            two_mode.add_affiliation(f"E{e}", f"a{a}")
    graph = nx.Graph()
    graph.add_nodes_from(two_mode.events, side="event")
    graph.add_nodes_from((("a", a) for a in two_mode.actors), side="actor")
    graph.add_edges_from(
        (e, ("a", a)) for e in two_mode.events for a in two_mode.members(e)
    )
    expected = bipartite.weighted_projected_graph(graph, two_mode.events)
    net = project_events(two_mode)
    assert set(net.vertices) == set(expected.nodes)
    assert net.edge_count == expected.number_of_edges()
    for u, v, value in net.edges():
        assert expected[u][v]["weight"] == value
