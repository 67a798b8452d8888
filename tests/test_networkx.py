"""Differential checks against networkx on medium-sized networks.

The brute-force oracles stop at a handful of vertices; networkx is an
independent implementation that handles hundreds.  It is a test-only
dependency, so the module skips when it is missing.
"""

import random
from math import fsum

import pytest

from interlock import (
    OneModeNetwork,
    TwoModeNetwork,
    betweenness_centrality,
    build_report,
    closeness_centrality,
    project_actors,
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


def _same(got, want):
    """Ints (and everything else) exactly, floats to 1e-12, item by item."""
    if isinstance(want, float):
        assert got == pytest.approx(want, abs=1e-12)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    else:
        assert type(got) is type(want) and got == want


def _freeman(scores, divisor):
    best = max(scores)
    return fsum(best - s for s in scores) / divisor


@pytest.mark.parametrize("variant", ["no-loops", "loops"])
def test_report_fields_match_networkx(pair, variant):
    """The report fields the checks above leave out, rebuilt from networkx
    degrees, betweenness, closeness, components and subgraphs."""
    net, graph = pair
    report = build_report(net, (2, 3), component_density_variant=variant)
    n = net.n
    position = {v: i for i, v in enumerate(net.vertices)}

    def ordered_components(g):
        comps = [sorted(c, key=position.__getitem__) for c in nx.connected_components(g)]
        return sorted(comps, key=lambda c: position[c[0]])

    degrees = [d for _, d in graph.degree(net.vertices)]
    largest = max(ordered_components(graph), key=len)  # the first of the largest
    k = len(largest)
    closeness = list(nx.closeness_centrality(graph.subgraph(largest)).values())
    agg = report.aggregates
    _same(
        [agg.degree_centralization, agg.betweenness_centralization, agg.closeness_centralization],
        [
            _freeman(degrees, (n - 1) * (n - 2)),
            _freeman(list(nx.betweenness_centrality(graph).values()), n - 1),
            _freeman(closeness, (k - 1) * (k - 2) / (2 * k - 3)) if k >= 3 else 0.0,
        ],
    )

    running = 0
    degree_rows = []
    for d, freq in enumerate(nx.degree_histogram(graph)):
        if freq:
            running += freq
            degree_rows.append((d, freq, freq / n, running / n))
    _same(report.degree_distribution.rows, degree_rows)

    values = [w for _, _, w in graph.edges(data="weight")]
    top = max(values)
    _same(report.line_multiplicity.max_value, top)
    _same(
        report.line_multiplicity.rows,
        [(v, values.count(v), values.count(v) / len(values)) for v in range(1, top + 1)],
    )

    assert [sl.m for sl in report.slices] == [2, 3]
    for sl in report.slices:
        sliced = nx.Graph()
        sliced.add_nodes_from(graph)
        sliced.add_edges_from((u, v) for u, v, w in graph.edges(data="weight") if w >= sl.m)
        _same(sl.network.edge_count, sliced.number_of_edges())
        expected = []
        for members in ordered_components(sliced):
            component = sliced.subgraph(members)
            size, lines = len(members), component.number_of_edges()
            # nx.density reads an int 0 below two vertices
            density = float(nx.density(component)) if variant == "no-loops" else 2 * lines / size**2
            expected.append((members, size, lines, density))
        _same([(c.members, c.size, c.edge_count, c.density) for c in sl.components], expected)


def _boards(seed):
    """A random two-mode network of 50-300 events and the same bipartite
    graph in networkx, actors as ``("a", id)`` nodes."""
    rng = random.Random(1000 + seed)
    two_mode = TwoModeNetwork()
    n_events = rng.randint(50, 300)
    for e in range(n_events):
        two_mode.add_event(f"E{e}")
    for a in range(n_events):
        for e in rng.sample(range(n_events), rng.choice((1, 1, 2, 2, 3, 5))):
            two_mode.add_affiliation(f"E{e}", f"a{a}")
    # actors on exactly two boards, in both orders of the boards' positions
    pairs = [[two_mode.events.index(e) for e in held] for held in two_mode.holdings()]
    assert {held[0] < held[1] for held in pairs if len(held) == 2} == {True, False}
    graph = nx.Graph()
    graph.add_nodes_from(two_mode.events, side="event")
    graph.add_nodes_from((("a", a) for a in two_mode.actors), side="actor")
    graph.add_edges_from(
        (e, ("a", a)) for e in two_mode.events for a in two_mode.members(e)
    )
    return two_mode, graph


@pytest.mark.parametrize("seed", SEEDS)
def test_event_projection(seed):
    two_mode, graph = _boards(seed)
    expected = bipartite.weighted_projected_graph(graph, two_mode.events)
    net = project_events(two_mode)
    assert all(list(row) == sorted(row) for row in net._rows)
    assert set(net.vertices) == set(expected.nodes)
    assert net.edge_count == expected.number_of_edges()
    for u, v, value in net.edges():
        assert expected[u][v]["weight"] == value


@pytest.mark.parametrize("seed", SEEDS)
def test_actor_projection(seed):
    two_mode, graph = _boards(seed)
    expected = bipartite.weighted_projected_graph(graph, [("a", a) for a in two_mode.actors])
    net = project_actors(two_mode)
    assert all(list(row) == sorted(row) for row in net._rows)
    assert {("a", a) for a in net.vertices} == set(expected.nodes)
    assert net.edge_count == expected.number_of_edges()
    for u, v, value in net.edges():
        assert expected[("a", u)][("a", v)]["weight"] == value
