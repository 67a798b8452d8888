import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_betweenness,
    brute_closeness,
    brute_distances,
    random_one_mode,
    reference_sweep,
)

from interlock import (
    OneModeNetwork,
    betweenness_centrality,
    betweenness_centralization,
    closeness_centrality,
    closeness_centralization,
    degree_centralization,
    degree_distribution,
    degree_stats,
    build_report,
    density,
    network_aggregates,
    rank_competition,
    vertex_metrics,
    weak_components,
)
from interlock import metrics
from interlock.metrics import path_sums


def path_graph(names: str) -> OneModeNetwork:
    net = OneModeNetwork(names)
    for u, v in zip(names, names[1:]):
        net.add_edge(u, v, 1)
    return net


def cycle_graph(names: str) -> OneModeNetwork:
    net = path_graph(names)
    net.add_edge(names[-1], names[0], 1)
    return net


def star_graph(leaves: int) -> OneModeNetwork:
    names = ["hub"] + [f"leaf{i}" for i in range(leaves)]
    net = OneModeNetwork(names)
    for name in names[1:]:
        net.add_edge("hub", name, 1)
    return net


def complete_graph(n: int) -> OneModeNetwork:
    net = OneModeNetwork(f"k{i}" for i in range(n))
    for u, v in combinations(net.vertices, 2):
        net.add_edge(u, v, 1)
    return net


class TestDegreeDistribution:
    def test_three_isolates(self):
        net = OneModeNetwork(["a", "b", "c"])
        assert degree_distribution(net).rows == [(0, 3, 1.0, 1.0)]

    def test_triangle(self):
        assert degree_distribution(complete_graph(3)).rows == [(2, 3, 1.0, 1.0)]

    def test_only_observed_degrees_listed(self):
        net = star_graph(3)
        rows = degree_distribution(net).rows
        assert [row[:2] for row in rows] == [(1, 3), (3, 1)]
        assert rows[-1][3] == pytest.approx(1.0)

    def test_empty_network(self):
        assert degree_distribution(OneModeNetwork()).rows == []


class TestDegreeStats:
    def test_singleton(self):
        assert degree_stats([7]) == (7.0, 7.0, 0.0)

    def test_hand_computed_even_count(self):
        mean, median, sd = degree_stats([0, 1, 1, 2])
        assert mean == pytest.approx(1.0)
        assert median == pytest.approx(1.0)
        assert sd == pytest.approx(0.7071, abs=1e-4)

    def test_median_lower_middle_for_odd(self):
        assert degree_stats([1, 2, 9])[1] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            degree_stats([])


class TestDensity:
    def test_loops_variant_on_61_162(self):
        net = OneModeNetwork([f"v{i}" for i in range(3)])
        net.add_edge("v0", "v1", 1)
        assert density(net, "loops") == pytest.approx(2 / 9)
        assert density(net, "no-loops") == pytest.approx(1 / 3)

    def test_complete_pair(self):
        assert density(complete_graph(2), "no-loops") == 1.0

    def test_single_vertex(self):
        assert density(OneModeNetwork(["a"]), "no-loops") == 0.0

    def test_default_is_loops_allowed(self):
        net = complete_graph(2)
        assert density(net) == pytest.approx(0.5)


class TestGeodesicDistances:
    """Reach counts and distance sums from the shortest-path sweep."""

    def test_path(self):
        sums = path_sums(path_graph("abc"))
        assert (sums.reach, sums.distance_sum) == ([2, 2, 2], [3, 2, 3])

    def test_unreachable_marked_none(self):
        net = OneModeNetwork(["a", "b", "c"])
        net.add_edge("a", "b", 1)
        sums = path_sums(net)
        assert (sums.reach, sums.distance_sum) == ([1, 1, 0], [1, 1, 0])

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            closeness_centrality(OneModeNetwork(["a"]), "zz")

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(555)
        for _ in range(60):
            net = random_one_mode(rng, max_n=7)
            sums = path_sums(net)
            for i, v in enumerate(net.vertices):
                dist = brute_distances(net, v)
                reached = [d for u, d in dist.items() if u != v and d is not None]
                assert sums.reach[i] == len(reached)
                assert sums.distance_sum[i] == sum(reached)

    def test_values_do_not_affect_distances(self):
        heavy = OneModeNetwork(["a", "b", "c"])
        heavy.add_edge("a", "b", 9)
        heavy.add_edge("b", "c", 1)
        assert path_sums(heavy).distance_sum[0] == 1 + 2

    def test_edit_after_a_metric_call_is_seen(self):
        net = path_graph("abcd")
        assert betweenness_centrality(net)["a"] == 0.0
        net.add_edge("d", "a", 1)
        assert betweenness_centrality(net)["a"] == pytest.approx(1 / 6)
        net.add_vertex("e")
        net.add_edge("a", "e", 1)
        assert betweenness_centrality(net)["a"] == pytest.approx(7 / 12)

    def test_one_report_sweeps_once(self, monkeypatch):
        calls = []
        sweep = metrics._sweep

        def counted(view):
            calls.append(view)
            return sweep(view)

        monkeypatch.setattr(metrics, "_sweep", counted)
        net = random_one_mode(random.Random(5), min_n=6, max_n=6)
        build_report(net, slice_thresholds=(2, 3), closeness_variant="component")
        assert len(calls) == 1


def _bipartite(a: int, b: int):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def _grid(rows: int, cols: int):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return rows * cols, edges


def _ring_lattice(k: int, reach: int):
    pairs = {
        tuple(sorted((i, (i + j) % k))) for i in range(k) for j in range(1, reach + 1) if j % k
    }
    return k, sorted(pairs)


@st.composite
def _random_block(draw):
    k = draw(st.integers(2, 10))
    pairs = list(combinations(range(k), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return k, [pair for pair, kept in zip(pairs, keep) if kept]


# Blocks rich in tied geodesics (complete bipartite graphs, grids, ring
# lattices), random blocks that may split further, and isolates.
_BLOCK = st.one_of(
    st.just((1, [])),
    st.builds(_bipartite, st.integers(1, 6), st.integers(1, 6)),
    st.builds(_grid, st.integers(1, 5), st.integers(2, 6)),
    st.builds(_ring_lattice, st.integers(3, 14), st.integers(1, 3)),
    _random_block(),
)


@st.composite
def scattered_nets(draw, max_n: int = 60) -> OneModeNetwork:
    """Disjoint blocks of at most ``max_n`` vertices in all, their positions
    shuffled so components interleave; a repeated largest block gives equal
    largest components."""
    blocks = draw(st.lists(_BLOCK, max_size=8))
    if blocks and draw(st.booleans()):
        blocks.append(max(blocks, key=lambda block: block[0]))
    kept, n = [], 0
    for size, edges in blocks:
        if n + size <= max_n:
            kept.append((n, edges))
            n += size
    position = draw(st.permutations(range(n)))
    net = OneModeNetwork(f"v{i}" for i in range(n))
    for offset, edges in kept:
        for a, b in edges:
            net.add_edge(f"v{position[offset + a]}", f"v{position[offset + b]}", 1)
    return net


@settings(max_examples=300, deadline=None)
@given(scattered_nets())
def test_sweep_matches_the_per_source_reference_bit_for_bit(net):
    view = net.frozen()
    sums = metrics._sweep(view)
    dependency, reach, distance_sum = reference_sweep(view)
    assert [d.hex() for d in sums.dependency] == [d.hex() for d in dependency]
    assert sums.reach == reach
    assert sums.distance_sum == distance_sum
    assert sums.components == [[net.index(v) for v in c] for c in weak_components(net)]


class TestCloseness:
    def test_center_of_p3(self):
        assert closeness_centrality(path_graph("abc"), "b") == 1.0

    def test_end_of_p4(self):
        assert closeness_centrality(path_graph("abcd"), "a") == 0.5

    def test_isolate_scores_zero(self):
        net = OneModeNetwork(["a", "b"])
        assert closeness_centrality(net, "a") == 0.0

    def test_component_variant_shrinks_on_fragments(self):
        net = OneModeNetwork(["a", "b", "c"])
        net.add_edge("a", "b", 1)
        assert closeness_centrality(net, "a", "paper") == 1.0
        assert closeness_centrality(net, "a", "component") == 0.5

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            closeness_centrality(path_graph("ab"), "a", "fancy")


class TestBetweenness:
    def test_p3_center(self):
        assert betweenness_centrality(path_graph("abc"))["b"] == pytest.approx(1.0)

    def test_star_center_and_leaves(self):
        scores = betweenness_centrality(star_graph(3))
        assert scores["hub"] == pytest.approx(1.0)
        assert all(scores[f"leaf{i}"] == 0.0 for i in range(3))

    def test_c4_each_vertex(self):
        scores = betweenness_centrality(cycle_graph("abcd"))
        for v in "abcd":
            assert scores[v] == pytest.approx(1 / 6, abs=1e-9)

    def test_tiny_networks_score_zero(self):
        assert betweenness_centrality(path_graph("ab")) == {"a": 0.0, "b": 0.0}

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(31337)
        for _ in range(60):
            net = random_one_mode(rng, max_n=7)
            got = betweenness_centrality(net)
            expected = brute_betweenness(net)
            for v in net.vertices:
                assert got[v] == pytest.approx(expected[v], abs=1e-9)


class TestCentralizations:
    def test_degree_star_is_one(self):
        for leaves in (3, 4, 6):
            assert degree_centralization(star_graph(leaves).degrees()) == pytest.approx(1.0)

    def test_degree_regular_is_zero(self):
        assert degree_centralization(cycle_graph("abcde").degrees()) == 0.0

    def test_degree_needs_three(self):
        with pytest.raises(ValueError):
            degree_centralization([1, 1])

    def test_betweenness_star_scores(self):
        assert betweenness_centralization([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_betweenness_equal_scores(self):
        assert betweenness_centralization([0.3, 0.3, 0.3]) == 0.0

    def test_betweenness_needs_three(self):
        with pytest.raises(ValueError):
            betweenness_centralization([0.1, 0.2])

    def test_centralization_of_published_betweenness_column(self):
        # transcribed normalized scores of the 61-journal board network;
        # the Freeman formula gives 0.148 on this column
        column = [
            0.027, 0.014, 0.008, 0.002, 0.028, 0.010, 0.003, 0.029, 0.020, 0.038,
            0.055, 0.166, 0.001, 0.001, 0.000, 0.000, 0.000, 0.099, 0.033, 0.016,
            0.104, 0.014, 0.000, 0.033, 0.028, 0.041, 0.016, 0.015, 0.000, 0.000,
            0.094, 0.005, 0.000, 0.000, 0.000, 0.000, 0.000, 0.079, 0.038, 0.009,
            0.000, 0.028, 0.004, 0.000, 0.028, 0.002, 0.000, 0.078, 0.004, 0.000,
            0.000, 0.000, 0.000, 0.000, 0.058, 0.000, 0.000, 0.000, 0.000, 0.000,
            0.000,
        ]
        assert len(column) == 61
        assert betweenness_centralization(column) == pytest.approx(0.148, abs=0.001)

    def test_closeness_star_is_one(self):
        assert closeness_centralization(star_graph(3)) == pytest.approx(1.0)

    def test_closeness_complete_is_zero(self):
        assert closeness_centralization(complete_graph(4)) == 0.0

    def test_closeness_uses_largest_component(self):
        net = star_graph(3)
        net.add_vertex("island1")
        net.add_vertex("island2")
        assert closeness_centralization(net) == pytest.approx(1.0)

    def test_closeness_ties_for_largest_go_to_the_first_listed(self):
        # a triangle and a 2-leaf star, interleaved: the one holding position
        # 0 is listed first and decides (the triangle is flat, the star not)
        lines = [("t0", "t1"), ("t1", "t2"), ("t0", "t2"), ("hub", "leaf0"), ("hub", "leaf1")]
        for order, expected in (
            (["t0", "hub", "t1", "leaf0", "t2", "leaf1"], 0.0),
            (["hub", "t0", "leaf0", "t1", "leaf1", "t2"], 1.0),
        ):
            net = OneModeNetwork(order)
            for u, v in lines:
                net.add_edge(u, v, 1)
            assert closeness_centralization(net) == pytest.approx(expected)

    def test_closeness_zero_below_three(self):
        assert closeness_centralization(path_graph("ab")) == 0.0
        assert closeness_centralization(OneModeNetwork()) == 0.0

    def test_closeness_matches_formula_from_oracle_distances(self):
        rng = random.Random(808)
        checked = 0
        while checked < 40:
            net = random_one_mode(rng, min_n=3, max_n=8)
            comps = {}
            for v in net.vertices:
                dist = brute_distances(net, v)
                comps[v] = frozenset(u for u, d in dist.items() if d is not None)
            largest = max(comps.values(), key=lambda c: (len(c), ))
            if len(largest) < 3:
                continue
            np = len(largest)
            closeness = []
            for v in sorted(largest):
                dist = brute_distances(net, v)
                closeness.append((np - 1) / sum(dist[u] for u in largest if u != v))
            best = max(closeness)
            expected = sum(best - c for c in closeness) * (2 * np - 3) / ((np - 1) * (np - 2))
            assert closeness_centralization(net) == pytest.approx(expected, abs=1e-9)
            checked += 1


class TestRankCompetition:
    def test_published_closeness_column_slice(self):
        assert rank_competition([0.449, 0.435, 0.414, 0.414, 0.410]) == [1, 2, 3, 3, 5]

    def test_all_equal(self):
        assert rank_competition([2.0, 2.0, 2.0]) == [1, 1, 1]

    def test_plain_ordering(self):
        assert rank_competition([3, 1, 2]) == [1, 3, 2]

    def test_ascending_direction(self):
        assert rank_competition([3, 1, 2], descending=False) == [3, 1, 2]

    def test_rank_appears_only_after_strictly_better(self):
        rng = random.Random(4)
        for _ in range(50):
            values = [rng.randint(0, 5) for _ in range(rng.randint(1, 12))]
            signed = [rng.choice([0.0, -0.0, 0.5, -0.5, 1e-300, 2.25]) for _ in values]
            for seq in (values, [float(v) for v in values], signed):
                for descending in (True, False):
                    ranks = rank_competition(seq, descending=descending)
                    for value, rank in zip(seq, ranks):
                        better = (u > value if descending else u < value for u in seq)
                        assert rank == 1 + sum(better)


class TestVertexMetricsAndAggregates:
    def test_closeness_oracle_agreement_both_variants(self):
        rng = random.Random(999)
        for _ in range(40):
            net = random_one_mode(rng, max_n=7)
            for variant in ("paper", "component"):
                for v in net.vertices:
                    assert closeness_centrality(net, v, variant) == pytest.approx(
                        brute_closeness(net, v, variant), abs=1e-9
                    )

    def test_vertex_metrics_on_star(self):
        vm = vertex_metrics(star_graph(3))
        hub = vm[0]
        assert hub.vertex == "hub"
        assert hub.degree == 3
        assert hub.normalized_degree == pytest.approx(1.0)
        assert hub.degree_rank == 1
        assert hub.betweenness_rank == 1
        leaf = vm[1]
        assert leaf.degree_rank == 2
        assert leaf.betweenness == 0.0

    def test_aggregates_identities(self):
        rng = random.Random(77)
        for _ in range(30):
            net = random_one_mode(rng, max_n=8)
            agg = network_aggregates(net)
            assert agg.mean_degree * agg.n == pytest.approx(2 * agg.m)
            assert agg.isolate_count == net.degrees().count(0)
            if agg.n >= 2 and agg.m >= 1:
                assert agg.density_loops_allowed < agg.density_no_loops

    def test_aggregates_empty_network(self):
        agg = network_aggregates(OneModeNetwork())
        assert (agg.n, agg.m, agg.component_count) == (0, 0, 0)
        assert agg.mean_degree == 0.0
