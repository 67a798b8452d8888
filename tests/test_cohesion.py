import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_components,
    component_summary,
    random_one_mode,
    reference_slice_decomposition,
    validate_one_mode,
)

from interlock import (
    DENSITY_LOOPS,
    DENSITY_NO_LOOPS,
    OneModeNetwork,
    line_multiplicity_distribution,
    m_slice,
    slice_decomposition,
    weak_components,
)


def valued_net(edges: list[tuple[str, str, int]]) -> OneModeNetwork:
    names = []
    for u, v, _ in edges:
        for x in (u, v):
            if x not in names:
                names.append(x)
    net = OneModeNetwork(names)
    for u, v, value in edges:
        net.add_edge(u, v, value)
    return net


class TestLineMultiplicity:
    def test_zero_rows_fill_gaps(self):
        net = valued_net([("a", "b", 1), ("a", "c", 1), ("b", "c", 3)])
        dist = line_multiplicity_distribution(net)
        assert [row[:2] for row in dist.rows] == [(1, 2), (2, 0), (3, 1)]
        assert dist.max_value == 3
        assert dist.total == 3

    def test_edgeless_network(self):
        dist = line_multiplicity_distribution(OneModeNetwork(["a", "b"]))
        assert dist.rows == []
        assert dist.max_value == 0
        assert dist.total == 0

    def test_relative_frequencies(self):
        net = valued_net([("a", "b", 2), ("c", "d", 2)])
        dist = line_multiplicity_distribution(net)
        assert dist.rows == [(1, 0, 0.0), (2, 2, 1.0)]


class TestMSlice:
    def test_threshold_one_is_identity(self):
        net = valued_net([("a", "b", 1), ("b", "c", 5)])
        assert m_slice(net, 1) == net

    def test_filters_by_value(self):
        net = valued_net([("a", "b", 1), ("b", "c", 3), ("c", "d", 5)])
        sliced = m_slice(net, 3)
        assert sliced.edge_count == 2
        assert sliced.vertices == net.vertices
        assert sliced.value("b", "c") == 3

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            m_slice(OneModeNetwork(["a"]), 0)

    def test_monotone_in_threshold(self):
        rng = random.Random(2718)
        for _ in range(60):
            net = random_one_mode(rng, max_n=7, max_value=5)
            for m in range(1, 6):
                larger = {frozenset((u, v)) for u, v, _ in m_slice(net, m).edges()}
                smaller = {frozenset((u, v)) for u, v, _ in m_slice(net, m + 1).edges()}
                assert smaller <= larger

    def test_matches_a_checked_rebuild_and_leaves_the_base_alone(self):
        rng = random.Random(1618)
        for _ in range(60):
            net = random_one_mode(rng, max_n=7, max_value=5)
            for v in net.vertices[::2]:
                net.set_label(v, v.upper())
            base = [(u, v, value) for u, v, value in net.edges()]
            for m in range(1, 7):
                want = OneModeNetwork()
                for v in net.vertices:
                    want.add_vertex(v, net.label(v))
                for u, v, value in base:
                    if value >= m:
                        want.add_edge(u, v, value)
                sliced = m_slice(net, m)
                validate_one_mode(sliced)
                assert sliced == want
                assert list(sliced.edges()) == list(want.edges())
                sliced.add_vertex("extra")
                for u, v in combinations(net.vertices, 2):
                    if not sliced.value(u, v):
                        sliced.add_edge(u, v, 9)
            assert list(net.edges()) == base
            assert "extra" not in net.vertices


class TestWeakComponents:
    def test_edgeless_gives_singletons(self):
        assert weak_components(OneModeNetwork(["a", "b", "c"])) == [["a"], ["b"], ["c"]]

    def test_order_follows_first_member(self):
        net = OneModeNetwork(["d", "a", "c", "b"])
        net.add_edge("d", "b", 1)
        net.add_edge("a", "c", 1)
        assert weak_components(net) == [["d", "b"], ["a", "c"]]

    def test_sizes_sum_to_n(self):
        rng = random.Random(11)
        for _ in range(60):
            net = random_one_mode(rng, max_n=10)
            comps = weak_components(net)
            assert sum(len(c) for c in comps) == net.n
            flat = [v for comp in comps for v in comp]
            assert sorted(flat) == sorted(net.vertices)

    def test_matches_transitive_closure_oracle(self):
        rng = random.Random(600)
        for _ in range(100):
            net = random_one_mode(rng, max_n=10)
            got = {frozenset(c) for c in weak_components(net)}
            expected = {frozenset(c) for c in brute_components(net)}
            assert got == expected

    def test_refinement_under_increasing_threshold(self):
        rng = random.Random(1234)
        for _ in range(60):
            net = random_one_mode(rng, max_n=7, max_value=4)
            for m in range(1, 5):
                coarse = weak_components(m_slice(net, m))
                fine = weak_components(m_slice(net, m + 1))
                for small in fine:
                    assert any(set(small) <= set(big) for big in coarse)


class TestComponentSummary:
    def test_complete_triangle(self):
        net = valued_net([("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
        summary = component_summary(net, ["a", "b", "c"])
        assert (summary.size, summary.edge_count) == (3, 3)
        assert summary.density == pytest.approx(1.0)

    def test_path_of_three(self):
        net = valued_net([("a", "b", 1), ("b", "c", 1)])
        summary = component_summary(net, ["a", "b", "c"])
        assert summary.edge_count == 2
        assert summary.density == pytest.approx(2 / 3, abs=1e-3)

    def test_thirteen_vertices_nineteen_edges(self):
        # density matches 19/C(13,2)
        names = [f"n{i}" for i in range(13)]
        net = OneModeNetwork(names)
        pairs = list(combinations(names, 2))[:19]
        for u, v in pairs:
            net.add_edge(u, v, 3)
        summary = component_summary(net, names)
        assert summary.density == pytest.approx(0.244, abs=0.001)
        assert summary.density == pytest.approx(0.24, abs=0.01)

    def test_nine_vertices_seventeen_edges(self):
        # density matches 17/C(9,2)
        names = [f"n{i}" for i in range(9)]
        net = OneModeNetwork(names)
        for u, v in list(combinations(names, 2))[:17]:
            net.add_edge(u, v, 3)
        summary = component_summary(net, names)
        assert summary.density == pytest.approx(0.472, abs=0.001)

    def test_vertex_outside_network_rejected(self):
        net = valued_net([("a", "b", 1)])
        with pytest.raises(ValueError):
            component_summary(net, ["a", "zz"])

    def test_counts_only_induced_edges(self):
        net = valued_net([("a", "b", 1), ("b", "c", 1)])
        summary = component_summary(net, ["a", "b"])
        assert summary.edge_count == 1

    def test_edge_count_matches_brute_count_on_arbitrary_subsets(self):
        rng = random.Random(31)
        for _ in range(60):
            net = random_one_mode(rng, max_n=12)
            picked = [rng.choice(net.vertices) for _ in range(rng.randint(0, 2 * net.n))]
            rng.shuffle(picked)
            summary = component_summary(net, picked)
            inside = set(picked)
            assert summary.members == [v for v in net.vertices if v in inside]
            assert summary.size == len(inside)
            assert summary.edge_count == sum(
                1 for u, v, _ in net.edges() if u in inside and v in inside
            )

    def test_loops_variant(self):
        net = valued_net([("a", "b", 1)])
        summary = component_summary(net, ["a", "b"], "loops")
        assert summary.density == pytest.approx(0.5)


class TestSliceDecomposition:
    def test_components_partition_slice_vertices(self):
        net = valued_net(
            [("a", "b", 3), ("b", "c", 1), ("d", "e", 2), ("e", "f", 2)]
        )
        deco = slice_decomposition(net, 2)
        assert deco.m == 2
        assert deco.network.edge_count == 3
        members = [tuple(c.members) for c in deco.components]
        assert members == [("a", "b"), ("c",), ("d", "e", "f")]
        assert sum(c.size for c in deco.components) == net.n

    def test_retained_edges_meet_threshold(self):
        rng = random.Random(52)
        for _ in range(40):
            net = random_one_mode(rng, max_n=7, max_value=5)
            for m in (1, 2, 3):
                deco = slice_decomposition(net, m)
                assert all(value >= m for _, _, value in deco.network.edges())


@st.composite
def _isolate_mixes(draw):
    """Networks of up to 14 journals that are all isolates, that have none,
    or that interleave isolates with component members in vertex order.
    Each journal drawn to have a line gets one to another such journal, so
    only the slices, by dropping weak lines, make isolates of those."""
    n = draw(st.integers(0, 14))
    shape = draw(st.sampled_from(["isolates", "no isolates", "interleaved"]))
    if shape == "interleaved":
        linked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        linked = [shape == "no isolates" and n > 1] * n
    net = OneModeNetwork(f"v{i:02d}" for i in range(n))
    ids = [v for v, keep in zip(net.vertices, linked) if keep]
    if len(ids) < 2:
        return net
    for u in ids:
        v = draw(st.sampled_from([w for w in ids if w != u]))
        if not net.value(u, v):
            net.add_edge(u, v, draw(st.integers(1, 4)))
    return net


@settings(max_examples=300, deadline=None)
@given(net=_isolate_mixes())
def test_isolates_and_components_match_the_references(net):
    for m in range(1, 6):
        sliced = m_slice(net, m)
        want = [sorted(c, key=sliced.index) for c in brute_components(sliced)]
        assert weak_components(sliced) == want
        for variant in (DENSITY_NO_LOOPS, DENSITY_LOOPS):
            assert slice_decomposition(net, m, variant) == reference_slice_decomposition(
                net, m, variant
            )


def test_isolates_are_listed_without_a_traversal(monkeypatch):
    """k isolates and one line: only the line's two ends are walked."""
    calls = []
    neighbors = OneModeNetwork.neighbors
    monkeypatch.setattr(
        OneModeNetwork, "neighbors", lambda net, v: calls.append(v) or neighbors(net, v)
    )
    net = OneModeNetwork(f"i{k}" for k in range(40))
    net.add_vertex("a")
    net.add_vertex("b")
    net.add_edge("a", "b", 2)
    for k in range(40, 80):
        net.add_vertex(f"i{k}")
    components = weak_components(net)
    assert sorted(calls) == ["a", "b"]
    assert components == [[f"i{k}"] for k in range(40)] + [["a", "b"]] + [
        [f"i{k}"] for k in range(40, 80)
    ]
