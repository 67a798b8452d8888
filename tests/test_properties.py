"""Property-based checks of the structural invariants."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_one_mode

from interlock import (
    OneModeNetwork,
    TwoModeNetwork,
    betweenness_centrality,
    closeness_centrality,
    degree_distribution,
    line_multiplicity_distribution,
    m_slice,
    parse_net_one_mode,
    project_events,
    rank_competition,
    weak_components,
    write_net_one_mode,
)


@st.composite
def one_mode_nets(draw, max_n: int = 7, max_value: int = 6) -> OneModeNetwork:
    n = draw(st.integers(min_value=0, max_value=max_n))
    net = OneModeNetwork(f"v{i}" for i in range(n))
    pairs = list(combinations(net.vertices, 2))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_value),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    for (u, v), value in zip(pairs, values):
        if value:
            net.add_edge(u, v, value)
    return net


@st.composite
def two_mode_nets(draw, max_events: int = 6, max_actors: int = 8) -> TwoModeNetwork:
    n_events = draw(st.integers(min_value=0, max_value=max_events))
    n_actors = draw(st.integers(min_value=0, max_value=max_actors))
    net = TwoModeNetwork()
    for e in range(n_events):
        net.add_event(f"E{e}")
    flags = draw(
        st.lists(
            st.booleans(),
            min_size=n_events * n_actors,
            max_size=n_events * n_actors,
        )
    )
    for i, flag in enumerate(flags):
        if flag:
            net.add_affiliation(f"E{i % n_events}", f"a{i // n_events}")
    return net


@given(two_mode_nets())
def test_projection_satisfies_handshake_identity(two_mode):
    net = project_events(two_mode)
    validate_one_mode(net)
    assert sum(net.degrees()) == 2 * net.edge_count


@given(two_mode_nets())
def test_seats_equal_from_both_sides(two_mode):
    by_events = sum(len(two_mode.members(e)) for e in two_mode.events)
    by_actors = sum(len(two_mode.events_of(a)) for a in two_mode.actors)
    assert two_mode.seats() == by_events == by_actors


@given(two_mode_nets())
def test_projection_duality_identity(two_mode):
    total = sum(value for _, _, value in project_events(two_mode).edges())
    incidences = sum(
        len(two_mode.events_of(a)) * (len(two_mode.events_of(a)) - 1) // 2
        for a in two_mode.actors
    )
    assert total == incidences


@given(one_mode_nets())
def test_net_round_trip(net):
    assert parse_net_one_mode(write_net_one_mode(net)) == net


@given(one_mode_nets(), st.integers(min_value=1, max_value=6))
def test_slice_monotonicity(net, m):
    outer = {frozenset((u, v)) for u, v, _ in m_slice(net, m).edges()}
    inner = {frozenset((u, v)) for u, v, _ in m_slice(net, m + 1).edges()}
    assert inner <= outer


@given(one_mode_nets(), st.integers(min_value=1, max_value=6))
def test_component_refinement(net, m):
    coarse = [set(c) for c in weak_components(m_slice(net, m))]
    for fine in weak_components(m_slice(net, m + 1)):
        assert any(set(fine) <= big for big in coarse)


@given(one_mode_nets())
def test_components_partition_vertices(net):
    comps = weak_components(net)
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == sorted(net.vertices)
    assert len(flat) == len(set(flat))


@given(one_mode_nets())
def test_degree_distribution_shape(net):
    rows = degree_distribution(net).rows
    assert sum(freq for _, freq, _, _ in rows) == net.n
    cumulative = [cum for _, _, _, cum in rows]
    assert cumulative == sorted(cumulative)
    if net.n:
        assert abs(cumulative[-1] - 1.0) < 1e-12


@given(one_mode_nets())
def test_line_multiplicity_totals_edges(net):
    assert line_multiplicity_distribution(net).total == net.edge_count


@given(one_mode_nets())
def test_centrality_ranges(net):
    scores = betweenness_centrality(net)
    for v in net.vertices:
        assert 0.0 <= scores[v] <= 1.0 + 1e-12
        assert closeness_centrality(net, v) >= 0.0
        if net.n >= 2:
            assert 0.0 <= net.degree(v) / (net.n - 1) <= 1.0


@settings(max_examples=30)
@given(one_mode_nets())
def test_betweenness_is_deterministic(net):
    assert betweenness_centrality(net) == betweenness_centrality(net)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=20))
def test_rank_competition_is_consistent(values):
    floats = [float(v) for v in values]
    ranks = rank_competition(floats)
    for value, rank in zip(floats, ranks):
        assert rank == 1 + sum(1 for u in floats if u > value)
    # every awarded rank r has exactly r-1 strictly better values
    assert set(ranks) <= {1 + i for i in range(len(values))}
