"""The seat store and the passes after the sweep, held to references.

Actors' stored events stay out of the cyclic garbage collector, and the
projection, the three writers, the line-value table, the slice summaries
and the closeness column, which work on vertex positions, give the same
networks, text, errors and floats as the name-based passes kept in
``tests/oracles.py``.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_closeness_centrality,
    reference_line_multiplicity_distribution,
    reference_project_actors,
    reference_project_events,
    reference_slice_decomposition,
    reference_write_dot,
    reference_write_edge_list_csv,
    reference_write_net_one_mode,
)

from interlock import (
    DENSITY_LOOPS,
    DENSITY_NO_LOOPS,
    OneModeNetwork,
    TwoModeNetwork,
    closeness_centrality,
    line_multiplicity_distribution,
    parse_csv_affiliations,
    parse_net_two_mode,
    project_actors,
    project_events,
    slice_decomposition,
    vertex_metrics,
    write_dot,
    write_edge_list_csv,
    write_net_one_mode,
)


def _assert_untracked_store(net: TwoModeNetwork) -> None:
    stored = list(net._actor_events.values())
    assert stored and not any(map(gc.is_tracked, stored))
    for actor, held in zip(net.actors, net.holdings()):
        events = net.events_of(actor)
        assert len(held) == len(events)
        assert all(event in held for event in events) and "no such event" not in held
        assert held & set(net.events) == events


def test_seat_store_is_not_tracked_by_the_garbage_collector():
    csv_net, _ = parse_csv_affiliations("actor,event\na,J1\nb,J1\nb,J2\na,J1\n")
    net_net, _ = parse_net_two_mode('*Vertices 4 2\n1 "J1"\n2 "J2"\n3 "a"\n*Edges\n1 3\n2 3\n1 4\n')
    built = TwoModeNetwork()
    for event, actor in [("J1", "a"), ("J2", "a"), ("J1", "b"), ("J1", "a")]:
        built.add_affiliation(event, actor)
    for net in (csv_net, net_net, built):
        _assert_untracked_store(net)
    # what holdings() hands out reads like the set of the actor's events
    held = list(built.holdings())
    assert ["J1" in h for h in held] == [True, True]
    assert [len(h) for h in held] == [2, 1]
    assert held[0] & {"J2", "J9"} == {"J2"}
    assert [set(h) for h in held] == [set(built.events_of(a)) for a in built.actors]


# Vertex ids with the characters the writers quote or escape (among them a
# comma, a quote, a carriage return and a line feed inside the text, which
# make the CSV writer quote the cell), labels that differ from the ids
# (quotes, commas, backslashes, line breaks, blanks), and None for a vertex
# labelled by its id.
_ID_STEMS = ["J", "j,", 'q"', "back\\", "é", "a b", "7", "x\ty", "c\rr", "n\nl", 'm"i,d']
_LABELS = [
    None, None, "Journal", 'say "hi"', "a,b", "back\\slash", "two\nlines", "cr\rx", "",
    " pad ", "ü,\"\\", " sep",
]


@st.composite
def _valued_networks(draw):
    """A valued network of 0..8 vertices, isolates and several components
    included, values 1..4."""
    n = draw(st.integers(0, 8))
    net = OneModeNetwork()
    for i in range(n):
        net.add_vertex(f"{draw(st.sampled_from(_ID_STEMS))}{i}", draw(st.sampled_from(_LABELS)))
    pairs = [(u, v) for k, u in enumerate(net.vertices) for v in net.vertices[k + 1:]]
    values = draw(st.lists(st.integers(0, 4), min_size=len(pairs), max_size=len(pairs)))
    for (u, v), value in zip(pairs, values):
        if value and draw(st.booleans()):
            net.add_edge(u, v, value)
    return net


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _hexed(value):
    """``value`` with every float spelled by ``float.hex`` and every named
    tuple or list as a plain tuple, so equal results compare bit for bit."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (list, tuple)):
        return tuple(map(_hexed, value))
    return value


@settings(max_examples=300, deadline=None)
@given(net=_valued_networks())
def test_writers_match_name_based_writers(net):
    assert _outcome(write_net_one_mode, net) == _outcome(reference_write_net_one_mode, net)
    assert write_edge_list_csv(net) == reference_write_edge_list_csv(net)
    assert write_dot(net) == reference_write_dot(net)


@settings(max_examples=300, deadline=None)
@given(net=_valued_networks())
def test_line_values_and_slices_match_name_based_passes(net):
    got = line_multiplicity_distribution(net)
    assert _hexed(got) == _hexed(reference_line_multiplicity_distribution(net))
    for m in range(1, got.max_value + 2):
        for variant in (DENSITY_NO_LOOPS, DENSITY_LOOPS):
            mine = slice_decomposition(net, m, variant)
            ref = reference_slice_decomposition(net, m, variant)
            assert mine.network == ref.network
            assert _hexed(mine.components) == _hexed(ref.components)
            assert mine.m == ref.m


@settings(max_examples=300, deadline=None)
@given(net=_valued_networks())
def test_closeness_column_matches_per_vertex_closeness(net):
    for variant in ("paper", "component"):
        want = [float.hex(reference_closeness_centrality(net, v, variant)) for v in net.vertices]
        assert [float.hex(row.closeness) for row in vertex_metrics(net, variant)] == want
        assert [float.hex(closeness_centrality(net, v, variant)) for v in net.vertices] == want


_RAW_EVENTS = ["E1", " E1", "\u00e9", "e\u0301", "J,2", 'J"3', "7"]
_RAW_ACTORS = ["a", "A", " a ", "b", "c\\d", "\u01f0", "9"]


@st.composite
def _two_mode_networks(draw):
    """Events registered under raw spellings that normalize, some with labels
    of their own, and seats in any order, repeats included."""
    net = TwoModeNetwork(casefold_actors=draw(st.booleans()))
    for raw in draw(st.lists(st.sampled_from(_RAW_EVENTS), max_size=5)):
        net.add_event(raw, draw(st.sampled_from(_LABELS)))
    seats = st.tuples(st.sampled_from(_RAW_EVENTS), st.sampled_from(_RAW_ACTORS))
    for event, actor in draw(st.lists(seats, max_size=14)):
        net.add_affiliation(event, actor)
    return net


@settings(max_examples=300, deadline=None)
@given(two_mode=_two_mode_networks())
def test_projections_match_name_based_projection(two_mode):
    for project, reference in (
        (project_events, reference_project_events),
        (project_actors, reference_project_actors),
    ):
        mine, ref = project(two_mode), reference(two_mode)
        assert mine == ref
        assert [mine.label(v) for v in mine.vertices] == [ref.label(v) for v in ref.vertices]
        assert list(mine.edges()) == list(ref.edges())
        assert write_dot(mine) == reference_write_dot(ref)
