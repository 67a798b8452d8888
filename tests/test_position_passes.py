"""The seat store and the passes after the sweep, held to references.

Actors' stored events stay out of the cyclic garbage collector, and the
projection, the three writers, the line-value table, the slice summaries
and the closeness column, which work on vertex positions, give the same
networks, text, errors and floats as the name-based passes kept in
``tests/oracles.py``.
"""

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceSeats,
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


def test_a_one_board_actor_keeps_its_seat_as_a_bare_id():
    # 20,000 editors on one board each: with a dictionary per actor the
    # parse kept ~263 bytes per actor, with a bare event id ~80
    text = "actor,event\n" + "".join(f"editor {i:05d},J{i % 10}\n" for i in range(20_000))
    tracemalloc.start()
    try:
        net, diags = parse_csv_affiliations(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(net.actors) == 20_000 and net.seats() == 20_000
    assert kept < 128 * 20_000
    _assert_untracked_store(net)


# Event spellings where one id is a prefix or a substring of another, or
# normalizes to another; actor spellings in case variants, which
# casefold_actors merges, and ones that spell an event id.
_SEAT_EVENTS = ["J1", "J10", "1", "J", " J1 ", "10"]
_SEAT_ACTORS = ["Ann", "ann", " ANN", "Bo", "J1", "1"]
_SEAT_PROBES = ["J1", "J10", "1", "J", "10", "0", "J100", ""]


@settings(max_examples=400, deadline=None)
@given(
    casefold=st.booleans(),
    calls=st.lists(
        st.tuples(st.sampled_from(_SEAT_EVENTS), st.sampled_from(_SEAT_ACTORS)), max_size=24
    ),
)
def test_seat_store_matches_a_set_of_pairs(casefold, calls):
    net, ref = TwoModeNetwork(casefold_actors=casefold), ReferenceSeats(casefold)
    for event, actor in calls:
        assert net.add_affiliation(event, actor) == ref.add_affiliation(event, actor)
    assert net.events == tuple(ref.events) and net.actors == tuple(ref.actors)
    assert net.seats() == len(ref.pairs)
    assert repr(net) == (
        f"TwoModeNetwork(events={len(ref.events)}, actors={len(ref.actors)}, "
        f"seats={len(ref.pairs)})"
    )
    for actor, held in zip(net.actors, net.holdings()):
        want = ref.events_of(actor)
        # exactly the actors on two or more boards hold a dictionary
        assert type(net._actor_events[actor]) is (dict if len(want) > 1 else str)
        assert net.events_of(actor) == want
        assert len(held) == len(want) and sorted(held) == sorted(want)
        assert [p in held for p in _SEAT_PROBES] == [p in want for p in _SEAT_PROBES]
        assert held & set(_SEAT_PROBES) == want & set(_SEAT_PROBES)
    for event in net.events:
        assert net.members(event) == ref.members(event)
    if calls:
        _assert_untracked_store(net)

    # the same seats added actor by actor, each actor's boards in reverse
    same = TwoModeNetwork(casefold_actors=casefold)
    for event in ref.events:
        same.add_event(event)
    for actor in ref.actors:
        for event in sorted(ref.events_of(actor), key=ref.events.index, reverse=True):
            same.add_affiliation(event, actor)
    assert net == same
    several = [a for a in ref.actors if len(ref.events_of(a)) > 1]
    if several:  # one seat fewer
        fewer = TwoModeNetwork(casefold_actors=casefold)
        for event in ref.events:
            fewer.add_event(event)
        for actor in ref.actors:
            for event in sorted(ref.events_of(actor), key=ref.events.index)[actor in several :]:
                fewer.add_affiliation(event, actor)
        assert net != fewer

    events, actors = project_events(net), project_actors(net)
    assert events.vertices == tuple(ref.events) and actors.vertices == tuple(ref.actors)
    assert {(u, v): n for u, v, n in events.edges()} == ref.project(ref.events, ref.members)
    assert {(u, v): n for u, v, n in actors.edges()} == ref.project(ref.actors, ref.events_of)


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
    # actors of their own on one board, on two in either order, or on more
    boards = st.lists(st.sampled_from(_RAW_EVENTS), min_size=1, max_size=4, unique=True)
    for k, held in enumerate(draw(st.lists(boards, max_size=5))):
        for event in held:
            net.add_affiliation(event, f"g{k}")
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
        assert all(list(row) == sorted(row) for row in mine._rows)
        assert [mine.label(v) for v in mine.vertices] == [ref.label(v) for v in ref.vertices]
        assert list(mine.edges()) == list(ref.edges())
        assert write_dot(mine) == reference_write_dot(ref)
