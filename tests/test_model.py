import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PlainNetwork, validate_one_mode, validate_two_mode

from interlock import (
    OneModeNetwork,
    TwoModeNetwork,
    normalize_identifier,
    pair_density,
    project_actors,
)
from interlock.metrics import path_sums


class TestAddAffiliation:
    def test_single_insertion(self):
        net = TwoModeNetwork()
        assert net.add_affiliation("J1", "a") is True
        assert net.events == ("J1",)
        assert net.actors == ("a",)
        assert net.seats() == 1

    def test_idempotent(self):
        net = TwoModeNetwork()
        net.add_affiliation("J1", "a")
        assert net.add_affiliation("J1", "a") is False
        assert net.seats() == 1

    def test_three_distinct_pairs(self):
        net = TwoModeNetwork()
        for event, actor in [("J1", "a"), ("J1", "b"), ("J2", "b")]:
            net.add_affiliation(event, actor)
        assert len(net.events) == 2
        assert len(net.actors) == 2
        assert net.seats() == 3

    def test_empty_identifier_rejected(self):
        net = TwoModeNetwork()
        with pytest.raises(ValueError):
            net.add_affiliation("", "a")
        with pytest.raises(ValueError):
            net.add_affiliation("J1", "   ")

    def test_whitespace_trimmed_and_nfc_composed(self):
        net = TwoModeNetwork()
        net.add_affiliation(" J1 ", "José")  # decomposed accent
        assert net.add_affiliation("J1", "José") is False
        assert net.actors == ("José",)

    def test_casefold_only_when_enabled(self):
        plain = TwoModeNetwork()
        plain.add_affiliation("J1", "Anna")
        plain.add_affiliation("J1", "anna")
        assert len(plain.actors) == 2

        folded = TwoModeNetwork(casefold_actors=True)
        folded.add_affiliation("J1", "Anna")
        assert folded.add_affiliation("J1", "anna") is False
        assert folded.actors == ("anna",)

    def test_event_and_actor_namespaces_are_disjoint(self):
        net = TwoModeNetwork()
        net.add_affiliation("X", "X")
        assert net.events == ("X",)
        assert net.actors == ("X",)
        assert net.members("X") == frozenset({"X"})

    def test_membership_lookup_is_symmetric(self):
        net = TwoModeNetwork()
        pairs = [("J1", "a"), ("J1", "b"), ("J2", "b"), ("J3", "c")]
        for event, actor in pairs:
            net.add_affiliation(event, actor)
        for event in net.events:
            for actor in net.members(event):
                assert event in net.events_of(actor)
        for actor in net.actors:
            for event in net.events_of(actor):
                assert actor in net.members(event)
        validate_two_mode(net)

    def test_seats_counted_from_either_side(self):
        net = TwoModeNetwork()
        for event, actor in [("J1", "a"), ("J1", "b"), ("J2", "b"), ("J2", "c")]:
            net.add_affiliation(event, actor)
        by_events = sum(len(net.members(e)) for e in net.events)
        by_actors = sum(len(net.events_of(a)) for a in net.actors)
        assert net.seats() == by_events == by_actors == 4

    def test_empty_board_allowed(self):
        net = TwoModeNetwork()
        net.add_event("Lonely Journal")
        assert net.events == ("Lonely Journal",)
        assert net.members("Lonely Journal") == frozenset()
        assert net.seats() == 0


class TestAffiliationStats:
    def test_empty_network(self):
        net = TwoModeNetwork()
        assert (net.seats(), len(net.actors), len(net.events)) == (0, 0, 0)

    def test_two_boards(self):
        net = TwoModeNetwork()
        for event, actor in [("J1", "a"), ("J1", "b"), ("J2", "b")]:
            net.add_affiliation(event, actor)
        assert (net.seats(), len(net.actors), len(net.events)) == (3, 2, 2)
        validate_two_mode(net)

    def test_census_scale_averages(self):
        # 2003 seats over 61 boards held by 1752 people: mean board size
        # 32.8, participation rate 1.14
        net = TwoModeNetwork()
        for i in range(1752):
            net.add_affiliation(f"J{i % 61}", f"a{i}")
        for i in range(251):
            net.add_affiliation(f"J{(i + 1) % 61}", f"a{i}")
        assert (net.seats(), len(net.actors), len(net.events)) == (2003, 1752, 61)
        assert net.seats() / len(net.events) == pytest.approx(32.8, abs=0.05)
        assert net.seats() / len(net.actors) == pytest.approx(1.14, abs=0.005)
        validate_two_mode(net)


class TestOneModeNetwork:
    def test_add_edge_validations(self):
        net = OneModeNetwork(["A", "B"])
        with pytest.raises(ValueError):
            net.add_edge("A", "A", 1)
        with pytest.raises(ValueError):
            net.add_edge("A", "C", 1)
        with pytest.raises(ValueError):
            net.add_edge("A", "B", 0)
        # a bool is an int, but no writer or reader takes "True" as a value
        with pytest.raises(ValueError, match=r"^edge value must be a positive integer, got True$"):
            net.add_edge("A", "B", True)
        net.add_edge("A", "B", 2)
        with pytest.raises(ValueError):
            net.add_edge("B", "A", 1)

    def test_duplicate_vertex_rejected(self):
        net = OneModeNetwork(["A"])
        with pytest.raises(ValueError):
            net.add_vertex("A")

    def test_edges_listed_once_in_vertex_order(self):
        net = OneModeNetwork(["C", "A", "B"])
        net.add_edge("B", "A", 1)
        net.add_edge("C", "B", 4)
        assert list(net.edges()) == [("C", "B", 4), ("A", "B", 1)]

    def test_path_sums_are_cached_until_changed(self):
        net = OneModeNetwork(["C", "A", "B"])
        net.add_edge("B", "A", 1)
        net.add_edge("B", "C", 1)  # B's row is out of order until read
        sums = path_sums(net)
        assert path_sums(net) is sums
        assert [list(row) for row in net._rows] == [[2], [2], [0, 1]]
        assert net.neighbors("B") == ("C", "A")
        net.add_vertex("D")
        grown = path_sums(net)
        assert grown is not sums and path_sums(net) is grown
        net.add_edge("D", "B", 2)
        changed = path_sums(net)
        assert changed is not grown and path_sums(net) is changed
        assert net.neighbors("B") == ("C", "A", "D")
        rebuilt = OneModeNetwork(["C", "A", "B", "D"])
        for u, v, value in [("A", "B", 1), ("B", "D", 2), ("C", "B", 1)]:
            rebuilt.add_edge(u, v, value)
        assert changed == path_sums(rebuilt)
        with pytest.raises(ValueError):
            net.neighbors("Z")

    def test_value_and_degree(self):
        net = OneModeNetwork(["A", "B", "C"])
        net.add_edge("A", "B", 5)
        assert net.value("A", "B") == net.value("B", "A") == 5
        assert net.value("A", "C") == 0
        assert net.degree("A") == 1
        assert net.degrees() == [1, 1, 0]

    def test_labels_default_to_ids(self):
        net = OneModeNetwork(["A"], labels={"A": "Journal A"})
        net.add_vertex("B")
        assert net.label("A") == "Journal A"
        assert net.label("B") == "B"

    def test_equality(self):
        left = OneModeNetwork(["A", "B"])
        left.add_edge("A", "B", 2)
        right = OneModeNetwork(["A", "B"])
        right.add_edge("B", "A", 2)
        assert left == right
        right_other = OneModeNetwork(["B", "A"])
        right_other.add_edge("A", "B", 2)
        assert left != right_other


def test_pair_density_variants():
    assert pair_density(61, 162, "loops") == pytest.approx(0.087073, abs=1e-6)
    assert pair_density(61, 162, "no-loops") == pytest.approx(0.088525, abs=1e-6)
    assert pair_density(1, 0, "no-loops") == 0.0
    assert pair_density(0, 0, "loops") == 0.0
    with pytest.raises(ValueError):
        pair_density(3, 1, "bogus")


def test_normalize_identifier():
    assert normalize_identifier("  token  ") == "token"
    assert normalize_identifier("ABC", casefold=True) == "abc"
    with pytest.raises(ValueError):
        normalize_identifier(" \t ")


# Characters whose case folding decomposes (U+01F0, U+0390, U+1E96), maps a
# combining mark to a letter (U+0345), or expands (ß, ﬃ, İ), plus combining
# marks that compose with a preceding letter.
_FOLD_TRICKY = "\u01f0\u0390\u1e96\u0345\u00df\ufb03\u0130jJ\u0301\u030c\u0323 "


@settings(max_examples=500, deadline=None)
@given(
    raw=st.text(st.one_of(st.characters(), st.sampled_from(_FOLD_TRICKY))),
    casefold=st.booleans(),
)
def test_normalized_identifier_is_a_fixed_point(raw, casefold):
    """An id normalizes to itself, so a one-mode network built from stored
    ids (``add_vertex`` normalizes again) keeps them unchanged."""
    try:
        token = normalize_identifier(raw, casefold=casefold)
    except ValueError:
        return
    assert normalize_identifier(token) == token
    assert normalize_identifier(token, casefold=casefold) == token


def test_casefolded_actor_keeps_its_id_in_the_actor_projection():
    net = TwoModeNetwork(casefold_actors=True)
    for event, actor in [("J1", "\u01f0"), ("J1", "b"), ("J2", "\u01f0")]:
        net.add_affiliation(event, actor)
    assert net.actors == ("\u01f0", "b")  # folded to j + U+030C, composed again
    projected = project_actors(net)
    assert projected.has_vertex(net.actors[0])
    assert projected.vertices == net.actors
    assert projected.value("\u01f0", "b") == 1


# Vertex names: stored as given, trimmed, NFC-composed, or rejected as
# empty.  Line endpoints are mostly stored ids, sometimes an id never added
# ("E") or a raw spelling that only matches once normalized (" B ",
# decomposed "José"); values are mostly valid.
_KNOWN = ("A", "B", "C", "D", "F", "Jos\u00e9")
_VERTEX_NAMES = _KNOWN * 2 + (" B ", "Jose\u0301", "", "  ")
_ENDPOINTS = _KNOWN * 4 + ("E", " B ", "Jose\u0301")
_VALUES = (1, 2, 3, 7) * 2 + (0, -2, 2.0, True)


@st.composite
def _one_mode_ops(draw):
    """Vertex and line additions in a shuffled order, most lines after all
    vertices (so they meet known endpoints), with full checks in between."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    vertex_ops = [
        ("vertex", rnd.choice(_VERTEX_NAMES), rnd.choice((None, "L1", "L2")))
        for _ in range(rnd.randint(0, 20))
    ]
    edge_ops = [
        ("edge", rnd.choice(_ENDPOINTS), rnd.choice(_ENDPOINTS), rnd.choice(_VALUES))
        for _ in range(rnd.randint(0, 40))
    ]
    early = rnd.randint(0, min(len(edge_ops), 8))
    ops = vertex_ops + edge_ops[:early]
    rnd.shuffle(ops)
    ops += edge_ops[early:]
    for _ in range(rnd.randint(0, 3)):
        ops.insert(rnd.randint(0, len(ops)), ("check",))
    return ops


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except ValueError as exc:
        return "rejected", str(exc)


def _rebuilt(ref: PlainNetwork, order, lines) -> OneModeNetwork:
    out = OneModeNetwork()
    for v in order:
        out.add_vertex(v, ref.labels.get(v))
    for pair in lines:
        u, v = sorted(pair)
        out.add_edge(u, v, ref.lines[pair])
    return out


def _assert_matches(net: OneModeNetwork, ref: PlainNetwork, rnd) -> None:
    order = ref.vertices
    assert net.vertices == tuple(order)
    assert net.n == len(order)
    assert net.edge_count == len(ref.lines)
    assert net.degrees() == [len(ref.neighbors(v)) for v in order]
    for v in order:
        assert net.has_vertex(v)
        assert net.label(v) == ref.labels.get(v, v)
        assert net.degree(v) == len(ref.neighbors(v))
        assert net.neighbors(v) == tuple(ref.neighbors(v))
        for w in order:
            assert net.value(v, w) == ref.value(v, w)
    for name in _ENDPOINTS:
        if name not in order:
            message = f"unknown vertex: {name!r}"
            for call, args in (
                (net.degree, (name,)),
                (net.neighbors, (name,)),
                (net.index, (name,)),
                (net.value, (name, name)),
            ):
                assert _outcome(call, *args) == ("rejected", message)
            if order:
                assert _outcome(net.value, order[0], name) == ("rejected", message)
    assert list(net.edges()) == [
        (u, w, ref.lines[frozenset((u, w))])
        for i, u in enumerate(order)
        for w in order[i + 1 :]
        if frozenset((u, w)) in ref.lines
    ]
    # the reads above sorted the rows: each one's keys ascend
    assert [list(row) for row in net._rows] == [
        [order.index(w) for w in ref.neighbors(v)] for v in order
    ]
    validate_one_mode(net)
    lines = list(ref.lines)
    rnd.shuffle(lines)
    assert net == _rebuilt(ref, order, lines)
    if len(order) > 1:
        swapped = [order[1], order[0], *order[2:]]
        assert net != _rebuilt(ref, swapped, lines)
        relabelled = _rebuilt(ref, order, lines)
        relabelled.set_label(order[0], net.label(order[0]) + "*")
        assert net != relabelled
    if lines:
        revalued = _rebuilt(ref, order, lines[1:])
        u, v = sorted(lines[0])
        revalued.add_edge(u, v, ref.lines[lines[0]] + 1)
        assert net != revalued


@settings(max_examples=300, deadline=None)
@given(ops=_one_mode_ops(), rnd=st.randoms(use_true_random=False))
def test_one_mode_network_matches_plain_reference(ops, rnd):
    """Random add_vertex/add_edge sequences, rejected operations included,
    read the same through every public query as a plain pair -> value dict;
    rejections carry the same message."""
    net, ref = OneModeNetwork(), PlainNetwork()
    for op in ops:
        if op[0] == "check":
            _assert_matches(net, ref, rnd)
            continue
        call, ref_call = (
            (net.add_vertex, ref.add_vertex) if op[0] == "vertex" else (net.add_edge, ref.add_edge)
        )
        assert _outcome(call, *op[1:]) == _outcome(ref_call, *op[1:])
    _assert_matches(net, ref, rnd)


_EVENT_TOKENS = ("J1", " J1", "J2", "Jose\u0301", "Jos\u00e9", "J3")
_ACTOR_TOKENS = ("a", "A", " a ", "b", "B", "c")


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("event"), st.sampled_from(_EVENT_TOKENS)),
            st.tuples(
                st.just("seat"), st.sampled_from(_EVENT_TOKENS), st.sampled_from(_ACTOR_TOKENS)
            ),
        ),
        max_size=30,
    ),
    casefold=st.booleans(),
)
def test_two_mode_network_keeps_encounter_order(ops, casefold):
    net = TwoModeNetwork(casefold_actors=casefold)
    events: list[str] = []
    actors: list[str] = []
    seats: list[tuple[str, str]] = []
    for op in ops:
        eid = unicodedata.normalize("NFC", op[1].strip())
        if eid not in events:
            events.append(eid)
        if op[0] == "event":
            assert net.add_event(op[1]) == eid
            continue
        aid = unicodedata.normalize("NFC", op[2].strip())
        aid = aid.casefold() if casefold else aid
        if aid not in actors:
            actors.append(aid)
        assert net.add_affiliation(op[1], op[2]) is ((eid, aid) not in seats)
        if (eid, aid) not in seats:
            seats.append((eid, aid))
    assert net.events == tuple(events)
    assert net.actors == tuple(actors)
    assert net.seats() == len(seats)
    for e in events:
        assert net.members(e) == {a for x, a in seats if x == e}
    for a in actors:
        assert net.events_of(a) == {e for e, x in seats if x == a}
    assert _outcome(net.members, "J9") == ("rejected", "unknown event: 'J9'")
    assert _outcome(net.events_of, "z") == ("rejected", "unknown actor: 'z'")
    assert repr(net) == (
        f"TwoModeNetwork(events={len(events)}, actors={len(actors)}, seats={len(seats)})"
    )

    def replayed(event_order, seat_order):
        out = TwoModeNetwork(casefold_actors=casefold)
        for e in event_order:
            out.add_event(e)
        for e, a in seat_order:
            out.add_affiliation(e, a)
        return out

    assert net == replayed(events, seats)
    if len(events) > 1:
        assert net != replayed(events[::-1], seats)
    reordered = replayed(events, seats[::-1])
    assert (net == reordered) is (reordered.actors == net.actors)
