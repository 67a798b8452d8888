import pytest

from oracles import validate_two_mode

from interlock import (
    OneModeNetwork,
    TwoModeNetwork,
    normalize_identifier,
    pair_density,
)


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

    def test_integer_view_is_sorted_and_cached_until_changed(self):
        net = OneModeNetwork(["C", "A", "B"])
        net.add_edge("B", "C", 1)
        net.add_edge("B", "A", 1)
        view = net.frozen()
        assert view.vertices == ("C", "A", "B")
        assert view.adjacency == ([2], [2], [0, 1])
        assert net.frozen() is view
        assert net.neighbors("B") == ("C", "A")
        net.add_vertex("D")
        assert net.frozen() is not view
        net.add_edge("D", "B", 2)
        assert net.neighbors("B") == ("C", "A", "D")
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
