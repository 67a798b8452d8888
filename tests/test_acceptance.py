"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
from itertools import combinations

import pytest

from oracles import (
    brute_betweenness,
    brute_closeness,
    brute_project_events,
    havel_hakimi_graph,
    random_one_mode,
    random_two_mode,
    validate_one_mode,
)

from interlock import (
    OneModeNetwork,
    betweenness_centrality,
    closeness_centrality,
    closeness_centralization,
    degree_centralization,
    degree_census_aggregates,
    degree_distribution,
    degree_stats,
    density,
    line_multiplicity_distribution,
    m_slice,
    parse_degree_list_csv,
    parse_net_one_mode,
    project_events,
    rank_competition,
    vertex_metrics,
    weak_components,
    write_net_one_mode,
)
from interlock.data import TABLE2_DEGREES, load_text
from interlock.report import aggregates_to_dict

# transcribed published tables for the 61-journal board network
DEGREE_DIST_ROWS = [
    (0, 10, 0.164, 0.164),
    (1, 7, 0.115, 0.279),
    (2, 7, 0.115, 0.393),
    (3, 6, 0.098, 0.492),
    (5, 4, 0.066, 0.557),
    (6, 5, 0.082, 0.639),
    (7, 2, 0.033, 0.672),
    (8, 4, 0.066, 0.738),
    (9, 4, 0.066, 0.803),
    (10, 3, 0.049, 0.852),
    (12, 2, 0.033, 0.885),
    (13, 3, 0.049, 0.934),
    (14, 2, 0.033, 0.967),
    (16, 2, 0.033, 1.000),
]

LINE_VALUE_FREQS = {1: 90, 2: 33, 3: 15, 4: 8, 5: 5, 6: 7, 7: 1, 11: 1, 12: 1, 16: 1}

DEGREE_TO_RANK = {
    16: 1, 14: 3, 13: 5, 12: 8, 10: 10, 9: 13, 8: 17, 7: 21,
    6: 23, 5: 28, 3: 32, 2: 38, 1: 45, 0: 52,
}


def fixture_degrees() -> list[int]:
    degrees, _ = parse_degree_list_csv(load_text(TABLE2_DEGREES))
    return degrees


def report_line(number: int, label: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {verdict}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_degree_sequence_reproduction():
    degrees = fixture_degrees()
    failures = []
    if len(degrees) != 61:
        failures.append(f"expected 61 degrees, got {len(degrees)}")
    if sum(degrees) != 324:
        failures.append(f"degree total {sum(degrees)} != 324")
    mean, median, sd = degree_stats(degrees)
    if abs(mean - 5.31) > 0.01:
        failures.append(f"mean {mean}")
    if median != 5:
        failures.append(f"median {median}")
    if abs(sd - 4.66) > 0.01:
        failures.append(f"sd {sd}")
    centralization = degree_centralization(degrees)
    if abs(centralization - 0.184) > 0.001:
        failures.append(f"degree centralization {centralization}")
    report_line(1, "degree-sequence reproduction", failures)


def test_criterion_2_degree_distribution_reproduction():
    net = havel_hakimi_graph(fixture_degrees())
    assert sorted(net.degrees()) == sorted(fixture_degrees())
    rows = degree_distribution(net).rows
    failures = []
    if len(rows) != 14:
        failures.append(f"expected 14 rows, got {len(rows)}")
    for got, expected in zip(rows, DEGREE_DIST_ROWS):
        if got[0] != expected[0] or got[1] != expected[1]:
            failures.append(f"row {expected[0]}: got {got[:2]}")
        if abs(got[2] - expected[2]) > 0.0005 or abs(got[3] - expected[3]) > 0.0005:
            failures.append(f"row {expected[0]} frequencies: got {got[2:]}")
    if sum(freq for _, freq, _, _ in rows) != 61:
        failures.append("frequencies do not sum to 61")
    if abs(rows[-1][3] - 1.000) > 0.001:
        failures.append(f"cumulative ends at {rows[-1][3]}")
    report_line(2, "degree distribution reproduction", failures)


def test_criterion_3_density_arithmetic():
    degrees = fixture_degrees()
    aggregates = aggregates_to_dict(degree_census_aggregates(degrees))
    failures = []
    if abs(aggregates["densityLoopsAllowed"] - 0.0871) > 0.0005:
        failures.append(f"loops-allowed {aggregates['densityLoopsAllowed']}")
    if abs(aggregates["densityNoLoops"] - 0.0885) > 0.0005:
        failures.append(f"no-loops {aggregates['densityNoLoops']}")
    if not aggregates.get("densityNote"):
        failures.append("discrepancy note missing from the report")
    net = OneModeNetwork([f"v{i}" for i in range(61)])
    # density() must agree with the census arithmetic at n=61, m=162
    pairs = list(combinations(net.vertices, 2))[:162]
    for u, v in pairs:
        net.add_edge(u, v, 1)
    if abs(density(net, "loops") - 0.0871) > 0.0005:
        failures.append(f"density(net, loops) {density(net, 'loops')}")
    if abs(density(net, "no-loops") - 0.0885) > 0.0005:
        failures.append(f"density(net, no-loops) {density(net, 'no-loops')}")
    report_line(3, "density arithmetic", failures)


def _line_value_network() -> OneModeNetwork:
    values = [v for value, freq in sorted(LINE_VALUE_FREQS.items()) for v in [value] * freq]
    assert len(values) == 162
    net = OneModeNetwork([f"j{i:02d}" for i in range(20)])
    pairs = list(combinations(net.vertices, 2))[:162]
    for (u, v), value in zip(pairs, values):
        net.add_edge(u, v, value)
    return net


def test_criterion_4_line_multiplicity_bookkeeping():
    net = _line_value_network()
    dist = line_multiplicity_distribution(net)
    failures = []
    if dist.total != 162:
        failures.append(f"distribution total {dist.total}")
    observed = {value: freq for value, freq, _ in dist.rows if freq}
    if observed != LINE_VALUE_FREQS:
        failures.append(f"nonzero rows {observed}")
    zero_rows = [value for value, freq, _ in dist.rows if not freq]
    if zero_rows != [8, 9, 10, 13, 14, 15]:
        failures.append(f"zero rows {zero_rows}")
    two = m_slice(net, 2).edge_count
    if two != 72:
        failures.append(f"2-slice edges {two}")
    three = m_slice(net, 3).edge_count
    if three != 39:
        failures.append(f"3-slice edges {three}")
    report_line(4, "line multiplicity bookkeeping", failures)


def test_criterion_5_normalized_degree_spot_checks():
    net = havel_hakimi_graph(fixture_degrees())
    metrics = {vm.degree: vm.normalized_degree for vm in vertex_metrics(net)}
    failures = []
    if abs(metrics[16] - 0.267) > 0.001:
        failures.append(f"degree 16 -> {metrics[16]}")
    if abs(metrics[10] - 0.167) > 0.001:
        failures.append(f"degree 10 -> {metrics[10]}")
    report_line(5, "normalized degree spot checks", failures)


def test_criterion_6_ranking_reproduction():
    degrees = fixture_degrees()
    expected = [DEGREE_TO_RANK[d] for d in degrees]
    got = rank_competition([float(d) for d in degrees])
    failures = []
    if got != expected:
        mismatches = [
            (i, d, g, e)
            for i, (d, g, e) in enumerate(zip(degrees, got, expected))
            if g != e
        ]
        failures.append(f"rank mismatches: {mismatches[:5]}")
    if got.count(52) != 10:
        failures.append(f"{got.count(52)} journals at rank 52")
    report_line(6, "ranking reproduction", failures)


def test_criterion_7_oracle_equivalence():
    failures = []
    rng = random.Random(9090)
    for i in range(200):
        net = random_one_mode(rng, max_n=7)
        betweenness = betweenness_centrality(net)
        expected = brute_betweenness(net)
        for v in net.vertices:
            if abs(betweenness[v] - expected[v]) > 1e-9:
                failures.append(f"betweenness on instance {i}, vertex {v}")
            for variant in ("paper", "component"):
                got = closeness_centrality(net, v, variant)
                want = brute_closeness(net, v, variant)
                if abs(got - want) > 1e-9:
                    failures.append(f"closeness[{variant}] on instance {i}, vertex {v}")
    rng = random.Random(40404)
    for i in range(200):
        two_mode = random_two_mode(rng, max_events=8, max_actors=12)
        got = {
            tuple(sorted((u, v))): value
            for u, v, value in project_events(two_mode).edges()
        }
        want = {
            tuple(sorted(pair)): value
            for pair, value in brute_project_events(two_mode).items()
        }
        if got != want:
            failures.append(f"projection mismatch on instance {i}")
    report_line(7, "oracle equivalence on random instances", failures)


def test_criterion_8_structural_invariants():
    failures = []
    rng = random.Random(226688)
    for i in range(200):
        net = random_one_mode(rng, max_n=8, max_value=5)
        try:
            validate_one_mode(net)
        except ValueError as exc:
            failures.append(f"handshake/validate on instance {i}: {exc}")
        if sum(net.degrees()) != 2 * net.edge_count:
            failures.append(f"handshake identity on instance {i}")
        if parse_net_one_mode(write_net_one_mode(net)) != net:
            failures.append(f"round trip on instance {i}")
        coarse = None
        for m in range(1, 7):
            sliced = m_slice(net, m)
            edges = {frozenset((u, v)) for u, v, _ in sliced.edges()}
            comps = [set(c) for c in weak_components(sliced)]
            if coarse is not None:
                prev_edges, prev_comps = coarse
                if not edges <= prev_edges:
                    failures.append(f"slice monotonicity at m={m}, instance {i}")
                for comp in comps:
                    if not any(comp <= big for big in prev_comps):
                        failures.append(f"component refinement at m={m}, instance {i}")
            coarse = (edges, comps)
    report_line(8, "structural invariants on random suites", failures)


def test_criterion_9_known_answer_micro_graphs():
    failures = []

    def path(names):
        net = OneModeNetwork(names)
        for u, v in zip(names, names[1:]):
            net.add_edge(u, v, 1)
        return net

    p3 = path("abc")
    if betweenness_centrality(p3)["b"] != pytest.approx(1.0):
        failures.append("P3 center betweenness")
    if closeness_centrality(p3, "b") != pytest.approx(1.0):
        failures.append("P3 center closeness")
    p4 = path("abcd")
    if closeness_centrality(p4, "a") != pytest.approx(0.5):
        failures.append("P4 end closeness")
    c4 = path("abcd")
    c4.add_edge("d", "a", 1)
    for v in "abcd":
        if betweenness_centrality(c4)[v] != pytest.approx(1 / 6, abs=1e-9):
            failures.append(f"C4 betweenness at {v}")
    star = OneModeNetwork(["hub", "l1", "l2", "l3"])
    for leaf in ("l1", "l2", "l3"):
        star.add_edge("hub", leaf, 1)
    scores = betweenness_centrality(star)
    if scores["hub"] != pytest.approx(1.0) or any(scores[f"l{i}"] for i in (1, 2, 3)):
        failures.append("star betweenness")
    if degree_centralization(star.degrees()) != pytest.approx(1.0):
        failures.append("star degree centralization")
    if closeness_centralization(star) != pytest.approx(1.0):
        failures.append("star closeness centralization")
    for n in (2, 3, 5):
        complete = OneModeNetwork([f"k{i}" for i in range(n)])
        for u, v in combinations(complete.vertices, 2):
            complete.add_edge(u, v, 1)
        if density(complete, "no-loops") != pytest.approx(1.0):
            failures.append(f"K{n} density")
        if n >= 3:
            if degree_centralization(complete.degrees()) != 0.0:
                failures.append(f"K{n} degree centralization")
            if closeness_centralization(complete) != 0.0:
                failures.append(f"K{n} closeness centralization")
            if any(betweenness_centrality(complete).values()):
                failures.append(f"K{n} betweenness")
    cycle5 = path("abcde")
    cycle5.add_edge("e", "a", 1)
    if degree_centralization(cycle5.degrees()) != 0.0:
        failures.append("C5 degree centralization")
    report_line(9, "known-answer micro-graphs", failures)
