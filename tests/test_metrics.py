import errno
import os
import random
import threading
import time
from contextlib import contextmanager
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
    sorted_adjacency,
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

        def counted(net):
            calls.append(net)
            return sweep(net)

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


def _assert_matches_reference(adjacency, sums):
    dependency, reach, distance_sum = reference_sweep(adjacency)
    assert [d.hex() for d in sums.dependency] == [d.hex() for d in dependency]
    assert sums.reach == reach
    assert sums.distance_sum == distance_sum


@settings(max_examples=300, deadline=None)
@given(scattered_nets())
def test_sweep_matches_the_per_source_reference_bit_for_bit(net):
    adjacency = sorted_adjacency(net)  # before the sweep sorts the rows
    sums = metrics._sweep(net)
    _assert_matches_reference(adjacency, sums)
    assert sums.components == [[net.index(v) for v in c] for c in weak_components(net)]


_CAN_SPLIT = all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "sched_setaffinity"))
needs_fork = pytest.mark.skipif(
    not (_CAN_SPLIT and os.path.isdir("/proc/self/fd")),
    reason="needs os.fork, CPU affinity and /proc/self/fd",
)


@contextmanager
def _split_forced(threshold=0, cpus=None, fork=None, round_bytes=None):
    """Sweep with ``metrics._SPLIT_WORK`` at ``threshold``, with ``cpus``
    CPUs reported if given, ``fork`` in place of ``os.fork`` if given, and
    ``metrics._ROUND_BYTES`` at ``round_bytes`` if given; yields the list of
    fork calls.  Afterwards no child is left, no descriptor is open that
    was not open before, and the CPU affinity is what it was (restored here
    when the CPUs were faked, checked otherwise)."""
    affinity = os.sched_getaffinity(0)
    fds = sorted(os.listdir("/proc/self/fd"))
    forks = []
    real_fork = os.fork

    def counted():
        forks.append(os.getpid())
        return (fork or real_fork)()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_SPLIT_WORK", threshold)
        mp.setattr(os, "fork", counted)
        if cpus is not None:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        if round_bytes is not None:
            mp.setattr(metrics, "_ROUND_BYTES", round_bytes)
        try:
            yield forks
        finally:
            if cpus is not None:
                os.sched_setaffinity(0, affinity)
    assert os.sched_getaffinity(0) == affinity
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@needs_fork
@settings(max_examples=40, deadline=None)
@given(
    scattered_nets(max_n=40),
    st.sampled_from([0, 30, 300]),
    st.integers(2, 4),
    st.sampled_from([1, 100, 1 << 22]),
)
def test_split_sweep_matches_the_per_source_reference_bit_for_bit(net, threshold, cpus, round_bytes):
    """Components at or above the threshold are swept by 2-4 processes, in
    one round or several (a small ``_ROUND_BYTES`` gives blocks of one or a
    few sources); those below it by this process alone."""
    adjacency = sorted_adjacency(net)
    with _split_forced(threshold, cpus, round_bytes=round_bytes) as forks:
        sums = metrics._sweep(net)
    _assert_matches_reference(adjacency, sums)
    works = [
        len(c) * sum(len(adjacency[p]) for p in c) // 2 for c in sums.components if len(c) > 1
    ]
    assert bool(forks) == any(work >= threshold for work in works)


def _two_component_net():
    """A ring lattice of 24 vertices and a 4 x 5 grid, interleaved."""
    blocks = [_ring_lattice(24, 3), _grid(4, 5)]
    net = OneModeNetwork(f"v{i}" for i in range(44))
    for offset, (size, edges) in zip((0, 24), blocks):
        for a, b in edges:
            net.add_edge(f"v{(offset + a) * 7 % 44}", f"v{(offset + b) * 7 % 44}", 1)
    return net


def _refuse_fork():
    raise OSError(errno.EAGAIN, "fork refused")


_SWEEP_SOURCES = metrics._sweep_sources
_FORK = os.fork


def _blocks(k: int, cpus: int) -> list[range]:
    """The blocks of a k-vertex component split ``cpus`` ways in one round."""
    size = -(-k // cpus)
    return [range(b, min(b + size, k)) for b in range(0, k, size)]


def _exit_3_before_writing(adj, sources, *rest):
    os._exit(3)


def _write_one_and_a_part(adj, sources, dep, totals, deltas):
    """A child's sweep that lets one whole record out, then part of the
    next, then exits."""
    done = sum(map(bool, totals))  # the sources this child has swept
    if done == 2:
        os._exit(3)
    _SWEEP_SOURCES(adj, sources, dep, totals, deltas)
    if done == 1:
        del deltas[len(adj) // 2 :]


def _write_one_short(adj, sources, *rest):
    """A child's sweep that lets out the records of its block from the top
    down, then exits 0 before the lowest source's.  The blocks come from the
    CPU count the sweep was shown, which the forked child inherits."""
    if any(b.start == sources.start for b in _blocks(len(adj), len(os.sched_getaffinity(0)))):
        os._exit(0)
    _SWEEP_SOURCES(adj, sources, *rest)


def _raise(adj, sources, *rest):
    raise MemoryError


# (child's sweep, os.fork in its place, every child exits 3, whole records
# each child delivers: None for its whole block, a negative count for that
# many short of it)
_FAULTS = {
    "none": (_SWEEP_SOURCES, None, False, None),
    "fork-refused": (_SWEEP_SOURCES, _refuse_fork, False, 0),
    "exit-3-before-writing": (_exit_3_before_writing, None, False, 0),
    "exit-3-after-writing": (_SWEEP_SOURCES, None, True, None),
    "one-source-short": (_write_one_short, None, False, -1),
    "one-record-and-a-part": (_write_one_and_a_part, None, False, 1),
    "raises": (_raise, None, False, 0),
}


def _swept_by_the_parent(
    net, cpus, child_sweep=_SWEEP_SOURCES, parent_sweep=_SWEEP_SOURCES, fork=None
):
    """Sweep ``net`` split ``cpus`` ways and check the sums; the (component
    size, source) pairs the parent swept itself, and the fork calls."""
    parent, swept_here = os.getpid(), set()
    adjacency = sorted_adjacency(net)

    def sweep(adj, sources, *rest):
        if os.getpid() != parent:
            return child_sweep(adj, sources, *rest)
        swept_here.update((len(adj), source) for source in sources)
        return parent_sweep(adj, sources, *rest)

    with _split_forced(0, cpus, fork=fork) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_sweep_sources", sweep)
        sums = metrics._sweep(net)
    _assert_matches_reference(adjacency, sums)
    return swept_here, forks


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_a_failed_child_leaves_its_sources_to_the_parent(fault, cpus):
    """The parent waits (here, not in the sweep) for every child to end
    before it sweeps, so it keeps exactly each child's whole records, the
    highest sources of the child's block, and sweeps the rest itself."""
    child_sweep, fork_fault, exit_3, delivered = _FAULTS[fault]
    children = []
    real_exit = os._exit

    def fork():
        pid = (fork_fault or _FORK)()
        if pid:
            children.append(pid)
        return pid

    def after_the_children(*args):
        while children:  # wait for the child to end, and leave it unreaped
            os.waitid(os.P_PID, children.pop(), os.WEXITED | os.WNOWAIT)
        return _SWEEP_SOURCES(*args)

    with pytest.MonkeyPatch.context() as mp:
        if exit_3:
            mp.setattr(os, "_exit", lambda status: real_exit(3))
        swept_here, forks = _swept_by_the_parent(
            _two_component_net(), cpus, child_sweep, after_the_children, fork
        )
    assert len(forks) == 2 * (cpus - 1)  # two components, each split cpus ways
    expected = set()
    for k in (24, 20):
        first, *rest = _blocks(k, cpus)
        expected.update((k, source) for source in first)
        for block in rest:
            kept = len(block) if delivered is None else delivered
            if kept < 0:
                kept += len(block)
            expected.update((k, source) for source in block[: len(block) - kept])
    assert swept_here == expected


@needs_fork
def test_a_stalled_child_is_swept_around_and_killed():
    """A child that sleeps before its first record never holds the parent
    up: the parent sweeps the child's whole block and kills it."""

    def stall(*args):
        time.sleep(30)

    start = time.monotonic()
    swept_here, _ = _swept_by_the_parent(_two_component_net(), 2, child_sweep=stall)
    assert time.monotonic() - start < 5
    assert swept_here == {(k, source) for k in (24, 20) for source in range(k)}


@needs_fork
def test_a_slow_parent_takes_a_child_block_larger_than_a_pipe():
    """A child's 100 records of a 200-vertex component (160 KiB) do not fit
    a 64 KiB pipe: the parent drains it between its own sources, so the
    child delivers its whole block before the parent gets there."""
    size, edges = _ring_lattice(200, 2)
    net = OneModeNetwork(f"v{i}" for i in range(size))
    for a, b in edges:
        net.add_edge(f"v{a}", f"v{b}", 1)

    def slow(*args):
        time.sleep(0.02)
        return _SWEEP_SOURCES(*args)

    swept_here, _ = _swept_by_the_parent(net, 2, parent_sweep=slow)
    assert swept_here == {(size, source) for source in range(100)}


@needs_fork
def test_a_parent_that_raises_kills_and_reaps_its_children():
    net = _two_component_net()
    calls = []

    def sweep(*args):
        calls.append(os.getpid())
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt), _split_forced(0, 3) as forks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_sweep_sources", sweep)
            metrics._sweep(net)
    assert len(forks) == 2 and calls == [os.getpid()]


@needs_fork
def test_the_split_keeps_the_cpu_affinity():
    """On the CPUs this process really has: pinned for the sweep, restored
    after it (one CPU sweeps in this process alone)."""
    net = _two_component_net()
    adjacency = sorted_adjacency(net)
    with _split_forced(0):
        sums = metrics._sweep(net)
    _assert_matches_reference(adjacency, sums)


@needs_fork
def test_a_live_thread_keeps_the_sweep_in_one_process():
    net = _two_component_net()
    adjacency = sorted_adjacency(net)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with _split_forced(0, 4, fork=lambda: pytest.fail("forked with a live thread")) as forks:
            sums = metrics._sweep(net)
    finally:
        stop.set()
        thread.join()
    assert forks == []
    _assert_matches_reference(adjacency, sums)


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
