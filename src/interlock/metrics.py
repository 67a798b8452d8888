"""Centrality measures, network aggregates, and Freeman-style
centralizations on a one-mode network.

Distances here are geodesic over binary adjacency: line values never enter
the path computations.  Every distance figure is a formula over one
shortest-path sweep per network (:func:`path_sums`), cached until the
network next changes; sources and neighbours are visited in a fixed order,
so results are deterministic.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from math import fsum, sqrt
from operator import add

from .model import (
    DENSITY_LOOPS,
    DENSITY_NO_LOOPS,
    OneModeNetwork,
    check_variant,
    pair_density,
)

CLOSENESS_VARIANTS = ("paper", "component")


class DegreeDistribution(namedtuple("DegreeDistribution", "rows")):
    """Rows of (degree, frequency, relative frequency, cumulative relative
    frequency), ascending, with only observed degrees present."""

    __slots__ = ()


class VertexMetrics(
    namedtuple(
        "VertexMetrics",
        "vertex label degree normalized_degree closeness betweenness"
        " degree_rank closeness_rank betweenness_rank",
    )
):
    """Per-vertex centralities with their competition ranks."""

    __slots__ = ()


class NetworkAggregates(
    namedtuple(
        "NetworkAggregates",
        "n m density_no_loops density_loops_allowed mean_degree median_degree"
        " sd_degree_population degree_centralization betweenness_centralization"
        " closeness_centralization component_count isolate_count",
    )
):
    """Network-level summary figures.

    Centralizations need at least 3 vertices and are reported as 0.0 below
    that; closeness centralization is evaluated on the largest connected
    subnetwork.  Built from a degree census alone, the figures that need
    the line structure are ``None``.
    """

    __slots__ = ()


def degree_distribution(net: OneModeNetwork) -> DegreeDistribution:
    degs = net.degrees()
    n = len(degs)
    rows: list[tuple[int, int, float, float]] = []
    if n:
        freq = Counter(degs)
        running = 0
        for d in sorted(freq):
            running += freq[d]
            rows.append((d, freq[d], freq[d] / n, running / n))
    return DegreeDistribution(rows=rows)


def degree_stats(degrees: Iterable[int]) -> tuple[float, float, float]:
    """Mean, median, and population (divisor-n) standard deviation.

    The median of an even-sized multiset is the average of the two middle
    elements.  Raises on an empty input.
    """
    ds = sorted(degrees)
    n = len(ds)
    if n == 0:
        raise ValueError("degree_stats of an empty multiset")
    mean = fsum(ds) / n
    mid = n // 2
    median = float(ds[mid]) if n % 2 else (ds[mid - 1] + ds[mid]) / 2.0
    sd = sqrt(fsum((d - mean) ** 2 for d in ds) / n)
    return mean, median, sd


def density(net: OneModeNetwork, variant: str = DENSITY_LOOPS) -> float:
    """Realized share of possible lines; see :func:`interlock.model.pair_density`
    for the two denominator conventions."""
    return pair_density(net.n, net.edge_count, variant)


class PathSums(namedtuple("PathSums", "dependency reach distance_sum components")):
    """Per-vertex totals over all geodesics, indexed like the network's
    vertices, and the weak components the sweep walked.

    ``dependency[v]`` sums, over ordered pairs (s, t) of distinct other
    vertices with t reachable from s, the share sigma_st(v)/sigma_st of
    s-t geodesics passing through v; every unordered pair is counted from
    both endpoints.  ``reach[v]`` counts the other vertices v reaches and
    ``distance_sum[v]`` adds up their geodesic distances.  ``components``
    lists each weak component's vertex positions in ascending order,
    singletons included, components ordered by their first position.
    """

    __slots__ = ()


def _sweep(net: OneModeNetwork) -> PathSums:
    """Brandes (2001) over ``net``'s ascending position rows, one weak
    component at a time.

    Each component is collected by a breadth-first pass from its lowest
    position, relabelled ``0..k-1`` in position order (so neighbour lists
    stay ascending) and swept from every member with k-long buffers: a
    network costs the sum over its components of k*m, and an isolated
    vertex costs O(1).  So does a pair that :func:`_split_cpus` leaves to
    one process: each end reaches the other at distance 1, and with no
    third member neither lies between two others, so both dependencies stay
    0.0, as Brandes's pass leaves them.  See :func:`_sweep_component` for
    the order of the float additions.  Geodesic counts are exact integers.
    """
    rows = net._sorted_rows()
    n = len(rows)
    dependency = [0.0] * n
    reach = [0] * n
    distance_sum = [0] * n
    components: list[list[int]] = []
    local = [-1] * n  # position -> index within its component; -1 until seen
    pairs_alone = len(_split_cpus(2, 2)) < 2  # a pair's k*m is 2
    for start in range(n):
        if local[start] >= 0:
            continue
        local[start] = 0
        members = [start]
        for u in members:  # the list grows while it is read: a FIFO queue
            for v in rows[u]:
                if local[v] < 0:
                    local[v] = 0
                    members.append(v)
        components.append(members)
        k = len(members)
        if k == 1:
            continue
        if k == 2 and pairs_alone:  # [start, its one neighbour]: ascending
            other = members[1]
            reach[start] = reach[other] = distance_sum[start] = distance_sum[other] = 1
            continue
        members.sort()
        for i, p in enumerate(members):
            local[p] = i
        adj = [[local[v] for v in rows[p]] for p in members]
        dep, totals = _sweep_component(adj, k * sum(map(len, adj)) // 2)
        for i, p in enumerate(members):
            dependency[p] = dep[i]
            reach[p] = k - 1
            distance_sum[p] = totals[i]
    return PathSums(dependency, reach, distance_sum, components)


# A component whose k*m reaches this is swept by several processes where
# the platform can fork: below it, a fork costs more than it saves.
_SPLIT_WORK = 50_000
# The most record bytes one child ships in one round: 4 MiB, 524 sources of
# a 1000-vertex component.
_ROUND_BYTES = 1 << 22


def _sweep_component(adj: list[list[int]], work: int) -> tuple[list[float], list[int]]:
    """Dependencies and distance sums of one component, by its local
    adjacency ``adj`` and its k*m ``work``.

    In one process (:func:`_split_cpus`) the sources are swept in order,
    each adding its dependencies into ``dep`` as it goes.  In more, they are
    taken in rounds of contiguous blocks, one process pinned to each CPU:
    a forked child streams each later block's sources as ``delta`` vectors,
    each added into ``dep`` whole, and this process sweeps what no child
    delivers (:func:`_sweep_round`).  Either way each ``dep`` entry receives
    one addition per source, in source order.  A child never sums its own
    sources, as that would regroup the additions and change the bits.
    Pinning matters: a scheduler may leave a forked child on its parent's
    CPU for tens of milliseconds.
    """
    k = len(adj)
    dep = [0.0] * k
    totals = [0] * k
    cpus = _split_cpus(k, work)
    if len(cpus) < 2:
        _sweep_sources(adj, range(k), dep, totals)
        return dep, totals
    size = min(-(-k // len(cpus)), max(1, _ROUND_BYTES // (8 * k)))  # sources per block
    step = size * len(cpus)
    mask = os.sched_getaffinity(0)
    _pin(cpus[:1])
    try:
        for first in range(0, k, step):
            blocks = [range(b, min(b + size, k)) for b in range(first, min(first + step, k), size)]
            _sweep_round(adj, blocks, cpus, dep, totals)
    finally:
        _pin(mask)
    return dep, totals


def _split_cpus(k: int, work: int) -> list[int]:
    """The CPUs to sweep a component of k vertices and k*m ``work`` on, one
    process each; fewer than two means one process, left unpinned.

    Fewer than two below :data:`_SPLIT_WORK`, where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, or while a second thread is alive
    (a forked child could inherit a lock that thread holds).  Else the
    lowest of the CPUs this process may run on: one, plus one per
    :data:`_SPLIT_WORK` of work, and at most one per source.
    """
    if work < _SPLIT_WORK or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    # with threading never imported no thread was started through it, and
    # importing it to ask would only load it for an answer of one thread
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return []
    return sorted(os.sched_getaffinity(0))[: min(k, 1 + work // max(_SPLIT_WORK, 1))]


def _pin(cpus, pid: int = 0) -> None:
    """Run process ``pid`` (0: this one) on ``cpus`` only, where the
    platform allows it."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def _sweep_round(
    adj: list[list[int]],
    blocks: list[range],
    cpus: list[int],
    dep: list[float],
    totals: list[int],
) -> None:
    """Sweep a round's ``blocks``: each after the first in a child forked
    onto the matching CPU (:func:`_fork_sweep`), which streams its sources'
    records from the highest down, while this process climbs the round's
    sources from the lowest up and never waits.

    Before each source this process drains every child's pipe without
    blocking.  If the source's child has delivered it, it has delivered the
    rest of its block too: those records are added in source order and the
    climb jumps to the next block.  Else this process sweeps the source
    itself.  Either way each ``dep`` entry gets one addition per source, in
    source order.  Only a whole record counts as delivered, so whatever a
    child did not deliver (it was not forked, stalled, died or wrote short)
    is swept here.  When the round ends every child is killed, its pipe
    closed and the child reaped.
    """
    words = len(adj) + 1  # machine words per record: the distance sum, then k deltas
    live: dict = {}  # pid -> read end of the pipe of each child not yet reaped
    try:
        inbox = [None]  # per block: its child's (read end, bytes received), if any
        for sources, cpu in zip(blocks[1:], cpus[1:]):
            inbox.append(_fork_sweep(adj, sources, cpu, live))
        for b, sources in enumerate(blocks):
            for source in sources:
                for pipe, data in filter(None, inbox):
                    try:
                        while chunk := os.read(pipe, 1 << 16):
                            data += chunk
                    except BlockingIOError:
                        pass
                size = 8 * words * (sources.stop - source)  # the rest of the block
                if inbox[b] and len(inbox[b][1]) >= size:
                    view = memoryview(inbox[b][1])[:size]
                    sums, deltas = view.cast("q"), view.cast("d")
                    for at in range(len(sums) - words, -1, -words):  # ascending sources
                        totals[sources.stop - 1 - at // words] = sums[at]
                        dep[:] = map(add, dep, deltas[at + 1 : at + words])
                    break
                _sweep_sources(adj, range(source, source + 1), dep, totals)
            inbox[b] = None
    finally:
        from _signal import SIGKILL  # the signal module would import enum

        for pid, pipe in live.items():
            os.kill(pid, SIGKILL)
            os.close(pipe)
            os.waitpid(pid, 0)


def _fork_sweep(adj: list[list[int]], sources: range, cpu: int, live: dict):
    """Fork a child, pinned from here to ``cpu``, that sweeps ``sources``
    from the highest down and writes each one's record to a pipe as it
    finishes: the distance sum as a machine ``'q'``, then the k ``delta``
    entries as ``'d'``.  Returns the pipe's non-blocking read end and an
    empty buffer for it, the read end also put in ``live``; or None where no
    pipe or process can be had.

    A record is 8(k+1) bytes, so from k = 8,192 on one no longer fits a
    64 KiB pipe, and the child waits mid-record for the parent's next drain.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        live[pid] = r
        _pin((cpu,), pid)
        os.close(w)
        os.set_blocking(r, False)
        return r, bytearray()
    try:  # the child: it never returns, and nothing it raises escapes
        from array import array

        k = len(adj)
        dep, totals = [0.0] * k, [0] * k
        with open(w, "wb") as pipe:
            for source in reversed(sources):
                delta = array("d")
                _sweep_sources(adj, range(source, source + 1), dep, totals, delta)
                pipe.write(array("q", totals[source : source + 1]))
                pipe.write(delta)
                pipe.flush()
    finally:
        os._exit(0)


def _sweep_sources(
    adj: list[list[int]],
    sources: range,
    dep: list[float],
    totals: list[int],
    deltas=None,
) -> None:
    """One Brandes pass from each of ``sources`` in turn over a component's
    local adjacency ``adj``: its distance sum goes into ``totals``, and its
    dependencies are added into ``dep`` as each becomes final.

    Each ``delta`` entry receives its additions in reversed breadth-first
    order of its successors, as in a plain per-source sweep.  With an
    ``array('d')`` as ``deltas``, each source's ``delta`` vector is also
    appended to it, with 0.0 at the source itself: a source adds nothing to
    its own dependency, and x + 0.0 is x for every non-negative x.
    """
    k = len(adj)
    for source in sources:
        dist = [k] * k  # k exceeds every distance: "not reached yet"
        sigma = [0] * k
        preds = [None] * k
        dist[source] = 0
        sigma[source] = 1
        order = [source]
        level = [source]
        d = total = 0
        while level:
            d += 1
            nxt = []
            for u in level:
                su = sigma[u]
                for v in adj[u]:
                    if dist[v] >= d:  # skips back arcs and same-level arcs
                        if dist[v] == d:
                            sigma[v] += su
                            preds[v].append(u)
                        else:
                            dist[v] = d
                            sigma[v] = su
                            preds[v] = [u]
                            nxt.append(v)
            total += d * len(nxt)
            order += nxt
            level = nxt
        totals[source] = total
        delta = [0.0] * k
        for w in order[:0:-1]:  # reversed, the source left out
            sw = sigma[w]
            share = 1.0 + delta[w]
            for u in preds[w]:
                delta[u] += sigma[u] / sw * share
            dep[w] += delta[w]
        if deltas is not None:
            delta[source] = 0.0
            deltas.fromlist(delta)


def path_sums(net: OneModeNetwork) -> PathSums:
    """Geodesic totals of ``net``, swept once and kept on the network until
    it next changes."""
    if net._path_sums is None:
        net._path_sums = _sweep(net)
    return net._path_sums


def closeness_centrality(
    net: OneModeNetwork, vertex: str, variant: str = "paper"
) -> float:
    """Reachable-vertex count divided by the sum of geodesic distances.

    The ``component`` variant scales that ratio by the share of the network
    the vertex can reach, r/(n-1), so scores on small components shrink.
    Isolates score 0 under both variants.
    """
    check_variant("closeness", variant, CLOSENESS_VARIANTS)
    i = net.index(vertex)
    sums = path_sums(net)
    return _closeness(sums.reach[i], sums.distance_sum[i], net.n, variant)


def _closeness(r: int, total: int, n: int, variant: str) -> float:
    if r == 0:
        return 0.0
    return r / total * (r / (n - 1)) if variant == "component" else r / total


def betweenness_centrality(net: OneModeNetwork) -> dict[str, float]:
    """Normalized betweenness for every vertex.

    A vertex scores the geodesic share sigma_st(v)/sigma_st summed over the
    unordered pairs it separates, scaled into [0, 1] by 2/((n-1)(n-2));
    unreachable pairs contribute nothing.
    """
    n = net.n
    # every unordered pair was visited from both endpoints, hence the
    # doubled Freeman divisor
    scale = 1.0 / ((n - 1) * (n - 2)) if n >= 3 else 0.0
    return {v: d * scale for v, d in zip(net.vertices, path_sums(net).dependency)}


def degree_centralization(degrees: Iterable[int]) -> float:
    """Freeman centralization of a degree sequence; 1.0 on a star, 0 when
    all degrees agree.  Needs at least 3 vertices."""
    ds = list(degrees)
    n = len(ds)
    if n < 3:
        raise ValueError(f"degree centralization needs n >= 3, got {n}")
    d_max = max(ds)
    return fsum(d_max - d for d in ds) / ((n - 1) * (n - 2))


def betweenness_centralization(normalized_scores: Iterable[float]) -> float:
    """Freeman centralization of normalized betweenness scores."""
    scores = list(normalized_scores)
    n = len(scores)
    if n < 3:
        raise ValueError(f"betweenness centralization needs n >= 3, got {n}")
    best = max(scores)
    return fsum(best - s for s in scores) / (n - 1)


def closeness_centralization(net: OneModeNetwork) -> float:
    """Freeman closeness centralization of the largest connected subnetwork.

    Uses closeness normalized within that subnetwork, (n'-1)/sum-of-
    distances; returns 0.0 when the subnetwork has fewer than 3 vertices.
    """
    sums = path_sums(net)
    largest = max(sums.components, key=len, default=[])
    np = len(largest)
    if np < 3:
        return 0.0
    closeness = [(np - 1) / sums.distance_sum[i] for i in largest]
    best = max(closeness)
    return fsum(best - c for c in closeness) * (2 * np - 3) / ((np - 1) * (np - 2))


def rank_competition(values: Sequence[float], *, descending: bool = True) -> list[int]:
    """Competition ("1224") ranks: ties share the best rank and each rank is
    one more than the count of strictly better values.

    One sort: a value's rank is the 1-based position of its first
    occurrence in best-first order, as every strictly better value sorts
    before it.  Values that compare equal (``0.0`` and ``-0.0`` included)
    share one dictionary key and so one rank.
    """
    first: dict[float, int] = {}
    for pos, v in enumerate(sorted(values, reverse=descending), start=1):
        first.setdefault(v, pos)
    return [first[v] for v in values]


def vertex_metrics(
    net: OneModeNetwork, closeness_variant: str = "paper"
) -> list[VertexMetrics]:
    """Per-vertex centrality table in vertex order, ranks included.

    Normalized degree shares the degree ranking, so a single rank column
    covers both.
    """
    n = net.n
    degrees = net.degrees()
    check_variant("closeness", closeness_variant, CLOSENESS_VARIANTS)
    sums = path_sums(net)
    closeness = [
        _closeness(r, total, n, closeness_variant)
        for r, total in zip(sums.reach, sums.distance_sum)
    ]
    betweenness = list(betweenness_centrality(net).values())  # in vertex order
    vertices, labels = net.vertices, net._labels
    # one positional VertexMetrics a vertex, its fields in declared order
    return list(
        map(
            VertexMetrics,
            vertices,
            [labels.get(v, v) for v in vertices],
            degrees,
            [d / (n - 1) for d in degrees] if n >= 2 else [0.0] * n,
            closeness,
            betweenness,
            rank_competition(degrees),
            rank_competition(closeness),
            rank_competition(betweenness),
        )
    )


def degree_census_aggregates(degrees: Sequence[int]) -> NetworkAggregates:
    """Aggregates derivable from a degree census alone.

    Distance-based figures need the line structure and are left ``None``,
    as is degree centralization below 3 vertices.  An odd degree total
    cannot come from an undirected network, nor a degree above n-1 from a
    simple one; both are rejected.
    """
    n = len(degrees)
    total = sum(degrees)
    if total % 2:
        shown = f" {total}" if total < 10**40 else ""  # a long total is not echoed
        raise ValueError(f"degree total{shown} is odd; not an undirected network")
    if degrees and max(degrees) >= n:
        raise ValueError(f"a degree exceeds n-1 = {n - 1}; not a simple undirected network")
    m = total // 2
    mean, median, sd = degree_stats(degrees) if n else (0.0, 0.0, 0.0)
    return NetworkAggregates(
        n=n,
        m=m,
        density_no_loops=pair_density(n, m, DENSITY_NO_LOOPS),
        density_loops_allowed=pair_density(n, m, DENSITY_LOOPS),
        mean_degree=mean,
        median_degree=median,
        sd_degree_population=sd,
        degree_centralization=degree_centralization(degrees) if n >= 3 else None,
        betweenness_centralization=None,
        closeness_centralization=None,
        component_count=None,
        isolate_count=degrees.count(0),
    )


def network_aggregates(net: OneModeNetwork) -> NetworkAggregates:
    """The census figures of ``net``'s degrees plus the distance-based
    ones; centralizations read 0.0 below 3 vertices."""
    census = degree_census_aggregates(net.degrees())
    if net.n < 3:
        degree_central = betweenness_central = 0.0
    else:
        degree_central = census.degree_centralization
        betweenness_central = betweenness_centralization(
            betweenness_centrality(net).values()
        )
    return census._replace(
        degree_centralization=degree_central,
        betweenness_centralization=betweenness_central,
        closeness_centralization=closeness_centralization(net),
        component_count=len(path_sums(net).components),
    )
