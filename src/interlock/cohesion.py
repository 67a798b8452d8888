"""Valued-network cohesion analysis: line multiplicities, m-slices, and
weak components with per-component summaries."""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain

from .model import DENSITY_NO_LOOPS, OneModeNetwork, pair_density


class LineMultiplicityDistribution(namedtuple("LineMultiplicityDistribution", "rows max_value")):
    """Frequency of each line value from 1 up to the strongest observed.

    Intermediate values with no occurrences keep their zero row, so the
    table always runs 1..max_value.
    """

    __slots__ = ()

    @property
    def total(self) -> int:
        return sum(freq for _, freq, _ in self.rows)


class ComponentSummary(namedtuple("ComponentSummary", "members size edge_count density")):
    """A vertex subset (in vertex order), its size, induced line count and
    induced density."""

    __slots__ = ()


class SliceDecomposition(namedtuple("SliceDecomposition", "m network components")):
    """An m-slice and its weak components."""

    __slots__ = ()


def line_multiplicity_distribution(net: OneModeNetwork) -> LineMultiplicityDistribution:
    """Count lines by value; relative frequencies divide by the line total.
    The position rows hold each line at both ends, so counts are halved."""
    doubled = Counter(chain.from_iterable(map(dict.values, net._rows)))
    total = sum(doubled.values()) // 2
    if total == 0:
        return LineMultiplicityDistribution(rows=[], max_value=0)
    max_value = max(doubled)
    rows = [(v, doubled[v] // 2, doubled[v] // 2 / total) for v in range(1, max_value + 1)]
    return LineMultiplicityDistribution(rows=rows, max_value=max_value)


def m_slice(net: OneModeNetwork, m: int) -> OneModeNetwork:
    """Subnetwork keeping every vertex but only lines valued at least ``m``."""
    if m < 1:
        raise ValueError(f"slice threshold must be at least 1, got {m}")
    return net._slice(m)


def weak_components(net: OneModeNetwork) -> list[list[str]]:
    """Maximal mutually reachable vertex sets, singletons included.

    Components are listed by their first member's position; members are
    listed in vertex order.  A vertex with an empty position row is a
    component of its own, listed without a traversal.
    """
    seen: set[str] = set()
    components: list[list[str]] = []
    for start, row in zip(net.vertices, net._rows):
        if not row:
            components.append([start])
            continue
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for u in members:  # the list grows while it is read: a FIFO queue
            for v in net.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    members.append(v)
        members.sort(key=net.index)
        components.append(members)
    return components


def slice_decomposition(
    net: OneModeNetwork,
    m: int,
    density_variant: str = DENSITY_NO_LOOPS,
) -> SliceDecomposition:
    """Slice at threshold ``m`` and summarize each weak component of the slice.

    Components are maximal, so each slice line lies inside exactly one of
    them, and a component's line count is half its members' degree total,
    each degree the length of the member's position row in the slice.
    A singleton has no line; its density is computed once per slice.
    """
    sliced = m_slice(net, m)
    index, rows = sliced._index, sliced._rows
    alone = pair_density(1, 0, density_variant)
    components = []
    for members in weak_components(sliced):
        if len(members) == 1:
            components.append(ComponentSummary(members, 1, 0, alone))
            continue
        size, edge_count = len(members), sum(len(rows[index[v]]) for v in members) // 2
        density = pair_density(size, edge_count, density_variant)
        components.append(ComponentSummary(members, size, edge_count, density))
    return SliceDecomposition(m=m, network=sliced, components=components)
