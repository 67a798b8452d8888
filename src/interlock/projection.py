"""One-mode projections of a two-mode affiliation network.

The two duals: events linked by shared actors (the interlocking view) and
actors linked by shared events (co-membership).  Line values are raw
shared-member counts; zero-valued pairs are never materialized, so events
sharing nobody end up as isolates.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations

from .model import OneModeNetwork, TwoModeNetwork


def _project(vertices, labels, groups) -> OneModeNetwork:
    net = OneModeNetwork()
    for v in vertices:
        net.add_vertex(v, labels(v))
    pos = {v: i for i, v in enumerate(vertices)}.__getitem__
    counts: Counter[tuple[int, int]] = Counter(
        chain.from_iterable(combinations(sorted(map(pos, g)), 2) for g in groups if len(g) > 1)
    )
    order = net.vertices
    for (i, j), value in sorted(counts.items()):
        net.add_edge(order[i], order[j], value)
    return net


def project_events(net: TwoModeNetwork) -> OneModeNetwork:
    """Network of events; a line's value counts the actors two boards share.

    Vertices keep event ingestion order, so downstream reports are
    deterministic.
    """
    return _project(net.events, net.event_label, net.holdings())


def project_actors(net: TwoModeNetwork) -> OneModeNetwork:
    """Network of actors; a line's value counts the boards both sit on.

    The boards are collected from the actors' holdings once, in O(seats).
    """
    boards: dict[str, list[str]] = {}
    for actor, held in zip(net.actors, net.holdings()):
        for event in held:
            boards.setdefault(event, []).append(actor)
    return _project(net.actors, lambda a: a, boards.values())
