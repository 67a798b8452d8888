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


def _project(vertices, labels: dict[str, str], groups) -> OneModeNetwork:
    """Count each group's vertex pairs by position and write the counts
    straight into position rows, then sort each row of two or more
    neighbours by position once: the vertices are normalized ids already,
    and a count is a positive value of a pair of distinct positions.  A
    group of two, the most common, adds its one pair ordered by a single
    comparison; larger groups are sorted and paired as they are counted."""
    index = {v: i for i, v in enumerate(vertices)}
    pos = index.__getitem__
    pairs: list[tuple[int, int]] = []
    larger = []
    add = pairs.append
    for g in groups:
        if len(g) == 2:
            a, b = g
            i, j = index[a], index[b]
            add((i, j) if i < j else (j, i))
        elif len(g) > 2:
            larger.append(g)
    counts: Counter[tuple[int, int]] = Counter(pairs)
    counts.update(chain.from_iterable(combinations(sorted(map(pos, g)), 2) for g in larger))
    rows: list[dict[int, int]] = [{} for _ in vertices]
    for (i, j), value in counts.items():
        rows[i][j] = rows[j][i] = value
    return OneModeNetwork._from_rows(
        index, labels, [dict(sorted(row.items())) if len(row) > 1 else row for row in rows]
    )


def project_events(net: TwoModeNetwork) -> OneModeNetwork:
    """Network of events; a line's value counts the actors two boards share.

    Vertices keep event ingestion order, so downstream reports are
    deterministic.  Only actors on two or more boards add pairs, and the
    network lists their holdings: an actor on one board costs nothing here.
    The rows do not depend on the holdings' order, as pairs are counted and
    rows of two or more neighbours sorted.
    """
    return _project(net.events, dict(net._events), net._multi)


def project_actors(net: TwoModeNetwork) -> OneModeNetwork:
    """Network of actors; a line's value counts the boards both sit on.

    The boards are collected from the actors' holdings once, in O(seats).
    """
    boards: dict[str, list[str]] = {}
    for actor, held in zip(net.actors, net.holdings()):
        for event in held:
            boards.setdefault(event, []).append(actor)
    return _project(net.actors, {}, boards.values())
