"""Domain types for affiliation (two-mode) and valued one-mode networks.

A :class:`TwoModeNetwork` records which actors (board members) sit on which
events (journal boards).  Projecting it yields a :class:`OneModeNetwork`, an
undirected graph whose integer line values count shared members.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable, Iterator, Mapping, Set

DENSITY_NO_LOOPS = "no-loops"
DENSITY_LOOPS = "loops"
DENSITY_VARIANTS = (DENSITY_LOOPS, DENSITY_NO_LOOPS)


def check_variant(kind: str, variant: str, variants: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``variant`` names one of ``variants``."""
    if variant not in variants:
        raise ValueError(f"unknown {kind} variant: {variant!r}")


EMPTY_IDENTIFIER = "identifier is empty after trimming"


def normalize_identifier(raw: str, *, casefold: bool = False) -> str:
    """Canonicalize an identifier token.

    Surrounding whitespace is trimmed and the text is put into Unicode NFC
    form so visually identical spellings compare equal.  With ``casefold``
    the token is additionally case-folded (used for actor-name merging) and
    put into NFC again, since folding can decompose a character (``ǰ``);
    either way the result normalizes to itself.
    Raises ``ValueError`` if nothing is left after trimming.
    """
    token = unicodedata.normalize("NFC", raw.strip())
    if casefold:
        token = unicodedata.normalize("NFC", token.casefold())
    if not token:
        raise ValueError(EMPTY_IDENTIFIER)
    return token


def pair_density(n: int, m: int, variant: str) -> float:
    """Share of realized lines among ``n`` vertices carrying ``m`` lines.

    ``no-loops`` uses the n(n-1)/2 unordered-pair maximum; ``loops`` uses
    n^2/2, which also counts self-pairs in the denominator.
    """
    check_variant("density", variant, DENSITY_VARIANTS)
    if variant == DENSITY_NO_LOOPS:
        return 0.0 if n < 2 else 2.0 * m / (n * (n - 1))
    return 0.0 if n < 1 else 2.0 * m / (n * n)


class TwoModeNetwork:
    """Affiliation structure: events (boards) and actors, each seat stored
    once, under its actor: an actor on one board holds that event's bare id,
    an actor on two or more a dictionary keyed by its event ids.

    Event and actor identifiers live in disjoint namespaces; the same token
    may name both an event and an actor.  Construction is single-writer;
    once built, instances are treated as immutable values and are safe for
    concurrent reads.

    A string, and a dictionary of strings and ``None``, unlike a set, is
    never tracked by the cyclic garbage collector, so collections do not
    walk one container per actor.  A holding becomes a dictionary on the
    actor's second distinct board and stays one.

    ``_multi`` lists the dictionary holdings, each once, in the order they
    were made: the holdings the event projection pairs, found without a
    pass over every actor.

    Package-private: both readers in :mod:`interlock.io` store each seat by
    normalized id straight into ``_actor_events``, as :meth:`add_affiliation`
    does, in their own row or edge loop, where one call per row is a
    measured share of the parse.  The membership CSV reader also probes the
    raw-event memo ``_event_ids`` there.
    """

    def __init__(self, *, casefold_actors: bool = False) -> None:
        self.casefold_actors = casefold_actors
        self._event_ids: dict[str, str] = {}  # raw token -> normalized id
        # event id -> label / actor id -> its event id, or a dict of its
        # event ids once it has two; all in encounter order
        self._events: dict[str, str] = {}
        self._actor_events: dict[str, str | dict[str, None]] = {}
        self._multi: list[dict[str, None]] = []  # the dict holdings above

    def add_event(self, event: str, label: str | None = None) -> str:
        """Register an event; an empty board is fine.  Returns the stored id.

        A raw token is normalized only the first time it is seen.
        """
        eid = self._event_ids.get(event)
        if eid is None:
            eid = self._event_ids[event] = normalize_identifier(event)
            self._events.setdefault(eid, eid)
        if label is not None:
            self._events[eid] = label
        return eid

    def add_affiliation(self, event: str, actor: str) -> bool:
        """Record one board seat; re-adding the same pair is a no-op.

        Unknown events and actors are created on first sight, in encounter
        order.  Returns ``True`` when a new seat was recorded.
        """
        eid = self._event_ids.get(event) or self.add_event(event)
        aid = normalize_identifier(actor, casefold=self.casefold_actors)
        held = self._actor_events.get(aid)
        if held is None:
            self._actor_events[aid] = eid
        elif eid in _events(held):
            return False
        elif type(held) is dict:
            held[eid] = None
        else:
            self._actor_events[aid] = held = {held: None, eid: None}
            self._multi.append(held)
        return True

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(self._events)

    @property
    def actors(self) -> tuple[str, ...]:
        return tuple(self._actor_events)

    def members(self, event: str) -> frozenset[str]:
        """Board of ``event`` as a frozen set of actor ids; O(actors)."""
        if event not in self._events:
            raise ValueError(f"unknown event: {event!r}")
        return frozenset(
            [aid for aid, held in self._actor_events.items() if event in _events(held)]
        )

    def events_of(self, actor: str) -> frozenset[str]:
        """Events on whose boards ``actor`` sits."""
        try:
            return frozenset(_events(self._actor_events[actor]))
        except KeyError:
            raise ValueError(f"unknown actor: {actor!r}") from None

    def event_label(self, event: str) -> str:
        if event not in self._events:
            raise ValueError(f"unknown event: {event!r}")
        return self._events[event]

    def holdings(self) -> Iterable[Set[str]]:
        """Every actor's events, in actor order, each as :func:`_events`
        reads its holding."""
        return map(_events, self._actor_events.values())

    def seats(self) -> int:
        """Total board seats (memberships counted once per event/actor pair)."""
        return sum(map(len, self.holdings()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoModeNetwork):
            return NotImplemented
        return (
            list(self._events.items()) == list(other._events.items())
            and list(self._actor_events.items()) == list(other._actor_events.items())
        )

    def __repr__(self) -> str:
        return (
            f"TwoModeNetwork(events={len(self._events)}, "
            f"actors={len(self._actor_events)}, seats={self.seats()})"
        )


def _events(held: str | dict[str, None]) -> Set[str]:
    """An actor's holding as a set-like collection of its event ids, which
    supports ``in``, ``len``, iteration and ``&``: a one-element frozenset
    of a bare id, else a read-only key view of the dictionary.  Never a
    string, in which ``in`` would find ``J1`` inside ``J10``."""
    return held.keys() if type(held) is dict else frozenset((held,))


class OneModeNetwork:
    """Undirected valued graph; every line value is a positive integer.

    Vertex order is ingestion order and drives every deterministic output
    (reports, exports, component listings).  Self-loops and duplicate pairs
    are rejected.  ``add_vertex`` and ``add_edge`` change the network in
    place and drop what was derived from it: the vertex tuple and the
    shortest-path sums :func:`interlock.metrics.path_sums` keeps here.
    """

    def __init__(
        self,
        vertices: Iterable[str] = (),
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self._index: dict[str, int] = {}  # id -> position, in vertex order
        self._labels: dict[str, str] = {}
        # row i maps each neighbour's position to the line's value, keys
        # ascending, except after add_edge until the next _sorted_rows()
        self._rows: list[dict[int, int]] = []
        self._ascending = True
        self._vertices: tuple[str, ...] | None = None
        self._path_sums = None  # metrics.PathSums of the current lines, once swept
        for v in vertices:
            self.add_vertex(v)
        if labels:
            for v, lab in labels.items():
                self.set_label(v, lab)

    def add_vertex(self, vertex: str, label: str | None = None) -> str:
        vid = normalize_identifier(vertex)
        if vid in self._index:
            raise ValueError(f"duplicate vertex: {vid!r}")
        self._index[vid] = len(self._rows)
        self._rows.append({})
        self._vertices = self._path_sums = None
        if label is not None:
            self._labels[vid] = label
        return vid

    def add_edge(self, u: str, v: str, value: int) -> None:
        """Attach an undirected line of the given positive integer value."""
        i, j = self.index(u), self.index(v)
        if i == j:
            raise ValueError(f"self-loop rejected on {u!r}")
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"edge value must be a positive integer, got {value!r}")
        if j in self._rows[i]:
            raise ValueError(f"duplicate edge {u!r} - {v!r}")
        self._rows[i][j] = value
        self._rows[j][i] = value
        self._ascending = False
        self._path_sums = None

    def set_label(self, vertex: str, label: str) -> None:
        if vertex not in self._index:
            raise ValueError(f"unknown vertex: {vertex!r}")
        self._labels[vertex] = label

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._rows)) // 2

    @property
    def vertices(self) -> tuple[str, ...]:
        """Vertex ids in vertex order; one tuple, kept until ``add_vertex``."""
        if self._vertices is None:
            self._vertices = tuple(self._index)
        return self._vertices

    def has_vertex(self, vertex: str) -> bool:
        return vertex in self._index

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ValueError(f"unknown vertex: {vertex!r}") from None

    def label(self, vertex: str) -> str:
        if vertex not in self._index:
            raise ValueError(f"unknown vertex: {vertex!r}")
        return self._labels.get(vertex, vertex)

    def degree(self, vertex: str) -> int:
        return len(self._rows[self.index(vertex)])

    def degrees(self) -> list[int]:
        """Degree of every vertex, in vertex order."""
        return list(map(len, self._rows))

    def _sorted_rows(self) -> list[dict[int, int]]:
        """The position rows, each one's keys ascending: rows ``add_edge``
        left out of order are sorted first, in place."""
        if not self._ascending:
            self._rows[:] = [dict(sorted(row.items())) for row in self._rows]
            self._ascending = True
        return self._rows

    def neighbors(self, vertex: str) -> tuple[str, ...]:
        """Adjacent vertices in vertex order (the deterministic traversal order)."""
        order = self.vertices
        return tuple([order[j] for j in self._sorted_rows()[self.index(vertex)]])

    @classmethod
    def _from_rows(cls, index: dict[str, int], labels: dict[str, str], rows) -> OneModeNetwork:
        """A network owning stores valid by construction: normalized ids, and
        rows symmetric, positive, loop-free and with their keys ascending."""
        net = cls()
        net._index, net._labels, net._rows = index, labels, rows
        return net

    def _slice(self, m: int) -> OneModeNetwork:
        """Every vertex and label, with only the lines valued ``m`` or more.

        Each position row is filtered by value, an empty one replaced by a
        new empty row: the ids are already normalized and the rows valid
        and ascending, and a filter keeps them so.
        """
        return OneModeNetwork._from_rows(
            dict(self._index),
            dict(self._labels),
            [
                {j: value for j, value in row.items() if value >= m} if row else {}
                for row in self._sorted_rows()
            ],
        )

    def value(self, u: str, v: str) -> int:
        """Line value between two vertices; 0 when no line exists."""
        i, j = self.index(u), self.index(v)
        return self._rows[i].get(j, 0)

    def _lines(self) -> list[tuple[int, int, int]]:
        """(i, j, value) once per line, by position, i < j, in edges() order."""
        rows = self._sorted_rows()
        return [(i, j, value) for i, row in enumerate(rows) for j, value in row.items() if j > i]

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield (u, v, value) once per line, u before v in vertex order."""
        order = self.vertices
        for i, j, value in self._lines():
            yield order[i], order[j], value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OneModeNetwork):
            return NotImplemented
        order = self.vertices
        return (
            order == other.vertices
            and [self.label(v) for v in order] == [other.label(v) for v in order]
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"OneModeNetwork(n={self.n}, m={self.edge_count})"
