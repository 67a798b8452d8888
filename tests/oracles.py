"""Independent brute-force oracles and random instance generators.

Everything here deliberately avoids the library's own traversal code:
distances come from exhaustive simple-path enumeration, components from
transitive closure, projections from pairwise set intersection, membership
CSV from a plain per-row loop.  Slow on purpose, trustworthy on purpose.
"""

from __future__ import annotations

import csv
import io
import random
import re
import unicodedata
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import fsum

from interlock import (
    DENSITY_LOOPS,
    DENSITY_NO_LOOPS,
    BipartitenessError,
    ComponentSummary,
    FormatError,
    LineMultiplicityDistribution,
    OneModeNetwork,
    SliceDecomposition,
    TwoModeNetwork,
    degree_centralization,
    degree_stats,
    m_slice,
    pair_density,
)
from interlock.io import ParseDiagnostics
from interlock.metrics import CLOSENESS_VARIANTS, path_sums
from interlock.model import check_variant, normalize_identifier
from interlock.report import DENSITY_NOTE


def simple_paths(net: OneModeNetwork, source: str, target: str):
    """Yield every simple path from source to target as a vertex list."""
    adj = {v: set(net.neighbors(v)) for v in net.vertices}

    def extend(path, seen):
        last = path[-1]
        if last == target:
            yield list(path)
            return
        for nxt in sorted(adj[last]):
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                yield from extend(path, seen)
                seen.remove(nxt)
                path.pop()

    yield from extend([source], {source})


def geodesic_bundle(net: OneModeNetwork, source: str, target: str):
    """(length, geodesic count, interior-vertex pass counts) or (None, 0, {})."""
    lengths = {}
    best = None
    for path in simple_paths(net, source, target):
        hops = len(path) - 1
        lengths.setdefault(hops, []).append(path)
        if best is None or hops < best:
            best = hops
    if best is None:
        return None, 0, Counter()
    geodesics = lengths[best]
    through = Counter(v for path in geodesics for v in path[1:-1])
    return best, len(geodesics), through


def brute_distances(net: OneModeNetwork, source: str) -> dict:
    out = {}
    for target in net.vertices:
        if target == source:
            out[target] = 0
            continue
        length, count, _ = geodesic_bundle(net, source, target)
        out[target] = length
    return out


def brute_closeness(net: OneModeNetwork, vertex: str, variant: str = "paper") -> float:
    dist = brute_distances(net, vertex)
    reached = [d for v, d in dist.items() if v != vertex and d is not None]
    if not reached or sum(reached) == 0:
        return 0.0
    score = len(reached) / sum(reached)
    if variant == "component":
        score *= len(reached) / (net.n - 1)
    return score


def brute_betweenness(net: OneModeNetwork) -> dict:
    n = net.n
    raw = {v: 0.0 for v in net.vertices}
    for s, t in combinations(net.vertices, 2):
        _, sigma, through = geodesic_bundle(net, s, t)
        if sigma:
            for v, count in through.items():
                raw[v] += count / sigma
    if n < 3:
        return {v: 0.0 for v in net.vertices}
    return {v: 2.0 * raw[v] / ((n - 1) * (n - 2)) for v in net.vertices}


def sorted_adjacency(net: OneModeNetwork) -> list[list[int]]:
    """Each position's neighbour positions, sorted here with ``sorted``,
    whatever order the network's rows hold them in."""
    return [sorted(row) for row in net._rows]


def reference_sweep(adjacency) -> tuple[list[float], list[int], list[int]]:
    """(dependency, reach, distance_sum) of a network given as ascending
    neighbour positions per position (:func:`sorted_adjacency`), by the
    plain per-source Brandes pass with n-long buffers: every float addition
    in the order :func:`interlock.metrics._sweep` must keep, bit for bit."""
    n = len(adjacency)
    dependency = [0.0] * n
    reach = [0] * n
    distance_sum = [0] * n
    for source in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[source] = 0
        sigma[source] = 1
        order = [source]
        for u in order:  # the list grows while it is read: a FIFO queue
            du = dist[u] + 1
            su = sigma[u]
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = du
                    order.append(v)
                if dist[v] == du:
                    sigma[v] += su
        reach[source] = len(order) - 1
        distance_sum[source] = sum(dist[v] for v in order)
        delta = [0.0] * n
        for w in reversed(order):
            dw = dist[w] - 1
            sw = sigma[w]
            share = 1.0 + delta[w]
            for u in adjacency[w]:
                if dist[u] == dw:
                    delta[u] += sigma[u] / sw * share
            if w != source:
                dependency[w] += delta[w]
    return dependency, reach, distance_sum


def brute_project_events(net: TwoModeNetwork) -> dict:
    """Map of event pair -> shared-member count, zero pairs omitted."""
    out = {}
    for a, b in combinations(net.events, 2):
        shared = len(net.members(a) & net.members(b))
        if shared:
            out[a, b] = shared
    return out


def brute_project_actors(net: TwoModeNetwork) -> dict:
    """Map of actor pair -> shared-event count, zero pairs omitted."""
    out = {}
    for a, b in combinations(net.actors, 2):
        shared = len(net.events_of(a) & net.events_of(b))
        if shared:
            out[a, b] = shared
    return out


def brute_components(net: OneModeNetwork) -> list[set[str]]:
    """Weak components by iterated transitive closure."""
    reach = {v: {v} for v in net.vertices}
    changed = True
    while changed:
        changed = False
        for u, v, _ in net.edges():
            merged = reach[u] | reach[v]
            for w in merged:
                if reach[w] != merged:
                    reach[w] = merged
                    changed = True
    groups = []
    for v in net.vertices:
        if reach[v] not in groups:
            groups.append(reach[v])
    return groups


def havel_hakimi_graph(degrees: list[int]) -> OneModeNetwork:
    """Build some simple graph realizing the degree sequence.

    Raises ValueError when the sequence is not graphical.
    """
    net = OneModeNetwork()
    names = [f"v{i:02d}" for i in range(len(degrees))]
    for name in names:
        net.add_vertex(name)
    remaining = sorted(
        ((d, name) for d, name in zip(degrees, names)), reverse=True
    )
    while remaining and remaining[0][0] > 0:
        d, name = remaining.pop(0)
        if d > len(remaining):
            raise ValueError("degree sequence is not graphical")
        for i in range(d):
            other_d, other = remaining[i]
            if other_d == 0:
                raise ValueError("degree sequence is not graphical")
            net.add_edge(name, other, 1)
            remaining[i] = (other_d - 1, other)
        remaining.sort(reverse=True)
    if any(d for d, _ in remaining):
        raise ValueError("degree sequence is not graphical")
    validate_one_mode(net)
    return net


def random_one_mode(
    rng: random.Random,
    min_n: int = 1,
    max_n: int = 7,
    max_value: int = 6,
) -> OneModeNetwork:
    n = rng.randint(min_n, max_n)
    net = OneModeNetwork(f"v{i}" for i in range(n))
    p = rng.uniform(0.15, 0.85)
    for u, v in combinations(net.vertices, 2):
        if rng.random() < p:
            net.add_edge(u, v, rng.randint(1, max_value))
    return net


def random_two_mode(
    rng: random.Random,
    max_events: int = 8,
    max_actors: int = 12,
) -> TwoModeNetwork:
    n_events = rng.randint(1, max_events)
    n_actors = rng.randint(1, max_actors)
    net = TwoModeNetwork()
    for e in range(n_events):
        net.add_event(f"E{e}")
    p = rng.uniform(0.1, 0.6)
    for a in range(n_actors):
        for e in range(n_events):
            if rng.random() < p:
                net.add_affiliation(f"E{e}", f"a{a}")
    return net


def rederive_aggregates(report) -> dict:
    """Recompute the degree-derivable aggregate figures of an
    ``AnalysisReport`` from its per-vertex list, in report key names."""
    degrees = [vm.degree for vm in report.vertices]
    n = len(degrees)
    total = sum(degrees)
    m = total // 2
    mean, median, sd = degree_stats(degrees) if n else (0.0, 0.0, 0.0)
    betweenness = [vm.betweenness for vm in report.vertices]
    best = max(betweenness) if betweenness else 0.0
    return {
        "n": n,
        "m": m,
        "densityNoLoops": pair_density(n, m, DENSITY_NO_LOOPS),
        "densityLoopsAllowed": pair_density(n, m, DENSITY_LOOPS),
        "meanDegree": mean,
        "medianDegree": median,
        "sdDegreePopulation": sd,
        "degreeCentralization": degree_centralization(degrees) if n >= 3 else 0.0,
        "betweennessCentralization": (
            fsum(best - b for b in betweenness) / (n - 1) if n >= 3 else 0.0
        ),
        "isolateCount": degrees.count(0),
    }


def validate_one_mode(net: OneModeNetwork) -> None:
    """Check symmetry, positive values, absence of loops, and the
    handshake identity (degree sum equals twice the line count)."""
    order = net.vertices
    seen_pairs = set()
    for i, u in enumerate(order):
        for v in net.neighbors(u):
            j = net.index(v)
            if i == j:
                raise ValueError(f"self-loop on {u!r}")
            value = net.value(u, v)
            if value < 1:
                raise ValueError(f"non-positive value on {u!r} - {v!r}")
            if net.value(v, u) != value:
                raise ValueError(f"asymmetric line {u!r} - {v!r}")
            seen_pairs.add(frozenset((i, j)))
    if sum(net.degrees()) != 2 * len(seen_pairs):
        raise ValueError("handshake identity violated")


def reference_report_dict(report) -> dict:
    """The JSON report as a plain dict built field by field, for
    ``json.dumps(..., indent=2, ensure_ascii=False)`` to lay out."""
    vertices = [
        {
            "index": pos,
            "id": vm.vertex,
            "label": vm.label,
            "degree": vm.degree,
            "normalizedDegree": vm.normalized_degree,
            "closeness": vm.closeness,
            "betweenness": vm.betweenness,
            "ranks": {
                "degree": vm.degree_rank,
                "closeness": vm.closeness_rank,
                "betweenness": vm.betweenness_rank,
            },
        }
        for pos, vm in enumerate(report.vertices, start=1)
    ]
    agg = report.aggregates
    return {
        "schema": report.schema,
        "options": {
            "closenessVariant": report.closeness_variant,
            "componentDensityVariant": report.component_density_variant,
        },
        "aggregates": {
            "n": agg.n,
            "m": agg.m,
            "densityNoLoops": agg.density_no_loops,
            "densityLoopsAllowed": agg.density_loops_allowed,
            "densityNote": DENSITY_NOTE,
            "meanDegree": agg.mean_degree,
            "medianDegree": agg.median_degree,
            "sdDegreePopulation": agg.sd_degree_population,
            "degreeCentralization": agg.degree_centralization,
            "betweennessCentralization": agg.betweenness_centralization,
            "closenessCentralization": agg.closeness_centralization,
            "componentCount": agg.component_count,
            "isolateCount": agg.isolate_count,
        },
        "vertices": vertices,
        "degreeDistribution": {
            "rows": [list(row) for row in report.degree_distribution.rows],
        },
        "lineMultiplicity": {
            "maxValue": report.line_multiplicity.max_value,
            "rows": [list(row) for row in report.line_multiplicity.rows],
        },
        "slices": [
            {
                "m": sl.m,
                "edgeCount": sl.network.edge_count,
                "componentCount": len(sl.components),
                "components": [
                    {
                        "members": list(comp.members),
                        "size": comp.size,
                        "edgeCount": comp.edge_count,
                        "density": comp.density,
                    }
                    for comp in sl.components
                ],
            }
            for sl in report.slices
        ],
    }


def validate_two_mode(net: TwoModeNetwork) -> None:
    """Check the seat store: every actor holds a seat, and every held event
    is a listed event."""
    events = set(net.events)
    for aid in net.actors:
        held = net.events_of(aid)
        if not held:
            raise ValueError(f"actor {aid!r} holds no seat")
        for eid in held:
            if eid not in events:
                raise ValueError(f"actor {aid!r} holds unlisted event {eid!r}")


@dataclass
class ReferenceIngest:
    """What a membership CSV holds, as :func:`reference_parse_csv_affiliations`
    reads it: ids in first-seen order, distinct seats in first-seen order."""

    events: list[str] = field(default_factory=list)
    actors: list[str] = field(default_factory=list)
    seats: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[tuple[int, str]] = field(default_factory=list)
    records_read: int = 0
    duplicates_collapsed: int = 0

    def network(self, casefold_actors: bool = False) -> TwoModeNetwork:
        net = TwoModeNetwork(casefold_actors=casefold_actors)
        for event in self.events:
            net.add_event(event)
        for event, actor in self.seats:
            net.add_affiliation(event, actor)
        return net


def _reference_id(raw: str, casefold: bool) -> str:
    token = unicodedata.normalize("NFC", raw.strip())
    return unicodedata.normalize("NFC", token.casefold()) if casefold else token


class ReferenceSeats:
    """Reference for the seat store of ``TwoModeNetwork``: every distinct
    (event, actor) pair in one set, ids in first-seen order.  Ids must not
    be empty after trimming."""

    def __init__(self, casefold_actors: bool = False) -> None:
        self.casefold_actors = casefold_actors
        self.events: list[str] = []
        self.actors: list[str] = []
        self.pairs: set[tuple[str, str]] = set()

    def add_affiliation(self, event: str, actor: str) -> bool:
        event, actor = _reference_id(event, False), _reference_id(actor, self.casefold_actors)
        if event not in self.events:
            self.events.append(event)
        if actor not in self.actors:
            self.actors.append(actor)
        if (event, actor) in self.pairs:
            return False
        self.pairs.add((event, actor))
        return True

    def events_of(self, actor: str) -> set[str]:
        return {e for e, a in self.pairs if a == actor}

    def members(self, event: str) -> set[str]:
        return {a for e, a in self.pairs if e == event}

    def project(self, vertices: list[str], shared) -> dict:
        """Map of vertex pair (in ``vertices`` order) -> the count ``shared``
        gives it, zero pairs omitted."""
        out = {}
        for u, v in combinations(vertices, 2):
            if count := len(shared(u) & shared(v)):
                out[u, v] = count
        return out


def reference_parse_csv_affiliations(
    text: str, *, casefold_actors: bool = False
) -> ReferenceIngest:
    """Per-row reference for ``parse_csv_affiliations``.

    Every cell is normalized from scratch on every row and every seat is
    looked up in a plain list.  Rejections raise ``FormatError`` with the
    library's line numbers and messages.
    """
    out = ReferenceIngest()
    reader = csv.reader(io.StringIO(text, newline=""))
    header = None
    for row in reader:
        line = reader.line_num  # the row's last physical line
        if all(not cell.strip() for cell in row):
            continue
        if header is None:
            header = [cell.strip().lower() for cell in row]
            if sorted(header) != ["actor", "event"]:
                raise FormatError(
                    line, f"expected header with columns actor,event; got {row!r}"
                )
            continue
        if len(row) != 2:
            raise FormatError(line, f"expected 2 fields, got {len(row)}")
        out.records_read += 1
        event = _reference_id(row[header.index("event")], False)
        actor = _reference_id(row[header.index("actor")], casefold_actors)
        if not event or not actor:
            raise FormatError(line, "identifier is empty after trimming")
        if (event, actor) in out.seats:
            out.duplicates_collapsed += 1
            out.warnings.append((line, f"duplicate membership collapsed: {row!r}"))
            continue
        if event not in out.events:
            out.events.append(event)
        if actor not in out.actors:
            out.actors.append(actor)
        out.seats.append((event, actor))
    if header is None:
        raise FormatError(1, "missing header row")
    return out


class PlainNetwork:
    """Reference for ``OneModeNetwork``: ids in a list, lines in a dict from
    the unordered id pair to its value.  Rejections raise ``ValueError``
    with the library's messages, checked in the library's order."""

    def __init__(self) -> None:
        self.vertices: list[str] = []
        self.labels: dict[str, str] = {}
        self.lines: dict[frozenset, int] = {}

    def add_vertex(self, raw: str, label: str | None = None) -> str:
        vid = unicodedata.normalize("NFC", raw.strip())
        if not vid:
            raise ValueError("identifier is empty after trimming")
        if vid in self.vertices:
            raise ValueError(f"duplicate vertex: {vid!r}")
        self.vertices.append(vid)
        if label is not None:
            self.labels[vid] = label
        return vid

    def add_edge(self, u: str, v: str, value) -> None:
        for x in (u, v):
            if x not in self.vertices:
                raise ValueError(f"unknown vertex: {x!r}")
        if u == v:
            raise ValueError(f"self-loop rejected on {u!r}")
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"edge value must be a positive integer, got {value!r}")
        if frozenset((u, v)) in self.lines:
            raise ValueError(f"duplicate edge {u!r} - {v!r}")
        self.lines[frozenset((u, v))] = value

    def value(self, u: str, v: str) -> int:
        return self.lines.get(frozenset((u, v)), 0)

    def neighbors(self, vertex: str) -> list[str]:
        return [w for w in self.vertices if self.value(vertex, w)]


# The NET section scan and the degree-census CSV readers as they stood
# before the one-pass rewrite: every line stripped and filtered by one
# generator, every token's section read by a helper, CSV rows filtered for
# blankness by another.  Kept verbatim so the rewritten readers are held
# to the same values, error lines and reasons.


def _reference_int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(line, f"number too long: {len(token)} characters") from None


def _reference_section(token: str) -> str | None:
    if token.startswith("*"):
        return token[1:].lower()
    return None


def _reference_iter_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield no, line


def reference_split_sections(text: str, expect_counts: int):
    """(``*Vertices`` line number, its ints, vertex lines, edge lines)."""
    stream = list(_reference_iter_lines(text))
    if not stream:
        raise FormatError(1, "empty file; expected *Vertices")
    head_no, line = stream[0]
    head = line.split()
    if _reference_section(head[0]) != "vertices":
        raise FormatError(head_no, f"expected *Vertices, got {line!r}")
    counts = head[1:]
    if len(counts) != expect_counts or not all(c.isdecimal() for c in counts):
        want = "<n> <nEvents>" if expect_counts == 2 else "<n>"
        raise FormatError(head_no, f"expected *Vertices {want}, got {line!r}")
    vertex_lines: list[tuple[int, str]] = []
    edge_lines: list[tuple[int, str]] = []
    bucket = vertex_lines
    for no, line in stream[1:]:
        sec = _reference_section(line.split()[0])
        if sec is not None:
            if sec == "edges" and bucket is vertex_lines:
                bucket = edge_lines
                continue
            raise FormatError(no, f"unexpected section {line!r}")
        bucket.append((no, line))
    return head_no, [_reference_int(c, head_no) for c in counts], vertex_lines, edge_lines


def _reference_csv_rows(text: str):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(reader.line_num, str(exc)) from None


def reference_csv_kind(text: str) -> str:
    for line, row in _reference_csv_rows(text):
        names = [cell.strip().lower() for cell in row]
        if sorted(names) == ["actor", "event"]:
            return "affiliations"
        if "degree" in names:
            return "degrees"
        raise FormatError(line, f"unrecognized header: {row!r}")
    raise FormatError(1, "missing header row")


def reference_parse_degree_list_csv(text: str) -> tuple[list[int], int]:
    """(degrees, records read)."""
    col: int | None = None
    width = 0
    degrees: list[int] = []
    for line, row in _reference_csv_rows(text):
        if col is None:
            names = [cell.strip().lower() for cell in row]
            if "degree" not in names:
                raise FormatError(line, f"no degree column in header: {row!r}")
            col = names.index("degree")
            width = len(names)
            continue
        if len(row) != width:
            raise FormatError(line, f"expected {width} fields, got {len(row)}")
        cell = row[col].strip()
        if not cell.isdecimal():
            raise FormatError(line, f"degree must be a non-negative integer, got {cell!r}")
        degrees.append(_reference_int(cell, line))
    if col is None:
        raise FormatError(1, "missing header row")
    return degrees, len(degrees)


# The NET vertex-line reader as it stood when each line was matched by a
# regular expression and its index read by a helper.  Kept verbatim so the
# rewritten reader is held to the same labels, error lines and reasons.

_REFERENCE_VERTEX_LINE = re.compile(r'^\s*(\d+)\s+"([^"]*)"(?:\s+.*)?$')


def reference_parse_vertex_defs(
    lines: list[tuple[int, str]], n: int
) -> tuple[dict[int, str], dict[int, int]]:
    names: dict[int, str] = {}
    where: dict[int, int] = {}
    for no, line in lines:
        m = _REFERENCE_VERTEX_LINE.match(line)
        if m:
            idx, label = _reference_int(m.group(1), no), m.group(2)
        else:
            parts = line.split()
            if len(parts) < 2 or not parts[0].isdecimal():
                raise FormatError(no, f"malformed vertex line: {line!r}")
            idx, label = _reference_int(parts[0], no), parts[1]
        if not 1 <= idx <= n:
            raise FormatError(no, f"vertex index {idx} out of range 1..{n}")
        if idx in where:
            raise FormatError(no, f"vertex {idx} defined twice")
        names[idx], where[idx] = label, no
    return names, where


def _reference_vertex_name(names: dict[int, str], idx: int) -> str:
    return names[idx] if idx in names else str(idx)


# The two-mode NET reader as it stood before its edge loop resolved each
# actor once: every edge normalizes its actor's label and records the seat
# through ``add_affiliation``.  Kept verbatim, over the reference section
# scan and vertex-line reader above and none of the library's own reader
# helpers, so the rewritten reader is held to the same network, warnings,
# error lines and reasons.


def reference_parse_net_two_mode(
    text: str, *, casefold_actors: bool = False
) -> tuple[TwoModeNetwork, ParseDiagnostics]:
    diags = ParseDiagnostics()
    head_no, (n, n_events), vertex_lines, edge_lines = reference_split_sections(text, 2)
    if n_events > n:
        raise FormatError(head_no, f"event count {n_events} exceeds vertex count {n}")
    names, def_lines = reference_parse_vertex_defs(vertex_lines, n)

    net = TwoModeNetwork(casefold_actors=casefold_actors)
    seen_events: set[str] = set()
    for i in range(1, n_events + 1):
        label = _reference_vertex_name(names, i)
        try:
            eid = net.add_event(label, label)
        except ValueError as exc:
            raise FormatError(def_lines.get(i, head_no), str(exc)) from None
        if eid in seen_events:  # two labels that trim and normalize alike
            raise FormatError(def_lines.get(i, head_no), f"duplicate event label {label!r}")
        seen_events.add(eid)

    defined_actors = sorted(i for i in names if i > n_events)
    # Actors are told apart by their trimmed NFC id, as the network merges
    # them (a blank label is handled where it is used).  An undefined actor is
    # named by its number, so it can clash only with an id reading as that.
    ids = {
        i: normalize_identifier(names[i]) if names[i].strip() else names[i]
        for i in defined_actors
    }
    digits = len(str(n))
    numbered = (int(aid) for aid in ids.values() if aid.isdecimal() and len(aid) <= digits)
    seen_actors: set[str] = set()
    for i in sorted({*defined_actors, *(k for k in numbered if n_events < k <= n)}):
        aid = ids.get(i, str(i))
        if aid in seen_actors:
            label = _reference_vertex_name(names, i)
            raise FormatError(def_lines.get(i, head_no), f"duplicate actor label {label!r}")
        seen_actors.add(aid)

    linked_actors: set[int] = set()
    for no, line in edge_lines:
        parts = line.split()
        if len(parts) not in (2, 3) or not all(
            p.removeprefix("-").isdecimal() for p in parts[:2]
        ):
            raise FormatError(no, f"malformed edge line: {line!r}")
        i, j = _reference_int(parts[0], no), _reference_int(parts[1], no)
        for idx in (i, j):
            if not 1 <= idx <= n:
                raise FormatError(no, f"vertex index {idx} out of range 1..{n}")
        i_is_event = i <= n_events
        j_is_event = j <= n_events
        if i_is_event == j_is_event:
            kind = "events" if i_is_event else "actors"
            raise BipartitenessError(no, f"edge {i} {j} joins two {kind}")
        event_idx, actor_idx = (i, j) if i_is_event else (j, i)
        diags.records_read += 1
        try:
            added = net.add_affiliation(
                _reference_vertex_name(names, event_idx), _reference_vertex_name(names, actor_idx)
            )
        except ValueError as exc:
            raise FormatError(no, str(exc)) from None
        if not added:
            diags.duplicates_collapsed += 1
            diags.warn(no, f"duplicate affiliation collapsed: {i} {j}")
        linked_actors.add(actor_idx)

    # Walk the defined or linked actors in index order; the undefined,
    # unlinked ones lie in the gaps between them.
    prev = n_events
    for idx in [*sorted({*defined_actors, *linked_actors}), n + 1]:
        if idx - prev == 2:
            diags.warn(head_no, f"actor vertex {str(prev + 1)!r} has no affiliation; dropped")
        elif idx - prev > 2:
            diags.warn(
                head_no,
                f"actor vertices {prev + 1}..{idx - 1} are undefined and have no "
                "affiliation; dropped",
            )
        if idx <= n and idx not in linked_actors:
            diags.warn(def_lines[idx], f"actor vertex {names[idx]!r} has no affiliation; dropped")
        prev = idx
    return net, diags


# The passes after the sweep as they stood when they went from names to
# positions and back one vertex or line at a time: the projection through
# add_vertex and add_edge, the writers and the line-value table over
# edges(), a slice's components summarized by component_summary, and
# closeness read per vertex.  Kept verbatim so the position-based passes
# are held to the same networks, text, errors and floats.


def _reference_project(vertices, labels, groups) -> OneModeNetwork:
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


def reference_project_events(net: TwoModeNetwork) -> OneModeNetwork:
    return _reference_project(net.events, net.event_label, net.holdings())


def reference_project_actors(net: TwoModeNetwork) -> OneModeNetwork:
    boards: dict[str, list[str]] = {}
    for actor, held in zip(net.actors, net.holdings()):
        for event in held:
            boards.setdefault(event, []).append(actor)
    return _reference_project(net.actors, lambda a: a, boards.values())


def _reference_net_quote(label: str) -> str:
    if '"' in label or label.splitlines() != [label]:
        raise ValueError(f"label not representable in NET output: {label!r}")
    return f'"{label}"'


def reference_write_net_one_mode(net: OneModeNetwork) -> str:
    out = [f"*Vertices {net.n}"]
    for pos, v in enumerate(net.vertices, start=1):
        out.append(f"{pos} {_reference_net_quote(net.label(v))}")
    out.append("*Edges")
    for u, v, value in net.edges():
        out.append(f"{net.index(u) + 1} {net.index(v) + 1} {value}")
    return "\n".join(out) + "\n"


def reference_write_edge_list_csv(net: OneModeNetwork) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target", "value"])
    for u, v, value in net.edges():
        writer.writerow([u, v, value])
    return buf.getvalue()


def _reference_dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_write_dot(net: OneModeNetwork) -> str:
    q = _reference_dot_quote
    out = ["graph interlock {"]
    for v in net.vertices:
        label = net.label(v)
        if label != v:
            out.append(f"  {q(v)} [label={q(label)}];")
        else:
            out.append(f"  {q(v)};")
    for u, v, value in net.edges():
        out.append(f"  {q(u)} -- {q(v)} [label={q(str(value))}, weight={value}];")
    out.append("}")
    return "\n".join(out) + "\n"


def reference_line_multiplicity_distribution(net: OneModeNetwork) -> LineMultiplicityDistribution:
    values = [value for _, _, value in net.edges()]
    total = len(values)
    if total == 0:
        return LineMultiplicityDistribution(rows=[], max_value=0)
    freq = Counter(values)
    max_value = max(freq)
    rows = [(v, freq.get(v, 0), freq.get(v, 0) / total) for v in range(1, max_value + 1)]
    return LineMultiplicityDistribution(rows=rows, max_value=max_value)


def component_summary(
    net: OneModeNetwork,
    component: Iterable[str],
    density_variant: str = DENSITY_NO_LOOPS,
) -> ComponentSummary:
    """Size, induced line count, and induced density of a vertex subset.

    Lines are counted over the members' own position rows, where each
    induced line appears twice, so summarizing every component of a
    slice reads each line a constant number of times.
    """
    inside: set[int] = set()
    for v in component:
        if not net.has_vertex(v):
            raise ValueError(f"vertex outside network: {v!r}")
        inside.add(net.index(v))
    order = sorted(inside)
    vertices, rows = net.vertices, net._rows
    edge_count = sum(j in inside for i in order for j in rows[i]) // 2
    return ComponentSummary(
        members=[vertices[i] for i in order],
        size=len(order),
        edge_count=edge_count,
        density=pair_density(len(order), edge_count, density_variant),
    )


def reference_slice_decomposition(
    net: OneModeNetwork, m: int, density_variant: str = DENSITY_NO_LOOPS
) -> SliceDecomposition:
    """The slice's components by transitive closure, each summarized over
    its members' rows."""
    sliced = m_slice(net, m)
    return SliceDecomposition(
        m=m,
        network=sliced,
        components=[
            component_summary(sliced, members, density_variant)
            for members in brute_components(sliced)
        ],
    )


def reference_closeness_centrality(
    net: OneModeNetwork, vertex: str, variant: str = "paper"
) -> float:
    check_variant("closeness", variant, CLOSENESS_VARIANTS)
    i = net.index(vertex)
    sums = path_sums(net)
    r = sums.reach[i]
    total = sums.distance_sum[i]
    if r == 0:
        return 0.0
    score = r / total
    if variant == "component":
        score *= r / (net.n - 1)
    return score


def _reference_format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _reference_render_rows(headers: list[str], rows: list[list]) -> str:
    cells = [[_reference_format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells), 0) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"


def reference_render_table(report, which: str) -> str:
    """One report table, formatted a row at a time: each cell, then each
    column's width over all rows, then each row padded to the widths."""
    if which == "degreeDist":
        return _reference_render_rows(
            ["Degree", "Freq", "Freq%", "CumFreq"],
            [list(row) for row in report.degree_distribution.rows],
        )
    if which == "centrality":
        return _reference_render_rows(
            [
                "Label",
                "Journal",
                "Degree",
                "NormDegree",
                "DegreeRank",
                "Closeness",
                "ClosenessRank",
                "Betweenness",
                "BetweennessRank",
            ],
            [
                [
                    pos,
                    vm.label,
                    vm.degree,
                    vm.normalized_degree,
                    vm.degree_rank,
                    vm.closeness,
                    vm.closeness_rank,
                    vm.betweenness,
                    vm.betweenness_rank,
                ]
                for pos, vm in enumerate(report.vertices, start=1)
            ],
        )
    assert which == "lineMultiplicity"
    return _reference_render_rows(
        ["LineValue", "Freq", "Freq%"], [list(row) for row in report.line_multiplicity.rows]
    )
