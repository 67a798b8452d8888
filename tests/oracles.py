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
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import fsum

from interlock import (
    DENSITY_LOOPS,
    DENSITY_NO_LOOPS,
    FormatError,
    OneModeNetwork,
    TwoModeNetwork,
    degree_centralization,
    degree_stats,
    pair_density,
)
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


def reference_sweep(view) -> tuple[list[float], list[int], list[int]]:
    """(dependency, reach, distance_sum) of a ``GraphView`` by the plain
    per-source Brandes pass with n-long buffers: every float addition in
    the order :func:`interlock.metrics._sweep` must keep, bit for bit."""
    n = len(view.vertices)
    adjacency = view.adjacency
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
    for i, nbrs in enumerate(net.frozen().adjacency):
        u = order[i]
        for j in nbrs:
            v = order[j]
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
