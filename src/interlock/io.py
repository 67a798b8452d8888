"""Readers and writers for affiliation and one-mode network files.

Supported inputs: membership CSV (``actor,event`` header, either column
order), degree-census CSV (a header with a ``degree`` column), two-mode
NET and one-mode NET files.  Supported outputs for one-mode networks:
NET, edge-list CSV, and DOT.  All text is UTF-8 with ``\\n`` line ends;
every parse rejection carries the offending line number.
"""

from __future__ import annotations

import csv
import io
import unicodedata
from itertools import compress

from .model import EMPTY_IDENTIFIER, OneModeNetwork, TwoModeNetwork, normalize_identifier


class FormatError(ValueError):
    """A malformed input line; ``line`` is 1-based."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class BipartitenessError(FormatError):
    """An edge joining two events or two actors in a two-mode file."""


class ParseDiagnostics:
    """Non-fatal observations collected while parsing: ``(line, message)``
    warnings, records read and duplicate records collapsed."""

    __slots__ = ("warnings", "records_read", "duplicates_collapsed")

    def __init__(
        self,
        warnings: list[tuple[int, str]] | None = None,
        records_read: int = 0,
        duplicates_collapsed: int = 0,
    ) -> None:
        self.warnings = [] if warnings is None else warnings
        self.records_read = records_read
        self.duplicates_collapsed = duplicates_collapsed

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.warnings, self.records_read, self.duplicates_collapsed) == (
            other.warnings, other.records_read, other.duplicates_collapsed
        )

    def __repr__(self) -> str:
        return (
            f"ParseDiagnostics(warnings={self.warnings!r}, records_read={self.records_read!r}, "
            f"duplicates_collapsed={self.duplicates_collapsed!r})"
        )

    def warn(self, line: int, message: str) -> None:
        self.warnings.append((line, message))


def _int(token: str, line: int) -> int:
    """The integer a decimal ``token`` spells; one longer than ``int`` reads
    (4300 digits by default) is a :class:`FormatError` at ``line``."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(line, f"number too long: {len(token)} characters") from None


def _csv_header(reader) -> tuple[list[str], list[str]]:
    """The first row of ``reader`` with a non-blank cell, and its cells
    trimmed and lower-cased; no such row is a :class:`FormatError` at line 1."""
    for row in reader:
        if "".join(row).strip():
            return row, [cell.strip().lower() for cell in row]
    raise FormatError(1, "missing header row")


def parse_csv_affiliations(
    text: str, *, casefold_actors: bool = False
) -> tuple[TwoModeNetwork, ParseDiagnostics]:
    """Build a two-mode network from membership CSV.

    The header row must name exactly the columns ``actor`` and ``event``
    (any order decides the mapping).  Each data row records one seat;
    duplicate rows are collapsed with a warning, blank lines are skipped.
    """
    diags = ParseDiagnostics()
    net = TwoModeNetwork(casefold_actors=casefold_actors)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        row, names = _csv_header(reader)
        if sorted(names) != ["actor", "event"]:
            raise FormatError(
                reader.line_num, f"expected header with columns actor,event; got {row!r}"
            )
        event_col, actor_col = names.index("event"), names.index("actor")
        # One loop frame per row: the event memo is probed, the actor id is
        # computed by normalize_identifier's rule and the seat is stored as
        # TwoModeNetwork.add_affiliation stores it, all inline.
        event_ids, add_event, holdings = net._event_ids, net.add_event, net._actor_events
        normalize, warn = unicodedata.normalize, diags.warnings.append
        records = duplicates = 0
        for row in reader:
            if len(row) != 2:
                if "".join(row).strip():
                    raise FormatError(reader.line_num, f"expected 2 fields, got {len(row)}")
                continue
            event = row[event_col]
            eid = event_ids.get(event)
            if eid is None:
                try:
                    eid = add_event(event)
                except ValueError:  # empty after trimming
                    eid = ""
            aid = normalize("NFC", row[actor_col].strip())
            if casefold_actors:
                aid = normalize("NFC", aid.casefold())
            # A 2-cell row is blank exactly when both identifiers are empty,
            # so a row is tested for blankness only once one of them is.
            if not (eid and aid):
                if "".join(row).strip():
                    raise FormatError(reader.line_num, EMPTY_IDENTIFIER)
                continue
            records += 1
            held = holdings.get(aid)
            if held is None:
                holdings[aid] = {eid: None}
            elif eid not in held:
                held[eid] = None
            else:
                duplicates += 1
                # repr(row), without the list repr's recursion guard
                a, b = row
                warn((reader.line_num, f"duplicate membership collapsed: [{a!r}, {b!r}]"))
    except csv.Error as exc:
        raise FormatError(reader.line_num, str(exc)) from None
    diags.records_read, diags.duplicates_collapsed = records, duplicates
    return net, diags


def _parse_vertex_defs(
    lines: list[tuple[int, str]], n: int
) -> tuple[dict[int, str], dict[int, int]]:
    """Label and source line of each vertex of 1..n that an ``index
    "label"`` line defines; trailing tokens are ignored.  Only defined
    indices are stored: the callers name an undefined index by its number
    and locate it at the ``*Vertices`` line.  A line that does not read as
    digits, whitespace and a quoted label is split into tokens instead."""
    names: dict[int, str] = {}
    where: dict[int, int] = {}
    for no, line in lines:
        head, _, rest = line.partition('"')
        token = head.strip()
        label, quoted, tail = rest.partition('"')
        if not (
            quoted and token.isdecimal() and head[-1].isspace()
            and (not tail or tail[0].isspace())
        ):
            parts = line.split()
            if len(parts) < 2 or not parts[0].isdecimal():
                raise FormatError(no, f"malformed vertex line: {line!r}")
            token, label = parts[0], parts[1]
        try:
            idx = int(token)
        except ValueError:  # raised again, by _int, as too long
            idx = _int(token, no)
        if not 1 <= idx <= n:
            raise FormatError(no, f"vertex index {idx} out of range 1..{n}")
        if idx in where:
            raise FormatError(no, f"vertex {idx} defined twice")
        names[idx], where[idx] = label, no
    return names, where


def _split_sections(text: str, expect_counts: int):
    """Return (``*Vertices`` line number, its ints, vertex lines, edge lines),
    each line stripped; blank lines and ``%`` comments are skipped."""
    head_no = 0
    counts: list[str] = []
    vertex_lines: list[tuple[int, str]] = []
    edge_lines: list[tuple[int, str]] = []
    bucket = vertex_lines
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "%":
            continue
        if not head_no:
            head_no = no
            head = line.split()
            if head[0].lower() != "*vertices":
                raise FormatError(no, f"expected *Vertices, got {line!r}")
            counts = head[1:]
            if len(counts) != expect_counts or not all(c.isdecimal() for c in counts):
                want = "<n> <nEvents>" if expect_counts == 2 else "<n>"
                raise FormatError(no, f"expected *Vertices {want}, got {line!r}")
        elif line[0] != "*":
            bucket.append((no, line))
        elif bucket is vertex_lines and line.split(None, 1)[0].lower() == "*edges":
            bucket = edge_lines
        else:
            raise FormatError(no, f"unexpected section {line!r}")
    if not head_no:
        raise FormatError(1, "empty file; expected *Vertices")
    return head_no, [_int(c, head_no) for c in counts], vertex_lines, edge_lines


def _vertex_name(names: dict[int, str], idx: int) -> str:
    """The label of vertex ``idx``; an undefined vertex is named by its number."""
    return names[idx] if idx in names else str(idx)


def parse_net_two_mode(
    text: str, *, casefold_actors: bool = False
) -> tuple[TwoModeNetwork, ParseDiagnostics]:
    """Read a two-mode NET file.

    ``*Vertices <n> <nEvents>`` declares that vertices 1..nEvents are
    events and the rest actors; ``*Edges`` lines must join one of each
    (anything else raises :class:`BipartitenessError`).  Undefined vertex
    indices get their number as label; actor vertices that end up with no
    affiliation are dropped with a warning, one for each run of two or
    more consecutive undefined ones.
    """
    diags = ParseDiagnostics()
    head_no, (n, n_events), vertex_lines, edge_lines = _split_sections(text, 2)
    if n_events > n:
        raise FormatError(head_no, f"event count {n_events} exceeds vertex count {n}")
    names, def_lines = _parse_vertex_defs(vertex_lines, n)

    net = TwoModeNetwork(casefold_actors=casefold_actors)
    event_ids = [""]  # event index -> id; index 0 is no event
    seen_events: set[str] = set()
    for i in range(1, n_events + 1):
        label = _vertex_name(names, i)
        try:
            eid = net.add_event(label, label)
        except ValueError as exc:
            raise FormatError(def_lines.get(i, head_no), str(exc)) from None
        if eid in seen_events:  # two labels that trim and normalize alike
            raise FormatError(def_lines.get(i, head_no), f"duplicate event label {label!r}")
        seen_events.add(eid)
        event_ids.append(eid)

    # Actors are told apart by their trimmed NFC id, as the network merges
    # them (a blank label is kept raw and refused where an edge uses it).  An
    # undefined actor is named by its number, so it can clash only with an id
    # reading as that.
    ids = {
        i: normalize_identifier(label) if label.strip() else label
        for i, label in names.items()
        if i > n_events
    }
    digits = len(str(n))
    numbered = {int(aid) for aid in filter(str.isdecimal, ids.values()) if len(aid) <= digits}
    undefined = [k for k in numbered if n_events < k <= n and k not in ids]
    if len({*ids.values(), *map(str, undefined)}) < len(ids) + len(undefined):
        # two actors share an id: name the later one of the first such pair
        seen_actors: set[str] = set()
        for i in sorted({*ids, *undefined}):
            aid = ids.get(i, str(i))
            if aid in seen_actors:
                label = _vertex_name(names, i)
                raise FormatError(def_lines.get(i, head_no), f"duplicate actor label {label!r}")
            seen_actors.add(aid)

    # One loop frame per edge: the tokens are read by int() (_int only names
    # a number too long), each actor index is resolved to its id once, by the
    # first edge that links it (its key in actor_ids marks it linked), and the
    # seat is stored as TwoModeNetwork.add_affiliation stores it.
    holdings, warn, normalize = net._actor_events, diags.warnings.append, unicodedata.normalize
    actor_ids: dict[int, str] = {}
    records = duplicates = 0
    for no, line in edge_lines:
        parts = line.split()
        if not 2 <= len(parts) <= 3 or not (
            (parts[0].isdecimal() or parts[0].removeprefix("-").isdecimal())
            and (parts[1].isdecimal() or parts[1].removeprefix("-").isdecimal())
        ):
            raise FormatError(no, f"malformed edge line: {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:  # raised again, by _int, for the first one too long
            i, j = _int(parts[0], no), _int(parts[1], no)
        if not 1 <= i <= n or not 1 <= j <= n:
            idx = j if 1 <= i <= n else i
            raise FormatError(no, f"vertex index {idx} out of range 1..{n}")
        if i <= n_events:
            if j <= n_events:
                raise BipartitenessError(no, f"edge {i} {j} joins two events")
            event_idx, actor_idx = i, j
        elif j <= n_events:
            event_idx, actor_idx = j, i
        else:
            raise BipartitenessError(no, f"edge {i} {j} joins two actors")
        aid = actor_ids.get(actor_idx)
        if aid is None:
            # the id built for the label check; an undefined actor's number
            # is its own id, and case folding leaves it as it is
            aid = ids.get(actor_idx)
            if aid is None:
                aid = str(actor_idx)
            elif not aid.strip():
                raise FormatError(no, EMPTY_IDENTIFIER)
            elif casefold_actors:
                aid = normalize("NFC", aid.casefold())
            actor_ids[actor_idx] = aid
        records += 1
        eid = event_ids[event_idx]
        held = holdings.get(aid)
        if held is None:
            holdings[aid] = {eid: None}
        elif eid not in held:
            held[eid] = None
        else:
            duplicates += 1
            warn((no, f"duplicate affiliation collapsed: {i} {j}"))
    diags.records_read, diags.duplicates_collapsed = records, duplicates
    if len(actor_ids) == n - n_events:  # every actor is linked: none dropped
        return net, diags

    # Walk the defined or linked actors in index order; the undefined,
    # unlinked ones lie in the gaps between them.
    prev = n_events
    for idx in [*sorted({*ids, *actor_ids}), n + 1]:
        if idx - prev == 2:
            diags.warn(head_no, f"actor vertex {str(prev + 1)!r} has no affiliation; dropped")
        elif idx - prev > 2:
            diags.warn(
                head_no,
                f"actor vertices {prev + 1}..{idx - 1} are undefined and have no "
                "affiliation; dropped",
            )
        if idx <= n and idx not in actor_ids:
            diags.warn(def_lines[idx], f"actor vertex {names[idx]!r} has no affiliation; dropped")
        prev = idx
    return net, diags


def parse_net_one_mode(text: str) -> OneModeNetwork:
    """Read a valued one-mode NET file as written by :func:`write_net_one_mode`.

    The quoted vertex name becomes both identifier and label.  Edge lines
    are ``i j value`` with a positive integer value; self-loops and repeated
    pairs are rejected.
    """
    head_no, (n,), vertex_lines, edge_lines = _split_sections(text, 1)
    names, def_lines = _parse_vertex_defs(vertex_lines, n)

    net = OneModeNetwork()
    for i in range(1, n + 1):
        label = _vertex_name(names, i)
        try:
            net.add_vertex(label, label)
        except ValueError as exc:
            raise FormatError(def_lines.get(i, head_no), str(exc)) from None
    for no, line in edge_lines:
        parts = line.split()
        if len(parts) != 3 or not all(p.removeprefix("-").isdecimal() for p in parts):
            raise FormatError(no, f"malformed edge line: {line!r}")
        i, j, value = (_int(p, no) for p in parts)
        for idx in (i, j):
            if not 1 <= idx <= n:
                raise FormatError(no, f"vertex index {idx} out of range 1..{n}")
        try:
            net.add_edge(_vertex_name(names, i), _vertex_name(names, j), value)
        except ValueError as exc:
            raise FormatError(no, str(exc)) from None
    return net


def _net_quote(label: str) -> str:
    # NET lines are split as str.splitlines splits them, so a label may hold
    # none of its line breaks, nor a quote.
    if '"' in label or label.splitlines() != [label]:
        raise ValueError(f"label not representable in NET output: {label!r}")
    return f'"{label}"'


def write_net_one_mode(net: OneModeNetwork) -> str:
    """Render a one-mode network as a NET file, byte-stable across runs.

    Vertices appear 1-based in network order with quoted labels; edge
    lines are ``i j value`` with i < j.
    """
    out = [f"*Vertices {net.n}"]
    out += [f"{pos} {_net_quote(net.label(v))}" for pos, v in enumerate(net.vertices, start=1)]
    out.append("*Edges")
    out += [f"{i + 1} {j + 1} {value}" for i, j, value in net._lines()]
    return "\n".join(out) + "\n"


class _Rows(list):
    """A list that a ``csv.writer`` writes into, one string per row."""

    write = list.append


def write_edge_list_csv(net: OneModeNetwork) -> str:
    """Edge list with header ``source,target,value``, one row per line,
    ordered by (source position, target position).

    The csv module renders each id that has a line once, as a cell of its
    own: a field's quoting does not depend on the fields beside it, and an
    id is never empty (the one field the module quotes only when alone).
    """
    vertices, rows = net.frozen().vertices, net._rows
    cells = _Rows()
    csv.writer(cells, lineterminator="\n").writerows(zip(compress(vertices, rows)))
    cell = dict(zip(compress(range(len(rows)), rows), (c[:-1] for c in cells)))
    out = ["source,target,value"]
    out += [f"{cell[i]},{cell[j]},{value}" for i, j, value in net._lines()]
    return "\n".join(out) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(net: OneModeNetwork) -> str:
    """Graphviz rendering of the valued network (undirected)."""
    vertices = net.vertices
    quoted = list(map(_dot_quote, vertices))  # each id quoted once, by position
    out = ["graph interlock {"]
    for q, v in zip(quoted, vertices):
        label = net.label(v)
        out.append(f"  {q} [label={_dot_quote(label)}];" if label != v else f"  {q};")
    out += [
        f'  {quoted[i]} -- {quoted[j]} [label="{value}", weight={value}];'
        for i, j, value in net._lines()
    ]
    out.append("}")
    return "\n".join(out) + "\n"


def csv_kind(text: str) -> str:
    """Classify a CSV head as ``affiliations`` or ``degrees`` by its header."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        row, names = _csv_header(reader)
    except csv.Error as exc:
        raise FormatError(reader.line_num, str(exc)) from None
    if sorted(names) == ["actor", "event"]:
        return "affiliations"
    if "degree" in names:
        return "degrees"
    raise FormatError(reader.line_num, f"unrecognized header: {row!r}")


def parse_degree_list_csv(text: str) -> tuple[list[int], ParseDiagnostics]:
    """Read a per-vertex degree census (any header containing ``degree``)."""
    degrees: list[int] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        row, names = _csv_header(reader)
        if "degree" not in names:
            raise FormatError(reader.line_num, f"no degree column in header: {row!r}")
        col, width = names.index("degree"), len(names)
        for row in reader:
            if not "".join(row).strip():
                continue
            line = reader.line_num
            if len(row) != width:
                raise FormatError(line, f"expected {width} fields, got {len(row)}")
            cell = row[col].strip()
            if not cell.isdecimal():
                raise FormatError(line, f"degree must be a non-negative integer, got {cell!r}")
            degrees.append(_int(cell, line))
    except csv.Error as exc:
        raise FormatError(reader.line_num, str(exc)) from None
    return degrees, ParseDiagnostics(records_read=len(degrees))
