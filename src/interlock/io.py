"""Readers and writers for affiliation and one-mode network files.

Supported inputs: membership CSV (``actor,event`` header, either column
order), degree-census CSV (a header with a ``degree`` column), two-mode
NET and one-mode NET files.  Supported outputs for one-mode networks:
NET, edge-list CSV, and DOT.  All text is UTF-8 with ``\\n`` line ends;
every parse rejection carries the offending line number.
"""

from __future__ import annotations

import io
import unicodedata
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter

from .model import EMPTY_IDENTIFIER, OneModeNetwork, TwoModeNetwork, normalize_identifier

# The csv module re-exports reader, writer, field_size_limit and Error from
# the C module _csv, whose default format is the csv module's ``excel``
# dialect.  Taken from there, they come without the csv module, which
# imports ``re`` (for its Sniffer) and ``enum``.
try:
    import _csv as csv
except ImportError:
    import csv


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


_CHUNK = 1 << 14  # the fewest characters a chunk of CSV lines holds, bar the last


def _chunks(text: str, start: int = 0):
    """``text[start:]`` in pieces that each end just after the first ``\\n`` at
    or beyond ``_CHUNK`` characters (the last piece ends where the text ends)."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str, start: int = 0):
    """The lines ``io.StringIO(text[start:], newline="")`` yields, read one
    chunk at a time: no line and no ``\\r\\n`` pair spans a cut just after a
    ``\\n``.  The ``StringIO`` (4 bytes per character) then holds one chunk,
    not the whole text, and a reader that stops early reads no further."""
    return chain.from_iterable(map(io.StringIO, _chunks(text, start), repeat("")))


def _csv_rows(reader):
    """The rows ``reader`` reads; a ``csv.Error`` is a :class:`FormatError` at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(reader.line_num, str(exc)) from None


def _csv_header(rows) -> tuple[list[str], list[str]]:
    """The first row of ``rows`` with a non-blank cell, and its cells
    trimmed and lower-cased; no such row is a :class:`FormatError` at line 1."""
    for row in rows:
        if "".join(row).strip():
            return row, [cell.strip().lower() for cell in row]
    raise FormatError(1, "missing header row")


# What bytes.translate deletes to test a chunk: every byte but "," and "\n";
# and the plain bytes, printable ASCII but ",", "'" and "\\", of which a cell
# is its own repr inside single quotes.
_NOT_COMMA_OR_LF = bytes(sorted({*range(256)} - {*b",\n"}))
_PLAIN = bytes(sorted({*range(0x20, 0x7F)} - {*b",'\\"}))


class _CsvRows:
    """The rows after the header that ``reader``, a ``csv.reader`` over
    ``_lines(text)``, has read, as ``(pairs, plain)`` pieces: ``pairs``
    yields each row's cells as that reader would read them, with its line,
    and ``plain`` says that each cell is printable ASCII other than ``'``
    and ``\\``.  From the header's end the text is read in chunks.  One with
    no quote, NUL or lone ``\\r`` and at most ``csv.field_size_limit()``
    characters has its lines counted, one to a row: if each holds exactly
    one comma, the chunk is cut once and its rows are its two columns,
    taken by stride (a plain piece if every cell is plain), else a
    ``csv.reader`` of its own reads it.  The first other chunk sends the
    rest through one ``csv.reader``: ``reader`` itself if no chunk came
    before, and then its rows carry line 0 (its ``line_num`` is their
    line).  Inside ``with``, a ``csv.Error`` is a :class:`FormatError` at
    its line."""

    def __init__(self, text: str, reader) -> None:
        # the reader of the rest of the text, and the line before its first
        self._reader, self._line = reader, 0
        self._iter = self._pieces(text)

    def __iter__(self):
        return self._iter

    def _pieces(self, text: str):
        line = header = self._reader.line_num
        start = sum(map(len, islice(_lines(text), header)))
        limit = csv.field_size_limit()
        for chunk in _chunks(text, start):
            crs = chunk.count("\r")
            lone_cr = crs and crs != chunk.count("\r\n")
            if '"' in chunk or "\0" in chunk or lone_cr or len(chunk) > limit:
                if line == header:
                    yield zip(self._reader, repeat(0)), False
                else:
                    reader = csv.reader(_lines(text, start))
                    self._reader, self._line = reader, line
                    read = map(attrgetter("line_num"), repeat(reader))
                    yield zip(reader, map(line.__add__, read)), False
                return
            start += len(chunk)
            if crs:  # each \r ends a line, before its \n
                chunk = chunk.replace("\r", "")
            if chunk[-1] != "\n":  # the last line of a text with no final line end
                chunk += "\n"
            lines = chunk.count("\n")
            numbers = range(line + 1, line + lines + 1)
            line += lines
            # the chunk's bytes but the plain ones; in a plain chunk with one
            # comma per line, its commas and line ends, in order
            rest = chunk.encode("utf-8", "surrogatepass").translate(None, _PLAIN)
            marks = b",\n" * lines
            plain = rest == marks
            if plain or rest.translate(None, _NOT_COMMA_OR_LF) == marks:
                cells = chunk.replace("\n", ",").split(",")
                yield zip(zip(cells[0::2], cells[1::2]), numbers), plain
            else:
                yield zip(csv.reader(io.StringIO(chunk, newline="")), numbers), False

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, csv.Error):
            raise FormatError(self._line + self._reader.line_num, str(exc)) from None


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
    reader = csv.reader(_lines(text))
    row, names = _csv_header(_csv_rows(reader))
    if sorted(names) != ["actor", "event"]:
        raise FormatError(
            reader.line_num, f"expected header with columns actor,event; got {row!r}"
        )
    event_col, actor_col = names.index("event"), names.index("actor")
    # One loop frame per row: the event memo is probed, the actor id is
    # computed by normalize_identifier's rule and the seat is stored as
    # TwoModeNetwork.add_affiliation stores it, all inline.  A row that
    # reader reads on carries line 0: its line is read from reader only for
    # a warning or an error.
    event_ids, add_event, holdings = net._event_ids, net.add_event, net._actor_events
    multi = net._multi.append
    normalize, warn = unicodedata.normalize, diags.warnings.append
    records = duplicates = 0
    with _CsvRows(text, reader) as pieces:
        for rows, plain in pieces:
            for row, line in rows:
                if len(row) != 2:
                    if "".join(row).strip():
                        why = f"expected 2 fields, got {len(row)}"
                        raise FormatError(line or reader.line_num, why)
                    continue
                event = row[event_col]
                eid = event_ids.get(event)
                if eid is None:
                    try:
                        eid = add_event(event)
                    except ValueError:  # empty after trimming
                        eid = ""
                aid = row[actor_col].strip()
                # a plain piece is ASCII; NFC leaves ASCII as it is, and
                # casefold() is lower() there
                if not plain and not aid.isascii():
                    aid = normalize("NFC", aid)
                    if casefold_actors:
                        aid = normalize("NFC", aid.casefold())
                elif casefold_actors:
                    aid = aid.lower()
                # A 2-cell row is blank exactly when both identifiers are
                # empty, so a row is tested for blankness only once one of
                # them is.
                if not (eid and aid):
                    if "".join(row).strip():
                        raise FormatError(line or reader.line_num, EMPTY_IDENTIFIER)
                    continue
                records += 1
                held = holdings.get(aid)
                if held is None:  # a first board: its bare id
                    holdings[aid] = eid
                elif type(held) is not dict and held != eid:  # a second board
                    holdings[aid] = held = {held: None, eid: None}
                    multi(held)
                elif type(held) is dict and eid not in held:
                    held[eid] = None
                else:
                    duplicates += 1
                    # repr(row), without the list repr's recursion guard,
                    # and in a plain piece without repr
                    a, b = row
                    if plain:
                        warn((line, f"duplicate membership collapsed: ['{a}', '{b}']"))
                    else:
                        why = f"duplicate membership collapsed: [{a!r}, {b!r}]"
                        warn((line or reader.line_num, why))
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


def _regular_cut(text: str):
    """``(counts, vertices, edges)`` of a text whose first line is exactly
    ``*Vertices <n> <nEvents>`` in ASCII digits, one space apart, and that
    holds ``*Edges`` and a line end: the two numbers, then the text between
    the first line and the last such ``*Edges``, and the text after it.
    None for any other text."""
    head, _, rest = text.partition("\n")
    fields = head.split()
    digits = "".join(fields[1:])
    if not (
        len(fields) == 3 and head == " ".join(fields)
        and fields[0] == "*Vertices" and digits.isascii() and digits.isdigit()
    ):
        return None
    # the last *Edges: a regular vertex block holds none, and ends in a line
    # end, so that this one is a line of its own
    vertices, marker, edges = rest.rpartition("*Edges\n")
    if not marker:
        return None
    try:
        counts = list(map(int, fields[1:]))
    except ValueError:  # too long for int: the section scan names it
        return None
    return counts, vertices, edges


def _regular_vertices(block: str, n: int):
    """Labels of the vertices the lines of ``block`` define, in line order,
    if every line reads ``<index> "<label>"`` with one space and a line end,
    the index in ASCII digits, within 1..n and on no other line, and no
    label holds a line break ``str.splitlines`` knows; else None."""
    if not block:
        return {}
    # the first and last characters the exact test below implies, checked
    # first to turn away a comment, a blank line or a tail there at no cost
    if not block[0].isdigit() or not block.endswith('"\n'):
        return None
    parts = block.split('"')
    spaces, labels = parts[0::2], parts[1::2]
    indices = "".join(spaces).split()
    # the parts around the labels are exactly "<index> ", "\n<index> " for
    # each later line, and "\n" after the last label
    if '"'.join(spaces) != ' "\n'.join(indices) + ' "\n':
        return None
    digits, text = "".join(indices), "".join(labels)
    if not (digits.isascii() and digits.isdigit()) or text and text.splitlines() != [text]:
        return None
    try:
        indices = list(map(int, indices))
    except ValueError:  # too long for int: _parse_vertex_defs names it
        return None
    # one key a label: no index repeats, and no quote is left over
    names = dict(zip(indices, labels))
    if not (len(names) == len(labels) and 1 <= min(names) and max(names) <= n):
        return None
    return names


_ASCII_DIGITS = b"0123456789"


def _regular_edges(block: str, n: int, n_events: int):
    """``(events, actors)``: the columns of the lines of ``block`` if every
    line reads ``<event> <actor>`` and a line end, in ASCII digits one
    space apart, with 1 <= event <= nEvents < actor <= n; else None."""
    if not block:
        return [], []
    if not block.isascii():
        return None
    data = block.encode()
    # one space and a line end on each line and nothing else but digits;
    # then a line with no digits on one side of its space leaves the count
    # short
    skeleton = data.translate(None, _ASCII_DIGITS)
    lines = len(skeleton) // 2
    if skeleton != b" \n" * lines:
        return None
    # the first event alone, then the events, then the actors: a block with
    # actors first on some lines is turned away before it is all read
    try:
        if int(data[: data.find(b" ")]) > n_events:
            return None
        tokens = data.split()
        if len(tokens) != 2 * lines:
            return None
        events = list(map(int, tokens[0::2]))
        if not 1 <= min(events) <= max(events) <= n_events:
            return None
        actors = list(map(int, tokens[1::2]))
    except ValueError:  # too long for int: the per-line checks name it
        return None
    if not n_events < min(actors) <= max(actors) <= n:
        return None
    return events, actors


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
    # A regular file is read a section at a time.  The cut at the header's
    # line end and at the *Edges line finds the sections as the section scan
    # would if no line holds another line break, which a regular vertex
    # block rules out.  Any other file goes to the scan and is read line by
    # line as before, but for a regular vertex block, which is kept.
    cut, names, columns, head_no = _regular_cut(text), None, None, 1
    if cut is not None:
        (n, n_events), vertices, edges = cut
        names = _regular_vertices(vertices, n)
        if names is not None:
            columns = _regular_edges(edges, n, n_events)
    if columns is None:
        head_no, (n, n_events), vertex_lines, edge_lines = _split_sections(text, 2)
    if n_events > n:
        raise FormatError(head_no, f"event count {n_events} exceeds vertex count {n}")
    if names is None:
        names, def_lines = _parse_vertex_defs(vertex_lines, n)
    else:
        def_lines = None

    def line_of(i: int) -> int:
        """The line defining vertex ``i``, or the header's for an undefined
        one.  A regular vertex block defines its vertices in the order of
        ``names``, the first on line 2; only an error or a dropped actor's
        warning reads a line, so that map is built at the first one."""
        nonlocal def_lines
        if def_lines is None:
            def_lines = dict(zip(names, count(2)))
        return def_lines.get(i, head_no)

    net = TwoModeNetwork(casefold_actors=casefold_actors)
    event_ids = [""]  # event index -> id; index 0 is no event
    seen_events: set[str] = set()
    for i in range(1, n_events + 1):
        label = _vertex_name(names, i)
        try:
            eid = net.add_event(label, label)
        except ValueError as exc:
            raise FormatError(line_of(i), str(exc)) from None
        if eid in seen_events:  # two labels that trim and normalize alike
            raise FormatError(line_of(i), f"duplicate event label {label!r}")
        seen_events.add(eid)
        event_ids.append(eid)

    # Actors are told apart by their trimmed NFC id, as the network merges
    # them (a blank label is kept raw and refused where an edge uses it).  An
    # undefined actor is named by its number, so it can clash only with an id
    # reading as that.  NFC leaves ASCII text as it is, so when every label
    # trims to ASCII an id is its label trimmed.
    ids = {i: label.strip() or label for i, label in names.items() if i > n_events}
    if not "".join(ids.values()).isascii():
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
                raise FormatError(line_of(i), f"duplicate actor label {label!r}")
            seen_actors.add(aid)

    holdings, multi = net._actor_events, net._multi.append
    warn, normalize = diags.warnings.append, unicodedata.normalize
    if columns is not None:
        # Every edge is event-first and in range.  Each linked actor's id is
        # resolved once, in the order of their first edges, as the loop below
        # would; a blank one is refused at its first edge.  The seat is
        # stored as TwoModeNetwork.add_affiliation stores it.
        events, actors = columns
        first = len(names) + 3  # one vertex line a name, then the *Edges line
        numbers = range(first, first + len(events))
        actor_ids = {i: ids[i] if i in ids else str(i) for i in dict.fromkeys(actors)}
        if not all(map(str.strip, actor_ids.values())):
            blank = next(i for i, aid in actor_ids.items() if not aid.strip())
            raise FormatError(numbers[actors.index(blank)], EMPTY_IDENTIFIER)
        if casefold_actors:
            actor_ids = {i: normalize("NFC", aid.casefold()) for i, aid in actor_ids.items()}
        duplicates = 0
        for no, event_idx, actor_idx in zip(numbers, events, actors):
            aid, eid = actor_ids[actor_idx], event_ids[event_idx]
            held = holdings.get(aid)
            if held is None:  # a first board: its bare id
                holdings[aid] = eid
            elif type(held) is not dict and held != eid:  # a second board
                holdings[aid] = held = {held: None, eid: None}
                multi(held)
            elif type(held) is dict and eid not in held:
                held[eid] = None
            else:
                duplicates += 1
                warn((no, f"duplicate affiliation collapsed: {event_idx} {actor_idx}"))
        diags.records_read, diags.duplicates_collapsed = len(numbers), duplicates
    else:
        # One loop frame per edge: the tokens are read by int() (_int only
        # names a number too long), each actor index is resolved to its id
        # once, by the first edge that links it (its key in actor_ids marks it
        # linked), and the seat is stored as TwoModeNetwork.add_affiliation
        # stores it.
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
                # the id built for the label check; an undefined actor's
                # number is its own id, and case folding leaves it as it is
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
            if held is None:  # a first board: its bare id
                holdings[aid] = eid
            elif type(held) is not dict and held != eid:  # a second board
                holdings[aid] = held = {held: None, eid: None}
                multi(held)
            elif type(held) is dict and eid not in held:
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
            diags.warn(line_of(idx), f"actor vertex {names[idx]!r} has no affiliation; dropped")
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
    labels = net._labels  # a vertex without a label is labelled by its id
    out = [f"*Vertices {net.n}"]
    out += [
        f"{pos} {_net_quote(labels.get(v, v))}" for pos, v in enumerate(net.vertices, start=1)
    ]
    out.append("*Edges")
    out += [f"{i + 1} {j + 1} {value}" for i, j, value in net._lines()]
    return "\n".join(out) + "\n"


class _Rows(list):
    """A list that a ``csv.writer`` writes into, one string per row."""

    write = list.append


def write_edge_list_csv(net: OneModeNetwork) -> str:
    """Edge list with header ``source,target,value``, one row per line,
    ordered by (source position, target position).

    The csv module renders the ids that have a line as one row.  A field's
    quoting does not depend on the fields beside it, and an id is never
    empty (the one field the module quotes only when alone).  So when that
    row is the ids' comma join, every id is its own cell; otherwise the
    module renders each of them once, as a row of its own.
    """
    vertices, rows = net.vertices, net._rows
    linked = list(compress(vertices, rows))
    cells = _Rows()
    writer = csv.writer(cells, lineterminator="\n")
    writer.writerow(linked)
    if cells[0] == ",".join(linked) + "\n":
        cell = vertices
    else:
        cells.clear()
        writer.writerows(zip(linked))
        cell = dict(zip(compress(range(len(rows)), rows), (c[:-1] for c in cells)))
    out = ["source,target,value"]
    out += [f"{cell[i]},{cell[j]},{value}" for i, j, value in net._lines()]
    return "\n".join(out) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(net: OneModeNetwork) -> str:
    """Graphviz rendering of the valued network (undirected)."""
    vertices, labels = net.vertices, net._labels
    quoted = list(map(_dot_quote, vertices))  # each id quoted once, by position
    out = ["graph interlock {"]
    for q, v in zip(quoted, vertices):
        label = labels.get(v, v)
        out.append(f"  {q} [label={_dot_quote(label)}];" if label != v else f"  {q};")
    out += [
        f'  {quoted[i]} -- {quoted[j]} [label="{value}", weight={value}];'
        for i, j, value in net._lines()
    ]
    out.append("}")
    return "\n".join(out) + "\n"


def csv_kind(text: str) -> str:
    """Classify a CSV head as ``affiliations`` or ``degrees`` by its header."""
    reader = csv.reader(_lines(text))
    row, names = _csv_header(_csv_rows(reader))
    if sorted(names) == ["actor", "event"]:
        return "affiliations"
    if "degree" in names:
        return "degrees"
    raise FormatError(reader.line_num, f"unrecognized header: {row!r}")


def parse_degree_list_csv(text: str) -> tuple[list[int], ParseDiagnostics]:
    """Read a per-vertex degree census (any header containing ``degree``)."""
    degrees: list[int] = []
    reader = csv.reader(_lines(text))
    rows = _csv_rows(reader)
    row, names = _csv_header(rows)
    if "degree" not in names:
        raise FormatError(reader.line_num, f"no degree column in header: {row!r}")
    col, width = names.index("degree"), len(names)
    for row in rows:
        if not "".join(row).strip():
            continue
        line = reader.line_num
        if len(row) != width:
            raise FormatError(line, f"expected {width} fields, got {len(row)}")
        cell = row[col].strip()
        if not cell.isdecimal():
            raise FormatError(line, f"degree must be a non-negative integer, got {cell!r}")
        degrees.append(_int(cell, line))
    return degrees, ParseDiagnostics(records_read=len(degrees))
