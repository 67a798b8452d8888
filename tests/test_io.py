import csv
import io
import sys
import time
import tracemalloc
from collections import Counter
from itertools import islice
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_project_events,
    reference_csv_kind,
    reference_parse_csv_affiliations,
    reference_parse_degree_list_csv,
    reference_parse_net_two_mode,
    reference_parse_vertex_defs,
    reference_split_sections,
    validate_two_mode,
)

from interlock import (
    BipartitenessError,
    FormatError,
    OneModeNetwork,
    ParseDiagnostics,
    TwoModeNetwork,
    parse_csv_affiliations,
    parse_degree_list_csv,
    parse_net_one_mode,
    parse_net_two_mode,
    project_events,
    write_dot,
    write_edge_list_csv,
    write_net_one_mode,
)
import interlock.io
from interlock.io import (
    _chunks,
    _CsvRows,
    _lines,
    _parse_vertex_defs,
    _regular_edges,
    _split_sections,
    csv_kind,
)
from interlock.model import normalize_identifier


class TestParseCsvAffiliations:
    def test_basic_rows(self):
        net, diags = parse_csv_affiliations("actor,event\na,J1\nb,J1\nb,J2\n")
        assert net.members("J1") == frozenset({"a", "b"})
        assert net.members("J2") == frozenset({"b"})
        assert diags.records_read == 3
        assert diags.duplicates_collapsed == 0

    def test_header_only(self):
        net, diags = parse_csv_affiliations("actor,event\n")
        assert net.events == ()
        assert diags.records_read == 0

    def test_duplicate_rows_collapse_with_warning(self):
        net, diags = parse_csv_affiliations("actor,event\na,J1\na,J1\n")
        assert net.seats() == 1
        assert diags.duplicates_collapsed == 1
        assert diags.warnings and diags.warnings[0][0] == 3

    def test_swapped_header_order(self):
        net, _ = parse_csv_affiliations("event,actor\nJ1,a\n")
        assert net.members("J1") == frozenset({"a"})

    def test_unknown_header_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_csv_affiliations("person,journal\na,J1\n")
        assert err.value.line == 1

    def test_wrong_field_count_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_csv_affiliations("actor,event\na,J1\nb\n")
        assert err.value.line == 3

    def test_empty_identifier_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_csv_affiliations("actor,event\n  ,J1\n")
        assert err.value.line == 2

    def test_oversized_field_carries_line_number(self):
        # quote-free text: a chunk longer than the field size limit is left
        # to the csv module, whose message the error carries
        big = "J" * 200_000
        cases = (
            (parse_csv_affiliations, f"actor,event\na,J1\nb,{big}\n", 3),
            (parse_csv_affiliations, f"actor,event\n{'A' * 140_000},J1\n", 2),
            (parse_degree_list_csv, f"id,degree\na,1\nb,{big}\n", 3),
            (csv_kind, f"actor,{big}\n", 1),
        )
        for parse, text, line in cases:
            with pytest.raises(FormatError) as err:
                parse(text)
            assert (err.value.line, err.value.reason) == (
                line, "field larger than field limit (131072)"
            )

    def test_quoted_fields_with_commas(self):
        text = 'actor,event\n"Smith, Ann","Library Collections, Acquisitions"\n'
        net, _ = parse_csv_affiliations(text)
        assert net.actors == ("Smith, Ann",)
        assert net.events == ("Library Collections, Acquisitions",)

    def test_blank_lines_skipped(self):
        net, diags = parse_csv_affiliations("actor,event\n\na,J1\n\n")
        assert diags.records_read == 1
        assert net.seats() == 1

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_csv_affiliations("")


class TestParseNetTwoMode:
    def test_single_event_with_two_actors(self):
        text = '*Vertices 3 1\n1 "J1"\n2 "a"\n3 "b"\n*Edges\n1 2\n1 3\n'
        net, diags = parse_net_two_mode(text)
        assert net.events == ("J1",)
        assert net.members("J1") == frozenset({"a", "b"})
        assert diags.records_read == 2

    def test_event_without_actors(self):
        net, _ = parse_net_two_mode('*Vertices 1 1\n1 "J1"\n*Edges\n')
        assert net.events == ("J1",)
        assert net.members("J1") == frozenset()

    def test_actor_actor_edge_rejected(self):
        text = '*Vertices 3 1\n1 "J1"\n2 "a"\n3 "b"\n*Edges\n2 3\n'
        with pytest.raises(BipartitenessError) as err:
            parse_net_two_mode(text)
        assert err.value.line == 6

    def test_event_event_edge_rejected(self):
        text = '*Vertices 3 2\n1 "J1"\n2 "J2"\n3 "a"\n*Edges\n1 2\n'
        with pytest.raises(BipartitenessError):
            parse_net_two_mode(text)

    @pytest.mark.parametrize("space", [" ", "\t"])  # edges read as a block, line by line
    def test_blank_actor_label_refused_at_its_first_edge(self, space):
        edges = "".join(f"1{space}{actor}\n" for actor in (2, 4, 3, 3))
        text = f'*Vertices 4 1\n1 "J1"\n2 "a"\n3 "  "\n4 "b"\n*Edges\n{edges}'
        with pytest.raises(FormatError) as err:
            parse_net_two_mode(text)
        assert (err.value.line, err.value.reason) == (9, "identifier is empty after trimming")

    def test_index_out_of_range(self):
        text = '*Vertices 2 1\n1 "J1"\n2 "a"\n*Edges\n1 5\n'
        with pytest.raises(FormatError) as err:
            parse_net_two_mode(text)
        assert err.value.line == 5
        assert not isinstance(err.value, BipartitenessError)

    def test_labels_preserved(self):
        text = '*Vertices 2 1\n1 "Journal of Documentation"\n2 "Ann Smith"\n*Edges\n1 2\n'
        net, _ = parse_net_two_mode(text)
        assert net.event_label("Journal of Documentation") == "Journal of Documentation"
        assert net.actors == ("Ann Smith",)

    def test_seatless_actor_dropped_with_warning(self):
        text = '*Vertices 3 1\n1 "J1"\n2 "a"\n3 "b"\n*Edges\n1 2\n'
        net, diags = parse_net_two_mode(text)
        assert net.actors == ("a",)
        assert any("no affiliation" in msg for _, msg in diags.warnings)

    def test_blank_event_label_carries_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_net_two_mode('*Vertices 3 1\n1 "   "\n2 "a"\n3 "b"\n*Edges\n1 2\n')
        assert err.value.line == 2

    def test_dropped_actor_warning_carries_its_line(self):
        text = '% boards\n*Vertices 4 1\n1 "J1"\n2 "a"\n3 "b"\n*Edges\n1 2\n'
        _, diags = parse_net_two_mode(text)
        # "b" is defined on line 5; vertex 4 has no line of its own
        assert diags.warnings == [
            (5, "actor vertex 'b' has no affiliation; dropped"),
            (2, "actor vertex '4' has no affiliation; dropped"),
        ]

    def test_undefined_unlinked_actor_runs_warn_once_at_the_header(self):
        text = (
            '*Vertices 12 1\n1 "J1"\n3 "c"\n7 "g"\n*Edges\n1 3\n1 5\n1 11\n'
        )
        net, diags = parse_net_two_mode(text)
        assert net.actors == ("c", "5", "11")
        # 2 alone, 4 and 6 around linked 5, 8..10 and 12: "g" keeps its own line
        assert diags.warnings == [
            (1, "actor vertex '2' has no affiliation; dropped"),
            (1, "actor vertex '4' has no affiliation; dropped"),
            (1, "actor vertex '6' has no affiliation; dropped"),
            (4, "actor vertex 'g' has no affiliation; dropped"),
            (1, "actor vertices 8..10 are undefined and have no affiliation; dropped"),
            (1, "actor vertex '12' has no affiliation; dropped"),
        ]

    def test_undefined_actor_clashes_with_a_label_spelling_its_number(self):
        # actor 2 is undefined and so named "2"; actor 3's label spells it
        with pytest.raises(FormatError) as err:
            parse_net_two_mode('*Vertices 3 1\n1 "J1"\n3 "2"\n*Edges\n1 3\n')
        assert (err.value.line, err.value.reason) == (3, "duplicate actor label '2'")
        # the label comes first: the clash is reported at the undefined actor
        with pytest.raises(FormatError) as err:
            parse_net_two_mode('*Vertices 3 1\n1 "J1"\n2 "3"\n*Edges\n1 2\n')
        assert (err.value.line, err.value.reason) == (1, "duplicate actor label '3'")
        # "03" and a label longer than any index are not numbers of a vertex
        net, _ = parse_net_two_mode(
            f'*Vertices 4 1\n1 "J1"\n2 "03"\n4 "{"9" * 5000}"\n*Edges\n1 2\n1 3\n'
        )
        assert net.actors == ("03", "3")
        # labels are judged on their trimmed NFC id, as the network merges them
        for text, line, label in (
            ('*Vertices 4 2\n1 "J1"\n2 "J2"\n3 " X"\n4 "X"\n*Edges\n1 3\n2 4\n', 5, "X"),
            ('*Vertices 4 2\n1 "J1"\n2 "J2"\n3 "X"\n4 "X "\n*Edges\n1 3\n2 4\n', 5, "X "),
            # a decomposed and a composed e-acute
            (
                '*Vertices 4 2\n1 "J"\n2 "K"\n3 "e\u0301"\n4 "\u00e9"\n*Edges\n1 3\n2 4\n',
                5,
                "\u00e9",
            ),
            ('*Vertices 4 1\n1 "J"\n2 " 4"\n*Edges\n1 2\n1 4\n', 1, "4"),
        ):
            with pytest.raises(FormatError) as err:
                parse_net_two_mode(text)
            assert (err.value.line, err.value.reason) == (line, f"duplicate actor label {label!r}")
        # case variants are two actors unless names are case-folded
        text = '*Vertices 4 2\n1 "J1"\n2 "J2"\n3 "x"\n4 "X"\n*Edges\n1 3\n2 4\n'
        assert parse_net_two_mode(text)[0].actors == ("x", "X")
        assert parse_net_two_mode(text, casefold_actors=True)[0].actors == ("x",)

    def test_numbers_int_cannot_read_are_rejected(self):
        for text in (
            "*Vertices \u00b2 1\n",
            '*Vertices 2 1\n\u00b2 "J1"\n',
            '*Vertices 2 1\n1 "J1"\n2 "a"\n*Edges\n1 --2\n',
            '*Vertices 2 1\n1 "J1"\n2 "a"\n*Edges\n1 \u00b2\n',
        ):
            with pytest.raises(FormatError):
                parse_net_two_mode(text)
        with pytest.raises(FormatError) as err:
            parse_degree_list_csv("degree\n3\n\u00b2\n")
        assert err.value.line == 3

    def test_numbers_too_long_for_int_carry_their_line(self):
        big = "7" * 5000
        for parse, text, line, chars in (
            (parse_net_two_mode, f"*Vertices {big} 1\n", 1, 5000),
            (parse_net_two_mode, f"*Vertices 2 {big}\n", 1, 5000),
            (parse_net_two_mode, f'*Vertices 2 1\n{big} "J1"\n', 2, 5000),
            (parse_net_two_mode, f"*Vertices 2 1\n1 J1\n{big} a\n", 3, 5000),
            (parse_net_two_mode, f'*Vertices 2 1\n1 "J1"\n*Edges\n{big} 2\n', 4, 5000),
            (parse_net_two_mode, f'*Vertices 2 1\n1 "J1"\n*Edges\n1 -{big}\n', 4, 5001),
            # both too long: the first is named
            (parse_net_two_mode, f'*Vertices 2 1\n1 "J1"\n*Edges\n{big} -{big}\n', 4, 5000),
            (parse_net_one_mode, f"*Vertices {big}\n", 1, 5000),
            (parse_net_one_mode, f'*Vertices 2\n1 "A"\n*Edges\n1 2 {big}\n', 4, 5000),
            (parse_degree_list_csv, f"journal,degree\na,1\nb,{big}\n", 3, 5000),
        ):
            with pytest.raises(FormatError) as err:
                parse(text)
            assert (err.value.line, err.value.reason) == (
                line, f"number too long: {chars} characters"
            )

    def test_missing_vertex_header(self):
        with pytest.raises(FormatError):
            parse_net_two_mode("*Edges\n1 2\n")

    def test_one_int_header_rejected(self):
        with pytest.raises(FormatError):
            parse_net_two_mode('*Vertices 2\n1 "J1"\n2 "a"\n*Edges\n')

    def test_comment_lines_skipped(self):
        text = '% boards\n*Vertices 2 1\n1 "J1"\n2 "a"\n*Edges\n1 2\n'
        net, _ = parse_net_two_mode(text)
        assert net.seats() == 1

    def test_duplicate_labels_within_a_namespace_rejected(self):
        with pytest.raises(FormatError):
            parse_net_two_mode('*Vertices 3 1\n1 "J1"\n2 "a"\n3 "a"\n*Edges\n')
        with pytest.raises(FormatError):
            parse_net_two_mode('*Vertices 3 2\n1 "J1"\n2 "J1"\n3 "a"\n*Edges\n')

    def test_event_labels_that_normalize_alike_are_duplicates(self):
        # " J" and "J" name one journal once trimmed, so the second
        # definition is the duplicate, at its own vertex line
        text = '*Vertices 4 2\n1 " J"\n2 "J"\n3 "a"\n4 "b"\n*Edges\n1 3\n2 4\n'
        with pytest.raises(FormatError) as err:
            parse_net_two_mode(text)
        assert (err.value.line, err.value.reason) == (3, "duplicate event label 'J'")

    def test_same_label_across_namespaces_allowed(self):
        net, _ = parse_net_two_mode('*Vertices 2 1\n1 "X"\n2 "X"\n*Edges\n1 2\n')
        assert net.events == ("X",)
        assert net.actors == ("X",)

    @staticmethod
    def _count_normalizations(monkeypatch, editor):
        """The actors and the normalize_identifier calls of a file whose
        actors 3..42 are labelled `` <editor> <k>``, each linked to both
        events, actor-first too."""
        calls = []

        def counted(raw, *, casefold=False):
            calls.append(raw)
            return normalize_identifier(raw, casefold=casefold)

        monkeypatch.setattr("interlock.io.normalize_identifier", counted)
        defined = 40
        vertices = "".join(f'{k} " {editor} {k}"\n' for k in range(3, 3 + defined))
        edges = "".join(f"1 {k}\n{k} 2\n" for k in range(3, 3 + defined))
        text = f'*Vertices {2 + defined} 2\n1 "J1"\n2 "J2"\n{vertices}*Edges\n{edges}'
        net, diags = parse_net_two_mode(text)
        assert (diags.records_read, diags.warnings) == (2 * defined, [])
        return net.actors, calls

    def test_each_defined_actor_label_is_normalized_once(self, monkeypatch):
        # a decomposed accent: NFC composes it
        actors, calls = self._count_normalizations(monkeypatch, "E\u0301ditor")
        assert actors == tuple(f"\u00c9ditor {k}" for k in range(3, 43))
        assert len(calls) == 40

    def test_all_ascii_actor_labels_are_only_trimmed(self, monkeypatch):
        actors, calls = self._count_normalizations(monkeypatch, "Editor")
        assert actors == tuple(f"Editor {k}" for k in range(3, 43))
        assert calls == []

    def test_many_dropped_actors_each_warned_at_its_own_line(self):
        # 20,000 defined actors on no board, their vertex lines in reverse
        # index order after the one linked actor's: the block reader locates
        # each of them in time linear in the file
        dropped = 20_000
        n = 2 + dropped
        vertices = "".join(f'{k} "A{k}"\n' for k in range(n, 2, -1))
        text = f'*Vertices {n} 1\n1 "J"\n2 "B"\n{vertices}*Edges\n1 2\n'
        with mock.patch.object(interlock.io, "_parse_vertex_defs") as line_reader:
            start = time.perf_counter()
            net, diags = parse_net_two_mode(text)
            elapsed = time.perf_counter() - start
        assert line_reader.call_count == 0  # read by blocks
        assert elapsed < 1.0
        assert net.actors == ("B",)
        assert diags.warnings == [
            (n + 4 - k, f"actor vertex 'A{k}' has no affiliation; dropped") for k in range(3, n + 1)
        ]

    @pytest.mark.parametrize(
        "vertices, line, reason",
        [
            ('2 "J"\n1 " J"\n3 "a"\n4 "b"\n', 2, "duplicate event label 'J'"),
            ('1 "J1"\n2 "J2"\n4 "a"\n3 " a"\n', 4, "duplicate actor label 'a'"),
            ('1 "J1"\n2 "  "\n3 "a"\n4 "b"\n', 3, "identifier is empty after trimming"),
        ],
    )
    def test_label_errors_on_the_block_path_name_their_lines(self, vertices, line, reason):
        # the later vertex of a duplicate pair by index is on the earlier line
        text = f"*Vertices 4 2\n{vertices}*Edges\n1 3\n2 4\n"
        with mock.patch.object(interlock.io, "_parse_vertex_defs") as line_reader:
            with pytest.raises(FormatError) as err:
                parse_net_two_mode(text)
        assert line_reader.call_count == 0
        assert (err.value.line, err.value.reason) == (line, reason)


class TestWriteNetOneMode:
    def test_two_vertices_one_edge(self):
        net = OneModeNetwork(["J1", "J2"])
        net.add_edge("J1", "J2", 2)
        assert write_net_one_mode(net) == '*Vertices 2\n1 "J1"\n2 "J2"\n*Edges\n1 2 2\n'

    def test_empty_network(self):
        assert write_net_one_mode(OneModeNetwork()) == "*Vertices 0\n*Edges\n"

    def test_isolates_keep_empty_edges_section(self):
        net = OneModeNetwork(["A", "B"])
        text = write_net_one_mode(net)
        assert text.endswith("*Edges\n")
        assert "1 \"A\"" in text

    def test_quote_in_label_rejected(self):
        # a line break of any kind would split the vertex line on reading
        for label in ('The "A" Journal', "A\nB", "A\x0bB", "A\u2028B", "A\r"):
            net = OneModeNetwork(["A"])
            net.set_label("A", label)
            with pytest.raises(ValueError):
                write_net_one_mode(net)


class TestRoundTrip:
    def test_parse_of_write_is_identity(self):
        net = OneModeNetwork(["Journal One", "Journal Two", "Solo"])
        net.add_edge("Journal One", "Journal Two", 16)
        assert parse_net_one_mode(write_net_one_mode(net)) == net

    def test_one_mode_parse_errors(self):
        with pytest.raises(FormatError):
            parse_net_one_mode('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 1 2\n')
        with pytest.raises(FormatError):
            parse_net_one_mode('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2\n')
        with pytest.raises(FormatError) as err:
            parse_net_one_mode('*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 2\n1 2 3\n')
        assert err.value.line == 6


class TestWriteEdgeListCsv:
    def test_single_edge(self):
        net = OneModeNetwork(["J1", "J2"])
        net.add_edge("J1", "J2", 16)
        assert write_edge_list_csv(net) == "source,target,value\nJ1,J2,16\n"

    def test_empty_network_is_header_only(self):
        assert write_edge_list_csv(OneModeNetwork()) == "source,target,value\n"

    def test_triangle_emits_each_pair_once(self):
        net = OneModeNetwork(["A", "B", "C"])
        for u, v in [("A", "B"), ("A", "C"), ("B", "C")]:
            net.add_edge(u, v, 1)
        rows = write_edge_list_csv(net).splitlines()
        assert rows == ["source,target,value", "A,B,1", "A,C,1", "B,C,1"]

    def test_commas_in_ids_are_quoted(self):
        net = OneModeNetwork(["Online (Wilton, Connecticut)", "J2"])
        net.add_edge("Online (Wilton, Connecticut)", "J2", 1)
        assert '"Online (Wilton, Connecticut)",J2,1' in write_edge_list_csv(net)


class TestWriteDot:
    def test_contains_vertices_and_valued_edges(self):
        net = OneModeNetwork(["A", "B", "C"])
        net.add_edge("A", "B", 3)
        text = write_dot(net)
        assert text.startswith("graph interlock {")
        assert '"A" -- "B" [label="3", weight=3];' in text
        assert '"C";' in text
        assert text.endswith("}\n")

    def test_is_deterministic(self):
        net = OneModeNetwork(["A", "B"])
        net.add_edge("A", "B", 1)
        assert write_dot(net) == write_dot(net)


class TestCsvKind:
    def test_affiliations(self):
        assert csv_kind("actor,event\n") == "affiliations"

    def test_degrees(self):
        assert csv_kind("journal,degree\nX,3\n") == "degrees"

    def test_unknown(self):
        with pytest.raises(FormatError):
            csv_kind("foo,bar\n")


class TestParseDegreeListCsv:
    def test_reads_degree_column(self):
        degrees, diags = parse_degree_list_csv("journal,degree\nA,3\nB,0\n")
        assert degrees == [3, 0]
        assert diags.records_read == 2

    def test_rejects_non_integer(self):
        with pytest.raises(FormatError) as err:
            parse_degree_list_csv("journal,degree\nA,x\n")
        assert err.value.line == 2

    def test_rejects_missing_column(self):
        with pytest.raises(FormatError):
            parse_degree_list_csv("journal,count\nA,3\n")


# Membership CSV cells: case, space and Unicode-composition variants of a
# few names, an event id inside another (J1, J10), a letter that case folding decomposes (U+01F0), fields that
# need quoting (a comma, a line break, a quote), and cells whose repr in a
# duplicate warning switches to double quotes (an apostrophe) or escapes a
# character (a backslash, a zero-width space, a lone surrogate, which UTF-8
# encodes only with "surrogatepass").  A quoted line break, ``\n`` or
# ``\r\n``, makes a field that a chunk cut can fall inside.  ASCII control
# characters that repr escapes (a tab, a form feed, DEL) make a quote-free
# ASCII chunk that is not plain.
_ACTOR_CELLS = [
    "Ann", "ann", " ANN ", "e\u0301", "\u00e9", "\u01f0", "Smith, J", "O\"Neil", "two\nlines",
    "O'Neil", "back\\slash", "zero\u200bwidth", "crlf\r\nlines", "lone\ud800surrogate",
    "tab\there", "del\x7fhere", "ff\x0chere",
]
_EVENT_CELLS = ["J1", " J1", "j1", "J10", "J 2", "J\n3", "Lib, Sci", "J\r\n4"]

# The CSV readers' chunk size: a few characters, so that cuts fall between
# and inside every kind of row, or the default.
_CHUNKS = st.one_of(st.integers(1, 16), st.just(interlock.io._CHUNK))
# Whitespace-only rows of 1, 2 and 3 cells are skipped; a 2-cell row with
# one blank cell, like every other odd row, is rejected.
_BLANK_ROWS = ["", "   ", "\t", '""', ",", " , ", '" ",\t', " ,\t, ", ",,"]
_ODD_ROWS = [
    ["  ", "J1"], ["Ann", ""], ["\t", "J 2"], ["e\u0301", " \t "], ["a"], ["a", "J1", "x"],
    [" ", "", "x"],
]


def _csv_cell(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _membership_csv(draw):
    """Membership CSV text: either column order, blank rows anywhere,
    repeated seats, multi-line quoted fields, and now and then a missing
    header or a row with an empty identifier or the wrong field count.  Half
    the texts are quote-free, with no quoted cell and no ``""`` row, so that
    the CSV readers split every chunk of them with ``str.split``."""
    actor_cells, event_cells, blank_rows = _ACTOR_CELLS, _EVENT_CELLS, _BLANK_ROWS
    quote_free = draw(st.booleans())
    if quote_free:
        actor_cells = [cell for cell in _ACTOR_CELLS if _csv_cell(cell, False) == cell]
        event_cells = [cell for cell in _EVENT_CELLS if _csv_cell(cell, False) == cell]
        blank_rows = [row for row in _BLANK_ROWS if '"' not in row]
    actor_first = draw(st.booleans())
    header = draw(st.sampled_from([("actor", "event"), (" Actor", "EVENT "), ("ACTOR", "Event")]))
    rows = [list(header)]
    if draw(st.integers(0, 19)) == 0:
        rows.pop()  # no header: the first data row is rejected as one
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from(actor_cells), st.sampled_from(event_cells)),
            min_size=1,
            max_size=8,
        )
    )
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.integers(0, 39))
        if kind < 6:
            rows.append(draw(st.sampled_from(blank_rows)))
        elif kind == 6:
            rows.append(draw(st.sampled_from(_ODD_ROWS)))
        else:
            rows.append(list(draw(st.sampled_from(pool))))
    lines = []
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
        else:
            row = row if actor_first or len(row) != 2 else row[::-1]
            cells = (_csv_cell(cell, not quote_free and draw(st.booleans())) for cell in row)
            lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=_membership_csv(), casefold=st.booleans(), chunk=_CHUNKS)
def test_csv_ingest_matches_per_row_reference(text, casefold, chunk):
    try:
        want = reference_parse_csv_affiliations(text, casefold_actors=casefold)
    except FormatError as exc:
        with pytest.raises(FormatError) as err, mock.patch.object(interlock.io, "_CHUNK", chunk):
            parse_csv_affiliations(text, casefold_actors=casefold)
        assert (err.value.line, err.value.reason) == (exc.line, exc.reason)
        return
    with mock.patch.object(interlock.io, "_CHUNK", chunk):
        net, diags = parse_csv_affiliations(text, casefold_actors=casefold)
    assert net.events == tuple(want.events)
    assert net.actors == tuple(want.actors)
    assert net == want.network(casefold)
    assert net.seats() == len(want.seats)
    boards = Counter(actor for _, actor in want.seats)
    assert [type(held) is dict for held in net._actor_events.values()] == [
        boards[actor] > 1 for actor in net.actors
    ]
    validate_two_mode(net)
    assert diags.warnings == want.warnings
    assert diags.records_read == want.records_read
    assert diags.duplicates_collapsed == want.duplicates_collapsed
    projected = project_events(net)
    assert projected.vertices == net.events
    assert {(u, v): value for u, v, value in projected.edges()} == brute_project_events(net)


# A quote-free cell: any ASCII character but a quote, a comma or a line
# end, with weight on those next to the printable ones that repr spells as
# they are (an apostrophe, a backslash, a tab, DEL), or a letter that NFC
# (\u212b) or case folding (\u00df, \u0130, \u01f0) changes
_UNQUOTED_CELLS = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=127, blacklist_characters='",\n\r'),
        st.sampled_from("'\\\t\x7f"),
        st.sampled_from("\u00e9\u00df\u0130\u01f0\u212b"),
    ),
    min_size=1,
    max_size=10,
).filter(str.strip)


@settings(max_examples=600, deadline=None)
@given(
    a=_UNQUOTED_CELLS,
    b=_UNQUOTED_CELLS,
    newline=st.sampled_from(["\n", "\r\n"]),
    end=st.booleans(),
    casefold=st.booleans(),
    chunk=_CHUNKS,
)
def test_duplicate_warning_spells_cells_as_repr_does(a, b, newline, end, casefold, chunk):
    text = newline.join(["actor,event", f"{a},{b}", f"{a},{b}"]) + newline * end
    assume("\0" not in text or sys.version_info >= (3, 11))  # else the csv module rejects it
    with mock.patch.object(interlock.io, "_CHUNK", chunk):
        net, diags = parse_csv_affiliations(text, casefold_actors=casefold)
    assert diags.warnings == [(3, f"duplicate membership collapsed: [{a!r}, {b!r}]")]
    assert net.actors == (normalize_identifier(a, casefold=casefold),)


def _outcome(call, *args):
    """What ``call`` returns, or the line and reason of its ``FormatError``."""
    try:
        return call(*args)
    except FormatError as exc:
        return ("FormatError", exc.line, exc.reason)


# Two-mode NET vertex labels: case, space and composition variants, blank
# labels, an event id inside another (J1, J10), and labels that read as vertex numbers (an undefined actor is
# named by its number).
_NET_EVENT_LABELS = ["J1", "j1", " J1", "J10", "J 2", "7", "   "]
_NET_ACTOR_LABELS = [
    "Ann", "ann", " ANN ", "e\u0301", "\u00e9", "\u01f0", "2", " 3", "03", "9", "", "  ",
    "\u3000Ann\u3000", "Ne\u0301e",
]
# Actor labels NFC changes or that trim to ASCII only past non-ASCII space:
# one of them among ASCII labels tells a file-wide ASCII test from one that
# looks at fewer labels.  A NEL (\x85) is a line break to the line-by-line
# reader, so only the irregular draw, which expects no path, holds it.
_NFC_ACTOR_LABELS = ["e\u0301", "Ne\u0301e", "\u3000Ann\u3000", "\u01f0 "]
_NEL_ACTOR_LABELS = ["\x85ann", "ann\x85"]


@st.composite
def _irregular_two_mode_net_text(draw):
    """A two-mode NET file: defined and undefined vertices, repeated edges,
    edges with the actor first or a value token, and now and then an edge
    joining two events or two actors, an index out of range or too long for
    ``int``, a malformed edge line or an event count above n."""
    n_events = draw(st.integers(0, 3))
    n = n_events + draw(st.integers(0, 6))
    lines = [f"*Vertices {n} {n_events if draw(st.integers(0, 29)) else n + 1}"]
    for idx in range(1, n + 1):
        kind = draw(st.integers(0, 4))
        if kind in (1, 2):
            pool = _NET_EVENT_LABELS if idx <= n_events else _NET_ACTOR_LABELS + _NEL_ACTOR_LABELS
            lines.append(f'{idx} "{draw(st.sampled_from(pool))}"')
        elif kind:  # a label of its own: an event's is inside the next one's
            # (J10, J100, J1000), an actor's in upper case, which folding changes
            own = "J1" + "0" * idx if idx <= n_events else f"A{idx}"
            lines.append(f'{idx} "{own}"')
    lines.append("*Edges")
    events, actors = range(1, n_events + 1), range(n_events + 1, n + 1)
    pool = []
    if events and actors:
        seat = st.tuples(st.sampled_from(events), st.sampled_from(actors))
        pool = draw(st.lists(seat, min_size=1, max_size=8))
    big = "9" * 5000
    odd = [
        "1 1", f"{n} {n}", f"1 {max(n - 1, 1)}", f"0 {n}", f"-1 {n}", f"1 {n + 1}", f"{big} 1",
        f"1 -{big}", "1", "1 x", "1 2 3 4", "--1 2", "1 -2",
    ]
    for _ in range(draw(st.integers(0, 16))):
        if not pool or draw(st.integers(0, 29)) == 0:
            lines.append(draw(st.sampled_from(odd)))
            continue
        event, actor = draw(st.sampled_from(pool))
        pair = [event, actor] if draw(st.booleans()) else [actor, event]
        value = draw(st.sampled_from(["", " 1", " 2"]))
        lines.append(f"{pair[0]} {pair[1]}{value}")
    return "\n".join(lines) + "\n"


# Labels a regular vertex line may hold besides those above: a tab, a
# quote-free apostrophe, a percent sign and a star inside the quotes.
_REGULAR_LABELS = ["a\tb", "O'Neil", "x%y", "*Edges", " 1 2 "]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

# Defects for a regular two-mode file, each with the path it must take,
# counted as (calls of the section scan, calls of the per-line vertex
# reader, edge blocks read), and the vertex and edge lines it needs to
# change.  A file the cut cannot split or whose vertex block is not regular
# is read line by line; a regular vertex block is kept when only the edges
# are not.  A comment, a blank line or a missing final line end takes the
# path of the section it is in.
_BLOCKS = (0, 0, 1)
_LINES = (1, 1, 0)
_EDGE_LINES = (1, 0, 0)
_DEFECTS = {
    "comment": (None, 0, 0),
    "blank line": (None, 0, 0),
    "crlf": (_LINES, 0, 0),
    "no final line end": (None, 0, 0),
    "edges spelled otherwise": (_LINES, 0, 0),
    "header spacing": (_LINES, 0, 0),
    "non-ASCII header": (_LINES, 0, 0),
    "label tail": (_LINES, 1, 0),
    "tab before label": (_LINES, 1, 0),
    "line break in label": (_LINES, 1, 0),
    "non-ASCII index": (_LINES, 1, 0),
    "repeated index": (_LINES, 2, 0),
    "index out of range": (_LINES, 1, 0),
    "vertex lines glued": (_LINES, 2, 0),
    "index moved onto the line before": (_LINES, 2, 0),
    "index moved into the line before": (_LINES, 2, 0),
    "indented vertex": (_LINES, 1, 0),
    "edge tab": (_EDGE_LINES, 0, 1),
    "edge value": (_EDGE_LINES, 0, 2),
    "one and three numbers": (_EDGE_LINES, 0, 2),
    "actor first": (_EDGE_LINES, 0, 2),
    "every edge actor-first": (_EDGE_LINES, 0, 1),
    "a value on every edge": (_EDGE_LINES, 0, 1),
    "one number and a space": (_EDGE_LINES, 0, 1),
    "edge out of range": (_EDGE_LINES, 0, 1),
    "non-ASCII edge": (_EDGE_LINES, 0, 1),
    "edges glued": (_EDGE_LINES, 0, 2),
    "number too long": (_EDGE_LINES, 0, 1),
}


@st.composite
def _regular_two_mode_net_text(draw, defect=None):
    """``(text, readers)``: a regular two-mode NET file (the header exactly
    ``*Vertices n nEvents``, each vertex line ``<index> "<label>"``, each
    edge line ``<event> <actor>``, in ASCII digits, one space apart, and a
    line end after every line), with vertices defined or not, in any order,
    repeated edges and unlinked actors; or such a file with ``defect``.
    ``readers`` is the path expected, counted as in ``_DEFECTS``."""
    readers, vertex_lines, edge_lines = _DEFECTS[defect] if defect else (_BLOCKS, 0, 0)
    n_events = draw(st.integers(1, 3))
    n = n_events + draw(st.integers(1, 6))
    actor_labels = _NET_ACTOR_LABELS + _REGULAR_LABELS
    # now and then every actor label is ASCII but that of one defined actor
    odd = draw(st.integers(n_events + 1, n)) if draw(st.integers(0, 3)) == 0 else None
    if odd is not None:
        actor_labels = [label for label in actor_labels if label.isascii()]
    vertices = []
    for idx in range(1, n + 1):
        kind = draw(st.integers(int(idx <= vertex_lines), 3))
        if idx == odd:
            vertices.append(f'{idx} "{draw(st.sampled_from(_NFC_ACTOR_LABELS))}"')
        elif kind == 1:
            pool = _NET_EVENT_LABELS + _REGULAR_LABELS if idx <= n_events else actor_labels
            vertices.append(f'{idx} "{draw(st.sampled_from(pool))}"')
        elif kind:
            vertices.append(f'{idx} "{"J1" + "0" * idx if idx <= n_events else f"A{idx}"}"')
    if draw(st.booleans()):
        vertices = draw(st.permutations(vertices))
    edges = []
    seat = st.tuples(st.integers(1, n_events), st.integers(n_events + 1, n))
    pool = draw(st.lists(seat, min_size=1, max_size=6))
    for event, actor in draw(st.lists(st.sampled_from(pool), min_size=edge_lines, max_size=10)):
        zeros = "0" * draw(st.sampled_from([0, 0, 0, 1, 2]))
        edges.append(f"{zeros}{event} {actor}")
    head = f"*Vertices {n} {n_events}"
    # a vertex line and an edge line to change, each with the line after it
    # where a defect takes two
    v = draw(st.integers(0, max(len(vertices) - max(vertex_lines, 1), 0)))
    e = draw(st.integers(0, max(len(edges) - max(edge_lines, 1), 0)))
    marker, end = "*Edges", "\n"
    if defect == "header spacing":
        head = head.replace(" ", draw(st.sampled_from(["\t", "  ", " \x0c", "\x85"])), 1)
    elif defect == "non-ASCII header":
        head = head.translate(_ARABIC_INDIC)
    elif defect == "edges spelled otherwise":
        marker = draw(st.sampled_from(["*edges", "*EDGES", "*Edges x"]))
    elif defect == "label tail":
        vertices[v] += draw(st.sampled_from(["x", " x", "\t", " 0.5 0.5", "7", " "]))
    elif defect == "tab before label":
        vertices[v] = vertices[v].replace(" ", "\t", 1)
    elif defect == "line break in label":
        index, _, rest = vertices[v].partition(' "')
        brk = draw(st.sampled_from(["\x85", "\u2028", "\x1c", "\x0b"]))
        vertices[v] = f'{index} "{brk}{rest}'
    elif defect == "non-ASCII index":
        index, _, rest = vertices[v].partition(" ")
        vertices[v] = f"{index.translate(_ARABIC_INDIC)} {rest}"
    elif defect == "repeated index":
        vertices[v + 1] = vertices[v].partition(" ")[0] + " " + vertices[v + 1].partition(" ")[2]
    elif defect == "index out of range":
        vertices[v] = draw(st.sampled_from(["0", str(n + 1)])) + " " + vertices[v].partition(" ")[2]
    elif defect == "vertex lines glued":
        vertices[v : v + 2] = [vertices[v] + vertices[v + 1]]
    elif defect == "index moved onto the line before":
        # a tail of digits, and no number before the next label: as many
        # numbers as lines, and the same digits and spaces
        index, _, rest = vertices[v + 1].partition(" ")
        vertices[v : v + 2] = [vertices[v] + index, " " + rest]
    elif defect == "index moved into the line before":
        # two numbers before one label, none before the next: as many
        # numbers as lines, and the same digits and spaces
        index, _, label = vertices[v].partition(" ")
        index2, _, label2 = vertices[v + 1].partition(" ")
        vertices[v : v + 2] = [f"{index} {index2}{label}", " " + label2]
    elif defect == "indented vertex":
        vertices[v] = " " + vertices[v]
    elif defect == "edge tab":
        edges[e] = edges[e].replace(" ", "\t")
    elif defect == "edge value":  # on one edge of two or more
        edges[e] += " 1"
    elif defect == "one and three numbers":
        edges[e] = edges[e].partition(" ")[0]
        edges[e + 1] += " 1"
    elif defect == "actor first":  # one edge turned, of two or more
        first, _, second = edges[e].partition(" ")
        edges[e] = f"{second} {first}"
    elif defect == "every edge actor-first":
        edges = [" ".join(edge.split()[::-1]) for edge in edges]
    elif defect == "a value on every edge":
        edges = [f"{edge} {draw(st.sampled_from(['1', '2', '10', '0']))}" for edge in edges]
    elif defect == "one number and a space":
        event, _, actor = edges[e].partition(" ")
        edges[e] = draw(st.sampled_from([f"{event} ", f" {actor}"]))
    elif defect == "edge out of range":
        edges[e] = draw(st.sampled_from([f"0 {n}", f"1 {n + 1}", f"{n_events + 1} {n}"]))
    elif defect == "non-ASCII edge":
        edges[e] = edges[e].translate(_ARABIC_INDIC)
    elif defect == "edges glued":
        edges[e : e + 2] = [edges[e] + edges[e + 1]]
    elif defect == "number too long":
        edges[e] = f"1 {'9' * 5000}"
    lines = [head, *vertices, marker, *edges]
    if defect in ("comment", "blank line"):
        line = "% a comment" if defect == "comment" else draw(st.sampled_from(["", "  ", "\t"]))
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, line)
        readers = _LINES if at <= len(vertices) + 1 else _EDGE_LINES
    elif defect == "crlf":
        end = "\r\n"
    text = "".join(line + end for line in lines)
    if defect == "no final line end":
        text = text[:-1]
        readers = _EDGE_LINES if edges else _LINES
    return text, readers


@st.composite
def _two_mode_net_text(draw):
    """``(text, readers)``: a regular two-mode NET file, one with a defect,
    or one drawn with no regard to regularity (its readers not known)."""
    if draw(st.booleans()):
        defect = draw(st.sampled_from([None] * (len(_DEFECTS) // 2) + list(_DEFECTS)))
        return draw(_regular_two_mode_net_text(defect))
    return draw(_irregular_two_mode_net_text()), None


def _two_mode_outcome(parse, text, casefold):
    try:
        net, diags = parse(text, casefold_actors=casefold)
    except FormatError as exc:
        return (type(exc).__name__, exc.line, exc.reason)
    return net, net.events, net.actors, diags


def _assert_two_mode_matches_reference(text, readers, casefold):
    """The network, warnings or error of parse_net_two_mode are the
    reference's; with ``readers`` known, so is the path it took."""
    io_ = interlock.io
    blocks = []

    def edge_block(*args):
        columns = _regular_edges(*args)
        blocks.append(columns is not None)
        return columns

    with (
        mock.patch.object(io_, "_split_sections", wraps=_split_sections) as scan,
        mock.patch.object(io_, "_parse_vertex_defs", wraps=_parse_vertex_defs) as vertex_lines,
        mock.patch.object(io_, "_regular_edges", edge_block),
    ):
        got = _two_mode_outcome(parse_net_two_mode, text, casefold)
    want = _two_mode_outcome(reference_parse_net_two_mode, text, casefold)
    assert got == want
    if readers is not None:
        took = (scan.call_count, vertex_lines.call_count, sum(blocks))
        if isinstance(want[0], TwoModeNetwork):
            assert took == readers
        else:  # an error can end the parse before a reader is called
            assert took[0] == readers[0] and all(t <= r for t, r in zip(took, readers))
    if isinstance(want[0], TwoModeNetwork):
        # exactly the actors on two or more boards hold a dictionary
        assert [type(held) is dict for held in got[0]._actor_events.values()] == [
            len(want[0].events_of(actor)) > 1 for actor in want[0].actors
        ]


# ASCII text, with the whitespace str.strip removes besides the space, the
# tab and the line ends (\x0b, \x0c, \x1c-\x1f) drawn more often
_ASCII_TEXT = st.text(
    st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x1f")),
    max_size=12,
)


@settings(max_examples=1000, deadline=None)
@given(raw=_ASCII_TEXT)
def test_ascii_identifier_is_its_trimmed_text(raw):
    # the two-mode NET reader's rule for an all-ASCII file
    assume(raw.strip())
    assert normalize_identifier(raw) == raw.strip()


@settings(max_examples=800, deadline=None)
@given(drawn=_two_mode_net_text(), casefold=st.booleans())
def test_net_two_mode_matches_reference(drawn, casefold):
    _assert_two_mode_matches_reference(*drawn, casefold)


@pytest.mark.parametrize("defect", list(_DEFECTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), casefold=st.booleans())
def test_net_two_mode_defects_match_reference(defect, data, casefold):
    _assert_two_mode_matches_reference(*data.draw(_regular_two_mode_net_text(defect)), casefold)


# NET vertex lines: the quoted form with spaces, tabs and non-ASCII spaces
# or digits around it, tails glued to the closing quote, a missing closing
# quote, quotes elsewhere, bare tokens, an empty label, indices out of range,
# repeated or too long for ``int``, and leading space the section scan strips.
_VERTEX_LINES = [
    '1 "a"', '1  "a b"  x', '1\t"a"', '1 "a"b', '1 "a', '1 a b', '1"a"', '"a" 1', '1 ""',
    '1 "" tail', '2 "a""b"', '\u0661 "x"', '1\u3000"x y"', '1 "x"\u3000tail', '1 "x"\x85',
    ' 1 "a"', '1 2 "a"', '1 "a" "b"', '\u00b2 "a"', '0 "a"', '3 "c"', f'{"9" * 5000} "a"',
    f'{"9" * 5000} a', "x \"a\"", "1", "", "2 b\"c", '2\x0c"f"',
]


@settings(max_examples=600, deadline=None)
@given(
    lines=st.lists(st.sampled_from(_VERTEX_LINES), max_size=6),
    n=st.integers(1, 3),
)
def test_net_vertex_lines_match_reference(lines, n):
    numbered = list(enumerate(lines, start=2))
    assert _outcome(_parse_vertex_defs, numbered, n) == _outcome(
        reference_parse_vertex_defs, numbered, n
    )


# NET lines for the section scan: headers and section lines in spellings it
# must accept or reject ("* Edges" is a bare "*" token, "*edges x" opens the
# edge section), comments, whitespace-only lines, and digits that
# ``isdecimal`` accepts but are not ASCII.
_NET_LINES = [
    "*Vertices 3 1", "*Vertices 2", "*VERTICES 2 1", "*vertices\t4 2", "* Vertices",
    "*Vertices \u0663 \u0661", "*Vertices 3 \u00b2", f"*Vertices 2 {'7' * 5000}",
    "*Edges", "*edges x", "* Edges", "*Arcs", "\t*Edges", "*", "*Vertices 2 1 ",
    "% comment", "%*Edges", " % *Arcs", "", "   ", "\t", "\u3000",
    '1 "a"', '\u0661 "b"', "2 b", "1 2", "1 3 2", "\u0661 \u0662",
]
_NET_BREAKS = ["\n", "\r\n", "\r", "\x0c"]


@st.composite
def _net_sections_text(draw):
    lines = draw(st.lists(st.sampled_from(_NET_LINES), max_size=10))
    text = "".join(line + draw(st.sampled_from(_NET_BREAKS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n\r\x0c")


@settings(max_examples=600, deadline=None)
@given(text=_net_sections_text(), expect_counts=st.sampled_from([1, 2]))
def test_net_section_scan_matches_reference(text, expect_counts):
    assert _outcome(_split_sections, text, expect_counts) == _outcome(
        reference_split_sections, text, expect_counts
    )


# Degree-census and membership CSV rows: headers in odd case and spacing,
# blank and whitespace-only rows, extra cells, a digit ``isdecimal`` accepts
# that is no ASCII digit, quoted line breaks and unterminated quotes.
_CSV_HEADERS = [
    "journal,degree", "id,Degree ", "degree", " DEGREE,x,y", "actor,event", " Event, ACTOR",
    "x,y", "degree,degree", "",
]
_CSV_ROWS = [
    "a,3", "b,0", "c, 2 ", "d,\u00b2", "e,\u0663", "f,x", "g,-1", "h,1,extra", "7", ",",
    " , ", "", "\t", '"a\nb",2', '"a\r\nb",2', '"x,y",1', '"unterminated,1', 'q,"4', '"",""',
]


@st.composite
def _census_csv_text(draw):
    rows = [draw(st.sampled_from(_CSV_HEADERS))]
    rows += draw(st.lists(st.sampled_from(_CSV_ROWS), max_size=8))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(["", " , ", ","])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(rows) + draw(st.sampled_from(["", newline]))


@settings(max_examples=600, deadline=None)
@given(text=_census_csv_text(), chunk=_CHUNKS)
def test_csv_header_readers_match_reference(text, chunk):
    with mock.patch.object(interlock.io, "_CHUNK", chunk):
        kind = _outcome(csv_kind, text)
        got = _outcome(parse_degree_list_csv, text)
    assert kind == _outcome(reference_csv_kind, text)
    if got[0] != "FormatError":
        degrees, diags = got
        got = (degrees, diags.records_read)
    assert got == _outcome(reference_parse_degree_list_csv, text)


@settings(max_examples=1000, deadline=None)
@given(text=st.text(alphabet='a,"\r\n\x0c\x00\u00e9', max_size=40), chunk=_CHUNKS)
def test_chunked_lines_are_the_whole_text_lines(text, chunk):
    with mock.patch.object(interlock.io, "_CHUNK", chunk):
        assert list(_lines(text)) == list(io.StringIO(text, newline=""))


def _csv_module_rows(text, header):
    """The (row, line) pairs ``csv.reader`` reads from the whole text after
    its first ``header`` rows, then the reason and line of the ``csv.Error``
    that ended it, if any."""
    reader = csv.reader(io.StringIO(text, newline=""))
    out = []
    try:
        for _ in zip(range(header), reader):
            pass
        out += ((row, reader.line_num) for row in reader)
    except csv.Error as exc:
        out.append((str(exc), reader.line_num))
    return out


def _one_comma_per_line(piece):
    """Whether every line of a chunk holds exactly one comma, its \\r\\n
    pairs read as line ends (the reference for the readers' byte check)."""
    lines = piece.replace("\r\n", "\n").removesuffix("\n").split("\n")
    return all(line.count(",") == 1 for line in lines)


def _plain(piece):
    """Whether every character of a chunk but its commas and line ends is
    printable ASCII other than ``'`` and ``\\``, its \\r\\n pairs read as line
    ends (the reference for the readers' plain pieces)."""
    return all(
        c in ",\n" or (" " <= c <= "~" and c not in "'\\") for c in piece.replace("\r\n", "\n")
    )


# Cells for rows with one comma each, so that chunks are cut: the plain
# bytes' edges (space and ~), the ASCII that is not plain (', \\, DEL and a
# form feed) and non-ASCII, a lone surrogate included.
_ROW_CELL = st.text(alphabet=" ~a'\\\x7f\x0c\x85\u00e9\u0130\ud800", max_size=3)


@st.composite
def _row_source_text(draw):
    """Text of any of the characters the row source treats apart, or, as
    often, rows of two such cells that each line holds one comma of."""
    if draw(st.booleans()):
        alphabet = ',"\r\n\x00\x0c\x85 ~\'\\\x7f\u00e9\u0130\ud800'
        return draw(st.text(alphabet=alphabet, max_size=60))
    rows = draw(st.lists(st.tuples(_ROW_CELL, _ROW_CELL), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(f"{a},{b}{newline}" for a, b in rows)
    return text if draw(st.booleans()) else text.removesuffix(newline)


@settings(max_examples=1500, deadline=None)
@given(
    text=_row_source_text(),
    header=st.integers(0, 2),
    chunk=_CHUNKS,
    limit=st.one_of(st.integers(1, 12), st.just(csv.field_size_limit())),
)
def test_csv_row_source_matches_the_csv_module(text, header, chunk, limit):
    old_limit = csv.field_size_limit(limit)
    got, flags = [], []
    try:
        with mock.patch.object(interlock.io, "_CHUNK", chunk):
            want = _csv_module_rows(text, header)
            # a reader over the text that has read the first rows, as the
            # header's reader has
            reader = csv.reader(_lines(text))
            try:
                for _ in zip(range(header), reader):
                    pass
            except csv.Error:
                return  # the csv module stops in the header: nothing is left
            start = len("".join(islice(io.StringIO(text, newline=""), reader.line_num)))
            with (
                mock.patch.object(interlock.io, "_lines", wraps=interlock.io._lines) as lines,
                mock.patch.object(interlock.io.csv, "reader", wraps=interlock.io.csv.reader) as readers,
            ):
                try:
                    with _CsvRows(text, reader) as pieces:
                        for rows, plain in pieces:
                            flags.append(plain)
                            # a row that reader reads on carries line 0
                            got += ((list(row), line or reader.line_num) for row, line in rows)
                except FormatError as exc:
                    got.append((exc.reason, exc.line))
            # the chunks from the header's end up to the first with a quote,
            # a NUL, a \r outside a \r\n pair or more characters than the
            # limit; those with a line of another width each have a reader,
            # and the others are plain where each character is
            first, own_readers, want_flags = start, 0, []
            for piece in _chunks(text, start):
                if any(c in piece.replace("\r\n", "") for c in '"\0\r') or len(piece) > limit:
                    break
                cut = _one_comma_per_line(piece)
                own_readers += not cut
                want_flags.append(cut and _plain(piece))
                start += len(piece)
    finally:
        csv.field_size_limit(old_limit)
    assert got == want
    assert flags == want_flags + [False] * (start < len(text))
    if start == len(text):
        assert readers.call_count == own_readers
        assert lines.call_args_list == [mock.call(text)]
    elif start == first:  # reader itself reads the rest
        assert readers.call_count == 0
    else:  # one more reader reads the rest, from a line-aligned start
        assert readers.call_count == own_readers + 1
        assert lines.call_args_list == [mock.call(text), mock.call(text, start)]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, interlock.io._CHUNK])
def test_a_comma_count_equal_to_the_line_count_is_not_one_comma_per_line(chunk):
    # 3 lines, 3 commas: a comma-less line beside a 3-cell line
    with mock.patch.object(interlock.io, "_CHUNK", chunk), pytest.raises(FormatError) as err:
        parse_csv_affiliations("actor,event\na\nb,J1,x\n")
    assert (err.value.line, err.value.reason) == (2, "expected 2 fields, got 1")
    # a blank line beside a blank 3-cell line, then one seat
    with mock.patch.object(interlock.io, "_CHUNK", chunk):
        net, diags = parse_csv_affiliations("actor,event\n\n,,\nA,J1\n")
    assert (net.actors, net.events, net.members("J1")) == (("A",), ("J1",), frozenset({"A"}))
    assert diags == ParseDiagnostics(records_read=1)


# Every ASCII character, with weight on the ones str.strip trims
_ASCII = st.one_of(st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f"), st.characters(max_codepoint=127))


@settings(max_examples=600, deadline=None)
@given(raw=st.text(alphabet=_ASCII, max_size=12), casefold=st.booleans())
def test_ascii_actor_ids_follow_the_identifier_rule(raw, casefold):
    # the cell is quoted only where the csv format needs it
    cell = raw if not any(c in raw for c in ',"\r\n\0') else '"' + raw.replace('"', '""') + '"'
    try:
        want = (normalize_identifier(raw, casefold=casefold),)
    except ValueError as exc:  # nothing left after trimming
        want = str(exc)
    if "\0" in raw and sys.version_info < (3, 11):  # the csv module rejects a NUL
        want = "line contains NUL"
    try:
        got = parse_csv_affiliations(f"actor,event\n{cell},J1\n", casefold_actors=casefold)
    except FormatError as exc:
        assert exc.reason == want
    else:
        assert got[0].actors == want


_BLANK_TAIL = "\n" * 2_000_000


@pytest.mark.parametrize(
    "read, head, tail",
    [
        (parse_csv_affiliations, "actor,event\na,J1\n", _BLANK_TAIL),
        (csv_kind, "actor,event\na,J1\n", _BLANK_TAIL),
        (parse_degree_list_csv, "journal,degree\nj,1\n", _BLANK_TAIL),
        (parse_csv_affiliations, "actor,event\r\na,J1\r\n", "\r\n" * 1_000_000),
        (csv_kind, "actor,event\r\na,J1\r\n", "\r\n" * 1_000_000),
        (parse_degree_list_csv, "journal,degree\r\nj,1\r\n", "\r\n" * 1_000_000),
    ],
    ids=["affiliations", "kind", "degrees", "affiliations-crlf", "kind-crlf", "degrees-crlf"],
)
def test_csv_readers_memory_does_not_grow_with_the_input(read, head, tail):
    # 2 MB of blank lines: a whole-text StringIO alone would take 8 MB, and
    # one str.split of the whole text a list of 8 or 16 MB
    text = head + tail
    tracemalloc.start()
    try:
        read(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
