import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_project_events,
    reference_csv_kind,
    reference_parse_csv_affiliations,
    reference_parse_degree_list_csv,
    reference_split_sections,
    validate_two_mode,
)

from interlock import (
    BipartitenessError,
    FormatError,
    OneModeNetwork,
    parse_csv_affiliations,
    parse_degree_list_csv,
    parse_net_one_mode,
    parse_net_two_mode,
    project_events,
    write_dot,
    write_edge_list_csv,
    write_net_one_mode,
)
from interlock.io import _split_sections, csv_kind


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
        big = "J" * 200_000
        cases = (
            (parse_csv_affiliations, f"actor,event\na,J1\nb,{big}\n", 3),
            (parse_degree_list_csv, f"id,degree\na,1\nb,{big}\n", 3),
            (csv_kind, f"actor,{big}\n", 1),
        )
        for parse, text, line in cases:
            with pytest.raises(FormatError) as err:
                parse(text)
            assert err.value.line == line

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
# few names, a letter that case folding decomposes (U+01F0), and fields
# that need quoting (a comma, a line break, a quote).
_ACTOR_CELLS = [
    "Ann", "ann", " ANN ", "e\u0301", "\u00e9", "\u01f0", "Smith, J", "O\"Neil", "two\nlines"
]
_EVENT_CELLS = ["J1", " J1", "j1", "J 2", "J\n3", "Lib, Sci"]
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
    header or a row with an empty identifier or the wrong field count."""
    actor_first = draw(st.booleans())
    header = draw(st.sampled_from([("actor", "event"), (" Actor", "EVENT "), ("ACTOR", "Event")]))
    rows = [list(header)]
    if draw(st.integers(0, 19)) == 0:
        rows.pop()  # no header: the first data row is rejected as one
    pool = draw(
        st.lists(
            st.tuples(st.sampled_from(_ACTOR_CELLS), st.sampled_from(_EVENT_CELLS)),
            min_size=1,
            max_size=8,
        )
    )
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.integers(0, 39))
        if kind < 6:
            rows.append(draw(st.sampled_from(_BLANK_ROWS)))
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
            lines.append(",".join(_csv_cell(cell, draw(st.booleans())) for cell in row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None)
@given(text=_membership_csv(), casefold=st.booleans())
def test_csv_ingest_matches_per_row_reference(text, casefold):
    try:
        want = reference_parse_csv_affiliations(text, casefold_actors=casefold)
    except FormatError as exc:
        with pytest.raises(FormatError) as err:
            parse_csv_affiliations(text, casefold_actors=casefold)
        assert (err.value.line, err.value.reason) == (exc.line, exc.reason)
        return
    net, diags = parse_csv_affiliations(text, casefold_actors=casefold)
    assert net.events == tuple(want.events)
    assert net.actors == tuple(want.actors)
    assert net == want.network(casefold)
    assert net.seats() == len(want.seats)
    validate_two_mode(net)
    assert diags.warnings == want.warnings
    assert diags.records_read == want.records_read
    assert diags.duplicates_collapsed == want.duplicates_collapsed
    projected = project_events(net)
    assert projected.vertices == net.events
    assert {(u, v): value for u, v, value in projected.edges()} == brute_project_events(net)


def _outcome(call, *args):
    """What ``call`` returns, or the line and reason of its ``FormatError``."""
    try:
        return call(*args)
    except FormatError as exc:
        return ("FormatError", exc.line, exc.reason)


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
    " , ", "", "\t", '"a\nb",2', '"x,y",1', '"unterminated,1', 'q,"4', '"",""',
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
@given(text=_census_csv_text())
def test_csv_header_readers_match_reference(text):
    assert _outcome(csv_kind, text) == _outcome(reference_csv_kind, text)
    got = _outcome(parse_degree_list_csv, text)
    if got[0] != "FormatError":
        degrees, diags = got
        got = (degrees, diags.records_read)
    assert got == _outcome(reference_parse_degree_list_csv, text)
