import contextlib
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import rederive_aggregates, reference_render_table, reference_report_dict

from interlock import (
    AnalysisReport,
    ComponentSummary,
    DegreeDistribution,
    LineMultiplicityDistribution,
    NetworkAggregates,
    OneModeNetwork,
    SliceDecomposition,
    VertexMetrics,
    build_report,
    parse_csv_affiliations,
    project_events,
    render_table,
    report_to_dict,
    report_to_json,
)
from interlock.cli import _OPTIONS, _WARNING_BATCH, _read_argv, build_parser, run_analyze
from interlock.data import TABLE2_DEGREES, TOY_BOARDS, data_path, load_text
from interlock.report import TABLE_KINDS


@pytest.fixture(scope="module")
def toy_net():
    two_mode, _ = parse_csv_affiliations(load_text(TOY_BOARDS))
    return project_events(two_mode)


@pytest.fixture(scope="module")
def toy_report(toy_net):
    return build_report(toy_net, slice_thresholds=(2, 3))


class TestToyPipeline:
    def test_projected_edges(self, toy_net):
        assert list(toy_net.edges()) == [
            ("Alpha Review", "Beta Journal", 3),
            ("Alpha Review", "Gamma Letters", 1),
            ("Beta Journal", "Gamma Letters", 2),
            ("Gamma Letters", "Delta Notes", 1),
            ("Epsilon Papers", "Zeta Bulletin", 2),
        ]

    def test_aggregates(self, toy_report):
        agg = toy_report.aggregates
        assert (agg.n, agg.m) == (6, 5)
        assert agg.mean_degree == pytest.approx(5 / 3)
        assert agg.median_degree == pytest.approx(1.5)
        assert agg.sd_degree_population == pytest.approx(0.7454, abs=1e-4)
        assert agg.degree_centralization == pytest.approx(0.4)
        assert agg.betweenness_centralization == pytest.approx(0.2)
        assert agg.closeness_centralization == pytest.approx(0.75)
        assert agg.component_count == 2
        assert agg.isolate_count == 0

    def test_vertex_rows(self, toy_report):
        by_id = {vm.vertex: vm for vm in toy_report.vertices}
        gamma = by_id["Gamma Letters"]
        assert gamma.degree == 3
        assert gamma.closeness == pytest.approx(1.0)
        assert gamma.betweenness == pytest.approx(0.2)
        assert gamma.degree_rank == 1
        assert gamma.betweenness_rank == 1
        delta = by_id["Delta Notes"]
        assert delta.closeness == pytest.approx(0.6)
        assert delta.closeness_rank == 6
        assert by_id["Alpha Review"].degree_rank == 2

    def test_slices(self, toy_report):
        two, three = toy_report.slices
        assert two.m == 2 and three.m == 3
        assert two.network.edge_count == 3
        assert [tuple(c.members) for c in two.components] == [
            ("Alpha Review", "Beta Journal", "Gamma Letters"),
            ("Delta Notes",),
            ("Epsilon Papers", "Zeta Bulletin"),
        ]
        pair = three.components[0]
        assert pair.members == ["Alpha Review", "Beta Journal"]
        assert pair.density == pytest.approx(1.0)

    def test_report_self_consistency(self, toy_report):
        derived = rederive_aggregates(toy_report)
        doc = report_to_dict(toy_report)
        for key, value in derived.items():
            assert doc["aggregates"][key] == value
        assert doc["aggregates"]["isolateCount"] == sum(
            1 for vm in toy_report.vertices if vm.degree == 0
        )
        assert len(doc["vertices"]) == doc["aggregates"]["n"]

    def test_json_is_deterministic(self, toy_net):
        first = report_to_json(build_report(toy_net, (2, 3)))
        second = report_to_json(build_report(toy_net, (3, 2, 3)))
        assert first == second

    def test_json_schema_tag_and_density_note(self, toy_report):
        doc = json.loads(report_to_json(toy_report))
        assert doc["schema"] == "1"
        assert doc["aggregates"]["densityNote"]
        assert {"densityNoLoops", "densityLoopsAllowed"} <= set(doc["aggregates"])

    @pytest.mark.parametrize(
        "net, option, message",
        [
            # no slice asked for, no vertex to score: nothing downstream reads the name
            (OneModeNetwork(["a", "b"]), "component_density_variant", "unknown density variant"),
            (OneModeNetwork(), "closeness_variant", "unknown closeness variant"),
        ],
        ids=["density", "closeness"],
    )
    def test_unknown_variant_is_rejected_up_front(self, net, option, message):
        with pytest.raises(ValueError, match=f"^{message}: 'bogus'$"):
            build_report(net, **{option: "bogus"})


class TestRenderTable:
    def test_degree_dist_k3(self):
        from interlock import OneModeNetwork

        net = OneModeNetwork(["a", "b", "c"])
        for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
            net.add_edge(u, v, 1)
        table = render_table(build_report(net), "degreeDist")
        lines = table.splitlines()
        assert lines[0].split() == ["Degree", "Freq", "Freq%", "CumFreq"]
        assert lines[1].split() == ["2", "3", "1.000", "1.000"]

    def test_empty_network_tables_are_header_only(self):
        from interlock import OneModeNetwork

        report = build_report(OneModeNetwork())
        for kind in ("degreeDist", "centrality", "lineMultiplicity"):
            assert len(render_table(report, kind).splitlines()) == 1

    def test_line_multiplicity_table(self, toy_report):
        lines = render_table(toy_report, "lineMultiplicity").splitlines()
        assert lines[0].split() == ["LineValue", "Freq", "Freq%"]
        assert lines[1].split() == ["1", "2", "0.400"]

    def test_degree_dist_first_row_of_census_fixture(self):
        from oracles import havel_hakimi_graph

        from interlock import parse_degree_list_csv

        degrees, _ = parse_degree_list_csv(load_text(TABLE2_DEGREES))
        report = build_report(havel_hakimi_graph(degrees))
        first_row = render_table(report, "degreeDist").splitlines()[1]
        assert first_row.split() == ["0", "10", "0.164", "0.164"]

    def test_centrality_table_rows(self, toy_report):
        lines = render_table(toy_report, "centrality").splitlines()
        assert len(lines) == 1 + 6
        assert lines[1].split()[:2] == ["1", "Alpha"]

    def test_unknown_kind(self, toy_report):
        with pytest.raises(ValueError):
            render_table(toy_report, "bogus")


# Report contents the JSON writer must encode as json.dumps does: quotes,
# backslashes, control characters, lone surrogates and non-ASCII text;
# negative zero, the smallest subnormal, floats that repr in exponent form,
# NaN and both infinities.
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff x", "Zeitschrift f\u00fcr", "\u2028"]
    ),
)
_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, float("nan"), float("inf"), float("-inf")]
    ),
)
_INT = st.integers(-(10**20), 10**20)


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


_AGGREGATES = st.builds(
    NetworkAggregates,
    n=_INT,
    m=_INT,
    density_no_loops=_FLOAT,
    density_loops_allowed=_FLOAT,
    mean_degree=_FLOAT,
    median_degree=_FLOAT,
    sd_degree_population=_FLOAT,
    degree_centralization=_maybe(_FLOAT),
    betweenness_centralization=_maybe(_FLOAT),
    closeness_centralization=_maybe(_FLOAT),
    component_count=_maybe(_INT),
    isolate_count=_INT,
)
_VERTEX = st.builds(
    VertexMetrics,
    vertex=_TEXT,
    label=_TEXT,
    degree=_INT,
    normalized_degree=_FLOAT,
    closeness=_FLOAT,
    betweenness=_FLOAT,
    degree_rank=_INT,
    closeness_rank=_INT,
    betweenness_rank=_INT,
)
_COMPONENT = st.builds(
    ComponentSummary,
    members=st.lists(_TEXT, max_size=3),
    size=_INT,
    edge_count=_INT,
    density=_FLOAT,
)
# An isolated journal's summary as a slice gives it: one member, no line.
_SINGLETON = st.builds(
    ComponentSummary,
    members=st.lists(_TEXT, min_size=1, max_size=1),
    size=st.just(1),
    edge_count=st.just(0),
    density=st.sampled_from([0.0, -0.0]),
)


@st.composite
def _slice(draw):
    """A slice of a few lines among up to eight journals; many of its
    components are singletons, as in a sparse field's higher slices."""
    net = OneModeNetwork(f"v{i}" for i in range(draw(st.integers(0, 8))))
    for i in range(1, net.n):
        if draw(st.booleans()):
            net.add_edge("v0", f"v{i}", 1)
    components = st.lists(st.one_of(_SINGLETON, _COMPONENT), max_size=8)
    return SliceDecomposition(m=draw(_INT), network=net, components=draw(components))


_REPORT = st.builds(
    AnalysisReport,
    aggregates=_AGGREGATES,
    vertices=st.lists(_VERTEX, max_size=3),
    degree_distribution=st.builds(
        DegreeDistribution, rows=st.lists(st.tuples(_INT, _INT, _FLOAT, _FLOAT), max_size=3)
    ),
    line_multiplicity=st.builds(
        LineMultiplicityDistribution,
        rows=st.lists(st.tuples(_INT, _INT, _FLOAT), max_size=3),
        max_value=_INT,
    ),
    slices=st.lists(_slice(), max_size=3),
    closeness_variant=_TEXT,
    component_density_variant=_TEXT,
    schema=_TEXT,
)


@settings(max_examples=300, deadline=None)
@given(report=_REPORT)
def test_json_writer_matches_json_dumps(report):
    want = json.dumps(reference_report_dict(report), indent=2, ensure_ascii=False) + "\n"
    assert report_to_json(report) == want
    assert json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n" == want


# Table cells: labels with non-ASCII, wide and combining characters (whose
# length is not their width) besides the JSON texts; the JSON floats, among
# them NaN, both infinities, -0.0 and 1e16; and ranks from a short range,
# so that they tie.
_TABLE_LABEL = st.one_of(
    _TEXT, st.sampled_from(["e\u0301", "Journal f\u00fcr", "\u65e5\u672c", "a\u0308\u0301", ""])
)
_RANK = st.integers(1, 3)
_TABLE_REPORT = st.builds(
    AnalysisReport,
    aggregates=st.none(),
    vertices=st.lists(
        st.builds(
            VertexMetrics,
            vertex=_TEXT,
            label=_TABLE_LABEL,
            degree=st.one_of(_RANK, _INT),
            normalized_degree=_FLOAT,
            closeness=_FLOAT,
            betweenness=_FLOAT,
            degree_rank=_RANK,
            closeness_rank=_RANK,
            betweenness_rank=_RANK,
        ),
        max_size=5,
    ),
    degree_distribution=st.builds(
        DegreeDistribution, rows=st.lists(st.tuples(_INT, _RANK, _FLOAT, _FLOAT), max_size=4)
    ),
    line_multiplicity=st.builds(
        LineMultiplicityDistribution,
        rows=st.lists(st.tuples(_INT, _RANK, _FLOAT), max_size=4),
        max_value=_INT,
    ),
)


@settings(max_examples=300, deadline=None)
@given(report=_TABLE_REPORT)
def test_tables_match_row_wise_rendering(report):
    for kind in TABLE_KINDS:
        assert render_table(report, kind) == reference_render_table(report, kind)


# Runs whose stderr cannot be written: a parse error, a missing input, an
# impossible census, an unexportable label, warnings before a report, and
# a usage error.
_DEAD_STDERR = {
    "parse-error": ("bad.csv", "actor,event\nonly-one-field\n", [], 1),
    "missing-input": (None, "", [], 2),
    "census": ("census.csv", "journal,degree\nj0,1\nj1,2\n", ["--stats-only"], 1),
    "export": ("q.csv", 'actor,event\na,"J ""1"""\n', ["--export-net", "q.net"], 1),
    "warnings": ("dup.csv", "actor,event\na,J1\na,J1\nb,J2\n", ["--out", "r.json"], 2),
    "usage": (None, "", ["--slice", "0"], 2),
}


def _buffered_and_unbuffered(values, ids):
    """Parameters ``value, unbuffered``: each of ``values`` run with block-
    buffered and with unbuffered stdio (``python -u``); the buffered case
    keeps its own id."""
    return [
        pytest.param(value, unbuffered, id=case + "-unbuffered" * unbuffered)
        for unbuffered in (False, True)
        for value, case in zip(values, ids)
    ]


_STDOUT_FLAGS = _buffered_and_unbuffered(
    [[], ["--stats-only"], ["--help"]], ["flags0", "flags1", "flags2"]
)


class _FullStream:
    """A standard stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


class TestCli:
    def test_happy_path_with_exports(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        net_file = tmp_path / "journals.net"
        status = run_analyze(
            [
                "--input", str(data_path(TOY_BOARDS)),
                "--slice", "3",
                "--out", str(out),
                "--export-net", str(net_file),
            ]
        )
        assert status == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "1"
        assert doc["aggregates"]["n"] == 6
        assert doc["slices"][0]["m"] == 3
        assert net_file.read_text(encoding="utf-8").startswith("*Vertices 6")

    def test_missing_input_exits_2(self, capsys):
        status = run_analyze(["--input", "missing.csv"])
        assert status == 2
        assert "no such input" in capsys.readouterr().err

    def test_undecodable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"actor,event\n\xff\xfe,J1\n")
        assert run_analyze(["--input", str(bad)]) == 2
        assert f"cannot read {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--export-net", "--export-csv", "--export-dot"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "out.txt"
        status = run_analyze(["--input", str(data_path(TOY_BOARDS)), flag, str(target)])
        assert status == 2
        assert f"cannot write {target}: " in capsys.readouterr().err

    @pytest.mark.parametrize("position", ["--input", "--out", "--export-net"])
    def test_nul_byte_in_a_path_exits_2(self, tmp_path, capsys, position):
        # only a library caller can pass one: a command line cannot carry NUL
        paths = {
            "--input": str(data_path(TOY_BOARDS)),
            "--out": str(tmp_path / "r.json"),
            "--export-net": str(tmp_path / "g.net"),
        }
        paths[position] = str(tmp_path / "a\x00b")
        assert run_analyze([arg for item in paths.items() for arg in item]) == 2
        out, err = capsys.readouterr()
        verb = "read" if position == "--input" else "write"
        assert out == ""
        assert err.startswith(f"cannot {verb} {paths[position]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_seat_store_is_released_before_the_report_is_built(
        self, tmp_path, monkeypatch, capsys
    ):
        import interlock.cli as cli

        shutil.copy(data_path(TOY_BOARDS), tmp_path / "boards.csv")
        seen = {}

        def parse(text, **kwargs):
            two_mode, diags = parse_csv_affiliations(text, **kwargs)
            seen["two_mode"] = weakref.ref(two_mode)
            return two_mode, diags

        def report(net, **kwargs):
            seen["alive_at_report"] = seen["two_mode"]() is not None
            return build_report(net, **kwargs)

        monkeypatch.setattr(cli, "parse_csv_affiliations", parse)
        monkeypatch.setattr(cli, "build_report", report)
        assert run_analyze(["--input", str(tmp_path / "boards.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["vertices"]
        assert seen["alive_at_report"] is False

    def test_paths_are_opened_and_named_as_pathlib_spells_them(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        shutil.copy(data_path(TOY_BOARDS), tmp_path / "boards.csv")
        # a trailing slash is dropped, so the input is read, not refused
        assert run_analyze(["--input", "./boards.csv/", "--stats-only"]) == 0
        capsys.readouterr()
        target = ".//missing/./r.json"
        assert run_analyze(["--input", "boards.csv", "--out", target]) == 2
        assert capsys.readouterr() == (
            "",
            f"cannot write {target}: [Errno 2] No such file or directory: "
            f"{str(Path(target))!r}\n",
        )

    @pytest.mark.parametrize(
        "name, reads_net",
        [
            ("x.NET", True),
            (".net", False),
            ("..net", True),  # os.path.splitext reads no suffix here
            ("dir/.net", False),
            ("a.b.net", True),
            ("a.net.csv", False),
            ("a.", False),
        ],
    )
    def test_format_guess_reads_the_suffix_as_pathlib_does(
        self, tmp_path, monkeypatch, capsys, name, reads_net
    ):
        assert (Path(name).suffix.lower() == ".net") == reads_net
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        # valid as a two-mode NET file only: as CSV its header is unknown
        (tmp_path / name).write_text('*Vertices 2 1\n1 "J"\n2 "a"\n*Edges\n1 2\n', encoding="utf-8")
        status = run_analyze(["--input", name, "--stats-only"])
        err = capsys.readouterr().err
        if reads_net:
            assert (status, err) == (0, "")
        else:
            assert (status, err) == (1, f"{name}:1: unrecognized header: ['*Vertices 2 1']\n")

    def test_unrepresentable_label_writes_nothing(self, tmp_path, capsys):
        boards = tmp_path / "q.csv"
        boards.write_text('actor,event\na,"J ""1"""\n', encoding="utf-8")
        out = tmp_path / "q.json"
        status = run_analyze(
            ["--input", str(boards), "--out", str(out), "--export-net", str(tmp_path / "q.net")]
        )
        err = capsys.readouterr().err
        assert status == 1
        assert "'J \"1\"'" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.csv"]

    def test_failed_stdout_write_exits_2_and_removes_the_report(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(sys, "stdout", _FullStream())
        out = tmp_path / "report.json"
        status = run_analyze(["--input", str(data_path(TOY_BOARDS)), "--out", str(out), "--tables"])
        assert status == 2
        assert capsys.readouterr().err == "cannot write stdout: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _cli(flags, unbuffered):
        """The argv and environment of a child interpreter running the CLI,
        its stdio block-buffered, or unbuffered as under ``python -u``.
        Without an ``--input`` in ``flags`` the toy boards are read."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if "--input" not in flags:
            flags = ["--input", str(data_path(TOY_BOARDS)), *flags]
        return [sys.executable, "-m", "interlock.cli", *flags], {**env, "PYTHONPATH": src}

    @classmethod
    def _run_cli_into(cls, stdout, flags, stderr=subprocess.PIPE, unbuffered=False):
        """Run the CLI in a child interpreter; block-buffered, the bytes a
        failed flush left buffered are flushed again at exit."""
        argv, env = cls._cli(flags, unbuffered)
        return subprocess.run(argv, stdout=stdout, stderr=stderr, env=env, text=True, timeout=60)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("flags, unbuffered", _STDOUT_FLAGS)
    def test_stdout_on_a_full_device_exits_2_without_traceback(self, flags, unbuffered):
        with open("/dev/full", "w") as full:
            done = self._run_cli_into(full, flags, unbuffered=unbuffered)
        assert (done.returncode, done.stderr) == (
            2,
            "cannot write stdout: [Errno 28] No space left on device\n",
        )

    @pytest.mark.parametrize("flags, unbuffered", _STDOUT_FLAGS)
    def test_stdout_to_a_closed_pipe_exits_2_without_traceback(self, flags, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self._run_cli_into(write_end, flags, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "cannot write stdout: [Errno 32] Broken pipe\n")

    @classmethod
    def _popen(cls, flags, unbuffered):
        argv, env = cls._cli(flags, unbuffered)
        return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    @staticmethod
    def _pairs(folder):
        """1000 journals in pairs: a ~290 KB report with ~90 KB of tables,
        longer than a pipe holds (64 KiB on Linux)."""
        boards = folder / "pairs.csv"
        boards.write_text("actor,event\n" + "".join(f"a{k // 2},J{k}\n" for k in range(1000)))
        return str(boards)

    # The reader goes away while a write is blocked on the full pipe, so that
    # write takes only part of the bytes and only the next one fails.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("flags", [[], ["--tables", "--out", os.devnull]], ids=["report", "tables"])
    def test_stdout_reader_gone_after_20_bytes_of_a_long_output_exits_2(
        self, tmp_path, flags, unbuffered
    ):
        with self._popen(["--input", self._pairs(tmp_path), *flags], unbuffered) as child:
            assert len(child.stdout.read(20)) == 20
            child.stdout.close()
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 2
        assert err == "cannot write stdout: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stdout_on_a_full_non_blocking_pipe_exits_2(self, tmp_path, unbuffered):
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:  # nothing is read before the run ends
            done = self._run_cli_into(
                write_end, ["--input", self._pairs(tmp_path)], unbuffered=unbuffered
            )
        finally:
            os.close(read_end)
            os.close(write_end)
        reason = f"[Errno {errno.EAGAIN}] write could not complete without blocking"
        assert (done.returncode, done.stderr) == (2, f"cannot write stdout: {reason}\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stderr_reader_gone_after_20_bytes_of_warnings_exits_2(self, tmp_path, unbuffered):
        boards = tmp_path / "dups.csv"
        boards.write_text("actor,event\n" + "a,J1\n" * 5000)  # 4999 duplicate warnings
        flags = ["--input", str(boards), "--out", str(tmp_path / "r.json")]
        with self._popen(flags, unbuffered) as child:
            assert len(child.stderr.read(20)) == 20
            child.stderr.close()
            assert child.stdout.read() == b""
            assert child.wait(timeout=60) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["dups.csv"]

    def test_help_that_cannot_be_written_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _FullStream())
        assert run_analyze(["--help"]) == 2
        assert capsys.readouterr().err == "cannot write stdout: [Errno 28] No space left on device\n"

    def test_help_is_written_to_stdout(self, capsys):
        assert run_analyze(["--help"]) == 0
        assert capsys.readouterr() == (build_parser().format_help(), "")

    @staticmethod
    def _dead_stderr_argv(folder, name, text, flags):
        if name:
            (folder / name).write_text(text, encoding="utf-8")
        return ["--input", str(folder / (name or "missing.csv")), *flags]

    @pytest.mark.parametrize("case", list(_DEAD_STDERR))
    def test_a_message_that_cannot_be_written_keeps_its_status(
        self, tmp_path, monkeypatch, capsys, case
    ):
        name, text, flags, status = _DEAD_STDERR[case]
        monkeypatch.chdir(tmp_path)
        argv = self._dead_stderr_argv(tmp_path, name, text, flags)
        monkeypatch.setattr(sys, "stderr", _FullStream())
        assert run_analyze(argv) == status
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ([name] if name else [])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "case, unbuffered",
        _buffered_and_unbuffered(*[["parse-error", "missing-input", "warnings", "usage"]] * 2),
    )
    def test_stderr_on_a_full_device_keeps_the_status_without_exit_120(
        self, tmp_path, case, unbuffered
    ):
        name, text, flags, status = _DEAD_STDERR[case]
        argv = self._dead_stderr_argv(tmp_path, name, text, flags)
        argv = [str(tmp_path / a) if a == "r.json" else a for a in argv]
        with open("/dev/full", "w") as full:
            done = self._run_cli_into(subprocess.PIPE, argv, stderr=full, unbuffered=unbuffered)
        assert (done.returncode, done.stdout) == (status, "")
        assert [p.name for p in tmp_path.iterdir()] == ([name] if name else [])

    def test_failed_write_removes_earlier_outputs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        target = tmp_path / "missing" / "x.net"
        status = run_analyze(
            ["--input", str(data_path(TOY_BOARDS)), "--out", str(out), "--export-net", str(target)]
        )
        assert status == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def _main(self, monkeypatch, argv):
        """The exit status of the ``interlock-analyze`` entry point."""
        import interlock.cli as cli

        monkeypatch.setattr(sys, "argv", ["interlock-analyze", *argv])
        try:
            cli.main()
        except SystemExit as exc:
            return exc.code
        except KeyboardInterrupt:  # would end the whole test session
            pytest.fail("the interrupt escaped main")
        pytest.fail("main returned")

    def test_an_interrupt_while_measuring_exits_130_with_one_line(
        self, tmp_path, monkeypatch, capsys
    ):
        import interlock.cli as cli

        def interrupted(net, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "build_report", interrupted)
        argv = ["--input", str(data_path(TOY_BOARDS)), "--out", str(tmp_path / "report.json")]
        assert self._main(monkeypatch, argv) == 130
        assert capsys.readouterr() == ("", "interlock-analyze: interrupted\n")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(KeyboardInterrupt):  # the library entry lets it through
            run_analyze(argv)

    def test_an_interrupt_while_writing_removes_what_was_written(
        self, tmp_path, monkeypatch, capsys
    ):
        import interlock.cli as cli

        def interrupted_dot(path, *args, **kwargs):
            """``open``, with a DOT file whose write is interrupted halfway."""
            handle = open(path, *args, **kwargs)
            if not path.endswith(".dot"):
                return handle

            class Interrupted:
                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    handle.close()

                def write(self, text):
                    handle.write(text[: len(text) // 2])
                    raise KeyboardInterrupt

            return Interrupted()

        monkeypatch.setattr(cli, "open", interrupted_dot, raising=False)
        argv = ["--input", str(data_path(TOY_BOARDS)), "--out", str(tmp_path / "report.json")]
        argv += ["--export-csv", str(tmp_path / "edges.csv")]
        argv += ["--export-dot", str(tmp_path / "graph.dot")]
        assert self._main(monkeypatch, argv) == 130
        assert capsys.readouterr() == ("", "interlock-analyze: interrupted\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_never_removes_a_device(self, tmp_path, monkeypatch, capsys):
        removed = []
        # recorded, not done: a regression here must not delete the device
        monkeypatch.setattr(os, "unlink", removed.append)
        edges = tmp_path / "edges.csv"
        argv = ["--input", str(data_path(TOY_BOARDS)), "--out", os.devnull]
        argv += ["--export-csv", str(edges), "--export-dot", str(tmp_path / "missing" / "x.dot")]
        assert run_analyze(argv) == 2
        assert removed == [str(edges)]

    def test_unknown_flag_exits_2(self, capsys):
        assert run_analyze(["--input", "x.csv", "--frobnicate"]) == 2

    def test_parse_failure_exits_1_with_line_number(self, tmp_path, capsys):
        for name, text in (
            ("bad.csv", "actor,event\nonly-one-field\n"),
            ("blank.net", '*Vertices 3 1\n1 "   "\n2 "a"\n3 "b"\n*Edges\n1 2\n'),
        ):
            bad = tmp_path / name
            bad.write_text(text, encoding="utf-8")
            assert run_analyze(["--input", str(bad)]) == 1
            assert capsys.readouterr().err.startswith(f"{bad}:2: ")

    def test_a_row_of_another_width_exits_1_though_the_commas_match_the_lines(
        self, tmp_path, capsys
    ):
        # 3 lines and 3 commas, but line 2 holds none
        bad = tmp_path / "widths.csv"
        bad.write_text("actor,event\na\nb,J1,x\n", encoding="utf-8")
        assert run_analyze(["--input", str(bad)]) == 1
        assert capsys.readouterr() == ("", f"{bad}:2: expected 2 fields, got 1\n")

    def test_oversized_quote_free_cell_exits_1_with_the_csv_modules_message(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "big.csv"
        bad.write_text(f"actor,event\n{'A' * 140_000},J1\n", encoding="utf-8")
        assert run_analyze(["--input", str(bad)]) == 1
        assert capsys.readouterr().err == f"{bad}:2: field larger than field limit (131072)\n"

    def test_a_quoted_carriage_return_is_read_as_the_library_reads_it(self, tmp_path, capsys):
        text = 'actor,event\r\na,"J\r1"\r\na,J2\r\nb,"J\r1"\r\n'
        boards = tmp_path / "boards.csv"
        boards.write_bytes(text.encode())
        assert run_analyze(["--input", str(boards), "--slice", "1"]) == 0
        two_mode, _ = parse_csv_affiliations(text)
        report = build_report(project_events(two_mode), slice_thresholds=(1,))
        assert capsys.readouterr() == (report_to_json(report), "")
        assert sorted(vm.vertex for vm in report.vertices) == ["J\r1", "J2"]

    def test_stats_only_on_degree_census(self, tmp_path, capsys):
        status = run_analyze(
            ["--input", str(data_path(TABLE2_DEGREES)), "--stats-only"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        agg = doc["aggregates"]
        assert agg["n"] == 61
        assert agg["m"] == 162
        assert agg["meanDegree"] == pytest.approx(5.31, abs=0.01)
        assert agg["sdDegreePopulation"] == pytest.approx(4.66, abs=0.01)
        assert agg["degreeCentralization"] == pytest.approx(0.184, abs=0.001)
        assert agg["betweennessCentralization"] is None

    def test_degree_census_requires_stats_only(self, capsys):
        assert run_analyze(["--input", str(data_path(TABLE2_DEGREES))]) == 2
        assert "--stats-only" in capsys.readouterr().err

    def test_degree_census_rejects_exports(self, tmp_path, capsys):
        status = run_analyze(
            [
                "--input", str(data_path(TABLE2_DEGREES)),
                "--stats-only",
                "--export-net", str(tmp_path / "x.net"),
            ]
        )
        assert status == 2

    def test_stats_only_on_affiliations(self, toy_net, capsys):
        status = run_analyze(
            ["--input", str(data_path(TOY_BOARDS)), "--stats-only"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["degreeCentralization"] == pytest.approx(0.4)
        assert "vertices" not in doc
        # the same aggregates block as the full report's, keys in the same order
        want = {"schema": "1", "aggregates": report_to_dict(build_report(toy_net))["aggregates"]}
        assert json.dumps(doc) == json.dumps(want)

    def test_tables_flag_prints_three_tables(self, capsys):
        status = run_analyze(["--input", str(data_path(TOY_BOARDS)), "--tables"])
        assert status == 0
        out = capsys.readouterr().out
        assert "Degree  Freq" in out
        assert "LineValue" in out
        assert "Journal" in out

    def test_net_input_roundtrip(self, tmp_path, capsys):
        net_file = tmp_path / "boards.net"
        net_file.write_text(
            '*Vertices 3 1\n1 "J1"\n2 "a"\n3 "b"\n*Edges\n1 2\n1 3\n',
            encoding="utf-8",
        )
        status = run_analyze(["--input", str(net_file), "--stats-only"])
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["n"] == 1

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            assert (
                run_analyze(
                    [
                        "--input", str(data_path(TOY_BOARDS)),
                        "--slice", "2",
                        "--slice", "3",
                        "--out", str(target),
                    ]
                )
                == 0
            )
        assert first.read_bytes() == second.read_bytes()

    def test_export_csv_and_dot(self, tmp_path):
        csv_file = tmp_path / "edges.csv"
        dot_file = tmp_path / "net.dot"
        status = run_analyze(
            [
                "--input", str(data_path(TOY_BOARDS)),
                "--out", str(tmp_path / "r.json"),
                "--export-csv", str(csv_file),
                "--export-dot", str(dot_file),
            ]
        )
        assert status == 0
        assert csv_file.read_text(encoding="utf-8").startswith("source,target,value")
        assert dot_file.read_text(encoding="utf-8").startswith("graph interlock {")

    def test_normalize_names_merges_casefolded_actors(self, tmp_path, capsys):
        boards = tmp_path / "boards.csv"
        boards.write_text("actor,event\nAnna,J1\nanna,J2\n", encoding="utf-8")
        assert run_analyze(["--input", str(boards), "--normalize-names"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["m"] == 1  # J1 and J2 now share one editor

    def test_duplicate_rows_warn_on_stderr(self, tmp_path, capsys):
        boards = tmp_path / "boards.csv"
        boards.write_text("actor,event\na,J1\na,J1\n", encoding="utf-8")
        assert run_analyze(["--input", str(boards)]) == 0
        assert "warning" in capsys.readouterr().err

    def test_warning_stream_is_one_line_per_duplicate_in_row_order(self, tmp_path, capsys):
        rows = [
            "actor,event",
            "Ann,J1",
            'Bo,"Journal',  # a field over two lines: the row ends on line 4
            'of Tests"',
            "Ann,J1",
            '"Bo","Journal',
            'of Tests"',
            "",
            "Cy,J2",
            " ANN ,J1",  # the same seat once --normalize-names folds the case
            "Ann,J1",
            '"Cy","J2"',
        ]
        boards = tmp_path / "boards.csv"
        boards.write_text("\n".join(rows) + "\n", encoding="utf-8")
        distinct = tmp_path / "distinct.csv"
        distinct.write_text("\n".join(rows[:4] + rows[8:9]) + "\n", encoding="utf-8")
        argv = ["--normalize-names", "--slice", "1", "--tables"]

        assert run_analyze(["--input", str(boards), *argv]) == 0
        out, err = capsys.readouterr()
        assert err == "".join(
            f"{boards}:{line}: warning: duplicate membership collapsed: {row}\n"
            for line, row in (
                (5, "['Ann', 'J1']"),
                (7, "['Bo', 'Journal\\nof Tests']"),
                (10, "[' ANN ', 'J1']"),
                (11, "['Ann', 'J1']"),
                (12, "['Cy', 'J2']"),
            )
        )
        assert run_analyze(["--input", str(distinct), *argv]) == 0
        assert capsys.readouterr() == (out, "")

        # more duplicates than one write of warnings holds: the batches
        # follow each other in row order, and the report is unchanged
        dups = 2 * _WARNING_BATCH + 3
        many = tmp_path / "many.csv"
        many.write_text("\n".join(rows[:4] + rows[8:9] + ["Cy,J2"] * dups) + "\n", encoding="utf-8")
        assert run_analyze(["--input", str(many), *argv]) == 0
        assert capsys.readouterr() == (
            out,
            "".join(
                f"{many}:{line}: warning: duplicate membership collapsed: ['Cy', 'J2']\n"
                for line in range(6, 6 + dups)
            ),
        )

    def test_stderr_failing_after_the_first_batch_of_warnings_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        class _OneWrite(_FullStream):
            """A stream that takes one write, then fails like a full device."""

            taken = ""

            def write(self, text):
                if self.taken:
                    super().write(text)
                self.taken = text

        boards = tmp_path / "dups.csv"
        boards.write_text("actor,event\n" + "a,J1\n" * (_WARNING_BATCH + 2), encoding="utf-8")
        out = tmp_path / "r.json"
        stderr = _OneWrite()
        monkeypatch.setattr(sys, "stderr", stderr)
        assert run_analyze(["--input", str(boards), "--out", str(out)]) == 2
        assert stderr.taken == "".join(
            f"{boards}:{line}: warning: duplicate membership collapsed: ['a', 'J1']\n"
            for line in range(3, 3 + _WARNING_BATCH)
        )
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["dups.csv"]

    def test_net_event_labels_normalizing_alike_exit_1(self, tmp_path, capsys):
        boards = tmp_path / "boards.net"
        boards.write_text(
            '*Vertices 4 2\n1 " J"\n2 "J"\n3 "a"\n4 "b"\n*Edges\n1 3\n2 4\n',
            encoding="utf-8",
        )
        assert run_analyze(["--input", str(boards), "--stats-only"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{boards}:3: duplicate event label 'J'\n")

    @pytest.mark.parametrize(
        "text, reason",
        [
            (
                '*Vertices 4 2\n1 "J1"\n2 "J2"\n3 " X"\n4 "X"\n*Edges\n1 3\n2 4\n',
                "5: duplicate actor label 'X'",
            ),
            # undefined actor 4 is named "4", which actor 2's label trims to
            ('*Vertices 4 1\n1 "J"\n2 " 4"\n*Edges\n1 2\n1 4\n', "1: duplicate actor label '4'"),
        ],
        ids=["trimmed", "undefined"],
    )
    def test_net_actor_labels_normalizing_alike_exit_1(self, tmp_path, capsys, text, reason):
        boards = tmp_path / "boards.net"
        boards.write_text(text, encoding="utf-8")
        assert run_analyze(["--input", str(boards), "--stats-only"]) == 1
        assert capsys.readouterr() == ("", f"{boards}:{reason}\n")

    @pytest.mark.parametrize(
        "name, text, flags",
        [
            ("boards.csv", "actor,event\na,J1\nb,J1\nb,J2\n", ["--tables"]),
            ("boards.net", '*Vertices 3 2\n1 "J1"\n2 "J2"\n3 "a"\n*Edges\n1 3\n2 3\n', []),
            ("census.csv", "degree,journal\n1,j1\n1,j2\n", ["--stats-only"]),
        ],
        ids=["csv", "net", "census"],
    )
    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path, capsys, name, text, flags):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        for folder, prefix in ((plain, ""), (marked, "\ufeff")):
            folder.mkdir()
            (folder / name).write_text(prefix + text, encoding="utf-8")
        assert run_analyze(["--input", str(plain / name), *flags]) == 0
        want = capsys.readouterr()
        assert run_analyze(["--input", str(marked / name), *flags]) == 0
        assert capsys.readouterr() == want
        assert want.out and want.err == ""

    def test_huge_declared_net_header_costs_what_the_file_holds(self, tmp_path, capsys):
        boards = tmp_path / "boards.net"
        boards.write_text("*Vertices 1000000 0\n", encoding="utf-8")
        start = time.perf_counter()
        assert run_analyze(["--input", str(boards)]) == 0
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert len(err.encode("utf-8")) < 1024
        assert err == (
            f"{boards}:1: warning: actor vertices 1..1000000 are undefined and have "
            "no affiliation; dropped\n"
        )

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("edge.net", "*Vertices 3 1\n*Edges\n1 {big}\n", 3),
            ("header.net", "*Vertices {big} 1\n", 1),
            ("census.csv", "journal,degree\na,1\nb,{big}\n", 3),
        ],
    )
    def test_numbers_too_long_for_int_exit_1(self, tmp_path, capsys, name, text, line):
        path = tmp_path / name
        path.write_text(text.format(big="7" * 5000), encoding="utf-8")
        assert run_analyze(["--input", str(path), "--stats-only"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{path}:{line}: number too long: 5000 characters\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a float of a 400-digit degree overflows; say what is wrong instead
            (("1" * 400, "1" * 400), "a degree exceeds n-1 = 1; not a simple undirected network"),
            (("5", "5"), "a degree exceeds n-1 = 1; not a simple undirected network"),
            (("1", "2"), "degree total 3 is odd; not an undirected network"),
            # a total too long for str(), or to echo, is not printed
            (("9" * 4300,) * 10 + ("1",), "degree total is odd; not an undirected network"),
            (("1" * 400, "2" * 400), "degree total is odd; not an undirected network"),
        ],
        ids=["overflow", "above-n-1", "odd-total", "odd-4300-digit", "odd-400-digit"],
    )
    def test_impossible_degree_census_exits_1(self, tmp_path, capsys, rows, message):
        census = tmp_path / "census.csv"
        census.write_text(
            "journal,degree\n" + "".join(f"j{i},{d}\n" for i, d in enumerate(rows)),
            encoding="utf-8",
        )
        assert run_analyze(["--input", str(census), "--stats-only"]) == 1
        assert capsys.readouterr() == ("", f"{message}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "*Vertices 50000 50000\n",
            # 25,000 two-journal components: journals 2i-1 and 2i share editor i
            "*Vertices 75000 50000\n*Edges\n"
            + "".join(f"{2 * i - 1} {50000 + i}\n{2 * i} {50000 + i}\n" for i in range(1, 25001)),
        ],
        ids=["isolated", "pairs"],
    )
    def test_scattered_fields_cost_their_components_not_n_squared(
        self, tmp_path, capsys, text
    ):
        boards = tmp_path / "boards.net"
        boards.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        assert run_analyze(["--input", str(boards), "--stats-only"]) == 0
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err == ""

    def test_format_flag_overrides_extension(self, tmp_path, capsys):
        renamed = tmp_path / "boards.data"
        shutil.copy(data_path(TOY_BOARDS), renamed)
        assert run_analyze(["--input", str(renamed), "--format", "csv", "--stats-only"]) == 0

    def test_closeness_variant_flag_changes_vertex_scores(self, capsys):
        scores = {}
        for variant in ("paper", "component"):
            status = run_analyze(
                [
                    "--input", str(data_path(TOY_BOARDS)),
                    "--closeness-variant", variant,
                ]
            )
            assert status == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["options"]["closenessVariant"] == variant
            scores[variant] = {v["id"]: v["closeness"] for v in doc["vertices"]}
        # the Epsilon/Zeta pair reaches 1 of 5 others, so component scaling bites
        assert scores["paper"]["Epsilon Papers"] == pytest.approx(1.0)
        assert scores["component"]["Epsilon Papers"] == pytest.approx(0.2)

    def test_slice_flag_rejects_zero(self, capsys):
        assert run_analyze(["--input", "x.csv", "--slice", "0"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --slice: slice threshold must be at least 1\n"
        )

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("x", "not an integer: 'x'"),
            ("--1", "not an integer: '--1'"),
            ("9" * 5000, "number too long: 5000 characters"),
            ("-" + "9" * 4400, "number too long: 4401 characters"),
            (" " + "9" * 5000 + "\t", "number too long: 5000 characters"),
            ("x" * 5000, "not an integer: '" + "x" * 20 + "'... (5000 characters)"),
        ],
        ids=[
            "word", "two-signs", "5000-digits", "signed-4400-digits", "spaced-5000-digits",
            "5000-character-word",
        ],
    )
    def test_slice_flag_says_why_a_value_is_rejected(self, capsys, value, reason):
        assert run_analyze(["--input", "x.csv", f"--slice={value}"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"interlock-analyze: error: argument --slice: {reason}"
        assert len(err.encode()) < 1024


# Argv words: each documented option with values it takes and values it
# does not, in both spellings, the switches, and words argparse reads its
# own way (help, abbreviations, unknown options, a switch given a value).
_OPTION_VALUES = {
    "--input": ["boards.csv", "a b", "x=y", "", "-", "-x"],
    "--format": ["csv", "net", "NET", "-"],
    "--slice": [
        "1", "2", "3", "0001", "9" * 18, "9" * 19, "0", "-", "-1", "+2", " 2", "2 ", "1_0",
        "\u0663", "\uff12", "\u00b2", "9" * 5000, "x",
    ],
    "--closeness-variant": ["paper", "component", "Paper"],
    "--density-variant": ["loops", "no-loops", "no_loops"],
    "--out": ["r.json", "", "-", "--tables"],
    "--export-net": ["j.net"],
    "--export-csv": ["e.csv"],
    "--export-dot": ["j.dot"],
}
_ODD_WORDS = [
    "-h", "--help", "--inp", "--slic", "--stats", "--frobnicate", "--stats_only", "--tables=1",
    "--tables=", "--out=", "--", "-", "boards.csv", "--input",
]
_ARGV_ITEMS = st.one_of(
    st.sampled_from(list(_OPTION_VALUES)).flatmap(
        lambda option: st.tuples(
            st.just(option), st.sampled_from(_OPTION_VALUES[option]), st.booleans()
        ).map(lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])
    ),
    st.sampled_from(["--tables", "--stats-only", "--normalize-names"]).map(lambda w: [w]),
    st.sampled_from(_ODD_WORDS).map(lambda w: [w]),
)


@settings(max_examples=1000, deadline=None)
@given(
    head=st.sampled_from([["--input", "boards.csv"], ["--input=in.net"], []]),
    items=st.lists(_ARGV_ITEMS, max_size=6),
)
def test_argv_fast_path_reads_what_argparse_reads_or_defers(head, items):
    """The fast path returns argparse's options for the argv, or None; and
    None wherever argparse prints help or an error and exits."""
    argv = [*head, *(word for item in items for word in item)]
    fast = _read_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(build_parser().parse_args(argv))
        except SystemExit:
            expected = None
    assert fast is None or vars(fast) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["--input", "boards.csv"],
        ["--input=boards.csv", "--slice", "2", "--slice=3", "--tables", "--out", "r.json"],
        [
            "--normalize-names", "--format", "csv", "--closeness-variant=component",
            "--density-variant", "loops", "--export-net", "j.net", "--export-csv=e.csv",
            "--export-dot", "j.dot", "--stats-only", "--input", "in",
        ],
    ],
)
def test_argv_fast_path_reads_a_documented_argv(argv):
    assert vars(_read_argv(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "tail",
    [
        ["-h"], ["--help"], ["--inp", "x"], ["--stats"], ["--stats_only"], ["--frobnicate"],
        ["--tables=1"], ["--tables="], ["--out", "a", "--out", "b"], ["--tables", "--tables"],
        ["--out", "-"], ["--out=-x"], ["--out="], ["--format", "NET"], ["--slice", "0"],
        ["--slice", "+2"], ["--slice", "9" * 19], ["--slice", "9" * 5000], ["--slice"],
        ["--"], ["x"],
    ],
)
@pytest.mark.parametrize("head", [["--input", "boards.csv"], []], ids=["input", "no-input"])
def test_argv_fast_path_leaves_the_rest_to_argparse(head, tail):
    assert _read_argv([*head, *tail]) is None


def test_readme_flag_table_lists_every_option():
    """The README's flag table names exactly the flags of ``_OPTIONS``, an
    option with choices as ``--flag {a,b}`` in the order of its tuple."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    cells = [line.split("`")[1] for line in readme.splitlines() if line.startswith("| `--")]
    flags = {word for cell in cells for word in cell.split() if word.startswith("--")}
    assert flags == {flag for flag, _ in _OPTIONS}
    for flag, keywords in _OPTIONS:
        if "choices" in keywords:
            assert f"{flag} {{{','.join(keywords['choices'])}}}" in cells


# Inputs shaped like the two formats, in which any token may be swapped for
# a malformed one.  A swap is rare enough that most files get far into the
# pipeline before the odd token matters.  Vertex counts stay small, so a
# declared count never costs much.  Raw bytes cover the rest.
_ODD_NUMBERS = st.sampled_from(["--1", "\u00b2", "\u0663", "+1", "1.5", "-1", "0", "9", "x", ""])
_ODD_LABELS = st.one_of(
    st.sampled_from(['"   "', '""', '"', '"v1"', '"x" y', "\u00e9", "*Edges"]), st.text(max_size=3)
)
_ODD_CELLS = st.one_of(
    st.sampled_from(['"J ""1"""', '"x\ny"', '"J\u2028"']),  # no NET label can hold these
    st.sampled_from(['"', " ", "", "\u00b2", "J1,J2"]),
    st.text(max_size=4),
)


def _slot(draw, valid, odd):
    """``valid`` about nine times in ten, else a draw from ``odd``."""
    return draw(odd) if draw(st.integers(0, 9)) == 9 else valid


@st.composite
def _slice_args(draw):
    """A threshold from 1 to 3 about nine times in ten, else one argparse
    rejects or a 4300- to 5000-digit number (``int`` reads up to 4300)."""
    odd = st.one_of(
        st.sampled_from(["0", "-1", "x"]), st.integers(4300, 5000).map(lambda k: "9" * k)
    )
    return _slot(draw, str(draw(st.integers(1, 3))), odd)


@st.composite
def _net_files(draw):
    n = draw(st.integers(2, 5))
    events = draw(st.integers(1, n - 1))

    def num(k):
        return _slot(draw, str(k), _ODD_NUMBERS)

    head = _slot(draw, "*Vertices", st.sampled_from(["*vertices", "*Edges", "%", "*Vertices 2"]))
    lines = [f"{head} {num(n)} {num(events)}"]
    for i in range(1, n + 1):
        if draw(st.booleans()):
            label = _slot(draw, f'"v{i}"', _ODD_LABELS)
            lines.append(f"{num(i)} {label}")
    lines.append(_slot(draw, "*Edges", st.sampled_from(["*Arcs", "*edges", "", "*Vertices 2"])))
    for _ in range(draw(st.integers(0, 6))):
        event = draw(st.integers(1, events))
        actor = draw(st.integers(events + 1, n))
        value = [num(draw(st.integers(1, 3)))] if draw(st.booleans()) else []
        lines.append(" ".join([num(event), num(actor), *value]))
    return "\n".join(lines)


# Degree-census cells: small degrees that a few rows can realize, decimals
# too large for a float, and the longest decimal ``int`` reads, whose sums
# ``str`` cannot write
_DEGREE_CELLS = st.sampled_from(["0", "1", "2", "3", "1" * 400, "2" * 400, "9" * 4300])


@st.composite
def _csv_files(draw):
    if draw(st.booleans()):
        header = _slot(
            draw, "actor,event", st.sampled_from(["Event, Actor", "id,degree", "degree", "x,y", ""])
        )
        columns = (
            st.sampled_from(["a", "b", "A", "e\u0301", "\u00e9"]),
            st.sampled_from(["J1", "J2", "J3"]),
        )
    else:
        header = _slot(draw, "journal,degree", st.sampled_from(["id,Degree ", "actor,event", ""]))
        columns = (st.sampled_from(["J1", "J2", "J3"]), _DEGREE_CELLS)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        first, second = (_slot(draw, draw(cells), _ODD_CELLS) for cells in columns)
        rows.append(f"{first},{second}")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *rows]) + newline


# (file bytes, (file suffix, --format value)); shaped text is mostly read
# as its own format
_READS = st.tuples(st.sampled_from([".csv", ".net", ".txt"]), st.sampled_from([None, "csv", "net"]))
_INPUTS = st.one_of(
    st.tuples(_net_files().map(str.encode), st.sampled_from([(".net", None), (".txt", "net")])),
    st.tuples(_csv_files().map(str.encode), st.sampled_from([(".csv", None), (".net", "csv")])),
    st.tuples(st.one_of(_net_files(), _csv_files()).map(str.encode), _READS),
    st.tuples(st.binary(max_size=200), _READS),
    st.tuples(st.binary(max_size=60).map(lambda b: b"actor,event\n" + b), _READS),
)
_OUTPUT_FLAGS = ("--out", "--export-net", "--export-csv", "--export-dot")
_FLAG_SETS = st.fixed_dictionaries(
    {
        "slices": st.lists(_slice_args(), max_size=2),
        "switches": st.sets(st.sampled_from(["--tables", "--stats-only", "--normalize-names"])),
        "outputs": st.lists(st.booleans(), min_size=4, max_size=4).map(
            lambda picks: [f for f, on in zip(_OUTPUT_FLAGS, picks) if on]
        ),
        # census input with any other flag exits 2 before it is parsed
        "census_stats_only": st.booleans(),
    }
)
# The last stderr line of a failure (exit 1): a parse error at its line, an
# export a label cannot go into, or a short reason a census is impossible
_CENSUS_REASON = re.compile(
    r"(degree total( \d+)? is odd; not an|a degree exceeds n-1 = \d+; not a simple)"
    r" undirected network"
)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source_file=_INPUTS, flags=_FLAG_SETS)
def test_cli_contract_holds_for_arbitrary_input(source_file, flags):
    """Any input and flag mix ends in exit 0, 1 or 2 with no traceback, says
    why on exit 1 (the failing line, the export, or briefly why a census is
    impossible) and briefly on exit 2 (argparse's error for a bad --slice),
    and writes every requested output on success and none on failure."""
    data, (suffix, fmt) = source_file
    if data.startswith(b"journal,degree") and flags["census_stats_only"]:
        flags = {"slices": [], "switches": {"--stats-only"}, "outputs": []}
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / f"input{suffix}"
        source.write_bytes(data)
        argv = ["--input", str(source), *sorted(flags["switches"])]
        if fmt:
            argv += ["--format", fmt]
        for m in flags["slices"]:
            argv += ["--slice", m]
        outputs = [Path(tmp) / f"out{flag}" for flag in flags["outputs"]]
        for flag, target in zip(flags["outputs"], outputs):
            argv += [flag, str(target)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = run_analyze(argv)
        assert status in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if status == 1:
            reason = stderr.getvalue().rstrip("\n").rpartition("\n")[2]
            assert reason.startswith((f"{source}:", "cannot export ")) or (
                _CENSUS_REASON.fullmatch(reason) and len(reason) < 200
            ), reason
        if not all(m in ("1", "2", "3") or len(m) == 4300 for m in flags["slices"]):
            assert status == 2
            reason = stderr.getvalue().rstrip("\n").rpartition("\n")[2]
            assert reason.startswith("interlock-analyze: error:") and len(reason) < 200, reason
        written = [target.exists() for target in outputs]
        assert all(written) if status == 0 else not any(written)
