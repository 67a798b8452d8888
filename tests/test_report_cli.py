import json
import shutil

import pytest

from oracles import rederive_aggregates

from interlock import (
    build_report,
    parse_csv_affiliations,
    project_events,
    render_table,
    report_to_dict,
    report_to_json,
)
from interlock.cli import run_analyze
from interlock.data import TABLE2_DEGREES, TOY_BOARDS, data_path, load_text


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

    def test_unknown_flag_exits_2(self, capsys):
        assert run_analyze(["--input", "x.csv", "--frobnicate"]) == 2

    def test_parse_failure_exits_1_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("actor,event\nonly-one-field\n", encoding="utf-8")
        assert run_analyze(["--input", str(bad)]) == 1
        assert ":2:" in capsys.readouterr().err

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

    def test_stats_only_on_affiliations(self, capsys):
        status = run_analyze(
            ["--input", str(data_path(TOY_BOARDS)), "--stats-only"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["degreeCentralization"] == pytest.approx(0.4)
        assert "vertices" not in doc

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
