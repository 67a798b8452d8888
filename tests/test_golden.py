"""Byte-exact regression fixtures for the CLI's outputs.

The files under ``tests/golden/`` were written by the CLI itself; any
refactor of the parse, measurement, report, or export code has to
reproduce them, its stderr included, byte for byte.
"""

from pathlib import Path

import pytest

from interlock.cli import run_analyze
from interlock.data import TABLE2_DEGREES, TOY_BOARDS, data_path

GOLDEN = Path(__file__).parent / "golden"

# (input, extra flags, fixture prefix, exports written beside the report)
CASES = [
    (
        data_path(TOY_BOARDS),
        ["--slice", "2", "--slice", "3"],
        "toy",
        {"--export-net": "toy.net", "--export-csv": "toy_edges.csv", "--export-dot": "toy.dot"},
    ),
    (
        GOLDEN / "synthetic_boards.csv",
        ["--slice", "2", "--slice", "3", "--closeness-variant", "component"],
        "synthetic",
        {"--export-net": "synthetic.net"},
    ),
    # most journals isolated at m >= 2; of the two named with a comma,
    # "Review, Letters" has a line (a quoted edge-list cell) and
    # "Notes, Quarterly" has none
    (
        GOLDEN / "isolates_boards.csv",
        ["--slice", "1", "--slice", "2", "--slice", "3", "--density-variant", "loops"],
        "isolates",
        {
            "--export-net": "isolates_journals.net",
            "--export-csv": "isolates_edges.csv",
            "--export-dot": "isolates_journals.dot",
        },
    ),
]


@pytest.mark.parametrize("source, flags, prefix, exports", CASES, ids=[c[2] for c in CASES])
def test_full_report_matches_golden(tmp_path, capsys, source, flags, prefix, exports):
    argv = ["--input", str(source), *flags, "--tables", "--out", str(tmp_path / "report.json")]
    for flag, name in exports.items():
        argv += [flag, str(tmp_path / name)]
    assert run_analyze(argv) == 0
    tables = capsys.readouterr().out
    assert tables == (GOLDEN / f"{prefix}_tables.txt").read_text(encoding="utf-8")
    assert (tmp_path / "report.json").read_bytes() == (
        GOLDEN / f"{prefix}_report.json"
    ).read_bytes()
    for name in exports.values():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_census_stats_only_matches_golden(capsys):
    assert run_analyze(["--input", str(data_path(TABLE2_DEGREES)), "--stats-only"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "census_stats.json").read_text(encoding="utf-8")


# (input under tests/golden/, extra flags): the CLI's stderr for each, as
# written at the time the fixture was made; the input is named by its bare
# file name, which every warning line repeats.
STDERR_CASES = [
    ("membership_dups.csv", ["--normalize-names"]),
    ("two_mode_dups.net", []),
]


@pytest.mark.parametrize("name, flags", STDERR_CASES, ids=[c[0] for c in STDERR_CASES])
def test_parse_warnings_match_golden_stderr(monkeypatch, capsys, name, flags):
    monkeypatch.chdir(GOLDEN)
    assert run_analyze(["--input", name, *flags, "--stats-only"]) == 0
    stem = name.rpartition(".")[0]
    assert capsys.readouterr().err.encode() == (GOLDEN / f"{stem}_stderr.txt").read_bytes()
