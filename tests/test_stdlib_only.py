"""The runtime is pure standard library: the package imports with no
site-packages on the path (``-S``), so a third-party import outside the
tests (networkx, hypothesis, ...) fails here.  A cold start of the CLI
loads no stdlib module a run does not use, and the result records keep
their value API (keyword construction, ``==``, ``repr``, immutability).
Every annotation in the package resolves, though no run imports typing."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import interlock
from interlock import (
    DENSITY_NO_LOOPS,
    AnalysisReport,
    ComponentSummary,
    DegreeDistribution,
    LineMultiplicityDistribution,
    NetworkAggregates,
    OneModeNetwork,
    ParseDiagnostics,
    SliceDecomposition,
    VertexMetrics,
)
from interlock.data import TABLE2_DEGREES, data_path
from interlock.metrics import _SPLIT_WORK, PathSums

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_imports_without_site_packages(tmp_path):
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import interlock, interlock.cli"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


# Modules a run never uses: record boilerplate, type hints, Path calls, the
# json package (``_json`` supplies the one string encoder), the csv module
# with the ``re`` and ``enum`` it imports (``_csv`` supplies the reader and
# writer), argparse with its ``gettext`` (a documented argv is read without
# them), and ``threading`` and ``signal`` (the forked sweep asks
# ``sys.modules`` for threading and takes SIGKILL from ``_signal``).
_NOT_LOADED_BY_A_RUN = (
    "dataclasses", "typing", "pathlib", "inspect", "ast", "json",
    "re", "argparse", "gettext", "csv", "enum", "threading", "signal",
)
# ``python -S -c`` with this script and an argv runs the CLI on that argv, as
# ``python -S -m interlock.cli`` does, and then lists every loaded module
_RUN = (
    "import sys\n"
    "from interlock.cli import run_analyze\n"
    "status = run_analyze()\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(status)\n"
)


# Membership CSV with quoted cells and an accented name, read by the csv
# reader, not by str.split
_BOARDS = 'actor,event\n"Ann\u00e9e, B",J1\nann\u00e9e,J2\n"Ann\u00e9e, B",J2\nc,J2\nc,J3\n'
# A ring lattice, one editor per journal on it and the next three: one
# component of k = 150 journals and m = 3k lines, whose sweep forks
_RING = 150


def _modules_loaded(folder, script, argv=()):
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        cwd=folder,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def test_cli_cold_start_imports_only_what_a_run_uses(tmp_path):
    script = "import sys, interlock.cli; print(*sorted(sys.modules), file=sys.stderr)"
    loaded = _modules_loaded(tmp_path, script)
    assert "interlock.cli" in loaded
    assert loaded.isdisjoint(_NOT_LOADED_BY_A_RUN), sorted(loaded & set(_NOT_LOADED_BY_A_RUN))


@pytest.mark.parametrize(
    "argv",
    [
        [
            "--input", "boards.csv", "--normalize-names", "--slice", "1", "--slice=2",
            "--tables", "--out", "r.json", "--export-net", "j.net", "--export-csv", "e.csv",
            "--export-dot", "j.dot",
        ],
        ["--input", str(data_path(TABLE2_DEGREES)), "--stats-only"],
        pytest.param(
            ["--input", "ring.csv", "--stats-only"],
            marks=pytest.mark.skipif(
                not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                reason="the sweep forks only with two CPUs in the affinity mask",
            ),
        ),
    ],
    ids=["membership-csv-every-output", "table2-census", "forked-sweep"],
)
def test_whole_runs_import_only_what_they_use(tmp_path, argv):
    assert _RING * 3 * _RING >= _SPLIT_WORK
    ring = (f"e{i},J{(i + d) % _RING}" for i in range(_RING) for d in range(4))
    (tmp_path / "ring.csv").write_text("actor,event\n" + "\n".join(ring) + "\n")
    (tmp_path / "boards.csv").write_text(_BOARDS, encoding="utf-8")
    loaded = _modules_loaded(tmp_path, _RUN, argv)
    assert loaded.isdisjoint(_NOT_LOADED_BY_A_RUN), sorted(loaded & set(_NOT_LOADED_BY_A_RUN))


_AGGREGATES = dict(
    n=3, m=1, density_no_loops=1 / 3, density_loops_allowed=2 / 9, mean_degree=2 / 3,
    median_degree=1.0, sd_degree_population=0.5, degree_centralization=0.5,
    betweenness_centralization=None, closeness_centralization=None,
    component_count=None, isolate_count=1,
)
_LINES = dict(rows=[(1, 1, 1.0)], max_value=1)
_FROZEN_RECORDS = [
    (DegreeDistribution, dict(rows=[(0, 1, 1 / 3, 1 / 3), (1, 2, 2 / 3, 1.0)])),
    (
        VertexMetrics,
        dict(
            vertex="j1", label="J 1", degree=1, normalized_degree=0.5, closeness=1.0,
            betweenness=0.0, degree_rank=1, closeness_rank=1, betweenness_rank=1,
        ),
    ),
    (NetworkAggregates, _AGGREGATES),
    (PathSums, dict(dependency=[0.0, 0.0], reach=[1, 1], distance_sum=[1, 1], components=[[0, 1]])),
    (LineMultiplicityDistribution, _LINES),
    (ComponentSummary, dict(members=["j1", "j2"], size=2, edge_count=1, density=1.0)),
    (SliceDecomposition, dict(m=2, network=OneModeNetwork(["j1"]), components=[])),
    (
        AnalysisReport,
        dict(
            aggregates=NetworkAggregates(**_AGGREGATES), vertices=[],
            degree_distribution=DegreeDistribution(rows=[]),
            line_multiplicity=LineMultiplicityDistribution(**_LINES), slices=[],
            closeness_variant="component", component_density_variant="loops", schema="1",
        ),
    ),
]


@pytest.mark.parametrize(
    "record_type, fields", _FROZEN_RECORDS, ids=[t.__name__ for t, _ in _FROZEN_RECORDS]
)
def test_result_records_are_frozen_keyword_built_values(record_type, fields):
    record = record_type(**fields)
    assert record == record_type(**fields)
    assert record != record_type(**{**fields, next(iter(fields)): "other"})
    assert repr(record) == (
        f"{record_type.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    )
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_record_defaults_and_derived_fields():
    report = AnalysisReport(
        aggregates=NetworkAggregates(**_AGGREGATES), vertices=[],
        degree_distribution=DegreeDistribution(rows=[]),
        line_multiplicity=LineMultiplicityDistribution(**_LINES),
    )
    assert (report.slices, report.closeness_variant) == ((), "paper")
    assert (report.component_density_variant, report.schema) == (DENSITY_NO_LOOPS, "1")
    assert LineMultiplicityDistribution(rows=[(1, 2, 0.5), (2, 2, 0.5)], max_value=2).total == 4


def test_parse_diagnostics_is_a_mutable_keyword_built_value():
    diags = ParseDiagnostics()
    assert diags == ParseDiagnostics(warnings=[], records_read=0, duplicates_collapsed=0)
    assert repr(diags) == "ParseDiagnostics(warnings=[], records_read=0, duplicates_collapsed=0)"
    diags.warn(3, "duplicate")
    diags.records_read = 2
    assert diags == ParseDiagnostics(warnings=[(3, "duplicate")], records_read=2)
    assert diags != ParseDiagnostics(records_read=2)
    assert ParseDiagnostics().warnings is not ParseDiagnostics().warnings


def test_every_annotation_resolves():
    """``typing.get_type_hints`` resolves the annotations of every function
    and method the package defines, although a module may import a module
    it names in one only inside the function that uses it."""
    checked = []
    for info in pkgutil.walk_packages(interlock.__path__, "interlock."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if isinstance(obj, type) else [obj]:
                fn = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    typing.get_type_hints(fn)
                    checked.append(f"{info.name}.{fn.__qualname__}")
    assert "interlock.cli._analyze" in checked
    assert "interlock.model.OneModeNetwork.neighbors" in checked


def test_package_source_keeps_to_the_python_3_10_grammar():
    # pyproject.toml declares requires-python >= 3.10; ast checks a source
    # against an older minor version's grammar, best effort (it does reject
    # 3.11's except*)
    sources = sorted((SRC / "interlock").glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
