"""Checks of the benchmark's own machinery.

Run from the root of a source checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import calibration  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from interlock import parse_net_two_mode, project_events  # noqa: E402
from tracing import CallCounter, SpanRecorder, self_times  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _rows(text: str) -> int:
    if text.startswith("*Vertices"):
        return text.split("*Edges\n", 1)[1].count("\n")
    return text.count("\n") - 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded_and_fixed_in_size(name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    other = workloads.generate(name, 8)
    assert other != first
    assert _rows(other) == _rows(first)


def test_paper61_degrees_are_the_table2_census():
    with workloads.CENSUS.open(encoding="utf-8", newline="") as fh:
        census = [int(row[1]) for row in list(csv.reader(fh))[1:]]
    two_mode, _ = parse_net_two_mode(workloads.paper61(3))
    assert project_events(two_mode).degrees() == census


def _spec(tmp_path: Path, name: str) -> dict:
    w = workloads.WORKLOADS[name]
    path = tmp_path / w.input_name
    path.write_text(workloads.generate(name, 5), encoding="utf-8")
    return {"input": str(path), "flags": list(w.flags), "out_dir": str(tmp_path)}


@pytest.mark.parametrize("name", ["paper61", "fragmented"])
def test_counting_pass_repeats_exactly(tmp_path, name):
    spec = _spec(tmp_path, name)
    counts = []
    for _ in range(2):
        pipeline = worker.Pipeline(spec)
        counter = CallCounter()
        with counter.installed():
            pipeline.run(worker.interlock.cli.run_analyze)
        assert pipeline.failed == 0, pipeline.errors
        counts.append(dict(counter.counts))
    assert counts[0] == counts[1]
    assert counts[0]["model.neighbors_calls"] > 0
    assert counts[0]["metrics.betweenness_centrality"] >= 1


def test_traced_pipeline_gives_the_untraced_bytes(tmp_path):
    spec = _spec(tmp_path, "paper61")
    pipeline = worker.Pipeline(spec)
    run_analyze = worker.interlock.cli.run_analyze
    pipeline.run(run_analyze)
    recorder = SpanRecorder()
    with recorder.installed():
        pipeline.run(recorder.span("cli.run_analyze", run_analyze))
    assert worker.interlock.cli.run_analyze is run_analyze
    assert pipeline.failed == 0, pipeline.errors
    layers = worker.layer_metrics(recorder.spans)
    assert sum(v for k, v in layers.items() if k.startswith("share.")) == pytest.approx(1.0)
    assert layers["metrics.betweenness_s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        [0, None, 1, "cli.run_analyze", 0.0, 10.0],
        [1, 0, 1, "report.build_report", 1.0, 7.0],
        [2, 1, 1, "metrics.vertex_metrics", 2.0, 5.0],
        [3, 2, 1, "metrics.rank_competition", 3.0, 4.0],
    ]
    total, own = self_times(spans)
    assert total["report.build_report"] == 6.0
    assert own == {
        "cli.run_analyze": 4.0,
        "report.build_report": 3.0,
        "metrics.vertex_metrics": 2.0,
        "metrics.rank_competition": 1.0,
    }


def test_tail_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 41)])
    assert (value, percentile, beyond) == (30.0, 75.0, 10)


def test_reference_speed_divides_by_the_bracketing_calibration():
    ref = calibration.REFERENCE_CALIBRATION_S
    scaled = calibration.at_reference_speed([1.0, 2.0], [ref, ref, 2 * ref])
    assert scaled == pytest.approx([1.0, 2.0 / 1.5])


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0 + 0.1 * i for i in range(10)], [5.0 + 0.1 * i for i in range(10)], "improved"),
        ([10.0 + 0.1 * i for i in range(10)], [10.05 + 0.1 * i for i in range(10)], "no worse"),
        ([10.0 + 0.1 * i for i in range(10)], [13.0 + 0.1 * i for i in range(10)], "worse"),
        ([float(i) for i in range(1, 11)], [float(i) + 0.5 for i in range(1, 11)], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, lower_is_better=True, bound=0.1)[0] == expected


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(workloads.WORKLOADS)
