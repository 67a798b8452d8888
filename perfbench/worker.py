"""Timed pipeline loop for one workload, run in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the input file, the CLI flags, the output directory, the
measuring time, whether to trace, and optionally the reference digests.
The worker imports ``interlock`` from ``src`` of the current directory,
runs ``interlock.cli.run_analyze`` back to back in this one process (a
closed loop with one client), hashes every output of every pipeline, reads
the machine's speed (calibration.py) between untraced pipelines, and writes
its findings to the ``result`` path named in SPEC.  A traced run alternates
untraced and span-traced pipelines, then makes one call-counting pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from math import comb
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path("src").resolve()))

import interlock.cli  # noqa: E402
from interlock import (  # noqa: E402
    parse_csv_affiliations,
    parse_net_two_mode,
    project_events,
    weak_components,
)

from calibration import calibrate, calibrate_for  # noqa: E402
from tracing import CallCounter, LAYERS, SpanRecorder, self_times  # noqa: E402

OUTPUTS = ("json", "tables", "net", "csv", "dot")
MIN_SAMPLES = 21  # ten samples beyond the tail percentile, which is then at least p50
MIN_TRACED = 3  # traced pipelines, and as many untraced, for the per-layer medians
MAX_SECONDS = 120.0
CALIBRATION_SHARE = 0.05  # calibration time after each pipeline, as a share of it


class Pipeline:
    """One workload's CLI call, with its output checks and failure counts."""

    def __init__(self, spec: dict) -> None:
        out = Path(spec["out_dir"])
        self.files = {kind: out / f"out.{kind}" for kind in ("json", "net", "csv", "dot")}
        self.argv = [
            "--input", spec["input"], *spec["flags"],
            "--out", str(self.files["json"]),
            "--export-net", str(self.files["net"]),
            "--export-csv", str(self.files["csv"]),
            "--export-dot", str(self.files["dot"]),
        ]
        self.reference: dict | None = spec.get("reference")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warnings = 0
        self.output_bytes = 0
        self.json_bytes = 0

    def run(self, call) -> float:
        """One pipeline through ``call`` (run_analyze or a traced wrapper of
        it); returns its wall seconds and checks its outputs afterwards."""
        # every pipeline writes fresh files: rewriting a file in place makes
        # ext4 flush it on close, which times the disk instead of the program
        for path in self.files.values():
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = call(self.argv)
        except Exception as exc:  # a crash is a failed pipeline, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if code != 0:
            self._fail(f"exit {code}; stderr: {stderr.getvalue()[-500:]!r}")
            return elapsed
        blobs = {kind: path.read_bytes() for kind, path in self.files.items()}
        blobs["tables"] = stdout.getvalue().encode("utf-8")
        digests = {kind: hashlib.sha256(blobs[kind]).hexdigest() for kind in OUTPUTS}
        if not self.output_bytes:
            self.warnings = stderr.getvalue().count(": warning: ")
            self.output_bytes = sum(len(b) for b in blobs.values())
            self.json_bytes = len(blobs["json"])
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            bad = sorted(k for k in OUTPUTS if digests[k] != self.reference[k])
            self._fail(f"output digest mismatch: {', '.join(bad)}")
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def input_profile(spec: dict) -> dict:
    """Work counts and shape of the input, taken through the public API
    outside any timed region."""
    text = Path(spec["input"]).read_text(encoding="utf-8")
    parse = parse_net_two_mode if spec["input"].endswith(".net") else parse_csv_affiliations
    two_mode, diags = parse(text, casefold_actors="--normalize-names" in spec["flags"])
    net = project_events(two_mode)
    increments = sum(comb(len(two_mode.events_of(a)), 2) for a in two_mode.actors)
    components = weak_components(net)
    return {
        "journals": len(two_mode.events),
        "seat_rows": diags.records_read,
        "duplicates": diags.duplicates_collapsed,
        "n": net.n,
        "m": net.edge_count,
        "components": len(components),
        "largest_component": max((len(c) for c in components), default=0),
        "isolates": sum(1 for c in components if len(c) == 1),
        "pair_increments": increments,
    }


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer seconds of one traced pipeline."""
    total, own = self_times(spans)
    root = total["cli.run_analyze"]

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    out = {
        "cli.run_analyze_s": root,
        "cli.self_s": own["cli.run_analyze"],
        "io.parse_s": t("io.csv_kind", "io.parse_csv_affiliations", "io.parse_net_two_mode"),
        "io.export_s": t("io.write_net_one_mode", "io.write_edge_list_csv", "io.write_dot"),
        "projection.project_s": t("projection.project_events"),
        "metrics.aggregates_s": t("metrics.network_aggregates"),
        "metrics.vertex_metrics_s": t("metrics.vertex_metrics"),
        "metrics.degree_distribution_s": t("metrics.degree_distribution"),
        "metrics.betweenness_s": t("metrics.betweenness_centrality"),
        "metrics.closeness_s": t("metrics.closeness_centrality"),
        "metrics.closeness_centralization_s": t("metrics.closeness_centralization"),
        "metrics.rank_s": t("metrics.rank_competition"),
        "cohesion.line_multiplicity_s": t("cohesion.line_multiplicity_distribution"),
        "cohesion.slices_s": t("cohesion.slice_decomposition"),
        "cohesion.m_slice_s": t("cohesion.m_slice"),
        "cohesion.weak_components_s": t("cohesion.weak_components"),
        "cohesion.component_summary_s": t("cohesion.component_summary"),
        "report.build_report_s": t("report.build_report"),
        "report.self_s": own.get("report.build_report", 0.0),
        "report.to_json_s": t("report.report_to_json"),
        "report.tables_s": t("report.render_table"),
    }
    for layer, seconds in layer_self.items():
        out[f"share.{layer}"] = seconds / root
    return out


def measure(spec: dict) -> dict:
    pipeline = Pipeline(spec)
    run_analyze = interlock.cli.run_analyze
    seconds = spec["seconds"]
    pipeline.run(run_analyze)  # warm-up: fills lazy state, sets the reference
    result: dict = {}
    untraced: list[float] = []
    begin = perf_counter()

    def more(samples: list[float], minimum: int) -> bool:
        elapsed = perf_counter() - begin
        return elapsed < MAX_SECONDS and (elapsed < seconds or len(samples) < minimum)

    if not spec["trace"]:
        calibration = [calibrate()]
        while more(untraced, MIN_SAMPLES):
            untraced.append(pipeline.run(run_analyze))
            calibration.append(calibrate_for(untraced[-1] * CALIBRATION_SHARE))
        result["calibration"] = calibration
    else:
        recorder = SpanRecorder()
        traced_call = recorder.span("cli.run_analyze", run_analyze)
        traced: list[float] = []
        per_pipeline: list[dict] = []
        while more(traced, MIN_TRACED):
            # alternate which side goes first so drift hits both alike
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for tracing in order:
                if not tracing:
                    untraced.append(pipeline.run(run_analyze))
                    continue
                recorder.pipeline += 1
                first = len(recorder.spans)
                with recorder.installed():
                    traced.append(pipeline.run(traced_call))
                per_pipeline.append(layer_metrics(recorder.spans[first:]))
        counter = CallCounter()
        with counter.installed():
            pipeline.run(run_analyze)
        layers = {
            name: statistics.median(p[name] for p in per_pipeline)
            for name in per_pipeline[0]
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        result.update(layers=layers, counts=dict(counter.counts))
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for sid, parent, number, name, start, end in recorder.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "pipeline": number,
                                     "name": name, "start": start, "end": end}) + "\n")

    result.update(
        samples=untraced,
        attempted=pipeline.attempted,
        failed=pipeline.failed,
        errors=pipeline.errors,
        digests=pipeline.reference,
        warnings=pipeline.warnings,
        output_bytes=pipeline.output_bytes,
        json_bytes=pipeline.json_bytes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = measure(spec)
    result["profile"] = input_profile(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
