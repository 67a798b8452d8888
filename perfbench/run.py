"""The interlock benchmark: one run of one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A run generates the workload's input from the seed, times how long a fresh
interpreter takes to import ``interlock.cli`` (``setup_s``), then starts
``worker.py`` in a process of its own, which runs the real
``interlock.cli.run_analyze`` pipeline back to back for S seconds and
hashes every output.  ``oracle.py`` then checks the outputs against
networkx.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``.

End-to-end times are given at the reference machine's speed (see
calibration.py); the measured wall time and the machine's speed factor
are printed beside them.  Per-layer times are measured wall seconds.

``--record-golden`` runs one pipeline at the default seed and, if the
oracle agrees, stores its output digests and the input's shape in
golden.json; runs at that seed then require the same digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_CALIBRATION_S, at_reference_speed, calibrate
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
OUT_ROOT = Path(".bench_out")
DEFAULT_SEED = 1
SETUP_PROBES = 15
CHILD_TIMEOUT = 170


def setup_seconds(env: dict) -> float:
    """Median time of a fresh interpreter importing interlock.cli, at the
    reference machine's speed (calibration readings between the probes).

    One untimed probe first writes the bytecode cache, which an installed
    CLI also keeps between calls.  ``-S`` leaves out the processing of the
    machine's site-packages, which the program, pure standard library, does
    not need and does not control.
    """
    argv = [sys.executable, "-S", "-c", "import interlock.cli"]
    subprocess.run(argv, env=env, check=True, timeout=60)
    times = []
    calibration = [calibrate()]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        times.append(perf_counter() - start)
        calibration.append(calibrate())
    return statistics.median(at_reference_speed(times, calibration))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile that
    still has at least ten samples beyond it; the maximum when there are too
    few samples for that."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def child(script: str, spec_path: Path, env: dict) -> int:
    return subprocess.run(
        [sys.executable, str(HERE / script), str(spec_path)], env=env, timeout=CHILD_TIMEOUT
    ).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not Path("src/interlock/cli.py").is_file():
        print("run from the root of an interlock checkout: src/interlock is missing", file=sys.stderr)
        return 2
    if find_spec("networkx") is None:
        print("networkx is required for the correctness check; refusing to report", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    if args.record_golden:
        args.seed, args.seconds, args.trace = DEFAULT_SEED, 0.0, 0
    work = OUT_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(args, workload, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, golden: dict, work: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # setup_s assumes a warm bytecode cache

    input_path = work / workload.input_name
    input_path.write_text(generate(workload.name, args.seed), encoding="utf-8")
    setup = setup_seconds(env) if not args.trace else None

    reference = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        if workload.name not in golden:
            print(f"no golden digests for {workload.name}; run with --record-golden", file=sys.stderr)
            return 2
        reference = golden[workload.name]["digests"]
    spec = {
        "workload": workload.name,
        "input": str(input_path),
        "flags": list(workload.flags),
        "out_dir": str(work),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "reference": reference,
        "result": str(work / "result.json"),
        "spans": str(OUT_ROOT / f"spans-{workload.name}-{args.seed}.jsonl"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    if child("worker.py", spec_path, env) != 0:
        print("worker failed", file=sys.stderr)
        return 1
    res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    oracle_ok = child("oracle.py", spec_path, env) == 0

    profile = res["profile"]
    if args.record_golden:
        if not oracle_ok or res["failed"]:
            print("outputs failed the check; golden digests not recorded", file=sys.stderr)
            return 1
        golden[workload.name] = {
            "seed": DEFAULT_SEED,
            "flags": list(workload.flags),
            "shape": profile,
            "digests": res["digests"],
        }
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {workload.name}: {json.dumps(profile)}")
        return 0

    correct = oracle_ok and res["failed"] == 0
    for error in res["errors"]:
        print(f"failed pipeline: {error}")
    print(f"workload {workload.name} seed {args.seed}: flags {' '.join(workload.flags)} + three exports")
    print("shape " + " ".join(f"{k}={v}" for k, v in profile.items()))

    if args.trace:
        metrics = _layer_metrics(res, profile)
        print(f"spans written to {spec['spans']}")
    else:
        samples = res["samples"]
        calibration = res["calibration"]
        speed = REFERENCE_CALIBRATION_S / statistics.median(calibration)
        scaled = at_reference_speed(samples, calibration)
        p50 = statistics.median(scaled)
        tail_s, percentile, beyond = tail(scaled)
        metrics = {
            "pipeline_s_p50": (p50, "s"),
            "pipeline_s_tail": (tail_s, "s"),
            "seats_per_s": (profile["seat_rows"] / p50, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        print(
            f"pipeline_s_tail is p{percentile:.1f} of {len(samples)} pipelines, {beyond} beyond it; "
            f"pipeline times are at reference speed: measured p50 {statistics.median(samples):.6f} s "
            f"with this machine at {speed:.3f} x the reference"
        )
    failed_ratio = res["failed"] / res["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:14.6f} {unit}")
    print(f"{'failed_ratio':<40} {failed_ratio:14.6f} ratio")
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed_ratio": failed_ratio,
        "oracle_ok": oracle_ok,
        "shape": profile,
    }
    if not args.trace:
        details.update(measured_p50_s=statistics.median(samples), speed=speed,
                       tail={"value": tail_s, "percentile": percentile, "beyond": beyond})
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_metrics(res: dict, profile: dict) -> dict[str, tuple[float, str]]:
    counts = res["counts"]
    n = profile["n"]
    out = {name: (value, "ratio" if name.startswith(("share.", "trace.")) else "s")
           for name, value in res["layers"].items()}
    count_metrics = {
        "io.rows_read": profile["seat_rows"],
        "io.duplicates_collapsed": profile["duplicates"],
        "io.warnings": res["warnings"],
        "io.output_bytes": res["output_bytes"],
        "report.json_bytes": res["json_bytes"],
        "projection.pair_increments": profile["pair_increments"],
        "projection.lines": profile["m"],
        "metrics.betweenness_calls": counts.get("metrics.betweenness_centrality", 0),
        "metrics.geodesic_calls": counts.get("metrics.geodesic_distances", 0),
        "cohesion.weak_components_calls": counts.get("cohesion.weak_components", 0),
        "cohesion.component_summary_calls": counts.get("cohesion.component_summary", 0),
        "model.neighbors_calls": counts.get("model.neighbors_calls", 0),
        "model.neighbors_arcs": counts.get("model.neighbors_arcs", 0),
        "model.edges_calls": counts.get("model.edges_calls", 0),
        "model.edges_yielded": counts.get("model.edges_yielded", 0),
    }
    count_metrics["metrics.bfs_sources"] = (
        count_metrics["metrics.betweenness_calls"] * n + count_metrics["metrics.geodesic_calls"]
    )
    out.update({name: (value, "bytes" if name.endswith("_bytes") else "count")
                for name, value in count_metrics.items()})
    increments = profile["pair_increments"]
    out["projection.lines_per_increment"] = (profile["m"] / increments if increments else 0.0, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
