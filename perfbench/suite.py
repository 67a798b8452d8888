"""Run the benchmark over several seeds and workloads into one result file.

Usage, from the root of a source checkout:

    python3 perfbench/suite.py --out FILE [--seeds 1-10] [--workload NAME ...]
                               [--seconds S] [--trace 0|1]

Each run is its own ``run.py`` process, one after another.  The result file
records every run's metrics with the Python version, ``nproc`` and seed,
and is what ``compare.py`` reads.  The summary printed at the end gives,
for each workload and metric, the median over seeds and the spread, the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = next(json.loads(l[len("details: "):]) for l in lines if l.startswith("details: "))
    return {
        "workload": workload,
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "details": details,
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarize(runs: list[dict], bounds: dict[str, float]) -> bool:
    """Print each metric's median and spread; False if a bounded spread
    (setup_s excepted, as the benchmark contract allows) reaches a third of
    its bound."""
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        bad = sum(not r["correct"] for r in mine)
        print(f"{workload}: {len(mine)} runs, {bad} not correct")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name] for r in mine]
            if len(values) < 2:
                print(f"  {name:<36} {values[0]:.6g}")
                continue
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                ok = name == "setup_s" or share < bound / 3
                steady &= ok
                note = f"bound {bound:.2f} {'ok' if ok else 'WIDE'}"
            print(f"  {name:<36} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}  {note}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    runs = []
    for workload in workloads:
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]["metrics"]), flush=True)
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]} if not args.trace else {}
    steady = summarize(runs, bounds)
    return 0 if steady and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
