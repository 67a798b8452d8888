"""Compare two result files written by suite.py, a parent and a change.

Usage: python3 perfbench/compare.py PARENT.json CHANGE.json

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the share of seed-matched pairs the change wins, and one verdict:

- improved: the change wins at least nine tenths of all pairs (ties count
  for neither side) and the medians differ, in the better direction, by more
  than the distance between the parent's quartiles;
- unresolved: the parent's own spread (quartile distance over median) is
  wider than the metric's bound, and not every run of the change reads
  better than every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound in BENCHMARK.json;
- no worse: otherwise.

A gain does not count on a workload where the change failed more pipelines
than the parent; such a verdict reads "no worse (more failures)".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float) -> tuple[str, float]:
    """(verdict, win share) for seed-matched runs of one metric."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs)
    gain = sign * (p_med - c_med)
    if share >= 0.9 and gain > p_q3 - p_q1:
        return "improved", share
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p_med and (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved", share
    if p_med and -gain / p_med > bound:
        return "worse", share
    return "no worse", share


def _by_workload(record: dict) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for run in record["runs"]:
        out.setdefault(run["workload"], {})[run["seed"]] = run
    return out


def compare(parent: dict, change: dict, benchmark: dict) -> list[str]:
    lines = [
        f"parent: python {parent['python']}, nproc {parent['nproc']}, seeds {parent['seeds']}",
        f"change: python {change['python']}, nproc {change['nproc']}, seeds {change['seeds']}",
    ]
    before, after = _by_workload(parent), _by_workload(change)
    for workload in before:
        if workload not in after:
            lines.append(f"{workload}: missing from the change's results")
            continue
        seeds = sorted(before[workload].keys() & after[workload].keys())
        if not seeds:
            lines.append(f"{workload}: no seed in common")
            continue
        p_runs = [before[workload][s] for s in seeds]
        c_runs = [after[workload][s] for s in seeds]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        incorrect = sum(not r["correct"] for r in c_runs)
        lines.append(
            f"{workload}: {len(seeds)} seed pairs; failed pipelines parent {p_failed}, "
            f"change {c_failed}; change runs not correct: {incorrect}"
        )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name] for r in p_runs]
            c_vals = [r["metrics"][name] for r in c_runs]
            text, share = verdict(p_vals, c_vals, metric["better"] == "lower", metric["bound"])
            if text == "improved" and c_failed > p_failed:
                text = "no worse (more failures)"
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            lines.append(
                f"  {name:<16} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
                f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
                f"wins {share:.0%}  bound {metric['bound']:.0%}  {text}"
            )
    return lines


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in sys.argv[1:])
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("\n".join(compare(parent, change, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
