"""Differential check of one workload's outputs against networkx.

Usage: python3 perfbench/oracle.py SPEC.json

Reads the input file and the outputs the worker left in ``out_dir``, and
rebuilds the weighted event projection, betweenness, closeness in both
variants, and connected components with networkx from the raw input rows.
Prints each disagreement and exits 1 if there is any, 0 otherwise.  Runs
outside the timed region, in its own process so that networkx does not
count toward the worker's memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import networkx as nx
from networkx.algorithms import bipartite

TOLERANCE = 1e-9
CENSUS = Path("src/interlock/data/table2_degrees.csv")


def _norm(token: str, casefold: bool = False) -> str:
    token = unicodedata.normalize("NFC", token.strip())
    return token.casefold() if casefold else token


def seats(path: Path, casefold: bool) -> list[tuple[str, str]]:
    """(event, actor) pairs of the input file, read without interlock."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".net":
        labels: dict[int, str] = {}
        pairs = []
        section = None
        for line in text.splitlines():
            if line.startswith("*"):
                section = line.split()[0].lower()
                continue
            if section == "*vertices":
                idx, label = re.match(r'(\d+) "(.*)"$', line).groups()
                labels[int(idx)] = label
            elif section == "*edges" and line.strip():
                event, actor = sorted(int(p) for p in line.split())
                pairs.append((_norm(labels[event]), _norm(labels[actor], casefold)))
        return pairs
    rows = list(csv.reader(io.StringIO(text, newline="")))
    col = {name.strip().lower(): k for k, name in enumerate(rows[0])}
    return [(_norm(r[col["event"]]), _norm(r[col["actor"]], casefold)) for r in rows[1:] if r]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def check(spec: dict) -> list[str]:
    problems: list[str] = []
    out = Path(spec["out_dir"])
    casefold = "--normalize-names" in spec["flags"]
    pairs = seats(Path(spec["input"]), casefold)

    affiliation = nx.Graph()
    events = list(dict.fromkeys(("e", e) for e, _ in pairs))
    affiliation.add_nodes_from(events)
    affiliation.add_edges_from((("e", e), ("a", a)) for e, a in pairs)
    projected = bipartite.weighted_projected_graph(affiliation, events)
    graph = nx.relabel_nodes(projected, {node: node[1] for node in events})

    with (out / "out.csv").open(encoding="utf-8", newline="") as fh:
        exported = {
            frozenset((u, v)): int(w) for u, v, w in list(csv.reader(fh))[1:]
        }
    expected = {frozenset((u, v)): w for u, v, w in graph.edges(data="weight")}
    if exported != expected:
        problems.append(
            f"projection: {len(exported.keys() ^ expected.keys())} lines differ "
            f"in presence, {sum(exported.get(k) != w for k, w in expected.items())} in value"
        )

    report = json.loads((out / "out.json").read_text(encoding="utf-8"))
    ids = [v["id"] for v in report["vertices"]]
    if set(ids) != set(graph) or len(ids) != len(graph):
        problems.append("vertex set differs from the projection's")
        return problems

    betweenness = nx.betweenness_centrality(graph)
    closeness = {
        "paper": nx.closeness_centrality(graph, wf_improved=False),
        "component": nx.closeness_centrality(graph, wf_improved=True),
    }
    reports = {report["options"]["closenessVariant"]: report}
    other = "component" if "paper" in reports else "paper"
    reports[other] = _rerun(spec, other)
    for variant, rep in reports.items():
        wrong = [
            v["id"] for v in rep["vertices"] if not close(v["closeness"], closeness[variant][v["id"]])
        ]
        if wrong:
            problems.append(f"closeness ({variant}) differs on {len(wrong)} vertices, e.g. {wrong[0]!r}")
    wrong = [v["id"] for v in report["vertices"] if not close(v["betweenness"], betweenness[v["id"]])]
    if wrong:
        problems.append(f"betweenness differs on {len(wrong)} vertices, e.g. {wrong[0]!r}")

    agg = report["aggregates"]
    if (agg["n"], agg["m"], agg["componentCount"]) != (
        graph.number_of_nodes(),
        graph.number_of_edges(),
        nx.number_connected_components(graph),
    ):
        problems.append("aggregates n / m / componentCount differ")

    for sl in report["slices"]:
        kept = nx.Graph()
        kept.add_nodes_from(graph)
        kept.add_edges_from((u, v) for u, v, w in graph.edges(data="weight") if w >= sl["m"])
        want = {frozenset(c): kept.subgraph(c).number_of_edges() for c in nx.connected_components(kept)}
        got = {frozenset(c["members"]): c["edgeCount"] for c in sl["components"]}
        if got != want or any(c["size"] != len(c["members"]) for c in sl["components"]):
            problems.append(f"components of the {sl['m']}-slice differ")

    if spec["workload"] == "paper61":
        with CENSUS.open(encoding="utf-8", newline="") as fh:
            census = Counter(int(row[1]) for row in list(csv.reader(fh))[1:])
        rows = report["degreeDistribution"]["rows"]
        if {row[0]: row[1] for row in rows} != dict(census):
            problems.append("degree distribution differs from the Table 2 census")
    return problems


def _rerun(spec: dict, variant: str) -> dict:
    """The same pipeline with the other closeness variant, untimed."""
    sys.path.insert(0, str(Path("src").resolve()))
    from interlock.cli import run_analyze

    path = Path(spec["out_dir"]) / f"closeness-{variant}.json"
    argv = ["--input", spec["input"], *spec["flags"], "--closeness-variant", variant, "--out", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_analyze(argv)
    if code != 0:
        raise SystemExit(f"closeness-variant {variant} run exited {code}")
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    problems = check(spec)
    for problem in problems:
        print(f"oracle: {spec['workload']}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
