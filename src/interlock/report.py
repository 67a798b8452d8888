"""Analysis report assembly, JSON serialization, and plain-text tables.

The JSON layout is versioned through a top-level ``schema`` tag so
downstream tooling can rely on the field names staying put.  Serialization
is deterministic: identical inputs produce byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cohesion import (
    LineMultiplicityDistribution,
    SliceDecomposition,
    line_multiplicity_distribution,
    slice_decomposition,
)
from .metrics import (
    DegreeDistribution,
    NetworkAggregates,
    VertexMetrics,
    degree_distribution,
    network_aggregates,
    vertex_metrics,
)
from .model import DENSITY_NO_LOOPS, OneModeNetwork

SCHEMA_VERSION = "1"

DENSITY_NOTE = (
    "densityLoopsAllowed = 2m/n^2 counts self-pairs among the possible "
    "lines; densityNoLoops = 2m/(n(n-1)) does not. The two disagree for "
    "any network with at least one line, so both are reported."
)

TABLE_KINDS = ("degreeDist", "centrality", "lineMultiplicity")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline derives from one valued network."""

    aggregates: NetworkAggregates
    vertices: list[VertexMetrics]
    degree_distribution: DegreeDistribution
    line_multiplicity: LineMultiplicityDistribution
    slices: list[SliceDecomposition] = field(default_factory=list)
    closeness_variant: str = "paper"
    component_density_variant: str = DENSITY_NO_LOOPS
    schema: str = SCHEMA_VERSION


def build_report(
    net: OneModeNetwork,
    slice_thresholds: tuple[int, ...] = (),
    closeness_variant: str = "paper",
    component_density_variant: str = DENSITY_NO_LOOPS,
) -> AnalysisReport:
    """Run metrics and cohesion over ``net``; slice thresholds are applied
    in ascending order with duplicates dropped."""
    return AnalysisReport(
        aggregates=network_aggregates(net),
        vertices=vertex_metrics(net, closeness_variant),
        degree_distribution=degree_distribution(net),
        line_multiplicity=line_multiplicity_distribution(net),
        slices=[
            slice_decomposition(net, m, component_density_variant)
            for m in sorted(set(slice_thresholds))
        ],
        closeness_variant=closeness_variant,
        component_density_variant=component_density_variant,
    )


def aggregates_to_dict(agg: NetworkAggregates) -> dict:
    return {
        "n": agg.n,
        "m": agg.m,
        "densityNoLoops": agg.density_no_loops,
        "densityLoopsAllowed": agg.density_loops_allowed,
        "densityNote": DENSITY_NOTE,
        "meanDegree": agg.mean_degree,
        "medianDegree": agg.median_degree,
        "sdDegreePopulation": agg.sd_degree_population,
        "degreeCentralization": agg.degree_centralization,
        "betweennessCentralization": agg.betweenness_centralization,
        "closenessCentralization": agg.closeness_centralization,
        "componentCount": agg.component_count,
        "isolateCount": agg.isolate_count,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    vertices = [
        {
            "index": pos,
            "id": vm.vertex,
            "label": vm.label,
            "degree": vm.degree,
            "normalizedDegree": vm.normalized_degree,
            "closeness": vm.closeness,
            "betweenness": vm.betweenness,
            "ranks": {
                "degree": vm.degree_rank,
                "closeness": vm.closeness_rank,
                "betweenness": vm.betweenness_rank,
            },
        }
        for pos, vm in enumerate(report.vertices, start=1)
    ]
    return {
        "schema": report.schema,
        "options": {
            "closenessVariant": report.closeness_variant,
            "componentDensityVariant": report.component_density_variant,
        },
        "aggregates": aggregates_to_dict(report.aggregates),
        "vertices": vertices,
        "degreeDistribution": {
            "rows": [list(row) for row in report.degree_distribution.rows],
        },
        "lineMultiplicity": {
            "maxValue": report.line_multiplicity.max_value,
            "rows": [list(row) for row in report.line_multiplicity.rows],
        },
        "slices": [
            {
                "m": sl.m,
                "edgeCount": sl.network.edge_count,
                "componentCount": len(sl.components),
                "components": [
                    {
                        "members": list(comp.members),
                        "size": comp.size,
                        "edgeCount": comp.edge_count,
                        "density": comp.density,
                    }
                    for comp in sl.components
                ],
            }
            for sl in report.slices
        ],
    }


def report_to_json(report: AnalysisReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_rows(headers: list[str], rows: list[list]) -> str:
    cells = [[_format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells), 0) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"


def render_table(report: AnalysisReport, which: str) -> str:
    """Fixed-width text rendering of one of the three report tables.

    ``degreeDist``: Degree / Freq / Freq% / CumFreq.
    ``centrality``: one row per vertex with all measures and ranks.
    ``lineMultiplicity``: LineValue / Freq / Freq%.
    Reals carry 3 decimals.
    """
    if which == "degreeDist":
        return _render_rows(
            ["Degree", "Freq", "Freq%", "CumFreq"],
            [list(row) for row in report.degree_distribution.rows],
        )
    if which == "centrality":
        return _render_rows(
            [
                "Label",
                "Journal",
                "Degree",
                "NormDegree",
                "DegreeRank",
                "Closeness",
                "ClosenessRank",
                "Betweenness",
                "BetweennessRank",
            ],
            [
                [
                    pos,
                    vm.label,
                    vm.degree,
                    vm.normalized_degree,
                    vm.degree_rank,
                    vm.closeness,
                    vm.closeness_rank,
                    vm.betweenness,
                    vm.betweenness_rank,
                ]
                for pos, vm in enumerate(report.vertices, start=1)
            ],
        )
    if which == "lineMultiplicity":
        return _render_rows(
            ["LineValue", "Freq", "Freq%"],
            [list(row) for row in report.line_multiplicity.rows],
        )
    raise ValueError(f"unknown table kind: {which!r}; expected one of {TABLE_KINDS}")
