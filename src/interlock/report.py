"""Analysis report assembly, JSON serialization, and plain-text tables.

The JSON layout is versioned through a top-level ``schema`` tag so
downstream tooling can rely on the field names staying put.  Serialization
is deterministic: identical inputs produce byte-identical text.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat

from .cohesion import line_multiplicity_distribution, slice_decomposition
from .metrics import (
    CLOSENESS_VARIANTS,
    NetworkAggregates,
    VertexMetrics,
    degree_distribution,
    network_aggregates,
    vertex_metrics,
)
from .model import DENSITY_NO_LOOPS, DENSITY_VARIANTS, OneModeNetwork, check_variant

SCHEMA_VERSION = "1"

DENSITY_NOTE = (
    "densityLoopsAllowed = 2m/n^2 counts self-pairs among the possible "
    "lines; densityNoLoops = 2m/(n(n-1)) does not. The two disagree for "
    "any network with at least one line, so both are reported."
)

TABLE_KINDS = ("degreeDist", "centrality", "lineMultiplicity")


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        "aggregates vertices degree_distribution line_multiplicity slices"
        " closeness_variant component_density_variant schema",
        defaults=((), "paper", DENSITY_NO_LOOPS, SCHEMA_VERSION),
    )
):
    """Everything the pipeline derives from one valued network."""

    __slots__ = ()


def build_report(
    net: OneModeNetwork,
    slice_thresholds: tuple[int, ...] = (),
    closeness_variant: str = "paper",
    component_density_variant: str = DENSITY_NO_LOOPS,
) -> AnalysisReport:
    """Run metrics and cohesion over ``net``; slice thresholds are applied
    in ascending order with duplicates dropped.  Both variant names are
    checked before anything is computed."""
    check_variant("closeness", closeness_variant, CLOSENESS_VARIANTS)
    check_variant("density", component_density_variant, DENSITY_VARIANTS)
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
    """The ``aggregates`` block, keys in document order."""
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


# The string encoder ``json.dumps(..., ensure_ascii=False)`` uses, the C one
# where CPython has it, taken without importing the ``json`` package.  With
# ``indent`` json.dumps encodes everything else in pure Python, so the
# report's fixed layout is written out here instead.
try:
    from _json import encode_basestring as _string
except ImportError:
    from json.encoder import encode_basestring as _string
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# The JSON documents' layout, the one place their keys are spelled (the
# aggregates block's keys are in ``aggregates_to_dict``).  Each layout is a
# function returning an f-string, indented as json.dumps(indent=2) indents:
# a vertex sits two levels deep, a slice two and a slice component four.
# Ints are formatted as f-strings format them (their ``repr``); floats,
# strings and arrays arrive encoded.  The replacement fields hold names
# only, within Python 3.10's f-string grammar.
def _document_json(
    schema, closeness, density, aggregates, vertices, degrees, max_value, lines, slices
):
    return f"""{{
  "schema": {schema},
  "options": {{
    "closenessVariant": {closeness},
    "componentDensityVariant": {density}
  }},
  "aggregates": {aggregates},
  "vertices": {vertices},
  "degreeDistribution": {{
    "rows": {degrees}
  }},
  "lineMultiplicity": {{
    "maxValue": {max_value},
    "rows": {lines}
  }},
  "slices": {slices}
}}
"""


def _stats_json(schema, aggregates):
    return f"""{{
  "schema": {schema},
  "aggregates": {aggregates}
}}
"""


def _vertex_json(index, vid, label, degree, normalized, closeness, betweenness, rd, rc, rb):
    return f"""{{
      "index": {index},
      "id": {vid},
      "label": {label},
      "degree": {degree},
      "normalizedDegree": {normalized},
      "closeness": {closeness},
      "betweenness": {betweenness},
      "ranks": {{
        "degree": {rd},
        "closeness": {rc},
        "betweenness": {rb}
      }}
    }}"""


def _slice_json(m, edge_count, component_count, components):
    return f"""{{
      "m": {m},
      "edgeCount": {edge_count},
      "componentCount": {component_count},
      "components": {components}
    }}"""


def _component_json(members, size, edge_count, density):
    return f"""{{
          "members": {members},
          "size": {size},
          "edgeCount": {edge_count},
          "density": {density}
        }}"""


def _float(value: float) -> str:
    """A float as ``json.dumps`` writes it: ``repr``, or NaN/Infinity."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _scalar(value) -> str:
    """A string, int, float or ``None`` as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, float):
        return _float(value)
    return int.__repr__(value)


def _array(items: list[str], depth: int) -> str:
    """Encoded ``items`` as an ``indent=2`` array opened at nesting ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _rows(rows, depth: int) -> str:
    return _array([_array(list(map(_scalar, row)), depth + 1) for row in rows], depth)


def _aggregates_json(agg: NetworkAggregates) -> str:
    """The ``aggregates`` object as it sits one level into a document."""
    fields = [f'"{key}": {_scalar(value)}' for key, value in aggregates_to_dict(agg).items()]
    return "{\n    " + ",\n    ".join(fields) + "\n  }"


def report_to_json(report: AnalysisReport) -> str:
    """The report as the ``_document_json`` text, with a final newline.

    Keys keep the layouts' order and nest with a two-space indent, as
    ``json.dumps(..., indent=2, ensure_ascii=False)`` writes them.  Strings
    are encoded by the ``json`` module's C string encoder, floats are
    written as ``repr`` (or ``NaN``, ``Infinity``, ``-Infinity``) and a
    missing figure as ``null``.
    """
    vertices = [
        _vertex_json(
            pos,
            _string(vm.vertex),
            _string(vm.label),
            vm.degree,
            _float(vm.normalized_degree),
            _float(vm.closeness),
            _float(vm.betweenness),
            vm.degree_rank,
            vm.closeness_rank,
            vm.betweenness_rank,
        )
        for pos, vm in enumerate(report.vertices, start=1)
    ]
    # A one-member component is written around its one encoded member, from
    # a template kept per size, line count and density repr: the repr, not
    # the float, as 0.0 and -0.0 are equal keys that print apart.
    lone: dict[tuple, list[str]] = {}
    slices = []
    for sl in report.slices:
        components = []
        for members, size, edge_count, density in sl.components:
            if len(members) == 1:
                key = (size, edge_count, float.__repr__(density))
                around = lone.get(key)
                if around is None:
                    # a one-member array as _array writes it at depth 5
                    text = _component_json(
                        "[\n            \0\n          ]", size, edge_count, _float(density)
                    )
                    around = lone[key] = text.split("\0")
                components.append(around[0] + _string(members[0]) + around[1])
            else:
                text = _array(list(map(_string, members)), 5)
                components.append(_component_json(text, size, edge_count, _float(density)))
        slices.append(
            _slice_json(sl.m, sl.network.edge_count, len(sl.components), _array(components, 3))
        )
    return _document_json(
        _string(report.schema),
        _string(report.closeness_variant),
        _string(report.component_density_variant),
        _aggregates_json(report.aggregates),
        _array(vertices, 1),
        _rows(report.degree_distribution.rows, 2),
        report.line_multiplicity.max_value,
        _rows(report.line_multiplicity.rows, 2),
        _array(slices, 1),
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """The report as ``json.loads`` reads :func:`report_to_json`'s text."""
    import json  # kept off the command line's import path

    return json.loads(report_to_json(report))


def stats_to_json(aggregates: NetworkAggregates) -> str:
    """The ``--stats-only`` document: the schema tag and the aggregates."""
    return _stats_json(_string(SCHEMA_VERSION), _aggregates_json(aggregates))


def _columns(rows, width: int) -> list:
    """The ``width`` columns of ``rows``, each a tuple; empty ones for no rows."""
    return list(zip(*rows)) or [()] * width


def _render_columns(headers: list[str], columns) -> str:
    """Fixed-width lines of ``headers`` over ``columns``, one sequence of
    cells each: each column is formatted (reals with 3 decimals) and padded
    to its widest cell, then the columns are zipped back into rows, two
    spaces apart, with trailing space dropped."""
    padded = []
    for header, column in zip(headers, columns):
        cells = [header, *[f"{c:.3f}" if isinstance(c, float) else str(c) for c in column]]
        padded.append(map(str.ljust, cells, repeat(max(map(len, cells)))))
    return "\n".join(["  ".join(row).rstrip() for row in zip(*padded)]) + "\n"


def render_table(report: AnalysisReport, which: str) -> str:
    """Fixed-width text rendering of one of the three report tables.

    ``degreeDist``: Degree / Freq / Freq% / CumFreq.
    ``centrality``: one row per vertex with all measures and ranks.
    ``lineMultiplicity``: LineValue / Freq / Freq%.
    Reals carry 3 decimals.
    """
    if which == "degreeDist":
        return _render_columns(
            ["Degree", "Freq", "Freq%", "CumFreq"], _columns(report.degree_distribution.rows, 4)
        )
    if which == "centrality":
        vertices = report.vertices
        columns = _columns(vertices, len(VertexMetrics._fields))
        _, labels, degrees, normalized, closeness, betweenness, rd, rc, rb = columns
        return _render_columns(
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
                range(1, len(vertices) + 1),
                labels,
                degrees,
                normalized,
                rd,
                closeness,
                rc,
                betweenness,
                rb,
            ],
        )
    if which == "lineMultiplicity":
        return _render_columns(
            ["LineValue", "Freq", "Freq%"], _columns(report.line_multiplicity.rows, 3)
        )
    raise ValueError(f"unknown table kind: {which!r}; expected one of {TABLE_KINDS}")
