"""Span and call-count wrappers installed from outside the program.

Wrappers replace public functions at the module attributes through which
the pipeline calls them (``interlock.report.network_aggregates`` is the
name ``build_report`` looks up, for example) and are removed afterwards,
so an untraced pipeline runs the program unmodified.  A site the program
no longer has is skipped; its figures then read 0.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (module, attribute, span name); the span name's prefix is the layer
SITES = (
    ("interlock.cli", "csv_kind", "io.csv_kind"),
    ("interlock.cli", "parse_csv_affiliations", "io.parse_csv_affiliations"),
    ("interlock.cli", "parse_net_two_mode", "io.parse_net_two_mode"),
    ("interlock.cli", "project_events", "projection.project_events"),
    ("interlock.cli", "build_report", "report.build_report"),
    ("interlock.cli", "report_to_json", "report.report_to_json"),
    ("interlock.cli", "render_table", "report.render_table"),
    ("interlock.cli", "write_net_one_mode", "io.write_net_one_mode"),
    ("interlock.cli", "write_edge_list_csv", "io.write_edge_list_csv"),
    ("interlock.cli", "write_dot", "io.write_dot"),
    ("interlock.report", "network_aggregates", "metrics.network_aggregates"),
    ("interlock.report", "vertex_metrics", "metrics.vertex_metrics"),
    ("interlock.report", "degree_distribution", "metrics.degree_distribution"),
    ("interlock.report", "line_multiplicity_distribution", "cohesion.line_multiplicity_distribution"),
    ("interlock.report", "slice_decomposition", "cohesion.slice_decomposition"),
    ("interlock.metrics", "betweenness_centrality", "metrics.betweenness_centrality"),
    ("interlock.metrics", "closeness_centrality", "metrics.closeness_centrality"),
    ("interlock.metrics", "closeness_centralization", "metrics.closeness_centralization"),
    ("interlock.metrics", "geodesic_distances", "metrics.geodesic_distances"),
    ("interlock.metrics", "rank_competition", "metrics.rank_competition"),
    ("interlock.metrics", "weak_components", "cohesion.weak_components"),
    ("interlock.cohesion", "m_slice", "cohesion.m_slice"),
    ("interlock.cohesion", "weak_components", "cohesion.weak_components"),
    ("interlock.cohesion", "component_summary", "cohesion.component_summary"),
)

LAYERS = ("cli", "io", "projection", "metrics", "cohesion", "report")


@contextmanager
def _patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _site_replacements(wrap):
    out = []
    for module_name, attr, name in SITES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is not None:
            out.append((module, attr, wrap(name, fn)))
    return out


class SpanRecorder:
    """In-memory spans ``[id, parent, pipeline, name, start, end]``.

    Spans of one pipeline share the pipeline number; ``parent`` is the id of
    the span open when this one began.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.pipeline = 0

    def span(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(self.spans), self._open[-1] if self._open else None,
                   self.pipeline, name, 0.0, 0.0]
            self.spans.append(rec)
            self._open.append(rec[0])
            rec[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                self._open.pop()

        return traced

    @contextmanager
    def installed(self):
        with _patched(_site_replacements(self.span)):
            yield


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name for one pipeline's spans.

    A span's self time is its duration minus its direct children's
    durations; children never overlap, as the pipeline is single-threaded.
    """
    total: Counter = Counter()
    child: Counter = Counter()
    for sid, parent, _, name, start, end in spans:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    own: Counter = Counter()
    for sid, _, _, name, start, end in spans:
        own[name] += end - start - child[sid]
    return dict(total), dict(own)


class CallCounter:
    """Counts calls into every site plus the hot ``OneModeNetwork`` methods.

    Run in its own pass: wrapping ``neighbors`` and ``edges`` costs time on
    every call and would distort the span pass's self times.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def count(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        from interlock.model import OneModeNetwork

        counts = self.counts
        neighbors = OneModeNetwork.neighbors
        edges = OneModeNetwork.edges

        def counted_neighbors(net, vertex):
            out = neighbors(net, vertex)
            counts["model.neighbors_calls"] += 1
            counts["model.neighbors_arcs"] += len(out)
            return out

        def counted_edges(net):
            counts["model.edges_calls"] += 1

            def gen():
                for line in edges(net):
                    counts["model.edges_yielded"] += 1
                    yield line

            return gen()

        with _patched(
            _site_replacements(self.count)
            + [
                (OneModeNetwork, "neighbors", counted_neighbors),
                (OneModeNetwork, "edges", counted_edges),
            ]
        ):
            yield
