"""Interlocking-editorship network toolkit.

Ingest board-membership records, build the two-mode affiliation network,
project it to the valued one-mode journal (or editor) network, and compute
centralities, Freeman centralizations, line-multiplicity tables, and
m-slice cohesive subgroups, with NET/CSV/DOT/JSON output.
"""

from .cohesion import (
    ComponentSummary,
    LineMultiplicityDistribution,
    SliceDecomposition,
    line_multiplicity_distribution,
    m_slice,
    slice_decomposition,
    weak_components,
)
from .io import (
    BipartitenessError,
    FormatError,
    ParseDiagnostics,
    parse_csv_affiliations,
    parse_degree_list_csv,
    parse_net_one_mode,
    parse_net_two_mode,
    write_dot,
    write_edge_list_csv,
    write_net_one_mode,
)
from .metrics import (
    DegreeDistribution,
    NetworkAggregates,
    VertexMetrics,
    betweenness_centrality,
    betweenness_centralization,
    closeness_centrality,
    closeness_centralization,
    degree_census_aggregates,
    degree_centralization,
    degree_distribution,
    degree_stats,
    density,
    network_aggregates,
    rank_competition,
    vertex_metrics,
)
from .model import (
    DENSITY_LOOPS,
    DENSITY_NO_LOOPS,
    OneModeNetwork,
    TwoModeNetwork,
    normalize_identifier,
    pair_density,
)
from .projection import project_actors, project_events
from .report import (
    AnalysisReport,
    build_report,
    render_table,
    report_to_dict,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BipartitenessError",
    "ComponentSummary",
    "DegreeDistribution",
    "DENSITY_LOOPS",
    "DENSITY_NO_LOOPS",
    "FormatError",
    "LineMultiplicityDistribution",
    "NetworkAggregates",
    "OneModeNetwork",
    "ParseDiagnostics",
    "SliceDecomposition",
    "TwoModeNetwork",
    "VertexMetrics",
    "betweenness_centrality",
    "betweenness_centralization",
    "build_report",
    "closeness_centrality",
    "closeness_centralization",
    "degree_census_aggregates",
    "degree_centralization",
    "degree_distribution",
    "degree_stats",
    "density",
    "line_multiplicity_distribution",
    "m_slice",
    "network_aggregates",
    "normalize_identifier",
    "pair_density",
    "parse_csv_affiliations",
    "parse_degree_list_csv",
    "parse_net_one_mode",
    "parse_net_two_mode",
    "project_actors",
    "project_events",
    "rank_competition",
    "render_table",
    "report_to_dict",
    "report_to_json",
    "slice_decomposition",
    "vertex_metrics",
    "weak_components",
    "write_dot",
    "write_edge_list_csv",
    "write_net_one_mode",
]
