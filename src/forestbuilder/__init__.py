"""Exact and Monte Carlo analysis of the forest-building process on graphs.

Scan a uniformly random ordering of a graph's edges and keep each edge that
touches at least one vertex untouched by the earlier kept edges; the kept
edges form a spanning forest.  This package computes the distribution of
the forest's component count exactly (local-minimum sums keyed by the
vertex sets that matchings cover, with brute force over all orderings as an
oracle; the test suite keeps the edge-deletion recurrence and the sums over
matchings as two more), evaluates the known closed forms, estimates by
seeded simulation, and searches small graphs for distribution coincidences.
"""

from .distribution import ForestDistribution, convolve, format_fraction, parse_fraction
from .engine import (
    BRUTE_FORCE_EDGE_CAP,
    PolynomialEngine,
    ProcessResult,
    brute_force_distribution,
    expected_components,
    forest_polynomial,
    run_process,
    single_component_probability,
)
from .graphs import (
    CHEEGER_VERTEX_CAP,
    Graph,
    cheeger_constant,
    components,
    edge_codegree,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
)
from .canon import (
    CANONICAL_VERTEX_CAP,
    canonical_key,
    is_edge_transitive,
)
from .graph6 import parse_graph6, serialize_graph6
from .families import (
    balanced_bipartite_plus_edge,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from .rng import SplitMix64, derive_seed

__all__ = [
    "BRUTE_FORCE_EDGE_CAP",
    "CANONICAL_VERTEX_CAP",
    "CHEEGER_VERTEX_CAP",
    "ForestDistribution",
    "Graph",
    "PolynomialEngine",
    "ProcessResult",
    "SplitMix64",
    "balanced_bipartite_plus_edge",
    "brute_force_distribution",
    "canonical_key",
    "cheeger_constant",
    "complete_bipartite",
    "complete_graph",
    "complete_multipartite",
    "components",
    "convolve",
    "cycle_graph",
    "derive_seed",
    "edge_codegree",
    "expected_components",
    "forest_polynomial",
    "format_edge_list",
    "format_fraction",
    "from_edge_list",
    "gnm_random_graph",
    "is_connected",
    "is_edge_transitive",
    "parse_edge_list",
    "parse_fraction",
    "parse_graph6",
    "path_graph",
    "random_regular_graph",
    "run_process",
    "serialize_graph6",
    "single_component_probability",
    "star_graph",
]
