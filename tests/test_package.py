"""The package's public surface."""

import forestbuilder
from forestbuilder import errors


def test_public_surface_is_pinned():
    # additions and removals are API changes: each one updates this list
    assert sorted(forestbuilder.__all__) == [
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


def test_error_taxonomy_is_pinned():
    # one class per failure kind; a new kind is an API change that updates this list
    defined = [
        value.__name__
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.ForestBuilderError)
    ]
    assert sorted(defined) == [
        "ForestBuilderError",
        "GenerationTimeout",
        "InvalidGraph",
        "MemoryBudgetExceeded",
        "ParameterOutOfRange",
        "SizeCapExceeded",
    ]
