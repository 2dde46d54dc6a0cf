"""Metric dimension of graphs, specialised for tensor products of cliques.

The package computes exact metric dimension with certificates, evaluates
the closed form for two-clique tensor products, builds certified resolving
sets, and exposes structural bounds for longer products.
"""

from .constructions import (
    ConstructionFailed,
    FormulaCase,
    construct_balanced,
    construct_large_n,
    construct_m2,
    construct_resolving,
    dim_formula,
    formula_case,
    lower_bound_largest_factor,
    lower_bound_lines,
    lower_bound_subproduct,
    upper_bound_construction,
)
from .graphs import (
    INF,
    CliqueFactors,
    DistanceMatrix,
    EdgeListError,
    Graph,
    all_pairs_distances,
    build_bipartite_minus_matching,
    build_clique,
    check_k2_kn_isomorphism,
    clique_distance_columns,
    diameter,
    parse_edge_list,
    read_edge_list,
    tensor_clique_distances,
    tensor_of_cliques,
    tensor_product,
    write_edge_list,
)
from .metric import (
    DimResult,
    UnresolvedPair,
    check_vertex_set,
    is_resolving,
    projection,
    representation,
    swap_witness,
)
from .solver import (
    build_pair_table,
    exact_metric_dimension,
    exhaustive_metric_dimension,
    greedy_resolving_set,
    kernel_name,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "CliqueFactors",
    "ConstructionFailed",
    "DimResult",
    "DistanceMatrix",
    "EdgeListError",
    "FormulaCase",
    "Graph",
    "UnresolvedPair",
    "all_pairs_distances",
    "build_bipartite_minus_matching",
    "build_clique",
    "build_pair_table",
    "check_k2_kn_isomorphism",
    "check_vertex_set",
    "clique_distance_columns",
    "construct_balanced",
    "construct_large_n",
    "construct_m2",
    "construct_resolving",
    "diameter",
    "dim_formula",
    "exact_metric_dimension",
    "exhaustive_metric_dimension",
    "formula_case",
    "greedy_resolving_set",
    "is_resolving",
    "kernel_name",
    "lower_bound_largest_factor",
    "lower_bound_lines",
    "lower_bound_subproduct",
    "parse_edge_list",
    "projection",
    "read_edge_list",
    "representation",
    "swap_witness",
    "tensor_clique_distances",
    "tensor_of_cliques",
    "tensor_product",
    "upper_bound_construction",
    "write_edge_list",
    "__version__",
]
