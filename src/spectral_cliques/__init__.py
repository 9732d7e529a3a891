"""Spectral and clique statistics of small graphs, plus mechanical
verification of the inequalities tying them together."""

from .bounds import (BoundReport, Tolerances, conjecture_check, edge_corollary_check,
                     oldin_check, polyn_bound, theorem1_bound, theorem2_lower,
                     theorem3_conditional, turan_edge_bound, walk_power_bound,
                     wilf_bound)
from .cliques import (CliqueProfile, MoMoReport, VertexCliqueProfile,
                      clique_counts, is_complete_multipartite_plus_isolated,
                      is_kfree, moon_moser_check, proper_coloring,
                      vertex_clique_counts)
from .graphs import (Graph, Graph6Error, build_graph, complement,
                     complete_graph, complete_multipartite, cycle_graph,
                     emit_graph6, empty_graph, graph_from_edge_mask,
                     is_bipartite, is_connected, parse_graph6, path_graph,
                     petersen_graph, random_graph, star_graph, turan_graph,
                     vertex_cap)
from .scan import (CorpusSpec, ScanConfig, ScanResult, run_check, scan,
                   tightness_rank)
from .spectral import (EigensolverError, Spectrum, WalkOverflowError, WalkProfile,
                       WalkRatioReport, spectral_radius, spectrum, walk_counts,
                       walk_ratio_limit_check)
from .stability import (StabilityReport, StabilityWitness,
                        find_stability_witness, stability_premise,
                        stability_report, verify_witness, witness_thresholds)

__version__ = "0.1.0"
