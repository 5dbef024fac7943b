"""Exact optimal degree-ratio partitions of graphs.

Computes q(G) — the maximum over nontrivial bipartitions of the minimum
fraction of each vertex's closed neighborhood kept on its own side — as an
exact rational with a certifying witness partition, together with closed
forms for known graph classes, matching-cut decisions, constructive lower
bounds, and hardness-reduction gadget generators.
"""

from .errors import (BudgetExceededError, CertificateError, DegratioError,
                     GraphParseError, NoApplicableRule, ParameterError,
                     PreconditionError)
from .graph import (Graph, bipartition_classes, build_named, cartesian_product,
                    complement, complete, complete_bipartite, connectivity,
                    cycle, emit_graph, fiber, graph_from_edges, is_connected,
                    is_isomorphic, is_pattern_free, is_tree, k_triangle,
                    parse_graph, path, regularity)
from .ratios import (Bipartition, MatchingCutCertificate, QualityReport,
                     crossing_edges, format_ratio, is_matching, parse_ratio,
                     partition_quality, vertex_ratio)
from .solver import (DEFAULT_BUDGET, DecideResult, SolveResult, decide,
                     find_matching_cut, lift_partition, product_matching_cut,
                     solve_q)
from .formulas import (FormulaVerdict, LowerBound, characterize_third,
                       characterize_two_fifths, class_lower_bound,
                       clique_q, closed_form, cubic_q, edge_upper_bound,
                       four_regular_q, ktriangle_q, product_cubic_q,
                       product_kreg_tree_q, tree_q, two_fifths_family)
from .construct import (DegreeDemands, GoodPair, LowerBoundWitness,
                        connectivity_partition, degree_constrained_partition,
                        extend_good_pair, find_good_pair, hou_demands,
                        is_good_pair, lower_bound_witness, ma_demands,
                        stiebitz_demands)
from .reductions import (GadgetInstance, ReductionClaim,
                         bipartite_double_cover, cover_plus_matching,
                         is_matching_cut_set, product_with_fixed,
                         twin_expand_then_K2, verify_equivalence)
from .catalog import (base_catalog, cubic_catalog, product_pairs,
                      random_connected_graph)

__version__ = "1.0.0"
