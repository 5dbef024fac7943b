"""Exact optimal degree-ratio partitions of graphs.

Computes q(G) — the maximum over nontrivial bipartitions of the minimum
fraction of each vertex's closed neighborhood kept on its own side — as an
exact rational with a certifying witness partition, together with closed
forms for known graph classes, matching-cut decisions, constructive lower
bounds, and hardness-reduction gadget generators.

The graph, ratio and solver names load with the package, except the named
constructions, ``build_named`` and ``is_isomorphic``.  Those, and the names
of ``formulas``, ``construct``, ``reductions`` and ``catalog``, load on
first access, so a call that needs none of them does not pay for their
import.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (BudgetExceededError, CertificateError, DegratioError,
                     GraphParseError, NoApplicableRule, ParameterError,
                     PreconditionError)
from .graph import (Graph, bipartition_classes, cartesian_product, complement,
                    cut_vertices, emit_graph, fiber, graph_from_edges,
                    is_connected, is_tree, parse_graph, regularity)
from .ratios import (Bipartition, MatchingCutCertificate, QualityReport,
                     crossing_edges, format_ratio, is_matching, parse_ratio,
                     partition_quality, vertex_ratio)
from .solver import (DEFAULT_BUDGET, DecideResult, SolveResult, decide,
                     find_matching_cut, lift_partition, product_matching_cut,
                     solve_q)

__version__ = "1.0.0"

# submodule -> the public names it provides on first access
_LAZY = {
    "named": ("build_named", "complete", "complete_bipartite", "cycle",
              "is_isomorphic", "k_triangle", "path"),
    "formulas": ("FormulaVerdict", "LowerBound", "characterize_third",
                 "characterize_two_fifths", "class_lower_bound", "clique_q",
                 "closed_form", "cubic_q", "edge_upper_bound", "four_regular_q",
                 "ktriangle_q", "product_cubic_q", "product_kreg_tree_q", "tree_q",
                 "two_fifths_family"),
    "construct": ("DegreeDemands", "GoodPair", "LowerBoundWitness",
                  "degree_constrained_partition",
                  "extend_good_pair", "find_good_pair", "is_good_pair",
                  "lower_bound_witness", "ma_demands", "hou_demands",
                  "stiebitz_demands"),
    "reductions": ("GadgetInstance", "ReductionClaim", "bipartite_double_cover",
                   "cover_plus_matching", "is_matching_cut_set",
                   "product_with_fixed", "twin_expand_then_K2",
                   "verify_equivalence"),
    "catalog": ("base_catalog", "cubic_catalog", "product_pairs",
                "random_connected_graph"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# the relative imports above also bind the modules errors, graph, ratios, solver
__all__ = sorted({name for name, value in globals().items() if not name.startswith("_")
                  and not isinstance(value, _ModuleType)} | _HOME.keys())


def __getattr__(name):
    if name in _LAZY:  # importing a submodule binds it in this namespace
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})
