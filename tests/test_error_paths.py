"""Refusals: each public call below meets an argument outside its contract
and raises the library's error for it, never a bare Python exception."""

import pytest

from degratio import named
from degratio.errors import ParameterError, PreconditionError
from degratio.formulas import (closed_form, cubic_q, edge_upper_bound,
                               four_regular_q, product_cubic_q,
                               product_kreg_tree_q)
from degratio.graph import cartesian_product, fiber, graph_from_edges
from degratio.named import (complete, complete_bipartite, cycle, k_triangle,
                            path)
from degratio.ratios import (Bipartition, MatchingCutCertificate,
                             partition_quality)
from degratio.solver import lift_partition

TWO_EDGES = graph_from_edges(4, [(0, 1), (2, 3)])  # disconnected
K2_BOX_P3 = cartesian_product(complete(2), path(3))
HALVES = Bipartition((1, 2))

CASES = [
    # class formulas and bounds outside their graph classes
    ("edge_upper_bound-disconnected", lambda: edge_upper_bound(TWO_EDGES),
     PreconditionError),
    ("cubic_q-not-cubic", lambda: cubic_q(cycle(5)), PreconditionError),
    ("four_regular_q-not-4-regular", lambda: four_regular_q(cycle(5)),
     PreconditionError),
    ("product_kreg_tree_q-left-not-regular",
     lambda: product_kreg_tree_q(path(3), path(2)), PreconditionError),
    ("product_kreg_tree_q-right-not-a-tree",
     lambda: product_kreg_tree_q(cycle(4), cycle(3)), PreconditionError),
    ("product_cubic_q-not-cubic",
     lambda: product_cubic_q(cycle(4), complete(4)), PreconditionError),
    ("closed_form-disconnected", lambda: closed_form(TWO_EDGES),
     PreconditionError),
    # products: provenance, factor side and anchor
    ("lift_partition-no-provenance",
     lambda: lift_partition(cycle(4), HALVES, "left"), PreconditionError),
    ("lift_partition-bad-which",
     lambda: lift_partition(K2_BOX_P3, HALVES, "middle"), ParameterError),
    ("fiber-no-provenance", lambda: fiber(cycle(4), "left", 0),
     PreconditionError),
    ("fiber-left-anchor", lambda: fiber(K2_BOX_P3, "left", 2), ParameterError),
    ("fiber-right-anchor", lambda: fiber(K2_BOX_P3, "right", 3),
     ParameterError),
    ("fiber-bad-which", lambda: fiber(K2_BOX_P3, "middle", 0),
     ParameterError),
    # partitions and certificates
    ("partition-wrong-length",
     lambda: partition_quality(cycle(4), Bipartition((1, 2, 2))),
     ParameterError),
    ("from_string-bad-label", lambda: Bipartition.from_string("1x2"),
     ParameterError),
    ("cut-certificate-without-partition",
     lambda: MatchingCutCertificate(True, None, ()), ParameterError),
    ("no-cut-certificate-with-partition",
     lambda: MatchingCutCertificate(False, HALVES, ()), ParameterError),
    # named constructions below their minimum size
    ("complete-1", lambda: complete(1), ParameterError),
    ("cycle-2", lambda: cycle(2), ParameterError),
    ("path-1", lambda: path(1), ParameterError),
    ("complete_bipartite-0-2", lambda: complete_bipartite(0, 2),
     ParameterError),
    ("k_triangle-0", lambda: k_triangle(0), ParameterError),
    ("wheel-2", lambda: named.wheel(2), ParameterError),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_refusal(call, error):
    with pytest.raises(error):
        call()
