"""Refusals: each public call below meets an argument outside its contract
and raises the library's error for it, never a bare Python exception."""

import random

import pytest

from degratio import named, verify
from degratio.catalog import random_connected_graph
from degratio.cli import EXIT_FALSIFIED, main
from degratio.construct import DegreeDemands
from degratio.errors import ParameterError, PreconditionError
from degratio.formulas import (closed_form, cubic_q, edge_upper_bound,
                               four_regular_q, product_cubic_q,
                               product_kreg_tree_q)
from degratio.graph import cartesian_product, emit_graph, fiber, graph_from_edges
from degratio.named import (complete, complete_bipartite, cycle, k_triangle,
                            path)
from degratio.ratios import (Bipartition, MatchingCutCertificate,
                             partition_quality)
from degratio.reductions import product_with_fixed
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
    # graph ids
    ("build_named-unknown-id", lambda: named.build_named("nonsense"),
     ParameterError),
    ("build_named-prod-one-factor", lambda: named.build_named("prod:K4"),
     ParameterError),
    ("build_named-prod-three-factors",
     lambda: named.build_named("prod:K4,C4,P3"), ParameterError),
    # gadgets and random samples
    ("product_with_fixed-irregular-fixed-factor",
     lambda: product_with_fixed(cycle(4), path(3)), PreconditionError),
    ("random_connected_graph-n-1",
     lambda: random_connected_graph(random.Random(1), 1), ParameterError),
    ("random_connected_graph-p-0",
     lambda: random_connected_graph(random.Random(1), 5, p=0), ParameterError),
    ("random_connected_graph-p-above-1",
     lambda: random_connected_graph(random.Random(1), 5, p=1.5),
     ParameterError),
    # degree demands
    ("demands-wrong-length",
     lambda: DegreeDemands((1, 1), "stiebitz").validate(cycle(5)),
     ParameterError),
    ("demands-negative",
     lambda: DegreeDemands((-1, 0, 0, 0, 0), "stiebitz").validate(cycle(5)),
     ParameterError),
    ("demands-unknown-regime",
     lambda: DegreeDemands((0,) * 5, "nope").validate(cycle(5)),
     ParameterError),
]


@pytest.mark.parametrize("call, error", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_refusal(call, error):
    with pytest.raises(error):
        call()


def test_verify_prints_a_failed_property_with_its_counterexample(capsys,
                                                                  monkeypatch):
    # the two double covers' claims reported broken, the other six kept
    monkeypatch.setattr(verify, "verify_equivalence",
                        lambda inst, budget: inst.construction != "double_cover")
    assert main(["verify", "reductions"]) == EXIT_FALSIFIED
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("[FAIL] reductions/double_cover on K5: claim=cut_implies_cut")
    counterexample = emit_graph(complete(5)).splitlines()
    assert lines[at + 1:at + 1 + len(counterexample)] == counterexample
    assert lines[-1] == "6/8 properties passed"
