"""Correctness checks of the workloads' answers against :mod:`oracle`.

The reference facts of each graph (q, edge upper bound, matching-cut
existence) are computed here without degratio; every answer is then held
against them.  A check returns a list of error strings, empty when the
answer is right.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
from workloads import BenchGraph, Op

REFERENCE_FILE = Path(__file__).with_name("reference_q.json")
REGENERATE = "python3 bench/reference.py"


@dataclass(frozen=True)
class Facts:
    q: Fraction
    upper_bound: Fraction
    matching_cut: bool
    source: str  # how q was established


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> dict[str, tuple[str, Fraction]]:
    """Committed reference q values of one workload and seed, by graph name."""
    if not REFERENCE_FILE.exists():
        return {}
    table = json.loads(REFERENCE_FILE.read_text())
    rows = table.get(workload, {}).get(str(seed), {})
    return {name: (row.split()[0], Fraction(row.split()[1])) for name, row in rows.items()}


def graph_facts(g: BenchGraph,
                reference: dict[str, tuple[str, Fraction]]) -> tuple[Facts, list[str]]:
    """Reference facts of one graph, with any disagreement between the
    independent routes to q (brute force, exact search, reference table,
    closed form)."""
    errors = []
    if g.n <= oracle.BRUTE_FORCE_MAX_N:
        q, source = oracle.brute_force_q(g.n, g.edges), "brute force"
    elif g.name in reference and not g.factors and not g.clique:
        digest, q = reference[g.name]
        source = "reference table"
        if digest != text_digest(g.text):
            errors.append(f"{g.name}: reference table is stale for this input; "
                          f"regenerate it with {REGENERATE}")
    else:
        q, source = oracle.exact_q(g.n, g.edges), "exact search"
    if g.known_q is not None and q != g.known_q:
        errors.append(f"{g.name}: {source} gives q = {q}, closed form gives {g.known_q}")
    facts = Facts(q, oracle.edge_upper_bound(g.n, g.edges),
                  oracle.has_matching_cut(g.n, g.edges), source)
    if facts.q > facts.upper_bound:
        errors.append(f"{g.name}: q = {q} exceeds the edge upper bound {facts.upper_bound}")
    if g.regular is not None:
        k = g.regular
        if oracle.reaches(g.n, g.edges, Fraction(k, k + 1)) != facts.matching_cut:
            errors.append(f"{g.name}: q >= {k}/{k + 1} disagrees with matching-cut existence")
    return facts, errors


def _witness(g: BenchGraph, partition, report, want, label: str) -> list[str]:
    """The witness must be a nontrivial bipartition whose quality, counted
    from neighbours, satisfies ``want`` and equals what partition_quality said."""
    sides = tuple(partition.sides)
    try:
        quality = oracle.witness_quality(g.n, g.edges, sides)
    except ValueError as exc:
        return [f"{label}: {exc}"]
    errors = []
    if not want(quality):
        errors.append(f"{label}: witness quality {quality} is wrong")
    if report is None or report.quality != quality:
        errors.append(f"{label}: partition_quality reports "
                      f"{getattr(report, 'quality', None)}, neighbour counts give {quality}")
    return errors


def check_op(op: Op, result, facts: Facts) -> list[str]:
    g, label = op.graph, op.label
    answer, report = result
    if op.kind == "solve":
        errors = [] if answer.q == facts.q else [f"{label}: q = {answer.q}, reference {facts.q}"]
        return errors + _witness(g, answer.optimal_partition, report,
                                 lambda x: x == answer.q, label)
    if op.kind == "decide":
        expected = facts.q >= op.threshold
        if answer.satisfied != expected:
            return [f"{label}: answered {answer.satisfied}, reference q = {facts.q}"]
        if not answer.satisfied:
            return [] if answer.witness is None else [f"{label}: a 'no' carries a witness"]
        return _witness(g, answer.witness, report, lambda x: x >= op.threshold, label)
    if op.kind == "matching_cut":
        if answer.has_cut != facts.matching_cut:
            return [f"{label}: has_cut = {answer.has_cut}, reference {facts.matching_cut}"]
        if not answer.has_cut:
            return []
        crossing = oracle.crossing_edges(g.edges, answer.partition.sides)
        errors = _witness(g, answer.partition, report, lambda x: True, label)
        if not crossing or not oracle.is_matching(crossing):
            errors.append(f"{label}: crossing edges {crossing} are not a matching")
        if sorted(tuple(sorted(e)) for e in answer.crossing) != crossing:
            errors.append(f"{label}: certificate lists {answer.crossing}, "
                          f"partition crosses {crossing}")
        return errors
    if op.kind == "closed_form":
        errors = [] if answer.value == facts.q else [
            f"{label}: closed form {answer.value} ({answer.rule}), reference {facts.q}"]
        return errors + _witness(g, answer.witness, report, lambda x: x == answer.value, label)
    if op.kind == "upper_bound":
        return [] if answer == facts.upper_bound else [
            f"{label}: {answer}, reference {facts.upper_bound}"]
    if op.kind == "class_bound":
        ok = answer.value < facts.q if answer.strict else answer.value <= facts.q
        return [] if ok else [f"{label}: bound {answer.value} (strict={answer.strict}) "
                              f"is not below q = {facts.q}"]
    if op.kind == "lb_witness":
        errors = _witness(g, answer.partition, report,
                          lambda x: x == answer.quality and x <= facts.q, label)
        meets = answer.quality > answer.value if answer.strict else answer.quality >= answer.value
        if not meets:
            errors.append(f"{label}: witness quality {answer.quality} misses its bound "
                          f"{answer.value}")
        return errors
    if op.kind == "gadget":
        return _check_gadget(op, answer, report)
    return [f"{label}: unknown operation kind"]


def _check_gadget(op: Op, inst, verified) -> list[str]:
    """verify_equivalence must say True, and the claim must hold when both
    of its sides are evaluated here on the gadget degratio built."""
    label = op.label
    if verified is not True:
        return [f"{label}: verify_equivalence returned {verified!r}"]
    src = op.graph
    gadget_edges = inst.graph.edges()
    source_cut = oracle.has_matching_cut(src.n, src.edges)
    if inst.claim.kind == "cut_iff_cut":
        gadget_side = oracle.has_matching_cut(inst.graph.n, gadget_edges)
    elif inst.claim.kind == "cut_iff_q":
        gadget_side = oracle.reaches(inst.graph.n, gadget_edges, inst.claim.threshold)
    else:  # mapped_cut: the claim maps cut edge sets; degratio's own check stands
        return []
    if source_cut != gadget_side:
        return [f"{label}: claim {inst.claim.kind} fails: "
                f"source {source_cut}, gadget {gadget_side}"]
    return []
