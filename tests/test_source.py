"""Guards on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import degratio


def _library_nodes():
    for path in sorted(Path(degratio.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every check the library makes
    # must raise explicitly
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_library_raises_no_assertion_error():
    # a failed certificate is a CertificateError, which the CLI reports
    found = []
    for name, node in _library_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_import_defers_the_optional_modules():
    # the import loads exactly the modules a solve runs: named, formulas,
    # construct, reductions and catalog load on first access, and construct
    # imports logging only where it logs; every name in __all__, loaded at
    # import or deferred, resolves
    code = (
        "import sys, degratio\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'degratio'))\n"
        "print('logging' in sys.modules)\n"
        "print([n for n in degratio.__all__ if not hasattr(degratio, n)])\n"
    )
    root = Path(degratio.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(root))).stdout
    eager = ["degratio", "degratio.errors", "degratio.graph", "degratio.ratios",
             "degratio.solver"]
    assert out.splitlines() == [str(eager), "False", "[]"]
    named = ["build_named", "complete", "complete_bipartite", "cycle", "is_isomorphic",
             "k_triangle", "path"]
    for module, name in [("formulas", "closed_form"), ("construct", "lower_bound_witness"),
                         ("reductions", "verify_equivalence"),
                         ("catalog", "random_connected_graph")] + [
                             ("named", name) for name in named]:
        assert name in degratio.__all__
        assert getattr(degratio, name) is getattr(getattr(degratio, module), name)


def test_public_names_are_unchanged():
    # moving a name between modules, or making it lazy, keeps the package's
    # public names as they were; submodules are not among them
    assert degratio.__all__ == """
        Bipartition BudgetExceededError CertificateError DEFAULT_BUDGET
        DecideResult DegratioError DegreeDemands FormulaVerdict GadgetInstance
        GoodPair Graph GraphParseError LowerBound LowerBoundWitness
        MatchingCutCertificate NoApplicableRule ParameterError PreconditionError
        QualityReport ReductionClaim SolveResult base_catalog
        bipartite_double_cover bipartition_classes build_named cartesian_product
        characterize_third characterize_two_fifths class_lower_bound clique_q
        closed_form complement complete complete_bipartite cover_plus_matching
        crossing_edges cubic_catalog cubic_q cut_vertices cycle decide
        degree_constrained_partition edge_upper_bound emit_graph
        extend_good_pair fiber find_good_pair find_matching_cut format_ratio
        four_regular_q graph_from_edges hou_demands is_connected
        is_good_pair is_isomorphic is_matching is_matching_cut_set is_tree
        k_triangle ktriangle_q lift_partition lower_bound_witness ma_demands
        parse_graph parse_ratio partition_quality path product_cubic_q
        product_kreg_tree_q product_matching_cut product_pairs product_with_fixed
        random_connected_graph regularity solve_q stiebitz_demands
        tree_q twin_expand_then_K2 two_fifths_family verify_equivalence
        vertex_ratio""".split()


def test_library_imports_only_names_it_uses():
    # a deletion can leave an import behind; __init__ imports to re-export.
    # The test modules are held to the same rule.
    found = []
    library = Path(degratio.__file__).parent.glob("*.py")
    tests = Path(__file__).parent.glob("*.py")
    for path in sorted(library) + sorted(tests):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{path.parent.name}/{path.name}:{node.lineno} {bound}")
    assert not found, found


def test_hot_loops_hold_no_comprehension():
    # CPython 3.11 builds a frame for each comprehension or generator
    # expression it runs; one per saturation marker in _search cost 8% of
    # the solve-dense benchmark pass, and one per vertex made the quality
    # kernels and the product construction 1.5-2.5x slower than plain loops.
    # A comprehension inside another one runs once per outer item, too.
    hot = {"_search", "min_ratio", "partition_quality", "cartesian_product",
           "is_connected", "_twin_before", "two_coloring"}
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found, seen = set(), set()
    for name, node in _library_nodes():
        if isinstance(node, ast.FunctionDef) and node.name in hot:
            seen.add(node.name)
            for loop in ast.walk(node):
                if isinstance(loop, (ast.For, ast.While) + comprehensions):
                    found |= {f"{name}:{c.lineno} in {node.name}"
                              for c in ast.walk(loop)
                              if c is not loop and isinstance(c, comprehensions)}
    assert seen == hot
    assert not found, sorted(found)


def test_tuples_are_built_from_sized_sources():
    # tuple() of an iterator with no length hint (a generator expression,
    # map, filter, zip) starts at 10 slots and is resized to its final size;
    # when it dies, CPython 3.11 puts it on the free list of that size,
    # which it was never taken from.  So each call adds one dead tuple to a
    # list, and a loop of solves filled most lists for sizes 4-20 to their
    # cap of 2,000 (about 2.5 MB that only a full collection frees).  A
    # list, a comprehension, a set or sorted() sizes the tuple at once
    unsized = {"map", "filter", "zip"}
    found = []
    for name, node in _library_nodes():
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "tuple" and node.args):
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                    isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                    and arg.func.id in unsized):
                found.append(f"{name}:{node.lineno}")
    assert not found, found
