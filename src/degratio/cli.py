"""Command-line front end.

Subcommands: solve, decide, closed-form, matching-cut, bound, generate,
verify.  Graphs come from a file in the ``p/e`` text format (``-`` for
stdin) or from ``--named <id>``.  Exit codes: 0 ok, 1 usage or parse
failure, 2 precondition violation or no applicable rule, 3 budget
exhausted (inconclusive), 4 property falsified: a failed ``verify``
property, or a :class:`CertificateError` from any command (a witness that
misses its claimed value on recomputation).  An error exit prints one line
on stderr and, with ``--json``, one JSON object on stdout with the
``command``, the ``error`` kind and the ``message``.

A command imports the modules that only it uses when it runs, so ``solve``
loads no formulas, constructions, reductions or property suites.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

from .errors import (BudgetExceededError, CertificateError, DegratioError,
                     GraphParseError, NoApplicableRule, ParameterError,
                     PreconditionError)
from .graph import Graph, emit_graph, parse_graph, regularity, two_coloring
from .ratios import format_ratio, parse_ratio
from .solver import DEFAULT_BUDGET, decide, find_matching_cut, solve_q

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4

# the suites verify.run_suite runs, named here so that building the parser
# does not import them
SUITES = ("bounds", "closed-forms", "matching-cut", "products", "good-pair",
          "reductions")


def _load_graph(args) -> Graph:
    if getattr(args, "named", None):
        if getattr(args, "input", None):
            raise ParameterError("give either an input file or --named, not both")
        from .named import build_named
        return build_named(args.named)
    if not getattr(args, "input", None):
        raise ParameterError("an input file (or -) or --named is required")
    if args.input == "-":
        return parse_graph(sys.stdin.read())
    with open(args.input) as fh:
        return parse_graph(fh.read())


def _budget(args) -> int:
    budget = getattr(args, "budget", None)
    if budget is None:
        env = os.environ.get("DEGRATIO_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise ParameterError(f"bad DEGRATIO_BUDGET value {env!r}")
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")
    return budget


def _graph_summary(G: Graph) -> dict:
    return {
        "n": G.n,
        "m": G.num_edges,
        "min_degree": G.min_degree,
        "max_degree": G.max_degree,
        "regularity": regularity(G),
        "bipartite": two_coloring(G) is not None,
        "name": G.name,
    }


def _report(args, command: str, G: Graph | None, payload: dict,
            started: float, lines: list[str]) -> int:
    if args.json:
        doc = {
            "command": command,
            "graph": _graph_summary(G) if G is not None else None,
            "result": payload,
            "exact": True,
            "wall_time": round(time.monotonic() - started, 6),
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    res = solve_q(G, budget=_budget(args))
    part = res.optimal_partition.to_string()
    payload = {"q": format_ratio(res.q), "partition": part,
               "explored": res.explored, "method": res.method}
    return _report(args, "solve", G, payload, started,
                   [f"q = {format_ratio(res.q)}", f"partition = {part}"])


def cmd_decide(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    q = parse_ratio(args.q)
    res = decide(G, q, budget=_budget(args))
    payload = {"q": format_ratio(q), "satisfied": bool(res)}
    lines = [f"q(G) >= {format_ratio(q)}: {'yes' if res else 'no'}"]
    if res:
        payload["witness"] = res.witness.to_string()
        lines.append(f"witness = {res.witness.to_string()}")
    return _report(args, "decide", G, payload, started, lines)


def cmd_closed_form(args) -> int:
    from .formulas import closed_form
    started = time.monotonic()
    G = _load_graph(args)
    verdict = closed_form(G, budget=_budget(args))
    witness = verdict.witness.to_string()
    payload = {"value": format_ratio(verdict.value), "rule": verdict.rule,
               "witness": witness}
    lines = [f"q = {format_ratio(verdict.value)} (rule: {verdict.rule})",
             f"witness = {witness}"]
    return _report(args, "closed-form", G, payload, started, lines)


def cmd_matching_cut(args) -> int:
    started = time.monotonic()
    G = _load_graph(args)
    cert = find_matching_cut(G, budget=_budget(args))
    payload = {"has_cut": cert.has_cut}
    lines = [f"matching-cut: {'yes' if cert.has_cut else 'no'}"]
    if cert.has_cut:
        payload["partition"] = cert.partition.to_string()
        payload["crossing"] = [list(e) for e in cert.crossing]
        lines.append(f"partition = {cert.partition.to_string()}")
        lines.append("crossing = " + " ".join(f"{u}-{v}" for u, v in cert.crossing))
    return _report(args, "matching-cut", G, payload, started, lines)


def cmd_bound(args) -> int:
    from .construct import lower_bound_witness
    from .formulas import class_lower_bound, edge_upper_bound
    started = time.monotonic()
    G = _load_graph(args)
    budget = _budget(args)
    lb = class_lower_bound(G, budget=budget)
    ub = edge_upper_bound(G)
    lower, strict = lb.value, lb.strict
    payload = {"class_lower": format_ratio(lb.value), "class_strict": lb.strict,
               "rules": list(lb.rules), "upper": format_ratio(ub)}
    lines = [f"class bound: {format_ratio(lb.value)} {'<' if lb.strict else '<='} "
             f"q(G), rules: {', '.join(lb.rules)}"]
    try:
        w = lower_bound_witness(G, budget=budget)
        payload["witness"] = {"partition": w.partition.to_string(),
                              "quality": format_ratio(w.quality),
                              "rule": w.rule}
        lines.append(f"witness = {w.partition.to_string()} "
                     f"(quality {format_ratio(w.quality)}, rule {w.rule})")
        if w.quality > lower:  # any partition's quality is a lower bound
            lower, strict = w.quality, False
    except BudgetExceededError as exc:
        # both printed bounds stay exact; only the witness is missing
        payload["witness"] = None
        lines.append(f"witness = none ({exc})")
    payload.update(lower=format_ratio(lower), strict=strict)
    lines.insert(0, f"{format_ratio(lower)} {'<' if strict else '<='} q(G) "
                    f"<= {format_ratio(ub)}")
    return _report(args, "bound", G, payload, started, lines)


# construction name -> the function of ``reductions`` that builds it
_CONSTRUCTIONS = {
    "double_cover": "bipartite_double_cover",
    "cover_plus_matching": "cover_plus_matching",
    "twin_expand_K2": "twin_expand_then_K2",
    "product_fixed_H": "product_with_fixed",
}


def cmd_generate(args) -> int:
    import hashlib
    from . import reductions
    started = time.monotonic()
    G = _load_graph(args)
    if args.construction == "product_fixed_H" and not args.fixed:
        raise ParameterError("product_fixed_H needs --fixed <named graph>")
    budget = _budget(args)
    build = getattr(reductions, _CONSTRUCTIONS[args.construction])
    if args.construction == "product_fixed_H":
        from .named import build_named
        inst = build(G, build_named(args.fixed), budget=budget)
    else:
        inst = build(G)
    text = emit_graph(inst.graph)
    sidecar = {
        "construction": inst.construction,
        "source_hash": hashlib.sha256(emit_graph(inst.source).encode()).hexdigest(),
        "claim": {
            "kind": inst.claim.kind,
            "threshold": (format_ratio(inst.claim.threshold)
                          if inst.claim.threshold is not None else None),
        },
        "provenance": {str(v): list(vs) for v, vs in inst.provenance},
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
        lines = [f"wrote {args.out} and {args.out}.json"]
    else:
        lines = [text.rstrip("\n"), json.dumps(sidecar)]
    payload = {"graph": text, "sidecar": sidecar}
    return _report(args, "generate", inst.graph, payload, started, lines)


def cmd_verify(args) -> int:
    from .verify import run_suite
    started = time.monotonic()
    results = run_suite(args.suite, max_n=args.max_n, seed=args.seed,
                        budget=_budget(args))
    failed = [r for r in results if not r.passed]
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.suite}/{r.prop} on {r.subject}: {r.detail}")
        if not r.passed and r.counterexample:
            lines.append(r.counterexample.rstrip("\n"))
    lines.append(f"{len(results) - len(failed)}/{len(results)} properties passed")
    payload = {"suite": args.suite,
               "results": [asdict(r) for r in results],
               "failed": len(failed)}
    _report(args, "verify", None, payload, started, lines)
    return EXIT_FALSIFIED if failed else EXIT_OK


def _add_common(p, with_input=True):
    if with_input:
        p.add_argument("input", nargs="?", help="graph file in p/e format, or -")
        p.add_argument("--named", help="built-in graph id (e.g. K5, C6, prod:K4,K4)")
    p.add_argument("--budget", type=int, help="search budget (assignments)")
    p.add_argument("--json", action="store_true", help="emit a JSON run report")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="degratio",
        description="Exact degree-ratio partitions, matching-cuts, and "
                    "hardness gadgets.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute q(G) exactly with a witness")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decide", help="decide q(G) >= q")
    _add_common(p)
    p.add_argument("--q", required=True, help="threshold ratio, e.g. 3/4")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("closed-form", help="exact value by class formula")
    _add_common(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("matching-cut", help="decide matching-cut existence")
    _add_common(p)
    p.set_defaults(func=cmd_matching_cut)

    p = sub.add_parser("bound", help="class lower bound and edge upper bound")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("generate", help="emit a hardness-reduction gadget")
    p.add_argument("construction", choices=sorted(_CONSTRUCTIONS))
    _add_common(p)
    p.add_argument("--fixed", help="named fixed factor for product_fixed_H")
    p.add_argument("--out", help="write gadget here and sidecar to <out>.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--max-n", type=int, default=None, help="size cap, at least 2")
    p.add_argument("--seed", type=int, default=1, help="sampling seed")
    _add_common(p, with_input=False)
    p.set_defaults(func=cmd_verify)
    return top


# exception class -> exit code, stderr prefix and JSON error kind, first match
_FAILURES = (
    (GraphParseError, EXIT_USAGE, "parse error", "parse"),
    (ParameterError, EXIT_USAGE, "error", "parameter"),
    ((PreconditionError, NoApplicableRule), EXIT_PRECONDITION, "not applicable",
     "precondition"),
    (BudgetExceededError, EXIT_BUDGET, "inconclusive", "budget"),
    (CertificateError, EXIT_FALSIFIED, "certificate failed", "certificate"),
    (DegratioError, EXIT_USAGE, "error", "error"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegratioError as exc:
        code, prefix, kind = next((code, prefix, kind)
                                  for cls, code, prefix, kind in _FAILURES
                                  if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        if args.json:
            print(json.dumps({"command": args.command, "error": kind,
                              "message": str(exc)}))
        return code


if __name__ == "__main__":
    sys.exit(main())
