"""Command-line front end.

Subcommands: solve, decide, closed-form, matching-cut, bound, generate,
verify.  Graphs come from a file in the ``p/e`` text format (``-`` for
stdin) or from ``--named <id>``.  ``--budget`` is the one budget input.
Exit codes: 0 ok, 1 usage, parse or I/O failure (a bad or missing flag, an
unreadable input file, an unwritable ``--out``), 2 precondition violation
or no applicable rule, 3 budget exhausted (inconclusive), 4 property
falsified: a failed ``verify`` property, or a :class:`CertificateError`
from any command (a witness that misses its claimed value on
recomputation).  Every error exit, the parser's included, prints one line
on stderr and, when ``--json`` is given, one JSON object on stdout with
the ``command`` (null when none is named), the ``error`` kind and the
``message``.

A command imports the modules that only it uses when it runs, so ``solve``
loads no formulas, constructions, reductions or property suites.
"""

from __future__ import annotations

import argparse
import json
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
    if args.named:
        if args.input:
            raise ParameterError("give either an input file or --named, not both")
        from .named import build_named
        return build_named(args.named)
    if not args.input:
        raise ParameterError("an input file (or -) or --named is required")
    if args.input == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {args.input}: {exc.strerror}") from exc
    return parse_graph(text)


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


def _report(args, G: Graph | None, payload: dict, lines: list[str]) -> int:
    if args.json:
        doc = {
            "command": args.command,
            "graph": _graph_summary(G) if G is not None else None,
            "result": payload,
            "exact": True,
            "wall_time": round(time.monotonic() - args.started, 6),
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_solve(args) -> int:
    G = _load_graph(args)
    res = solve_q(G, budget=args.budget)
    part = res.optimal_partition.to_string()
    payload = {"q": format_ratio(res.q), "partition": part,
               "explored": res.explored, "method": res.method}
    return _report(args, G, payload,
                   [f"q = {format_ratio(res.q)}", f"partition = {part}"])


def cmd_decide(args) -> int:
    G = _load_graph(args)
    q = parse_ratio(args.q)
    res = decide(G, q, budget=args.budget)
    payload = {"q": format_ratio(q), "satisfied": bool(res)}
    lines = [f"q(G) >= {format_ratio(q)}: {'yes' if res else 'no'}"]
    if res:
        payload["witness"] = res.witness.to_string()
        lines.append(f"witness = {res.witness.to_string()}")
    return _report(args, G, payload, lines)


def cmd_closed_form(args) -> int:
    from .formulas import closed_form
    G = _load_graph(args)
    verdict = closed_form(G, budget=args.budget)
    witness = verdict.witness.to_string()
    payload = {"value": format_ratio(verdict.value), "rule": verdict.rule,
               "witness": witness}
    lines = [f"q = {format_ratio(verdict.value)} (rule: {verdict.rule})",
             f"witness = {witness}"]
    return _report(args, G, payload, lines)


def cmd_matching_cut(args) -> int:
    G = _load_graph(args)
    cert = find_matching_cut(G, budget=args.budget)
    payload = {"has_cut": cert.has_cut}
    lines = [f"matching-cut: {'yes' if cert.has_cut else 'no'}"]
    if cert.has_cut:
        payload["partition"] = cert.partition.to_string()
        payload["crossing"] = [list(e) for e in cert.crossing]
        lines.append(f"partition = {cert.partition.to_string()}")
        lines.append("crossing = " + " ".join(f"{u}-{v}" for u, v in cert.crossing))
    return _report(args, G, payload, lines)


def cmd_bound(args) -> int:
    from .construct import lower_bound_witness
    from .formulas import class_lower_bound, edge_upper_bound
    G = _load_graph(args)
    lb = class_lower_bound(G, budget=args.budget)
    ub = edge_upper_bound(G)
    lower, strict = lb.value, lb.strict
    payload = {"class_lower": format_ratio(lb.value), "class_strict": lb.strict,
               "rules": list(lb.rules), "upper": format_ratio(ub)}
    lines = [f"class bound: {format_ratio(lb.value)} {'<' if lb.strict else '<='} "
             f"q(G), rules: {', '.join(lb.rules)}"]
    try:
        w = lower_bound_witness(G, budget=args.budget)
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
    return _report(args, G, payload, lines)


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
    G = _load_graph(args)
    if args.construction == "product_fixed_H" and not args.fixed:
        raise ParameterError("product_fixed_H needs --fixed <named graph>")
    build = getattr(reductions, _CONSTRUCTIONS[args.construction])
    if args.construction == "product_fixed_H":
        from .named import build_named
        inst = build(G, build_named(args.fixed), budget=args.budget)
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
            with open(args.out + ".json", "w") as fh:
                json.dump(sidecar, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ParameterError(f"cannot write {exc.filename}: {exc.strerror}") from exc
        lines = [f"wrote {args.out} and {args.out}.json"]
    else:
        lines = [text.rstrip("\n"), json.dumps(sidecar)]
    payload = {"graph": text, "sidecar": sidecar}
    return _report(args, inst.graph, payload, lines)


def cmd_verify(args) -> int:
    from .verify import run_suite
    results = run_suite(args.suite, max_n=args.max_n, seed=args.seed,
                        budget=args.budget)
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
    _report(args, None, payload, lines)
    return EXIT_FALSIFIED if failed else EXIT_OK


# subcommand -> (handler, help line)
COMMANDS = {
    "solve": (cmd_solve, "compute q(G) exactly with a witness"),
    "decide": (cmd_decide, "decide q(G) >= q"),
    "closed-form": (cmd_closed_form, "exact value by class formula"),
    "matching-cut": (cmd_matching_cut, "decide matching-cut existence"),
    "bound": (cmd_bound, "class lower bound and edge upper bound"),
    "generate": (cmd_generate, "emit a hardness-reduction gadget"),
    "verify": (cmd_verify, "run a property suite"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`ParameterError`, so that it
    leaves through ``main``'s one failure path instead of exiting 2."""

    def error(self, message):
        raise ParameterError(message)


def _nonnegative_budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget must be a nonnegative integer, got {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"budget must be nonnegative, got {budget}")
    return budget


def _add_common(p, with_input=True):
    if with_input:
        p.add_argument("input", nargs="?", help="graph file in p/e format, or -")
        p.add_argument("--named", help="built-in graph id (e.g. K5, C6, prod:K4,K4)")
    p.add_argument("--budget", type=_nonnegative_budget, default=DEFAULT_BUDGET,
                   help="search budget (assignments)")
    p.add_argument("--json", action="store_true", help="emit a JSON run report")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="degratio",
                  description="Exact degree-ratio partitions, matching-cuts, "
                              "and hardness gadgets.")
    sub = top.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text)
         for name, (_, text) in COMMANDS.items()}
    p["generate"].add_argument("construction", choices=sorted(_CONSTRUCTIONS))
    p["verify"].add_argument("suite", choices=SUITES)
    for name, parser in p.items():
        _add_common(parser, with_input=name != "verify")
    p["decide"].add_argument("--q", required=True, help="threshold ratio, e.g. 3/4")
    p["generate"].add_argument("--fixed", help="named fixed factor for product_fixed_H")
    p["generate"].add_argument("--out", help="write gadget here and sidecar to <out>.json")
    p["verify"].add_argument("--max-n", type=int, default=None, help="size cap, at least 2")
    p["verify"].add_argument("--seed", type=int, default=1, help="sampling seed")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser().parse_args(
            argv, argparse.Namespace(started=time.monotonic()))
        return COMMANDS[command][0](args)
    except DegratioError as exc:
        code, prefix, kind = next((code, prefix, kind)
                                  for cls, code, prefix, kind in _FAILURES
                                  if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        if "--json" in argv:
            print(json.dumps({"command": command, "error": kind,
                              "message": str(exc)}))
        return code


if __name__ == "__main__":
    sys.exit(main())
