"""CLI behavior: commands, formats, exit codes, and JSON reports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import degratio
from conftest import witness_set
from degratio import cycle, solver
from degratio.cli import SUITES, main
from degratio.errors import ParameterError, PreconditionError
from degratio.graph import emit_graph, parse_graph
from degratio.verify import _graphs, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_named(capsys):
    code, out, _ = run(capsys, "solve", "--named", "K5")
    assert code == 0 and "q = 2/5" in out


def test_solve_named_large_clique(capsys):
    code, out, _ = run(capsys, "solve", "--named", "K_12")
    assert code == 0 and "q = 1/2" in out


def test_solve_product(capsys):
    code, out, _ = run(capsys, "solve", "--named", "prod:K4,K4")
    assert code == 0 and "q = 5/7" in out


def test_solve_file_and_stdin_format(tmp_path, capsys):
    f = tmp_path / "c3.txt"
    f.write_text("p 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0 and "q = 1/3" in out


def test_decide_yes_and_no(capsys):
    code, out, _ = run(capsys, "decide", "--named", "prism", "--q", "3/4")
    assert code == 0 and "yes" in out
    code, out, _ = run(capsys, "decide", "--named", "K33", "--q", "3/4")
    assert code == 0 and "no" in out


def test_closed_form_refusal_exit_code(capsys):
    code, _, err = run(capsys, "closed-form", "--named", "C5")
    assert code == 2 and "no applicable rule" in err


def test_closed_form_tree(capsys):
    code, out, _ = run(capsys, "closed-form", "--named", "P5")
    assert code == 0 and "rule: tree" in out


def test_matching_cut_output(capsys):
    code, out, _ = run(capsys, "matching-cut", "--named", "C6")
    assert code == 0 and "yes" in out and "crossing" in out


def test_matching_cut_json_is_exact(capsys):
    code, out, _ = run(capsys, "matching-cut", "--named", "K4", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is True
    assert doc["result"] == {"has_cut": False}


def test_bound_output(capsys):
    code, out, _ = run(capsys, "bound", "--named", "petersen")
    assert code == 0 and "1/2 < q(G)" in out


def test_bound_takes_the_larger_lower_bound(capsys):
    # the class bound is 1/2 < q(G); the witness has quality 5/7
    code, out, _ = run(capsys, "bound", "--named", "prod:K4,K4")
    assert code == 0 and "5/7 <= q(G) <= 6/7" in out
    assert "class bound: 1/2 < q(G)" in out
    code, out, _ = run(capsys, "bound", "--named", "prod:K4,K4", "--json")
    result = json.loads(out)["result"]
    assert result["lower"] == "5/7" and result["strict"] is False
    assert result["class_lower"] == "1/2" and result["class_strict"] is True


def test_bound_reports_a_missing_witness(tmp_path, capsys):
    # the local search stalls from the alternating start here, so the
    # partition search runs and exceeds the budget
    f = tmp_path / "dense60.txt"
    f.write_text(emit_graph(witness_set()[94]))
    code, out, _ = run(capsys, "bound", str(f), "--budget", "1")
    assert code == 0 and "q(G) <=" in out
    assert "witness = none (inexact: budget)" in out
    code, out, _ = run(capsys, "bound", str(f), "--budget", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["witness"] is None


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("p 3 1\ne 1 9\n")
    code, _, err = run(capsys, "solve", str(f))
    assert code == 1 and "parse error" in err


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "decide", "--named", "petersen",
                       "--q", "99/100", "--budget", "8")
    assert code == 3 and "inconclusive" in err


def test_budget_zero_is_honored(capsys):
    code, _, err = run(capsys, "solve", "--named", "K5", "--budget", "0")
    assert code == 3 and "inconclusive" in err


def test_negative_budget_rejected(capsys, monkeypatch):
    code, _, err = run(capsys, "solve", "--named", "K5", "--budget", "-1")
    assert code == 1 and "budget" in err
    monkeypatch.setenv("DEGRATIO_BUDGET", "-5")
    code, _, err = run(capsys, "solve", "--named", "K5")
    assert code == 1 and "budget" in err


def test_json_report_shape(capsys):
    code, out, _ = run(capsys, "solve", "--named", "K6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["graph"]["n"] == 6 and doc["graph"]["regularity"] == 5
    assert doc["result"]["q"] == "1/2"
    assert doc["exact"] is True


def test_json_partition_revalidates(capsys):
    from fractions import Fraction
    from degratio import build_named
    from degratio.ratios import Bipartition, partition_quality
    code, out, _ = run(capsys, "solve", "--named", "petersen", "--json")
    doc = json.loads(out)
    G = build_named("petersen")
    P = Bipartition.from_string(doc["result"]["partition"])
    assert partition_quality(G, P).quality == Fraction(3, 4)


def test_generate_with_sidecar(tmp_path, capsys):
    out_file = tmp_path / "gadget.txt"
    code, out, _ = run(capsys, "generate", "twin_expand_K2", "--named", "C6",
                       "--out", str(out_file))
    assert code == 0
    G = parse_graph(out_file.read_text())
    assert G.n == 24
    sidecar = json.loads((tmp_path / "gadget.txt.json").read_text())
    assert sidecar["construction"] == "twin_expand_K2"
    assert sidecar["claim"] == {"kind": "cut_iff_q", "threshold": "4/5"}
    assert len(sidecar["source_hash"]) == 64


def test_generate_precondition_exit(capsys):
    code, _, err = run(capsys, "generate", "product_fixed_H", "--named", "C6",
                       "--fixed", "C4")
    assert code == 2


def test_verify_suite_runs(capsys):
    code, out, _ = run(capsys, "verify", "reductions")
    assert code == 0 and "properties passed" in out


def test_verify_every_suite_passes_at_its_default_cap(capsys):
    total = 0
    for suite in SUITES:
        code, out, _ = run(capsys, "verify", suite, "--json")
        result = json.loads(out)["result"]
        assert code == 0 and result["failed"] == 0, suite
        total += len(result["results"])
    assert total == 199


def test_verify_refuses_a_cap_below_two(capsys):
    for cap in ("-5", "0", "1"):
        code, _, err = run(capsys, "verify", "bounds", "--max-n", cap)
        assert code == 1 and "max_n" in err
    with pytest.raises(ParameterError):
        run_suite("products", max_n=1)


def test_verify_samples_stay_under_the_cap():
    assert [G.n for G in _graphs(2, 1)] == [2]  # K2 from the catalog, no sample
    for cap in range(2, 10):
        assert all(G.n <= cap for G in _graphs(cap, 1))
    # the draws above a cap of 2 are unchanged: the last ten graphs are the
    # ten random samples
    sampled = _graphs(5, 1)[-10:]
    assert [G.n for G in sampled] == [3, 4, 3, 3, 4, 5, 5, 5, 3, 5]
    assert [G.num_edges for G in sampled] == [2, 4, 2, 3, 3, 5, 6, 4, 3, 6]


def test_verify_lists_every_suite(capsys):
    with pytest.raises(PreconditionError, match=re.escape(f"pick one of {SUITES}")):
        run_suite("no-such-suite")
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert done.value.code == 0 and all(name in out for name in SUITES)
    with pytest.raises(SystemExit) as done:
        main(["verify", "no-such-suite"])
    assert done.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_solve_loads_only_what_it_needs(tmp_path):
    # the other commands' modules load inside the commands that use them,
    # and the named graphs only for --named
    f = tmp_path / "g.txt"
    f.write_text(emit_graph(cycle(7)))
    src = str(Path(degratio.__file__).resolve().parent.parent)
    for argv, q, loaded in [([str(f)], "2/3", "[]"),
                            (["--named", "petersen"], "3/4", "['degratio.named']")]:
        code = (
            "import sys\n"
            "from degratio.cli import main\n"
            f"main(['solve', *{argv!r}])\n"
            "late = {'degratio.' + name for name in ('catalog', 'construct', 'formulas',"
            " 'named', 'reductions', 'verify')}\n"
            "print(sorted(late & set(sys.modules)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
        lines = out.splitlines()
        assert lines[0] == f"q = {q}" and lines[-1] == loaded


def test_round_trip_canonical_form(tmp_path):
    text = emit_graph(cycle(7))
    assert emit_graph(parse_graph(text)) == text


def test_conflicting_inputs_rejected(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(emit_graph(cycle(4)))
    code, _, err = run(capsys, "solve", str(f), "--named", "K5")
    assert code == 1


def test_failed_certificate_exits_4(capsys, monkeypatch):
    # a search leaf of quality 1/2 offered as a witness for q(K4) >= 3/4
    monkeypatch.setattr(solver, "_search",
                        lambda G, cap, budget, on_leaf: (1, (1, 1, 2, 2)))
    code, out, err = run(capsys, "decide", "--named", "K4", "--q", "3/4")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, code, kind", [
    (["solve", "BAD", "--json"], 1, "parse"),
    (["solve", "--named", "K10", "--json"], 1, "parameter"),
    (["closed-form", "--named", "C5", "--json"], 2, "precondition"),
    (["solve", "--named", "petersen", "--budget", "5", "--json"], 3, "budget"),
    (["decide", "--named", "K4", "--q", "3/4", "--json"], 4, "certificate"),
])
def test_error_exits_print_json(argv, code, kind, tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 1\ne 1 9\n")
    argv = [str(bad) if a == "BAD" else a for a in argv]
    if kind == "certificate":
        # a search leaf of quality 1/2 offered as a witness for q(K4) >= 3/4
        monkeypatch.setattr(solver, "_search",
                            lambda G, cap, budget, on_leaf: (1, (1, 1, 2, 2)))
    got, out, err = run(capsys, *argv)
    doc = json.loads(out)
    assert got == code and doc["command"] == argv[0] and doc["error"] == kind
    assert len(err.splitlines()) == 1 and doc["message"] in err


@pytest.mark.parametrize("argv, expected", [
    (["closed-form", "--named", "prod:K4,K4"], "q = 5/7 (rule: prodcub)"),
    (["decide", "--named", "prism", "--q", "3/4"], "q(G) >= 3/4: yes"),
])
def test_certificates_checked_under_optimize(argv, expected):
    # python -O strips assert statements; the certificates must still run
    src = str(Path(degratio.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-O", "-m", "degratio.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout.splitlines()
