from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posmt.cli import main
from posmt.textio import load_workspace, structure_from_json, structure_to_json

DATA = """
signature S { relations: le/2; }

theory T_pos over S {
  hinductive: forall x. true -> le(x,x);
  hinductive: forall x y z. le(x,y) & le(y,z) -> le(x,z);
  hinductive: forall x y. le(x,y) & le(y,x) -> x = y;
}

structure point over S { universe: a; le: (a,a); }
structure chain2 over S { universe: a, b; le: (a,a), (a,b), (b,b); }

morphism inc from point to chain2 { map: a -> a; }
morphism leg2 from point to chain2 { map: a -> a; }

amalgamation glue {
  base: point; left: inc; right: leg2;
  kinds: [i, i, h, h];
  class: theory T_pos;
  strong: true;
  budget: { N: 6; };
}
"""


@pytest.fixture()
def ws_file(tmp_path):
    path = tmp_path / "ws.posmt"
    path.write_text(DATA)
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_ok(ws_file, capsys):
    code, out = run(capsys, "check", ws_file)
    assert code == 0
    assert "OK theory T_pos" in out


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.posmt"
    bad.write_text("signature S { relations le/2; }")
    assert main(["check", str(bad)]) == 2


def test_check_rejects_unprefixed_theory_sentence(tmp_path, capsys):
    # a sentence without a class prefix is an error, not silently dropped
    bad = tmp_path / "bad.posmt"
    bad.write_text("signature S { relations: le/2; }\n"
                   "theory T over S { le(x,x) & nonsense(y);"
                   " hinductive: forall x. true -> le(x,x); }\n")
    assert main(["check", str(bad)]) == 2
    assert "OK theory T" not in capsys.readouterr().out


def test_theory_parse_error_reports_file_position(tmp_path, capsys):
    bad = tmp_path / "bad.posmt"
    bad.write_text("signature S { relations: le/2; }\n"
                   "theory T over S {\n"
                   "  hinductive: forall x. true -> le(x,x);\n"
                   "  positive: exists x. le(x,;\n"
                   "}\n")
    assert main(["check", str(bad)]) == 2
    assert "parse error: 4:28:" in capsys.readouterr().err


def test_amalgamation_missing_field_reports_block_end(tmp_path, capsys):
    bad = tmp_path / "bad.posmt"
    bad.write_text(DATA + "\namalgamation half {\n  base: point; left: inc; right: leg2;\n}\n")
    assert main(["check", str(bad)]) == 2
    end_line = len(DATA.split("\n")) + 3
    assert f"parse error: {end_line}:1: amalgamation block misses 'kinds'" in capsys.readouterr().err


def test_check_semantic_error(tmp_path, capsys):
    bad = tmp_path / "bad.posmt"
    bad.write_text("signature S { relations: le/2; }\n"
                   "structure A over S { universe: a; le: (a,b); }")
    assert main(["check", str(bad)]) == 3


def test_models_text_and_json(ws_file, capsys):
    code, out = run(capsys, "models", ws_file, "--theory", "T_pos", "--n", "2")
    assert code == 0 and "3 model(s)" in out
    code, out = run(capsys, "models", ws_file, "--theory", "T_pos", "--n", "2", "--json")
    data = json.loads(out)
    assert data["count"] == 3
    # structures in the report round-trip
    st = structure_from_json(data["models"][0]["structure"])
    assert structure_to_json(st) == data["models"][0]["structure"]


def test_homs_count(ws_file, capsys):
    code, out = run(capsys, "homs", ws_file, "--from", "chain2", "--to", "chain2")
    assert code == 0 and "3 morphism(s)" in out


def test_classify(ws_file, capsys):
    code, out = run(capsys, "classify", ws_file, "--morphism", "inc")
    assert code == 0 and "immersion" in out


def test_pc_exit_codes(ws_file, capsys):
    assert main(["pc", ws_file, "--structure", "point", "--theory", "T_pos", "--n", "3"]) == 0
    capsys.readouterr()
    assert main(["pc", ws_file, "--structure", "chain2", "--theory", "T_pos", "--n", "2"]) == 1


def test_amalgamate_json_certificate_reverifies(ws_file, capsys):
    code, out = run(capsys, "amalgamate", ws_file, "--problem", "glue", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "yes"
    cert = data["certificate"]

    # rebuild and re-verify the certificate from the JSON report alone
    from posmt.amalgamation import AmalgamationProblem, AmalgamationSolution, parse_kinds, verify_solution
    from posmt.morphisms import Morphism, MorphismKind
    from posmt.theories import Budget

    ws = load_workspace([DATA])
    apex = structure_from_json(cert["apex"]["structure"])
    out_b = Morphism(ws.structure("chain2"), apex, cert["out_b"])
    out_c = Morphism(ws.structure("chain2"), apex, cert["out_c"])
    problem = AmalgamationProblem(
        ws.morphism("inc"), ws.morphism("leg2"), parse_kinds("iihh"),
        ws.theory("T_pos"), strong=True, budget=Budget(N=6),
    )
    sol = AmalgamationSolution(
        apex, out_b, out_c,
        tuple(MorphismKind.from_letter(k) for k in cert["kinds"]),
        tuple((a, a, a) for a in ("a",)), cert["strong_ok"],
    )
    assert verify_solution(problem, sol)


def test_unknown_name_is_semantic_error(ws_file, capsys):
    assert main(["models", ws_file, "--theory", "nope"]) == 3


def test_report_schema(ws_file, capsys):
    code, out = run(capsys, "jc", ws_file, "--theory", "T_pos",
                    "--n", "2", "--N", "1", "--k", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "posmt-report/1"
    assert data["verdict"] == "yes"
    assert data["budget"]["N"] == 1


def test_budget_exhaustion_prints_unknown_verdict_with_json(ws_file, capsys):
    code = main(["jc", ws_file, "--theory", "T_pos", "--N", "4", "--node-cap", "200", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "unknown: model search exceeded node cap 200\n"
    data = json.loads(captured.out)
    assert data["schema"] == "posmt-report/1"
    assert data["verdict"] == "unknown"
    assert data["budget"] == {"n": 3, "N": 4, "k": 3, "node_cap": 200}
    assert data["notes"] == ["model search exceeded node cap 200"]


def test_jobs_flag_does_not_change_output(ws_file, capsys):
    _, out1 = run(capsys, "models", ws_file, "--theory", "T_pos", "--n", "2", "--json")
    _, out2 = run(capsys, "models", ws_file, "--theory", "T_pos", "--n", "2",
                  "--jobs", "4", "--json")
    assert out1 == out2


def test_verify_subcommand(capsys):
    code, out = run(capsys, "verify", "--theorem", "ii-hh-strong",
                    "--seed", "7", "--instances", "3", "--N", "8")
    assert code == 0
    assert "witnessed 3/3" in out


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ("models", "data/unary.posmt", "--theory", "T_fix", "--n", "13"),
    ("verify", "--theorem", "inheritance", "--n", "1", "--instances", "1"),
], ids=["size-past-name-pool", "inheritance-n1"])
def test_out_of_range_budget_exits_3_at_once(argv):
    # a fresh process with a timeout, so that a search that never ends
    # fails the test instead of hanging the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "posmt.cli", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 3, proc.stderr
