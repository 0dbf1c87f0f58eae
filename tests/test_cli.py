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


def test_classify_labels_an_isomorphism_strong_immersion_without_a_bound(tmp_path, capsys):
    # no bound enters the kind, so the label names none
    path = tmp_path / "ws.posmt"
    path.write_text(DATA + "\nmorphism same from chain2 to chain2 { map: a -> a, b -> b; }\n")
    assert run(capsys, "classify", str(path), "--morphism", "same") == (0, "same: strong immersion\n")
    code, out = run(capsys, "classify", str(path), "--morphism", "same", "--json")
    assert code == 0 and json.loads(out)["kind"] == "s"


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


def test_models_past_node_cap_prints_unknown(ws_file, capsys):
    # one size's one-point extensions share the cap, as one search would
    code = main(["models", ws_file, "--theory", "T_pos", "--n", "4", "--node-cap", "20", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "unknown: model search exceeded node cap 20\n"
    assert json.loads(captured.out)["verdict"] == "unknown"


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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_instance_count_below_one(count, capsys):
    code, out = run(capsys, "verify", "--theorem", "ii-hh-strong", "--instances", count, "--json")
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("kind", ["s", "i"])
@pytest.mark.parametrize("src", ["chain2", "point"])
def test_homs_rejects_k(ws_file, capsys, src, kind):
    # no bound enters a morphism's kind, so a --k would be silently ignored;
    # it is a usage error, and cannot pass for an abbreviated --kind either
    base = ["homs", ws_file, "--from", src, "--to", "chain2", "--kind", kind, "--json"]
    for extra in (["--k", "2"], ["--k", kind]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        assert "--k" in capsys.readouterr().err
    assert main(base) in (0, 1)  # yes or no: the homs were listed


def test_classify_rejects_k_and_reports_no_k(ws_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", ws_file, "--morphism", "inc", "--k", "1"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err
    code, out = run(capsys, "classify", ws_file, "--morphism", "inc", "--json")
    assert code == 0
    assert json.loads(out)["budget"] == {"n": 3, "N": 6, "node_cap": 10 ** 6}


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


@pytest.mark.parametrize("kinds", ["iih", "hhhx"])
def test_malformed_basis_kinds_is_a_usage_error(ws_file, capsys, kinds):
    # exit 1 is the "no" code, so a bad --kinds must not end there
    with pytest.raises(SystemExit) as exc:
        main(["basis", ws_file, "--structure", "point", "--kinds", kinds, "--theory", "T_pos"])
    assert exc.value.code == 2
    assert "--kinds" in capsys.readouterr().err


def _with_problem_line(tmp_path, old: str, new: str) -> tuple[str, int, int]:
    """The workspace with one line of the problem block replaced, and the
    line and column where `new` starts."""
    assert old in DATA
    text = DATA.replace(old, new)
    before = text[:text.index(new)]
    path = tmp_path / "ws.posmt"
    path.write_text(text)
    return str(path), before.count("\n") + 1, len(before) - before.rfind("\n")


@pytest.mark.parametrize("command", ["check", "amalgamate"])
@pytest.mark.parametrize("kinds, at", [("[i, i, h]", "]"), ("[i, i, h, x]", "x")],
                         ids=["three-letters", "bad-letter"])
def test_malformed_problem_kinds_is_a_parse_error(tmp_path, capsys, command, kinds, at):
    path, line, col = _with_problem_line(tmp_path, "[i, i, h, h]", kinds)
    assert main([command, path, "--problem", "glue"] if command == "amalgamate" else [command, path]) == 2
    out, err = capsys.readouterr()
    assert f"parse error: {line}:{col + kinds.index(at)}:" in err
    assert "OK" not in out


@pytest.mark.parametrize("budget, at", [("{ M: 2; }", "M"), ("{ N: 0; }", "0")],
                         ids=["unknown-key", "zero"])
def test_problem_budget_rejects_unknown_keys_and_zero(tmp_path, capsys, budget, at):
    # an unknown key would otherwise run at the default budget, and 0 crashed
    path, line, col = _with_problem_line(tmp_path, "{ N: 6; }", budget)
    assert main(["amalgamate", path, "--problem", "glue", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"parse error: {line}:{col + budget.index(at)}:" in err


@pytest.mark.parametrize("old, new, at", [
    ("{ N: 6; }", "{ N: 6; N: 2; }", "N: 2"),
    ("kinds: [i, i, h, h];", "kinds: [i, i, h, h]; kinds: [h, h, h, h];", "kinds: [h"),
    ("base: point;", "base: point; base: chain2;", "base: chain2"),
    ("class: theory T_pos;", "class: theory T_pos; class: all;", "class: all"),
    ("strong: true;", "strong: true; strong: false;", "strong: false"),
], ids=["budget-N", "kinds", "base", "class", "strong"])
def test_repeated_problem_key_is_a_parse_error(tmp_path, capsys, old, new, at):
    # the last of a repeated key used to win without a word: N: 2 answered
    path, line, col = _with_problem_line(tmp_path, old, new)
    assert main(["amalgamate", path, "--problem", "glue", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"parse error: {line}:{col + new.index(at)}: repeated" in err
