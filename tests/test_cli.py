from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import importlib.util
import io
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posmt import cli
from posmt.cli import main
from posmt.structures import FiniteStructure, Signature
from posmt.textio import SCHEMA, load_workspace, structure_to_json
from posmt.theories import Budget

from oracles import plain_json

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


def structure_from_json(data) -> FiniteStructure:
    """The structure a `--json` report wrote (`textio.structure_to_json`)."""
    sig = data["signature"]
    return FiniteStructure(
        Signature.make(sig["relations"], sig["functions"], sig["constants"]),
        tuple(data["universe"]),
        {name: frozenset(map(tuple, table)) for name, table in data["relations"].items()},
        {name: {tuple(args): val for args, val in entries} for name, entries in data["functions"].items()},
        dict(data["constants"]),
    )


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


def test_classify_rejects_map_keys_outside_the_source(tmp_path, capsys):
    # `zz` is no element of point; its image b must not make the map look
    # onto chain2, which would label the inclusion a strong immersion
    data = Path(__file__).resolve().parents[1] / "data" / "posets.posmt"
    path = tmp_path / "junk.posmt"
    path.write_text("morphism junk from point to chain2 { map: a -> a, zz -> b; }\n")
    code = main(["classify", str(data), str(path), "--morphism", "junk", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "junk" in captured.err and "zz" in captured.err
    assert run(capsys, "classify", str(data), "--morphism", "include_bottom", "--json")[0] == 0


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
    from posmt.morphisms import Morphism
    from posmt.theories import Budget

    ws = load_workspace([DATA])
    apex = structure_from_json(cert["apex"]["structure"])
    out_b = Morphism(ws.structure("chain2"), apex, cert["out_b"])
    out_c = Morphism(ws.structure("chain2"), apex, cert["out_c"])
    problem = AmalgamationProblem(
        ws.morphism("inc"), ws.morphism("leg2"), parse_kinds("iihh"),
        ws.theory("T_pos"), strong=True, budget=Budget(N=6),
    )
    assert verify_solution(problem, AmalgamationSolution(apex, out_b, out_c))


def test_amalgamate_json_reports_the_exact_kinds_of_the_out_maps(capsys):
    # glue_chains asks h for both out-maps; the report names their exact kind
    code, out = run(capsys, "amalgamate", str(REPO / "data" / "posets.posmt"),
                    "--problem", "glue_chains", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "yes"
    assert data["certificate"]["kinds"] == ["i", "i"]
    assert '"kinds": [\n      "i",\n      "i"\n    ]' in out


def test_unknown_name_is_semantic_error(ws_file, capsys):
    assert main(["models", ws_file, "--theory", "nope"]) == 3


def test_report_schema(ws_file, capsys):
    code, out = run(capsys, "jc", ws_file, "--theory", "T_pos",
                    "--n", "2", "--N", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "posmt-report/1"
    assert data["verdict"] == "yes"
    assert data["budget"]["N"] == 1


def test_budget_exhaustion_prints_unknown_verdict_with_json(ws_file, capsys):
    # listing the pairs' posets up to n = 3 spends 72 nodes on size 3
    code = main(["jc", ws_file, "--theory", "T_pos", "--N", "4", "--node-cap", "50", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "unknown: model search exceeded node cap 50\n"
    data = json.loads(captured.out)
    assert data["schema"] == "posmt-report/1"
    assert data["verdict"] == "unknown"
    assert data["budget"] == {"n": 3, "N": 4, "k": 3, "node_cap": 50}
    assert data["notes"] == ["model search exceeded node cap 50"]


@pytest.mark.parametrize("flags", [["--N", "4", "--node-cap", "200"], ["--N", "8"]])
def test_jc_says_yes_at_the_first_size_that_serves_every_pair(ws_file, capsys, flags):
    # the one-point poset continues all 36 pairs of posets up to 3 points,
    # so no size past 1 is listed: not the posets on 4 points, which run
    # out of 200 nodes, nor the 2,045 on 7 points
    code = main(["jc", ws_file, "--theory", "T_pos", *flags, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (data["verdict"], data["certificate"]) == ("yes", {"pairs_checked": 36})


@pytest.mark.parametrize("flags", [["--N", "8"], ["--k", "5"]])
def test_report_answers_at_the_size_that_settles_it(ws_file, capsys, flags):
    # the one-point poset satisfies every CQ, which settles condition 2 at
    # size 1 (listing the posets up to 8 points runs out of nodes), and it
    # is the one bounded-pc poset, which settles conditions 4 and 5 with no
    # implication corpus (at k = 5 it exceeds its candidate cap)
    code = main(["report", ws_file, "--theory", "T_pos", *flags, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["is_jc"] == "yes" and list(data["conditions"].values()) == [True] * 5


def test_pc_says_no_at_its_first_counterexample(ws_file, capsys):
    # chain2 collapses onto the one-point poset, a hom that is not an
    # immersion: no size past 1 is listed, so n = 7 names the same
    # counterexample as n = 3 without listing the 2,450 posets up to 7 points
    reports = []
    for n in ("3", "7"):
        assert main(["pc", ws_file, "--structure", "chain2", "--theory", "T_pos", "--n", n, "--json"]) == 1
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["certificate"] == reports[1]["certificate"]
    assert reports[1]["certificate"]["hom"] == {"a": "a", "b": "a"}


@pytest.mark.parametrize("argv", [
    ["report", "--theory", "T_pos", "--N", "4"],
    ["pc", "--structure", "point", "--theory", "T_pos", "--n", "4"],
], ids=["report", "pc-yes"])
def test_a_size_still_read_runs_out_of_nodes(ws_file, capsys, argv):
    # report reads the posets up to n = 3 for conditions 1 and 3, and a pc
    # "yes" reads every size up to n: 20 nodes do not list 3 points
    code = main([argv[0], ws_file, *argv[1:], "--node-cap", "20", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "unknown: model search exceeded node cap 20\n"


def test_models_past_node_cap_prints_unknown(ws_file, capsys):
    # one size's one-point extensions share the cap, as one search would
    code = main(["models", ws_file, "--theory", "T_pos", "--n", "4", "--node-cap", "20", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "unknown: model search exceeded node cap 20\n"
    assert json.loads(captured.out)["verdict"] == "unknown"


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


def _env() -> dict:
    """The environment of a fresh process that imports this checkout's posmt."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def _cli(*argv, timeout: float = 60) -> subprocess.CompletedProcess:
    """`posmt argv` in a fresh process, so that a crash shows as a traceback
    and a search that never ends fails the test instead of hanging the suite."""
    return subprocess.run([sys.executable, "-m", "posmt.cli", *argv],
                          cwd=REPO, env=_env(), capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("models", "data/unary.posmt", "--theory", "T_fix", "--n", "13"),
    ("verify", "--theorem", "inheritance", "--n", "1", "--instances", "1"),
], ids=["size-past-name-pool", "inheritance-n1"])
def test_out_of_range_budget_exits_3_at_once(argv):
    proc = _cli(*argv, timeout=20)
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


TWO_SIGNATURES = """
signature S { relations: le/2; }
signature S2 { relations: p/1; }
structure A over S { universe: a; le: (a,a); }
structure B over S { universe: a, b; le: (a,a), (a,b), (b,b); }
morphism m from A to B { map: a -> a; }
theory T over S2 { hinductive: forall x. p(x) -> p(x); }
"""


@pytest.mark.parametrize("command", ["check", "amalgamate"])
@pytest.mark.parametrize("fields, error", [
    ("base: B; kinds: [h,h,h,h];", "wings do not start at the base"),
    ("base: Nope; kinds: [h,h,h,h];", "unknown structure 'Nope'"),
    ("base: A; kinds: [s,h,h,h];", "left map is not a s-hom"),
    ("base: A; kinds: [h,h,h,h]; class: theory T;", "theory 'T' is not over the base's signature"),
], ids=["wrong-base", "unknown-base", "in-kind", "theory-signature"])
def test_malformed_problem_is_rejected_by_check_and_amalgamate(tmp_path, capsys, command, fields, error):
    # check used to say OK to each of these; amalgamate answered "yes" to the
    # first two, ignoring the base
    path = tmp_path / "ws.posmt"
    path.write_text(TWO_SIGNATURES + f"amalgamation P {{ left: m; right: m; {fields} }}\n")
    assert main([command, str(path)] + (["--problem", "P"] if command == "amalgamate" else [])) == 3
    out, err = capsys.readouterr()
    assert out == "" and error in err


@pytest.mark.parametrize("budget, at", [
    ("{ M: 2; }", "M"), ("{ N: 0; }", "0"), ("{ n: 2; }", "n"), ("{ k: 2; }", "k"),
], ids=["unknown-key", "zero", "n", "k"])
def test_problem_budget_rejects_unknown_keys_and_zero(tmp_path, capsys, budget, at):
    # an unknown key would otherwise run at the default budget, and 0 crashed;
    # the solver reads no n or k, so a block may not set them either
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


REPEAT_SIG = "signature S { relations: le/2; functions: f/1; constants: c; }\n"
REPEAT_A = "structure A over S { universe: a, b; le: (a,b); f: a->a, b->b; c = a; }\n"


@pytest.mark.parametrize("text, name", [
    ("signature S { relations: le/2, @le/1; }", "'le'"),
    ("signature S { relations: le/2; functions: f/1; @functions: f/2; }", "'functions'"),
    ("signature S { relations: le/2; functions: @le/1; }", "'le'"),
    ("signature S { constants: c, @c; }", "'c'"),
    (REPEAT_SIG + "structure A over S { universe: a, b; @universe: a; le: (a,b); f: a->a, b->b; c = a; }",
     "'universe'"),
    (REPEAT_SIG + "structure A over S { universe: a, b; le: (a,b); @le: (b,b); f: a->a, b->b; c = a; }",
     "'le'"),
    (REPEAT_SIG + "structure A over S { universe: a, b; le: (a,b); f: a->a, b->b, @a->b; c = a; }",
     "'f'"),
    (REPEAT_SIG + "structure A over S { universe: a, b; le: (a,b); f: a->a, b->b; c = a; @c = a; }",
     "'c'"),
    (REPEAT_SIG + REPEAT_A + "morphism m from A to A { map: a -> a, b -> b; @map: a -> b; }", "'map'"),
    (REPEAT_SIG + REPEAT_A + "morphism m from A to A { map: a -> a, b -> b, @a -> b; }", "'a'"),
], ids=["relation", "field", "relation-and-function", "constant", "universe", "relation-line",
        "function-entry", "constant-value", "map-line", "map-entry"])
def test_repeated_declaration_is_a_parse_error(tmp_path, capsys, text, name):
    # the reader kept the last of each without a word (the function entry
    # gave f(a) = b, the morphism mapped a to b); `@` marks the error's token
    before = text[:text.index("@")]
    path = tmp_path / "ws.posmt"
    path.write_text(text.replace("@", ""))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
    assert out == "" and f"parse error: {line}:{col}: " in err and name in err


# ---------------------------------------------------------------------------
# general: sentences are accepted exactly when they encode as h-inductive

ONE_THEORY = "signature S {{ relations: le/2; constants: c; }}\ntheory T over S {{ {} }}\n"


def test_general_sentence_lists_the_models_of_its_hinductive_twin(tmp_path, capsys):
    outs = []
    for prefix in ("hinductive", "general"):
        path = tmp_path / f"{prefix}.posmt"
        path.write_text(ONE_THEORY.format(f"{prefix}: forall x. true -> le(x,x);"))
        code, out = run(capsys, "models", str(path), "--theory", "T", "--n", "2", "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("general, twin", [
    ("forall x. !le(x,x)", "huniversal: !exists x. le(x,x)"),
    ("forall x. (le(x,x) -> le(x,c)) & true", "hinductive: forall x. le(x,x) -> le(x,c)"),
], ids=["negation", "conjunction"])
def test_general_universal_shape_lists_the_models_of_its_twin(tmp_path, capsys, general, twin):
    outs = []
    for name, sentence in (("general", f"general: {general}"), ("twin", twin)):
        path = tmp_path / f"{name}.posmt"
        path.write_text(ONE_THEORY.format(sentence + ";"))
        code = main(["models", str(path), "--theory", "T", "--n", "2", "--json"])
        out, err = capsys.readouterr()
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]


def test_general_conjunction_of_atoms_lists_the_models_of_its_positive_twin(tmp_path):
    outs = []
    for prefix in ("positive", "general"):
        path = tmp_path / f"{prefix}.posmt"
        path.write_text(ONE_THEORY.format(f"{prefix}: le(c,c) & le(c,c);"))
        proc = _cli("models", str(path), "--theory", "T", "--n", "2")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].startswith("9 model(s) of T")


@pytest.mark.parametrize("sentence, why", [
    # no h-inductive encoding, and no printed form
    ("general: exists x. !le(x,x);", "is not h-inductive"),
    ("positive: le(x,c);", "has a free variable x"),
], ids=["outside", "open"])
def test_sentence_outside_a_theory_is_rejected_at_load(tmp_path, capsys, sentence, why):
    path = tmp_path / "ws.posmt"
    path.write_text(ONE_THEORY.format("hinductive: forall x. true -> le(x,x); " + sentence))
    assert main(["check", str(path)]) == 3
    out, err = capsys.readouterr()
    assert "OK theory" not in out
    assert f"error: theory 'T': sentence 2 {why}" in err


# Each subcommand's required arguments, and the flags it takes none of: the
# bounds it does not read, --jobs, which none reads, and check's --json.
FLAGS_NOT_READ = {
    "check": ((), ("--json", "--jobs", "--n", "--N", "--k", "--node-cap")),
    "classify": (("--morphism", "inc"), ("--jobs", "--n", "--N", "--node-cap")),
    "homs": (("--from", "point", "--to", "chain2"), ("--jobs", "--n", "--N")),
    "models": (("--theory", "T_pos"), ("--jobs", "--N", "--k")),
    "pc": (("--structure", "point", "--theory", "T_pos"), ("--jobs", "--N", "--k")),
    "companion": (("--t1", "T_pos", "--t2", "T_pos"), ("--jobs", "--N", "--k")),
    "hull": (("--theory", "T_pos"), ("--jobs", "--N")),
    "jc": (("--theory", "T_pos"), ("--jobs", "--k")),
    "tcomplete": (("--t1", "T_pos", "--t2", "T_pos", "--theory", "T_pos"), ("--jobs", "--k")),
    "basis": (("--structure", "point", "--kinds", "hhhh", "--theory", "T_pos"), ("--jobs", "--k")),
    "verify": (("--theorem", "example-7"), ("--jobs", "--k")),
    "amalgamate": (("--problem", "glue"), ("--jobs", "--n", "--k")),
    "report": (("--theory", "T_pos"), ("--jobs",)),
}


@pytest.mark.parametrize("argv, flag", [
    pytest.param(("models", "--theory", "T_pos", "--seed", "3"), "--seed", id="models-seed"),
    pytest.param(("pc", "--structure", "point", "--theory", "T_pos", "--strict-strong"),
                 "--strict-strong", id="pc-strict-strong"),
    pytest.param(("jc", "--theory", "T_pos", "--seed", "3"), "--seed", id="jc-seed"),
    pytest.param(("basis", "--structure", "point", "--kinds", "hhhh", "--theory", "T_pos", "--seed", "3"),
                 "--seed", id="basis-seed"),
    *(pytest.param((name, *required, flag, *(() if flag == "--json" else ("2",))), flag,
                   id=f"{name}-{flag[2:]}")
      for name, (required, flags) in FLAGS_NOT_READ.items() for flag in flags),
])
def test_flags_are_taken_only_where_they_are_read(ws_file, capsys, argv, flag):
    # each of these was accepted and then ignored, while a --json verdict
    # printed the ignored bound as the one it was computed under
    files = [] if argv[0] == "verify" else [ws_file]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *files, *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


SMALL = {"n": 2, "N": 3, "k": 2, "node_cap": 99_999}


@pytest.mark.parametrize("argv, fields", [
    (("models", "--theory", "T_pos"), ("n", "node_cap")),
    (("pc", "--structure", "point", "--theory", "T_pos"), ("n", "node_cap")),
    (("jc", "--theory", "T_pos"), ("n", "N", "node_cap")),
    (("jc", "--theory", "T_pos", "--theory", "T_pos"), ("N", "node_cap")),
    (("tcomplete", "--t1", "T_pos", "--t2", "T_pos", "--theory", "T_pos"), ("n", "N", "node_cap")),
    (("companion", "--t1", "T_pos", "--t2", "T_pos"), ("n", "node_cap")),
    (("hull", "--theory", "T_pos"), ("n", "k", "node_cap")),
    (("amalgamate", "--problem", "glue"), ("N", "node_cap")),
    (("basis", "--structure", "point", "--kinds", "hhhh", "--theory", "T_pos"), ("n", "N", "node_cap")),
    (("verify", "--theorem", "example-7", "--instances", "1"), ("n", "N", "node_cap")),
    (("report", "--theory", "T_pos"), ("n", "N", "k", "node_cap")),
], ids=["models", "pc", "jc", "jc-joint", "tcomplete", "companion", "hull", "amalgamate", "basis",
        "verify", "report"])
def test_every_bound_a_subcommand_takes_reaches_its_printed_budget(tmp_path, capsys, argv, fields):
    # a bound parsed and then dropped would print its default here; the
    # problem has no budget block, so that its flags alone set its bounds
    path = tmp_path / "ws.posmt"
    path.write_text(DATA.replace("  budget: { N: 6; };\n", ""))
    files = [] if argv[0] == "verify" else [str(path)]
    bounds = [a for f in fields for a in ("--" + f.replace("_", "-"), str(SMALL[f]))]
    code, out = run(capsys, argv[0], *files, *argv[1:], *bounds, "--json")
    assert code in (0, 1)
    data = json.loads(out)
    budget = data["verdict"]["budget"] if argv[0] == "basis" else data["budget"]
    assert budget == {**Budget().as_dict(), **{f: SMALL[f] for f in fields}}


@pytest.mark.parametrize("flag, field", [("--N", "N"), ("--node-cap", "node_cap")])
def test_a_bound_set_by_flag_and_problem_block_is_a_semantic_error(tmp_path, capsys, flag, field):
    # the block's N: 6 won over --N 3 without a word, and the verdict printed N = 6
    path, _, _ = _with_problem_line(tmp_path, "{ N: 6; }", "{ N: 6; node_cap: 99999; }")
    assert main(["amalgamate", path, "--problem", "glue", flag, "3", "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"sets {field} both in its budget block and on the command line" in err


def test_jc_of_several_theories_takes_no_n(ws_file, capsys):
    # it searches one joint model up to size N, so an --n would be ignored
    assert main(["jc", ws_file, "--theory", "T_pos", "--theory", "T_pos", "--n", "2"]) == 3
    assert "reads no --n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (("pc", "--structure", "A", "--theory", "T"), "theory 'T' is not over the structure's signature"),
    (("basis", "--structure", "A", "--kinds", "hhhh", "--theory", "T"),
     "theory 'T' is not over the base's signature"),
], ids=["pc", "basis"])
def test_theory_over_another_signature_is_named(tmp_path, capsys, argv, error):
    # the evaluator used to report "unknown relation symbol p" instead
    path = tmp_path / "ws.posmt"
    path.write_text(TWO_SIGNATURES)
    assert main([argv[0], str(path), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and error in err


def test_strict_strong_is_taken_by_amalgamate_and_basis(ws_file, capsys):
    assert main(["amalgamate", ws_file, "--problem", "glue", "--strict-strong"]) == 0
    assert main(["basis", ws_file, "--structure", "point", "--kinds", "hhhh", "--theory", "T_pos",
                 "--n", "2", "--strong", "--strict-strong"]) == 0


def test_strict_strong_on_a_problem_that_is_not_strong_is_a_semantic_error(ws_file, tmp_path, capsys):
    # strict mode refines the strong condition; without it the flag was
    # silently dropped and the non-strong problem solved
    assert main(["basis", ws_file, "--structure", "point", "--kinds", "hhhh",
                 "--theory", "T_pos", "--n", "2", "--strict-strong"]) == 3
    assert "not strong" in capsys.readouterr().err
    path, _, _ = _with_problem_line(tmp_path, "strong: true;", "strong: false;")
    assert main(["amalgamate", path, "--problem", "glue", "--strict-strong"]) == 3
    assert "not strong" in capsys.readouterr().err
    path, _, _ = _with_problem_line(tmp_path, "strong: true;", "strict: true;")
    assert main(["amalgamate", path, "--problem", "glue"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "not strong" in err


def test_strict_strong_basis_without_instances_is_a_semantic_error(ws_file, capsys):
    # with no s-maps into the one-point wings there is no instance, and the
    # check said "yes" where the same flags with instances exit 3
    assert main(["basis", ws_file, "--structure", "chain2", "--kinds", "ssss", "--theory", "T_pos",
                 "--n", "1", "--strict-strong"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "not strong" in err


def test_reader_closing_the_pipe_is_not_a_parse_error():
    # `posmt models ... | head -1`: 0.5 MB of JSON fills the pipe, so the
    # writer meets the closed pipe; that is no parse error (exit 2)
    proc = subprocess.Popen(
        [sys.executable, "-m", "posmt.cli", "models", "data/posets.posmt", "--theory", "T_pos",
         "--n", "6", "--json"],
        cwd=REPO, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    assert code != 2 and "error:" not in err, (code, err)
    assert code == -signal.SIGPIPE, err  # killed by SIGPIPE, as other filters are


def test_missing_file_is_still_exit_2():
    proc = _cli("models", "data/no-such-file.posmt", "--theory", "T_pos")
    assert proc.returncode == 2
    assert "No such file" in proc.stderr


def test_in_process_main_leaves_the_collector_unfrozen(ws_file, capsys):
    # a freeze here would pin every later test's garbage for the session
    before = gc.get_freeze_count()
    assert main(["check", ws_file]) == 0
    assert main(["models", "data/no-such-file.posmt", "--theory", "T_pos"]) == 2
    assert gc.get_freeze_count() == before


# `posmt` as the program: main() reads sys.argv, then the freeze count is printed
PROGRAM = ("import gc, sys\nfrom posmt.cli import main\ncode = main()\n"
           "print('frozen', gc.get_freeze_count(), file=sys.stderr)\nsys.exit(code)\n")


@pytest.mark.parametrize("code, argv", [
    (0, ["hull", "data/posets.posmt", "--theory", "T_pos", "--k", "2", "--json"]),
    (1, ["pc", "data/posets.posmt", "--structure", "chain2", "--theory", "T_pos", "--json"]),
    (2, ["models", "data/no-such-file.posmt", "--theory", "T_pos"]),
    (3, ["models", "data/posets.posmt", "--theory", "Nope"]),
    (4, ["models", "data/posets.posmt", "--theory", "T_pos", "--n", "4", "--node-cap", "5", "--json"]),
], ids=["yes", "no", "missing-file", "unknown-theory", "budget"])
def test_program_run_freezes_the_heap_and_answers_as_in_process(code, argv, capsys, monkeypatch):
    proc = subprocess.run([sys.executable, "-c", PROGRAM, *argv], cwd=REPO, env=_env(),
                          capture_output=True, timeout=60)
    monkeypatch.chdir(REPO)
    assert main(argv) == code
    out, err = capsys.readouterr()
    *err_lines, frozen = proc.stderr.decode().splitlines(keepends=True)
    assert (proc.returncode, proc.stdout, "".join(err_lines)) == (code, out.encode(), err)
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0


def _nested_positive(tmp_path, depth: int) -> str:
    """A theory whose one sentence is `exists x.` and `p(x)` inside `depth`
    pairs of parentheses."""
    path = tmp_path / f"nested{depth}.posmt"
    path.write_text("signature S { relations: p/1; }\n"
                    f"theory T over S {{\n  positive: exists x. {'(' * depth}p(x){')' * depth};\n}}\n")
    return str(path)


def test_too_deep_a_formula_is_a_parse_error_at_its_token(tmp_path):
    # 200 levels used to end in a RecursionError, and exit 1 reads as "no"
    proc = _cli("check", _nested_positive(tmp_path, 200))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    # the 101st nesting level is the parenthesis at column 23 + 100
    assert "parse error: 3:123: formula nested more than 100 levels deep" in proc.stderr


def test_formula_within_the_depth_bound_still_parses(tmp_path, capsys):
    assert main(["check", _nested_positive(tmp_path, 99)]) == 0
    assert "OK theory T" in capsys.readouterr().out


NESTING_FORMS = {
    "negations": lambda d: f"general: {'!' * d}p(c)",
    "parentheses": lambda d: f"general: {'(' * d}p(c){')' * d}",
    "forall": lambda d: f"general: {'forall x. ' * d}p(x)",
    "exists": lambda d: f"general: {'exists x. ' * d}p(x)",
    "implies": lambda d: f"general: {'p(c) -> ' * d}p(c)",
    "hinductive-premise": lambda d: f"hinductive: {'(' * d}p(c){')' * d} -> p(c)",
    "function-terms": lambda d: f"general: p({'f(' * d}c{')' * (d + 1)}",
}
TOO_DEEP = "parse error: 3:{}: formula nested more than 100 levels deep"
NOT_H_INDUCTIVE = "error: theory 'T': sentence 1 is not h-inductive"
# (exit code, last stderr line) of `posmt check` at depths 99, 100, 101 and
# 300; each argument list of an application is one level more, so p(c)
# nests one level and p(f(c)) two
NESTING_OUTCOMES = {
    "negations": [(3, NOT_H_INDUCTIVE)] + [(2, TOO_DEEP.format(113))] * 3,
    "parentheses": [(0, ""), (2, TOO_DEEP.format(113))] + [(2, TOO_DEEP.format(112))] * 2,
    "forall": [(0, ""), (2, TOO_DEEP.format(1013))] + [(2, TOO_DEEP.format(1022))] * 2,
    "exists": [(0, ""), (2, TOO_DEEP.format(1013))] + [(2, TOO_DEEP.format(1022))] * 2,
    "implies": [(3, NOT_H_INDUCTIVE)] + [(2, TOO_DEEP.format(813))] * 3,
    "hinductive-premise": [(0, ""), (2, TOO_DEEP.format(116))] + [(2, TOO_DEEP.format(115))] * 2,
    "function-terms": [(0, "")] + [(2, TOO_DEEP.format(213))] * 3,
}


@pytest.mark.parametrize("form, depth, outcome", [
    pytest.param(form, depth, outcome, id=f"{form}-{depth}")
    for form, outcomes in NESTING_OUTCOMES.items() for depth, outcome in zip((99, 100, 101, 300), outcomes)
])
def test_every_nesting_form_is_bounded_at_100_levels(tmp_path, form, depth, outcome):
    path = tmp_path / f"{form}{depth}.posmt"
    path.write_text("signature S { relations: p/1; functions: f/1; constants: c; }\n"
                    f"theory T over S {{\n  {NESTING_FORMS[form](depth)};\n}}\n")
    proc = _cli("check", str(path))
    assert (proc.returncode, (proc.stderr.splitlines() or [""])[-1]) == outcome, proc.stderr[-500:]


def test_crash_in_a_subcommand_is_an_internal_error(ws_file, capsys, monkeypatch):
    # any exception but the four handled ones exits 5, never 1 ("no")
    import posmt.cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(posmt.cli, "cmd_check", crash)
    assert main(["check", ws_file]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


# the pc models of T_pos (the point) and T_none (the loopless point) differ
MORE_THEORIES = """
theory T_refl over S { hinductive: forall x. true -> le(x,x); }
theory T_none over S { hinductive: forall x y. le(x,y) -> false; }
"""

EVERY_REPORT = [
    ("models", "--theory", "T_pos", "--n", "2"),
    ("models", "--theory", "T_pos", "--n", "4", "--node-cap", "5"),
    ("homs", "--from", "point", "--to", "chain2"),
    ("classify", "--morphism", "inc"),
    ("pc", "--structure", "point", "--theory", "T_pos", "--n", "2"),
    ("pc", "--structure", "chain2", "--theory", "T_pos", "--n", "2"),
    ("jc", "--theory", "T_pos", "--n", "2", "--N", "3"),
    ("jc", "--theory", "T_pos", "--theory", "T_refl", "--N", "2"),
    ("tcomplete", "--t1", "T_pos", "--t2", "T_pos", "--theory", "T_pos", "--n", "2", "--N", "3"),
    ("companion", "--t1", "T_pos", "--t2", "T_none", "--n", "2"),
    ("hull", "--theory", "T_pos", "--n", "2", "--k", "2"),
    ("amalgamate", "--problem", "glue"),
    ("basis", "--structure", "point", "--kinds", "hhhh", "--theory", "T_pos", "--n", "2", "--N", "3"),
    ("verify", "--theorem", "ii-hh-strong", "--instances", "2", "--N", "4"),
    ("verify", "--theorem", "inheritance", "--instances", "2", "--N", "4"),
    ("report", "--theory", "T_pos", "--n", "2", "--N", "3", "--k", "2"),
]


def test_every_report_a_command_builds_prints_as_its_plain_json(tmp_path, capsys, monkeypatch):
    # the writer takes the objects a report holds as they are; the reference
    # copies the report into plain data first, with a form for types no
    # report should hold, which the writer rejects
    path = tmp_path / "ws.posmt"
    path.write_text(DATA + MORE_THEORIES)
    reports = []
    real = cli.report_to_json
    monkeypatch.setattr(cli, "report_to_json", lambda report: reports.append(report) or real(report))
    printed = {}
    for argv in EVERY_REPORT:
        files = [] if argv[0] == "verify" else [str(path)]
        assert main([argv[0], *files, *argv[1:], "--json"]) in (0, 1, 4)
        printed[argv] = json.loads(capsys.readouterr().out)
        assert real(reports[-1]) == json.dumps({"schema": SCHEMA, **plain_json(reports[-1])},
                                               indent=2, sort_keys=True)
    assert len(reports) == len(EVERY_REPORT)
    assert {argv[0] for argv in EVERY_REPORT} == set(cli._COMMANDS) - {"check"}
    # the "no" certificates that hold structures
    pc_no = printed[EVERY_REPORT[5]]["certificate"]
    assert pc_no["hom"] == {"a": "a", "b": "a"} and "structure" in pc_no["target"]
    assert "structure" in printed[EVERY_REPORT[7]]["certificate"]["model"]
    companion = printed[EVERY_REPORT[9]]
    assert companion["verdict"] == "no"
    assert all("structure" in m for side in ("only_first", "only_second") for m in companion["certificate"][side])
    assert companion["certificate"]["only_first"] and companion["certificate"]["only_second"]


# ---------------------------------------------------------------------------
# one subparser per run


def _parse_to_exit(parser, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_subcommand_parser_alone_prints_what_the_full_parser_prints(name, capsys):
    for argv in ([name, "--help"], [name], [name, "--no-such-flag"]):
        assert _parse_to_exit(cli.build_parser(name), argv, capsys) == _parse_to_exit(
            cli.build_parser(), argv, capsys)


@pytest.mark.parametrize("argv,built", [
    (["models", "--help"], ["models"]), (["verify"], ["verify"]),
    (["--help"], list(cli._COMMANDS)), ([], list(cli._COMMANDS)),
    (["no-such-command"], list(cli._COMMANDS)), (["-h"], list(cli._COMMANDS)),
])
def test_main_builds_the_named_subparser_alone(monkeypatch, capsys, argv, built):
    parsers = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: parsers.append(real(command)) or parsers[-1])
    with pytest.raises(SystemExit):
        main(argv)
    (parser,) = parsers
    assert "{" + ",".join(built) + "}" in parser.format_usage()
    if argv == ["--help"]:
        assert capsys.readouterr().out == real().format_help()


# ---------------------------------------------------------------------------
# the table parser, against argparse


@functools.lru_cache(maxsize=None)
def _full_parser():
    return cli.build_parser()


def _argparse_vars(argv):
    """vars() of the namespace argparse builds for argv, None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_full_parser().parse_args(argv))
        except SystemExit:
            return None


def _values(keywords, bad: bool):
    """Values to try after a flag: its own good ones, or ones that fail its
    type or choices or start with "-"."""
    if "choices" in keywords:
        good, wrong = list(keywords["choices"]), ["q", "H", "1"]
    elif keywords.get("type") is int:
        good, wrong = ["3", "0", " 7", "1_0", "12"], ["x", "1.5", "", "-2"]
    elif "type" in keywords:  # --kinds
        good, wrong = ["iihh", "hhhh", "shei"], ["hhx", "hh", "HHHH", ""]
    else:
        good, wrong = ["T_pos", "a", "x=y", ""], []
    if not bad:
        return st.sampled_from(good)
    return st.one_of(*(st.sampled_from(v) for v in (wrong, ["-", "--", "--json", "-h", "-a b"]) if v))


_EVERY_FLAG = sorted({flag for name in cli._COMMANDS for flag, _ in cli._arguments(name)} - {"files"})


@st.composite
def command_lines(draw):
    """Command lines drawn from `_COMMANDS`: files then flags, with every
    required flag and now and then a bad value, and others with files after
    the flags, repeated, missing and foreign flags, `--flag=value`, help
    flags and `--`."""
    plain = draw(st.booleans())
    names = list(cli._COMMANDS) + ([] if plain else ["no-such", "-h", "--he"])
    name = draw(st.sampled_from(names))
    own = dict(cli._arguments(name)) if name in cli._COMMANDS else {}
    files = ["a.posmt", "b", ""] + ([] if plain else ["-", "-x"])
    many = 2 if "files" in own or not plain else 0  # verify takes none
    argv = [name] + draw(st.lists(st.sampled_from(files), min_size=min(many, int(plain)), max_size=many))
    flags = [f for f, k in own.items() if k.get("required")] if plain or draw(st.booleans()) else []
    flags += draw(st.lists(st.sampled_from(sorted(set(own) - {"files"}) or ["--json"]), max_size=4))
    forms = ["plain"] * 4 + ["bad"] + ([] if plain else ["foreign", "equals", "help", "dashes", "file", "none"])
    for flag in draw(st.permutations(flags)):
        keywords, form = own.get(flag, {}), draw(st.sampled_from(forms))
        if form == "foreign":
            flag = draw(st.sampled_from(_EVERY_FLAG + ["--no-such", "-n", "--node"]))
        elif form == "equals":
            argv.append(f"{flag}={draw(_values(keywords, False))}")
            continue
        elif form in ("help", "dashes", "file"):
            argv.append({"help": draw(st.sampled_from(["-h", "--help"])), "dashes": "--", "file": "late.posmt"}[form])
        argv.append(flag)
        if keywords.get("action") != "store_true" and form != "none":
            argv.append(draw(_values(keywords, form == "bad")))
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["homs", "a", "--from", "x", "--to", "y", "--kind", "q"])
@example(["verify", "--theorem", "q"])
@example(["verify", "--theorem", "inheritance", "--seed", "1.5"])
@example(["basis", "a", "--structure", "s", "--kinds", "hhx"])
@example(["models", "a", "--theory", "-h"])
@example(["jc", "a", "--theory", "T", "--json", "--theory", "U", "--json"])
def test_the_table_parser_builds_what_argparse_builds(argv):
    # wherever the table parser reads a line, argparse reads it to the same
    # namespace; where argparse would print help or a usage error, the
    # table parser leaves the line to it
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse_vars(argv)


def _quick_start_lines():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line.split("#")[0])[1:] for line in readme.splitlines() if line.startswith("posmt ")]


def _benchmark_lines():
    spec = importlib.util.spec_from_file_location("posmtbench", REPO / "perfbench" / "posmtbench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    setup = [["check", *(str(bench.DATA / f) for f in w["files"])] for w in bench.WORKLOADS.values()]
    return setup + [bench.question_argv(q, seed) for w in bench.WORKLOADS.values()
                    for q in w["questions"] for seed in (0, 20)]


def test_benchmark_and_quick_start_lines_take_the_table_path():
    quick, bench = _quick_start_lines(), _benchmark_lines()
    assert len(quick) >= 12 and len(bench) == 3 + 2 * 19  # set-up checks, 19 questions at two seeds
    for argv in quick + [argv + ["--json"] for argv in quick if argv[0] != "check"] + bench:
        plain = cli._parse_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_vars(argv)


def test_a_plain_run_loads_neither_argparse_nor_gettext():
    # argparse and the gettext it imports cost every posmt process about
    # 5 ms; a plain command line never loads them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    data = str(REPO / "data" / "posets.posmt")
    script = (
        "import sys\n"
        "from posmt.cli import main\n"
        f"codes = [main(['check', {data!r}]), main(['models', {data!r}, '--theory', 'T_pos', '--n', '2']),\n"
        "         main(['verify', '--theorem', 'ii-hh-strong', '--instances', '2', '--N', '4', '--json'])]\n"
        "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)\n"
    )
    # -S: no site hooks, which may import either before posmt runs
    err = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stderr
    assert err.strip() == "[0, 0, 0] []"


def test_hull_k3_json_is_the_recorded_output(capsys):
    # the bytes `hull --k 3 --json` printed when each hull sentence was
    # built as a formula tree and printed by walking it
    code, out = run(capsys, "hull", str(REPO / "data" / "posets.posmt"), "--theory", "T_pos", "--k", "3", "--json")
    assert code == 0 and len(json.loads(out)["hull"]) == 8360
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2843d28563b3419a584dfd4846d2bd009308077c05c5f75e4952537b93b9317c")


@pytest.mark.parametrize("path, theory, digest", [
    ("posets.posmt", "T_pos", "e68af4cc61b34bfb3b8731a61261991161f4c95c5f2dee88f56be7e75a603c51"),
    ("unary.posmt", "T_fix", "3b4a8af62b49350a3d93b8aac23d77966af284440f609d53ba1ec8bbd9c89bf9"),
])
def test_models_n6_json_is_the_recorded_output(capsys, path, theory, digest):
    # the bytes `models --n 6 --json` printed when each class's representative
    # was read off the codes with relation cell 0 the least significant bit
    code, out = run(capsys, "models", str(REPO / "data" / path), "--theory", theory, "--n", "6", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
