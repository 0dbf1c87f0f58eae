"""Command-line front end.

    posmt check FILE...
    posmt models FILE... --theory T
    posmt homs FILE... --from A --to B [--kind h|e|i|s]
    posmt classify FILE... --morphism m
    posmt pc FILE... --structure A --theory T
    posmt jc FILE... --theory T [--theory T2 ...]
    posmt tcomplete FILE... --t1 T1 --t2 T2 --theory T
    posmt companion FILE... --t1 T1 --t2 T2
    posmt hull FILE... --theory T
    posmt amalgamate FILE... --problem P [--strict-strong]
    posmt basis FILE... --structure A --kinds iihh [--theory T] [--strong] [--strict-strong]
    posmt verify --theorem ii-hh-strong [--seed S] [--instances K]
    posmt report FILE... --theory T

Exit codes: 0 yes/success, 1 no/counterexample, 2 parse error,
3 semantic error, 4 unknown/budget-exhausted, 5 internal error (with its
traceback on stderr, so that no crash reads as "no"); a reader that closes stdout
early ends the process by SIGPIPE, as it ends other Unix filters.
Budgets default to (n=3, N=6, k=3, node cap 10^6).  A subcommand takes
only the flags it reads (its row of `_COMMANDS`): any other flag is a
usage error (exit 2), so no answer is printed beside a bound it ignored.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Dict, List, Optional

from .amalgamation import (
    AmalgamationProblem, AmalgamationSolution, THEOREM_IDS, check_basis,
    parse_kinds, solve_amalgamation, verify_theorem,
)
from .errors import BudgetExceeded, ParseError, PosmtError, StructureError
from .morphisms import MorphismKind, classify_morphism, enumerate_homs
from .structures import FiniteStructure, element_names
from .theories import (
    Budget, Verdict, companion_check_bounded, is_jc_bounded, is_pc_within,
    is_T_complete_pair, joint_consistency_bounded, jc_characterization_report,
    kaiser_hull_bounded, models, unknown,
)
from .textio import Workspace, load_workspace, report_to_json, verdict_to_json

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_UNKNOWN = 4
EXIT_INTERNAL = 5

_STATUS_CODE = {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}


# each `Budget` field's help line; its flag is `--` and the name, `_` as `-`
_BOUND_HELP = {"n": "model-size bound", "N": "continuation-size bound",
               "k": "cq-size bound", "node_cap": "search node cap"}


def _bounds(args: argparse.Namespace) -> Dict[str, int]:
    """The budget fields the command line sets, each checked positive."""
    bounds = {f: getattr(args, f) for f in _BOUND_HELP if getattr(args, f, None) is not None}
    for field, value in bounds.items():
        if value <= 0:
            raise PosmtError(f"budget field {field} must be positive")
    return bounds


def _budget(args: argparse.Namespace, *sizes: str) -> Budget:
    """The budget the flags ask for, the defaults where none is taken.
    `sizes` names the fields the command uses as sizes of enumerated
    universes, checked against the element-name pool before any search."""
    b = Budget(**_bounds(args))
    for attr in sizes:
        element_names(getattr(b, attr))
    return b


def _workspace(args: argparse.Namespace) -> Workspace:
    texts = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            texts.append(fh.read())
    return load_workspace(texts)


def _emit_verdict(v: Verdict, args: argparse.Namespace) -> int:
    if args.json:
        print(report_to_json(verdict_to_json(v)))
    else:
        print(v.status)
        for note in v.notes:
            print(f"  note: {note}")
    return _STATUS_CODE[v.status]


def _print_structure(s: FiniteStructure, indent: str = "  ") -> None:
    print(f"{indent}universe: {', '.join(s.universe)}")
    for name, _ in s.signature.relations:
        tuples = ", ".join("(" + ",".join(t) + ")" for t in sorted(s.rel(name)))
        print(f"{indent}{name}: {tuples}")
    for name, _ in s.signature.functions:
        cells = ", ".join(
            f"{','.join(a)}->{v}" for a, v in sorted(s.functions[name].items())
        )
        print(f"{indent}{name}: {cells}")
    for c in s.signature.constants:
        print(f"{indent}{c} = {s.constants[c]}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    for name in ws.problems:
        _problem_from_workspace(ws, name, {}, False).validate_in_kinds()
    kinds = (
        ("signature", ws.signatures), ("structure", ws.structures),
        ("morphism", ws.morphisms), ("theory", ws.theories),
        ("amalgamation", ws.problems),
    )
    for label, table in kinds:
        for name in table:
            print(f"OK {label} {name}")
    return EXIT_YES


def cmd_models(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n")
    t = ws.theory(args.theory)
    ms = models(t, b)
    if args.json:
        print(report_to_json({"command": "models", "theory": t.name,
                              "budget": b.as_dict(), "count": len(ms), "models": ms}))
    else:
        print(f"{len(ms)} model(s) of {t.name} up to size {b.n} (up to iso)")
        for i, m in enumerate(ms):
            print(f"model {i}:")
            _print_structure(m)
    return EXIT_YES if ms else EXIT_NO


def cmd_homs(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args)
    src = ws.structure(args.src)
    tgt = ws.structure(args.tgt)
    kind = MorphismKind.from_letter(args.kind)
    homs = enumerate_homs(src, tgt, kind=kind, node_cap=b.node_cap)
    if args.json:
        print(report_to_json({"command": "homs", "from": args.src, "to": args.tgt,
                              "kind": kind.letter, "count": len(homs),
                              "maps": [dict(h.map) for h in homs]}))
    else:
        print(f"{len(homs)} morphism(s) of kind >= {kind.letter} from {args.src} to {args.tgt}")
        for h in homs:
            cells = ", ".join(f"{e}->{h(e)}" for e in src.universe)
            print(f"  {cells}")
    return EXIT_YES if homs else EXIT_NO


def cmd_classify(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    m = ws.morphism(args.morphism)
    kind = classify_morphism(m)
    names = {
        MorphismKind.HOM: "homomorphism",
        MorphismKind.EMBEDDING: "embedding",
        MorphismKind.IMMERSION: "immersion",
        MorphismKind.STRONG_IMMERSION: "strong immersion",
    }
    if args.json:
        budget = {key: v for key, v in Budget().as_dict().items() if key != "k"}
        print(report_to_json({"command": "classify", "morphism": args.morphism,
                              "kind": kind.letter, "budget": budget}))
    else:
        print(f"{args.morphism}: {names[kind]}")
    return EXIT_YES


def cmd_pc(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n")
    v = is_pc_within(ws.structure(args.structure), ws.theory(args.theory), b)
    return _emit_verdict(v, args)


def cmd_jc(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n", "N")
    theories = [ws.theory(name) for name in args.theory]
    if len(theories) == 1:
        v = is_jc_bounded(theories[0], b)
    elif args.n is not None:
        raise PosmtError("jc of several theories searches one joint model up to size N; it reads no --n")
    else:
        v = joint_consistency_bounded(theories, b)
    return _emit_verdict(v, args)


def cmd_tcomplete(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n", "N")
    v = is_T_complete_pair(ws.theory(args.t1), ws.theory(args.t2), ws.theory(args.theory), b)
    return _emit_verdict(v, args)


def cmd_companion(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n")
    v = companion_check_bounded(ws.theory(args.t1), ws.theory(args.t2), b)
    return _emit_verdict(v, args)


def cmd_hull(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n")
    hull, tu = kaiser_hull_bounded(ws.theory(args.theory), b)
    if args.json:
        print(report_to_json({
            "command": "hull", "theory": args.theory, "budget": b.as_dict(),
            "hull": hull, "tu": tu,
        }))
    else:
        for title, sentences in ((f"bounded Kaiser hull of {args.theory}", hull), ("bounded Tu(T)", tu)):
            print(f"{title}: {len(sentences)} sentence(s)", *(f"  {s}" for s in sentences), sep="\n")
    return EXIT_YES


def _problem_from_workspace(ws: Workspace, name: str, bounds: Dict[str, int],
                            strict_strong: bool) -> AmalgamationProblem:
    """The problem `name` of the workspace, its wings checked against its
    base, at the bounds of its budget block and of `bounds`, the command
    line's.  A bound set in both is an error: one of them would be dropped."""
    if name not in ws.problems:
        raise PosmtError(f"unknown amalgamation problem {name!r}")
    raw = ws.problems[name]
    twice = sorted(bounds.keys() & raw.budget_overrides.keys())
    if twice:
        raise PosmtError(f"problem {name!r} sets {twice[0]} both in its budget block and on the command line")
    base = ws.structure(raw.base)
    f, g = ws.morphism(raw.left), ws.morphism(raw.right)
    if f.source.key() != base.key() or g.source.key() != base.key():
        raise StructureError(f"problem {name!r}: wings do not start at the base")
    return AmalgamationProblem(
        f=f,
        g=g,
        kinds=parse_kinds(raw.kinds),
        theory=ws.theory(raw.theory) if raw.theory else None,
        strong=raw.strong,
        strict_strong=raw.strict_strong or strict_strong,
        budget=Budget(**bounds, **raw.budget_overrides),
    )


def cmd_amalgamate(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    p = _problem_from_workspace(ws, args.problem, _bounds(args), args.strict_strong)
    result = solve_amalgamation(p)
    if isinstance(result, AmalgamationSolution):
        if args.json:
            print(report_to_json({
                "command": "amalgamate", "problem": args.problem, "verdict": "yes",
                "budget": p.budget.as_dict(),
                "certificate": {
                    "apex": result.apex, "out_b": dict(result.out_b.map),
                    "out_c": dict(result.out_c.map),
                    # the exact kinds; the solver decides them only up to the required ones
                    "kinds": [classify_morphism(m).letter for m in (result.out_b, result.out_c)],
                    "strong_ok": result.strong_ok,
                },
            }))
        else:
            print("yes")
            print("apex:")
            _print_structure(result.apex)
            print(f"out_b: {dict(result.out_b.map)}")
            print(f"out_c: {dict(result.out_c.map)}")
        return EXIT_YES
    return _emit_verdict(result, args)


def cmd_basis(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n")
    theory = ws.theory(args.theory) if args.theory else None
    report = check_basis(ws.structure(args.structure), args.kinds, theory, b,
                         strong=args.strong, strict_strong=args.strict_strong)
    if args.json:
        print(report_to_json({
            "command": "basis", "structure": args.structure,
            "kinds": [k.letter for k in report.kinds], "class": report.class_name,
            "verdict": verdict_to_json(report.verdict),
            "instances": list(report.instances),
        }))
    else:
        print(report.verdict.status)
        print(f"  class: {report.class_name}, wing instances: {len(report.instances)}")
    return _STATUS_CODE[report.verdict.status]


def cmd_verify(args: argparse.Namespace) -> int:
    b = _budget(args, "n")
    report = verify_theorem(args.theorem, args.seed, b, args.instances)
    ok = report["rate"] == 1.0 and not report["red_flags"]
    if args.json:
        print(report_to_json({"command": "verify", **report,
                              "verdict": "yes" if ok else "unknown"}))
    else:
        print(f"theorem {args.theorem}: witnessed {report['witnessed']}/{report['instances']}"
              f" (rate {report['rate']:.2f}), red flags: {len(report['red_flags'])}")
    return EXIT_YES if ok else EXIT_UNKNOWN


def cmd_report(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args, "n", "N")
    rep = jc_characterization_report(ws.theory(args.theory), b)
    if args.json:
        print(report_to_json({"command": "report", "theory": args.theory, **rep}))
    else:
        print(f"is_jc: {rep['is_jc']}")
        for name, value in rep["conditions"].items():
            agree = "agrees" if rep["agreement"][name] else "DISAGREES"
            print(f"  {name}: {value} ({agree})")
    return _STATUS_CODE[rep["is_jc"]]


# ---------------------------------------------------------------------------


_REQUIRED = {"required": True}
_STRICT_STRONG = ("--strict-strong", {"action": "store_true",
                                      "help": "require a common base preimage at strong collisions"})

# Each subcommand: its help line, the `Budget` fields it reads (a flag
# each; it takes no other bound, so that elsewhere a bound is a usage
# error, not ignored) and its other arguments, in order.  Subcommand x runs
# `cmd_x`, looked up when the parser is built.
_COMMANDS = {
    "check": ("parse and validate workspace files", (), ()),
    "models": ("models of a theory up to size n", ("n", "node_cap"), (("--theory", _REQUIRED),)),
    "homs": ("enumerate morphisms between two structures", ("node_cap",), (
        ("--from", {"dest": "src", "required": True}),
        ("--to", {"dest": "tgt", "required": True}),
        ("--kind", {"default": "h", "choices": ["h", "e", "i", "s"]}),
    )),
    "classify": ("classify a morphism in the kind chain", (), (("--morphism", _REQUIRED),)),
    "pc": ("is the structure bounded-pc for the theory?", ("n", "node_cap"),
           (("--structure", _REQUIRED), ("--theory", _REQUIRED))),
    "jc": ("bounded joint consistency", ("n", "N", "node_cap"), (
        ("--theory", {"action": "append", "required": True,
                      "help": "repeat to test joint consistency of several theories"}),
    )),
    "tcomplete": ("bounded T-completeness of a theory pair", ("n", "N", "node_cap"),
                  (("--t1", _REQUIRED), ("--t2", _REQUIRED), ("--theory", _REQUIRED))),
    "companion": ("bounded companionship of two theories", ("n", "node_cap"),
                  (("--t1", _REQUIRED), ("--t2", _REQUIRED))),
    "hull": ("bounded Kaiser hull of a theory", ("n", "k", "node_cap"), (("--theory", _REQUIRED),)),
    "amalgamate": ("solve a declared amalgamation problem", ("N", "node_cap"),
                   (_STRICT_STRONG, ("--problem", _REQUIRED))),
    "basis": ("is the structure a basis for the given kinds?", ("n", "N", "node_cap"), (
        ("--structure", _REQUIRED),
        ("--kinds", {"required": True, "type": parse_kinds,
                     "help": "4 letters from {h,e,i,s}, e.g. iihh"}),
        ("--theory", {"default": None}),
        ("--strong", {"action": "store_true"}),
        _STRICT_STRONG,
    )),
    "verify": ("run the theorem-verification harness", ("n", "N", "node_cap"), (
        ("--theorem", {"required": True, "choices": list(THEOREM_IDS)}),
        ("--instances", {"type": int, "default": 50}),
        ("--seed", {"type": int, "default": 0, "help": "rng seed"}),
    )),
    "report": ("JC characterization report for a theory", ("n", "N", "k", "node_cap"),
               (("--theory", _REQUIRED),)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, when `command` names one, of
    that one alone: it parses that subcommand's command lines as the full
    parser does."""
    ap = argparse.ArgumentParser(prog="posmt", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        summary, bounds, arguments = _COMMANDS[name]
        # no abbreviations, so that a flag a subcommand does not take cannot
        # pass for one it does (`--n` for `--node-cap`, `--k` for `--kind`)
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if name != "verify":
            p.add_argument("files", nargs="+", help="workspace files to load")
        if name != "check":  # it prints one OK line per declaration
            p.add_argument("--json", action="store_true", help="machine-readable output")
        for field in bounds:
            p.add_argument("--" + field.replace("_", "-"), type=int, default=None, help=_BOUND_HELP[field])
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(fn=globals()[f"cmd_{name}"])
    return ap


def _die_by_sigpipe() -> None:
    """End quietly, as a Unix filter whose reader closed the pipe does
    (`posmt models ... | head -1`): killed by SIGPIPE, with stdout on
    /dev/null so that nothing is flushed into the closed pipe."""
    import signal  # here, as its enums cost every start-up a millisecond
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGPIPE)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is not None:
        return _run(argv)
    try:
        return _run(sys.argv[1:])
    finally:
        # The process ends here, and the interpreter's finalisation would
        # run full collections over every object the imports and the run
        # left (about 12 ms); frozen, the collector skips them.  A caller
        # that passes argv keeps its collector as it was, so that a test
        # session does not pin its garbage for every later test.
        gc.freeze()


def _run(argv: List[str]) -> int:
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        _die_by_sigpipe()
        raise  # only where there is no SIGPIPE
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        if getattr(args, "json", False):  # `check` takes no --json
            _emit_verdict(unknown(_budget(args), notes=(str(exc),)), args)
        return EXIT_UNKNOWN
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PosmtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception:
        import traceback  # here, as only a crash needs it

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
