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
    posmt amalgamate FILE... --problem P
    posmt basis FILE... --structure A --kinds iihh [--theory T] [--strong]
    posmt verify --theorem ii-hh-strong [--seed S] [--instances K]
    posmt report FILE... --theory T

Exit codes: 0 yes/success, 1 no/counterexample, 2 parse error,
3 semantic error, 4 unknown/budget-exhausted.  Budgets default to
(n=3, N=6, k=3, node cap 10^6); `POSMT_NODE_CAP` overrides the cap default.
All work runs in a single process; `--jobs` is accepted for interface
stability and does not affect output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .amalgamation import (
    AmalgamationProblem, AmalgamationSolution, THEOREM_IDS, check_basis,
    parse_kinds, solve_amalgamation, verify_theorem,
)
from .errors import BudgetExceeded, ParseError, PosmtError
from .formulas import pp_formula
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

_STATUS_CODE = {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}


def _default_node_cap() -> int:
    raw = os.environ.get("POSMT_NODE_CAP")
    if raw is None:
        return Budget().node_cap
    try:
        cap = int(raw)
    except ValueError as exc:
        raise PosmtError(f"POSMT_NODE_CAP must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise PosmtError("POSMT_NODE_CAP must be positive")
    return cap


def _add_common(p: argparse.ArgumentParser, files: bool = True) -> None:
    if files:
        p.add_argument("files", nargs="+", help="workspace files to load")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--jobs", type=int, default=1, help="worker count (output-invariant)")
    p.add_argument("--n", type=int, default=None, help="model-size bound")
    p.add_argument("--N", type=int, default=None, help="continuation-size bound")
    p.add_argument("--k", type=int, default=None, help="cq-size bound")
    p.add_argument("--node-cap", type=int, default=None, help="search node cap")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument("--strict-strong", action="store_true",
                   help="require a common base preimage at strong collisions")


def _budget(args: argparse.Namespace, *sizes: str) -> Budget:
    """The budget the flags ask for.  `sizes` names the fields the command
    uses as sizes of enumerated universes; they are checked against the
    element-name pool before any search starts."""
    b = Budget(node_cap=_default_node_cap())
    updates = {}
    for flag, attr in (("n", "n"), ("N", "N"), ("k", "k"), ("node_cap", "node_cap")):
        value = getattr(args, flag, None)
        if value is not None:
            if value <= 0:
                raise PosmtError(f"budget field {flag} must be positive")
            updates[attr] = value
    from dataclasses import replace
    b = replace(b, **updates) if updates else b
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
    kinds = (
        ("signature", ws.signatures), ("structure", ws.structures),
        ("morphism", ws.morphisms), ("theory", ws.theories),
        ("amalgamation", ws.problems),
    )
    for label, table in kinds:
        for name in table:
            print(f"OK {label} {name}")
    for raw in ws.problems.values():
        # cross-references only resolve at use time; validate them here
        base = ws.structure(raw.base)
        f = ws.morphism(raw.left)
        g = ws.morphism(raw.right)
        if f.source.key() != base.key() or g.source.key() != base.key():
            raise PosmtError(f"problem {raw.name!r}: wings do not start at the base")
        parse_kinds(raw.kinds)
        if raw.theory is not None:
            ws.theory(raw.theory)
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
    homs = enumerate_homs(src, tgt, kind=kind, k=b.k, node_cap=b.node_cap)
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
    b = _budget(args)
    m = ws.morphism(args.morphism)
    kind = classify_morphism(m, b.k)
    names = {
        MorphismKind.HOM: "homomorphism",
        MorphismKind.EMBEDDING: "embedding",
        MorphismKind.IMMERSION: "immersion",
        MorphismKind.STRONG_IMMERSION: "strong immersion (at bound)",
    }
    if args.json:
        print(report_to_json({"command": "classify", "morphism": args.morphism,
                              "kind": kind.letter, "budget": b.as_dict()}))
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
            "hull": [pp_formula(s) for s in hull.sentences],
            "tu": [pp_formula(s) for s in tu.sentences],
        }))
    else:
        print(f"bounded Kaiser hull of {args.theory}: {len(hull.sentences)} sentence(s)")
        for s in hull.sentences:
            print(f"  {pp_formula(s)}")
        print(f"bounded Tu(T): {len(tu.sentences)} sentence(s)")
        for s in tu.sentences:
            print(f"  {pp_formula(s)}")
    return EXIT_YES


def _problem_from_workspace(ws: Workspace, name: str, args: argparse.Namespace,
                            b: Budget) -> AmalgamationProblem:
    if name not in ws.problems:
        raise PosmtError(f"unknown amalgamation problem {name!r}")
    raw = ws.problems[name]
    from dataclasses import replace
    overrides = {key: val for key, val in raw.budget_overrides.items()
                 if key in ("n", "N", "k", "node_cap")}
    return AmalgamationProblem(
        f=ws.morphism(raw.left),
        g=ws.morphism(raw.right),
        kinds=parse_kinds(raw.kinds),
        theory=ws.theory(raw.theory) if raw.theory else None,
        strong=raw.strong,
        strict_strong=raw.strict_strong or args.strict_strong,
        budget=replace(b, **overrides) if overrides else b,
    )


def cmd_amalgamate(args: argparse.Namespace) -> int:
    ws = _workspace(args)
    b = _budget(args)
    p = _problem_from_workspace(ws, args.problem, args, b)
    result = solve_amalgamation(p)
    if isinstance(result, AmalgamationSolution):
        if args.json:
            print(report_to_json({
                "command": "amalgamate", "problem": args.problem, "verdict": "yes",
                "budget": p.budget.as_dict(),
                "certificate": {
                    "apex": result.apex, "out_b": dict(result.out_b.map),
                    "out_c": dict(result.out_c.map),
                    "kinds": [k.letter for k in result.kinds],
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="posmt", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate workspace files")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("models", help="models of a theory up to size n")
    _add_common(p)
    p.add_argument("--theory", required=True)
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("homs", help="enumerate morphisms between two structures")
    _add_common(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="tgt", required=True)
    p.add_argument("--kind", default="h", choices=["h", "e", "i", "s"])
    p.set_defaults(fn=cmd_homs)

    p = sub.add_parser("classify", help="classify a morphism in the kind chain")
    _add_common(p)
    p.add_argument("--morphism", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("pc", help="is the structure bounded-pc for the theory?")
    _add_common(p)
    p.add_argument("--structure", required=True)
    p.add_argument("--theory", required=True)
    p.set_defaults(fn=cmd_pc)

    p = sub.add_parser("jc", help="bounded joint consistency")
    _add_common(p)
    p.add_argument("--theory", action="append", required=True,
                   help="repeat to test joint consistency of several theories")
    p.set_defaults(fn=cmd_jc)

    p = sub.add_parser("tcomplete", help="bounded T-completeness of a theory pair")
    _add_common(p)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--theory", required=True)
    p.set_defaults(fn=cmd_tcomplete)

    p = sub.add_parser("companion", help="bounded companionship of two theories")
    _add_common(p)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.set_defaults(fn=cmd_companion)

    p = sub.add_parser("hull", help="bounded Kaiser hull of a theory")
    _add_common(p)
    p.add_argument("--theory", required=True)
    p.set_defaults(fn=cmd_hull)

    p = sub.add_parser("amalgamate", help="solve a declared amalgamation problem")
    _add_common(p)
    p.add_argument("--problem", required=True)
    p.set_defaults(fn=cmd_amalgamate)

    p = sub.add_parser("basis", help="is the structure a basis for the given kinds?")
    _add_common(p)
    p.add_argument("--structure", required=True)
    p.add_argument("--kinds", required=True, help="4 letters from {h,e,i,s}, e.g. iihh")
    p.add_argument("--theory", default=None)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("verify", help="run the theorem-verification harness")
    _add_common(p, files=False)
    p.add_argument("--theorem", required=True, choices=list(THEOREM_IDS))
    p.add_argument("--instances", type=int, default=50)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="JC characterization report for a theory")
    _add_common(p)
    p.add_argument("--theory", required=True)
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        if args.json:
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


if __name__ == "__main__":
    raise SystemExit(main())
