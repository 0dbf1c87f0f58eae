"""Text file formats and JSON report serialization.

Block formats (whitespace-insensitive, `#` line comments):

    signature S { relations: leq/2; functions: f/1; constants: e; }
    structure A over S { universe: a, b; leq: (a,a),(a,b); f: a->b, b->a; e = a; }
    morphism m from A to B { map: a -> x, b -> y; }
    theory T over S { hinductive: forall x. true -> leq(x,x); positive: ...; }
    amalgamation P { base: A; left: m1; right: m2; kinds: [i,i,h,h];
                     class: theory T; strong: true; budget: { N: 6; }; }

Verdicts and reports serialize to JSON as
    {"schema": "posmt-report/1", "verdict": ..., "budget": {...},
     "certificate": {...}, "notes": [...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ParseError, StructureError
from .formulas import pp_formula
from .morphisms import Morphism, MorphismKind
from .parser import Parser
from .structures import FiniteStructure, Signature
from .theories import Budget, Theory, Verdict

SCHEMA = "posmt-report/1"


@dataclass
class RawProblem:
    name: str
    base: str
    left: str
    right: str
    kinds: str
    theory: Optional[str]
    strong: bool
    strict_strong: bool
    budget_overrides: Dict[str, int]


@dataclass
class Workspace:
    signatures: Dict[str, Signature] = field(default_factory=dict)
    structures: Dict[str, FiniteStructure] = field(default_factory=dict)
    structure_signame: Dict[str, str] = field(default_factory=dict)
    morphisms: Dict[str, Morphism] = field(default_factory=dict)
    theories: Dict[str, Theory] = field(default_factory=dict)
    problems: Dict[str, RawProblem] = field(default_factory=dict)

    def signature(self, name: str) -> Signature:
        if name not in self.signatures:
            raise StructureError(f"unknown signature {name!r}")
        return self.signatures[name]

    def structure(self, name: str) -> FiniteStructure:
        if name not in self.structures:
            raise StructureError(f"unknown structure {name!r}")
        return self.structures[name]

    def morphism(self, name: str) -> Morphism:
        if name not in self.morphisms:
            raise StructureError(f"unknown morphism {name!r}")
        return self.morphisms[name]

    def theory(self, name: str) -> Theory:
        if name not in self.theories:
            raise StructureError(f"unknown theory {name!r}")
        return self.theories[name]

    def only_signature(self) -> Signature:
        if len(self.signatures) != 1:
            raise StructureError("an explicit signature name is required")
        return next(iter(self.signatures.values()))


def _name_arity(p: Parser) -> Tuple[str, int]:
    name = p.expect_name()
    p.expect("/")
    return name, p.expect_number()


def _parse_signature(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("{")
    relations: Dict[str, int] = {}
    functions: Dict[str, int] = {}
    constants: List[str] = []
    while not p.at("}"):
        key = p.expect_name()
        p.expect(":")
        if key == "relations":
            relations.update(p.sep_by(lambda: _name_arity(p), ","))
        elif key == "functions":
            functions.update(p.sep_by(lambda: _name_arity(p), ","))
        elif key == "constants":
            constants.extend(p.sep_by(p.expect_name, ","))
        else:
            raise p.error(f"unknown signature field {key!r}")
        p.expect(";")
    p.expect("}")
    if name in ws.signatures:
        raise StructureError(f"duplicate signature name {name!r}")
    ws.signatures[name] = Signature.make(
        relations=relations, functions=functions, constants=constants
    )


def _parse_tuple(p: Parser) -> Tuple[str, ...]:
    p.expect("(")
    items = p.sep_by(p.expect_name, ",")
    p.expect(")")
    return tuple(items)


def _function_cell(p: Parser, name: str, arity: int) -> Tuple[Tuple[str, ...], str]:
    args = _parse_tuple(p) if p.at("(") else (p.expect_name(),)
    if len(args) != arity:
        raise p.error(f"arity mismatch for function {name!r}")
    p.expect("->")
    return args, p.expect_name()


def _parse_structure(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("over")
    signame = p.expect_name()
    sig = ws.signature(signame)
    p.expect("{")
    universe: Tuple[str, ...] = ()
    relations = {rn: set() for rn, _ in sig.relations}
    functions: Dict[str, Dict[Tuple[str, ...], str]] = {fn: {} for fn, _ in sig.functions}
    constants: Dict[str, str] = {}
    func_arity = sig.function_arities
    while not p.at("}"):
        key = p.expect_name()
        if key == "universe":
            p.expect(":")
            universe = tuple(p.sep_by(p.expect_name, ","))
        elif key in relations:
            p.expect(":")
            if not p.at(";"):
                relations[key].update(p.sep_by(lambda: _parse_tuple(p), ","))
        elif key in functions:
            p.expect(":")
            functions[key].update(p.sep_by(lambda: _function_cell(p, key, func_arity[key]), ","))
        elif key in sig.constants:
            p.expect("=")
            constants[key] = p.expect_name()
        else:
            raise p.error(f"{key!r} is not a symbol of signature {signame!r}")
        p.expect(";")
    p.expect("}")
    if name in ws.structures:
        raise StructureError(f"duplicate structure name {name!r}")
    ws.structures[name] = FiniteStructure(
        sig, universe, {k: frozenset(v) for k, v in relations.items()}, functions, constants
    )
    ws.structure_signame[name] = signame


def _map_pair(p: Parser) -> Tuple[str, str]:
    e = p.expect_name()
    p.expect("->")
    return e, p.expect_name()


def _parse_morphism(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("from")
    src = p.expect_name()
    p.expect("to")
    tgt = p.expect_name()
    p.expect("{")
    mapping: Dict[str, str] = {}
    while not p.at("}"):
        key = p.expect_name()
        if key != "map":
            raise p.error(f"unknown morphism field {key!r}")
        p.expect(":")
        mapping.update(p.sep_by(lambda: _map_pair(p), ","))
        p.expect(";")
    p.expect("}")
    source = ws.structure(src)
    target = ws.structure(tgt)
    missing = [e for e in source.universe if e not in mapping]
    if missing:
        raise StructureError(f"morphism {name!r} misses elements {missing}")
    bad = [v for v in mapping.values() if v not in target.universe]
    if bad:
        raise StructureError(f"morphism {name!r} maps outside the target: {bad}")
    if name in ws.morphisms:
        raise StructureError(f"duplicate morphism name {name!r}")
    ws.morphisms[name] = Morphism(source, target, mapping)


def _parse_theory(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    if p.at("over"):
        p.next()
        sig = ws.signature(p.expect_name())
    else:
        sig = ws.only_signature()
    p.expect("{")
    p.signature = sig
    sentences = p.parse_sentences()
    p.expect("}")
    if name in ws.theories:
        raise StructureError(f"duplicate theory name {name!r}")
    ws.theories[name] = Theory.make(sig, sentences, name)


def _parse_amalgamation(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("{")
    fields: Dict[str, object] = {
        "base": None, "left": None, "right": None, "kinds": None,
        "theory": None, "strong": False, "strict_strong": False, "budget": {},
    }
    while not p.at("}"):
        key = p.expect_name()
        p.expect(":")
        if key in ("base", "left", "right"):
            fields[key] = p.expect_name()
        elif key == "kinds":
            p.expect("[")
            fields["kinds"] = "".join(p.sep_by(p.expect_name, ","))
            p.expect("]")
        elif key == "class":
            what = p.expect_name()
            if what == "theory":
                fields["theory"] = p.expect_name()
            elif what != "all":
                raise p.error("class must be `theory <name>` or `all`")
        elif key in ("strong", "strict"):
            value = p.expect_name()
            if value not in ("true", "false"):
                raise p.error("expected true or false")
            fields["strict_strong" if key == "strict" else "strong"] = value == "true"
        elif key == "budget":
            p.expect("{")
            budget: Dict[str, int] = {}
            while not p.at("}"):
                bkey = p.expect_name()
                p.expect(":")
                budget[bkey] = p.expect_number()
                p.expect(";")
            p.expect("}")
            fields["budget"] = budget
        else:
            raise p.error(f"unknown amalgamation field {key!r}")
        p.expect(";")
    for required in ("base", "left", "right", "kinds"):
        if fields[required] is None:
            raise p.error(f"amalgamation block misses {required!r}")
    p.expect("}")
    if name in ws.problems:
        raise StructureError(f"duplicate problem name {name!r}")
    ws.problems[name] = RawProblem(
        name, fields["base"], fields["left"], fields["right"], fields["kinds"],
        fields["theory"], fields["strong"], fields["strict_strong"], fields["budget"],
    )


BLOCK_PARSERS = {
    "signature": _parse_signature,
    "structure": _parse_structure,
    "morphism": _parse_morphism,
    "theory": _parse_theory,
    "amalgamation": _parse_amalgamation,
}


def load_workspace(texts: List[str], workspace: Optional[Workspace] = None) -> Workspace:
    """Read every block of every text, each text from one token stream."""
    ws = workspace or Workspace()
    for text in texts:
        p = Parser(text)
        while not p.at_eof():
            t = p.peek()
            kw = p.expect_name()
            if kw not in BLOCK_PARSERS:
                raise ParseError(f"unknown block kind {kw!r}", t.line, t.col)
            BLOCK_PARSERS[kw](p, ws)
    return ws


# ---------------------------------------------------------------------------
# JSON serialization


def structure_to_json(s: FiniteStructure) -> Dict:
    return {
        "universe": list(s.universe),
        "relations": {name: sorted(map(list, table)) for name, table in s.relations.items()},
        "functions": {
            name: [[list(args), val] for args, val in sorted(entries.items())]
            for name, entries in s.functions.items()
        },
        "constants": dict(s.constants),
        "signature": signature_to_json(s.signature),
    }


def signature_to_json(sig: Signature) -> Dict:
    return {
        "relations": {name: arity for name, arity in sig.relations},
        "functions": {name: arity for name, arity in sig.functions},
        "constants": list(sig.constants),
    }


def signature_from_json(data: Dict) -> Signature:
    return Signature.make(
        relations=data.get("relations", {}),
        functions=data.get("functions", {}),
        constants=data.get("constants", []),
    )


def structure_from_json(data: Dict) -> FiniteStructure:
    sig = signature_from_json(data["signature"])
    return FiniteStructure(
        sig,
        tuple(data["universe"]),
        {name: frozenset(map(tuple, table)) for name, table in data["relations"].items()},
        {
            name: {tuple(args): val for args, val in entries}
            for name, entries in data["functions"].items()
        },
        dict(data["constants"]),
    )


def jsonable(value):
    if isinstance(value, FiniteStructure):
        return {"structure": structure_to_json(value)}
    if isinstance(value, Morphism):
        return {"map": dict(value.map)}
    if isinstance(value, MorphismKind):
        return value.letter
    if isinstance(value, Verdict):
        return verdict_to_json(value)
    if isinstance(value, Budget):
        return value.as_dict()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if hasattr(value, "conjuncts") or hasattr(value, "inner") or hasattr(value, "matrix"):
        try:
            return pp_formula(value)
        except Exception:
            return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def verdict_to_json(v: Verdict) -> Dict:
    return {
        "schema": SCHEMA,
        "verdict": v.status,
        "budget": v.budget.as_dict(),
        "certificate": jsonable(v.certificate),
        "notes": list(v.notes),
    }


def report_to_json(report: Dict) -> str:
    return json.dumps({"schema": SCHEMA, **jsonable(report)}, indent=2, sort_keys=True)
