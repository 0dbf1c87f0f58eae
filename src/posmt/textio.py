"""Text file formats and JSON report serialization.

Block formats (whitespace-insensitive, `#` line comments):

    signature S { relations: leq/2; functions: f/1; constants: e; }
    structure A over S { universe: a, b; leq: (a,a),(a,b); f: a->b, b->a; e = a; }
    morphism m from A to B { map: a -> x, b -> y; }
    theory T over S { hinductive: forall x. true -> leq(x,x); positive: ...; }
    amalgamation P { base: A; left: m1; right: m2; kinds: [i,i,h,h];
                     class: theory T; strong: true; budget: { N: 6; }; }

A block key, symbol, function entry or map entry written twice is a parse error.

Verdicts and reports serialize to JSON as
    {"schema": "posmt-report/1", "verdict": ..., "budget": {...},
     "certificate": {...}, "notes": [...]}
in one pass over what the report holds: str, bool, int, float, None, dicts
with str keys, lists, tuples and structures, each as {"structure": ...}.
Anything else is a TypeError, never a silent repr.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Container, Dict, Iterator, List, Optional, Set, Tuple

from .errors import ParseError, StructureError
from .morphisms import Morphism
from .parser import Parser
from .records import field, record
from .structures import FiniteStructure, Signature
from .theories import Theory, Verdict

SCHEMA = "posmt-report/1"


@record
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


@record
class Workspace:
    signatures: Dict[str, Signature] = field(default_factory=dict)
    structures: Dict[str, FiniteStructure] = field(default_factory=dict)
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


def _keys(p: Parser, what: str, known: Optional[Container[str]] = None) -> Iterator[str]:
    """Each key of a `{ key ...; }` block, up to its `}`: the loop body reads
    the key's value, and the `;` after it is read here.  A key given twice
    is a parse error at the second, as is one outside `known` if given."""
    seen: Set[str] = set()
    while not p.at("}"):
        text = p.peek().text
        if text in seen:
            raise p.error(f"repeated {what} {text!r}")
        if known is not None and text not in known:
            raise p.error(f"unknown {what} {text!r}")
        seen.add(p.expect_name())
        yield text
        p.expect(";")


def _parse_signature(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("{")
    relations: Dict[str, int] = {}
    functions: Dict[str, int] = {}
    constants: List[str] = []
    declared: Set[str] = set()

    def symbol() -> str:
        if p.peek().text in declared:
            raise p.error(f"symbol {p.peek().text!r} declared twice")
        declared.add(p.peek().text)
        return p.expect_name()

    def symbol_arity() -> Tuple[str, int]:
        sym = symbol()
        p.expect("/")
        return sym, p.expect_number()

    for key in _keys(p, "signature field"):
        p.expect(":")
        if key == "relations":
            relations.update(p.sep_by(symbol_arity, ","))
        elif key == "functions":
            functions.update(p.sep_by(symbol_arity, ","))
        elif key == "constants":
            constants.extend(p.sep_by(symbol, ","))
        else:
            raise p.error(f"unknown signature field {key!r}")
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


def _function_cell(p: Parser, name: str, arity: int, entries: Dict[Tuple[str, ...], str]) -> None:
    t = p.peek()
    args = _parse_tuple(p) if p.at("(") else (p.expect_name(),)
    if len(args) != arity:
        raise p.error(f"arity mismatch for function {name!r}")
    if args in entries:
        raise ParseError(f"function {name!r} given twice at ({', '.join(args)})", t.line, t.col)
    p.expect("->")
    entries[args] = p.expect_name()


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
    for key in _keys(p, "structure field"):
        if key == "universe":
            p.expect(":")
            universe = tuple(p.sep_by(p.expect_name, ","))
        elif key in relations:
            p.expect(":")
            if not p.at(";"):
                relations[key].update(p.sep_by(lambda: _parse_tuple(p), ","))
        elif key in functions:
            p.expect(":")
            p.sep_by(lambda: _function_cell(p, key, func_arity[key], functions[key]), ",")
        elif key in sig.constants:
            p.expect("=")
            constants[key] = p.expect_name()
        else:
            raise p.error(f"{key!r} is not a symbol of signature {signame!r}")
    p.expect("}")
    if name in ws.structures:
        raise StructureError(f"duplicate structure name {name!r}")
    ws.structures[name] = FiniteStructure(
        sig, universe, {k: frozenset(v) for k, v in relations.items()}, functions, constants
    )


def _map_pair(p: Parser, mapping: Dict[str, str]) -> None:
    if p.peek().text in mapping:
        raise p.error(f"element {p.peek().text!r} mapped twice")
    e = p.expect_name()
    p.expect("->")
    mapping[e] = p.expect_name()


def _parse_morphism(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("from")
    src = p.expect_name()
    p.expect("to")
    tgt = p.expect_name()
    p.expect("{")
    mapping: Dict[str, str] = {}
    for key in _keys(p, "morphism field"):
        if key != "map":
            raise p.error(f"unknown morphism field {key!r}")
        p.expect(":")
        p.sep_by(lambda: _map_pair(p, mapping), ",")
    p.expect("}")
    source = ws.structure(src)
    target = ws.structure(tgt)
    missing = [e for e in source.universe if e not in mapping]
    if missing:
        raise StructureError(f"morphism {name!r} misses elements {missing}")
    if mapping.keys() - source.universe:
        raise StructureError(f"morphism {name!r} maps {sorted(mapping.keys() - source.universe)}, not in {src}")
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


def _kind_letter(p: Parser) -> str:
    if p.peek().text not in ("h", "e", "i", "s"):
        raise p.error(f"expected a morphism kind letter h, e, i or s, found {p.peek().text!r}")
    return p.expect_name()


def _parse_amalgamation(p: Parser, ws: Workspace) -> None:
    name = p.expect_name()
    p.expect("{")
    fields: Dict[str, object] = {
        "base": None, "left": None, "right": None, "kinds": None,
        "theory": None, "strong": False, "strict_strong": False, "budget": {},
    }
    for key in _keys(p, "amalgamation field"):
        p.expect(":")
        if key in ("base", "left", "right"):
            fields[key] = p.expect_name()
        elif key == "kinds":
            p.expect("[")
            fields["kinds"] = "".join(p.sep_by(lambda: _kind_letter(p), ","))
            if len(fields["kinds"]) != 4:
                raise p.error("amalgamation kinds must be 4 letters")
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
            for bkey in _keys(p, "budget field", ("N", "node_cap")):  # the solver reads no n or k
                p.expect(":")
                if p.peek().kind == "number" and int(p.peek().text) < 1:
                    raise p.error(f"budget field {bkey} must be positive")
                budget[bkey] = p.expect_number()
            p.expect("}")
            fields["budget"] = budget
        else:
            raise p.error(f"unknown amalgamation field {key!r}")
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


def load_workspace(texts: List[str]) -> Workspace:
    """Read every block of every text, each text from one token stream."""
    ws = Workspace()
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


def verdict_to_json(v: Verdict) -> Dict:
    return {
        "schema": SCHEMA,
        "verdict": v.status,
        "budget": v.budget.as_dict(),
        "certificate": v.certificate,
        "notes": list(v.notes),
    }


def _write(value, head: str, indent: str, out: List[str], rendered: Dict[Tuple[int, str], str]) -> None:
    """Append `value` to `out` as `json.dumps(indent=2, sort_keys=True)`
    prints its plain JSON form: `head` is what precedes it, `indent` the
    newline and indentation of its own nesting level.  Each scalar is one
    chunk with its separators and key before it, each closing bracket a
    chunk of its own.  A structure prints as {"structure": ...}; `rendered`
    keeps its text by (id, indent), so it is rendered once per depth."""
    if isinstance(value, str):
        out.append(head + encode_basestring_ascii(value))
    elif isinstance(value, FiniteStructure):
        text = rendered.get((id(value), indent))
        if text is None:
            chunks: List[str] = []
            _write_dict({"structure": structure_to_json(value)}, "", indent, chunks, rendered)
            text = rendered[id(value), indent] = "".join(chunks)
        out.append(head + text)
    elif isinstance(value, dict):
        if value:
            _write_dict(value, head, indent, out, rendered)
        else:
            out.append(head + "{}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(head + "[]")
            return
        inner = indent + "  "
        sep = head + "[" + inner
        for item in value:
            _write(item, sep, inner, out, rendered)
            sep = "," + inner
        out.append(indent + "]")
    else:  # bool, int, float or None; anything else is a TypeError
        out.append(head + json.dumps(value))


def _write_dict(value: Dict, head: str, indent: str, out: List[str],
                rendered: Dict[Tuple[int, str], str]) -> None:
    inner = indent + "  "
    sep = head + "{" + inner
    for key, item in sorted(value.items()):
        _write(item, sep + encode_basestring_ascii(key) + ": ", inner, out, rendered)
        sep = "," + inner
    out.append(indent + "}")


def report_to_json(report: Dict) -> str:
    """The report as `json.dumps(..., indent=2, sort_keys=True)` prints it,
    byte for byte, in one pass over the report; that encoder is pure Python
    whenever `indent` is set."""
    out: List[str] = []
    _write({"schema": SCHEMA, **report}, "", "\n", out, {})
    return "".join(out)
