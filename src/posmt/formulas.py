"""Formula ASTs, one normal form and evaluation.

One node class per connective: atoms (relation, equality, falsum, truth),
And, Or, PosEx (exists), Implication (a universally closed positive
premise -> positive conclusion), Not, Implies and Forall.  A node's class
names its connective and nothing more: `hinductive:` sentences parse to an
And of Implications, `huniversal:` ones to a Not over a PosEx, and a
`general:` sentence to any of them.  One normal form decides what a theory
may hold: `_positive_form` turns a formula into one positive existential
formula or None (positive: exists over and/or of atoms), `as_implications`
builds on it to encode every h-inductive shape as implications (and
rejects any other), and `classify_sentence` reads a sentence's class
(positive, h-universal: a negated positive, h-inductive) off the same two.
Evaluation generates one Python function per formula and compiles it once
(`compile_formula`): one `for` loop per quantified variable, each bound to
a local of its own, and each premise conjunct tested as soon as its last
variable is bound.  It is independent of the model finder and of the
encoding.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .errors import FormulaError
from .records import record
from .structures import FiniteStructure


# ---------------------------------------------------------------------------
# Terms


@record(frozen=True)
class Var:
    name: str


@record(frozen=True)
class Const:
    name: str


@record(frozen=True)
class App:
    func: str
    args: Tuple["Term", ...]


Term = Union[Var, Const, App]


def term_vars(t: Term) -> List[str]:
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, Const):
        return []
    out: List[str] = []
    for a in t.args:
        out.extend(term_vars(a))
    return out


# ---------------------------------------------------------------------------
# Atoms and positive formulas


@record(frozen=True)
class RelAtom:
    name: str
    args: Tuple[Term, ...]


@record(frozen=True)
class EqAtom:
    left: Term
    right: Term


@record(frozen=True)
class Falsum:
    pass


@record(frozen=True)
class Truth:
    pass


Atom = Union[RelAtom, EqAtom, Falsum, Truth]


@record(frozen=True)
class And:
    parts: Tuple["Formula", ...]


@record(frozen=True)
class Or:
    parts: Tuple["Formula", ...]


PosQF = Union[RelAtom, EqAtom, Falsum, Truth, And, Or]


@record(frozen=True)
class PosEx:
    """exists vars. matrix; positive when its matrix is."""

    vars: Tuple[str, ...]
    matrix: "Formula"


@record(frozen=True)
class Implication:
    """Universal closure of premise -> conclusion (both positive)."""

    vars: Tuple[str, ...]
    premise: PosEx
    conclusion: PosEx

    @cached_property
    def _hash(self) -> int:
        return hash((self.vars, self.premise, self.conclusion))


# hashed once each: the finder keys its ground programs by implications
Implication.__hash__ = lambda self: self._hash


@record(frozen=True)
class Not:
    sub: "Formula"


@record(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@record(frozen=True)
class Forall:
    vars: Tuple[str, ...]
    sub: "Formula"


Formula = Union[RelAtom, EqAtom, Falsum, Truth, And, Or, PosEx, Implication, Not, Implies, Forall]

TRUE_POSEX = PosEx((), Truth())
FALSE_POSEX = PosEx((), Falsum())


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, RelAtom):
        return frozenset(v for a in f.args for v in term_vars(a))
    if isinstance(f, EqAtom):
        return frozenset(term_vars(f.left) + term_vars(f.right))
    if isinstance(f, (Falsum, Truth)):
        return frozenset()
    if isinstance(f, (And, Or)):
        return frozenset().union(*(free_vars(p) for p in f.parts)) if f.parts else frozenset()
    if isinstance(f, PosEx):
        return free_vars(f.matrix) - frozenset(f.vars)
    if isinstance(f, Implication):
        return (free_vars(f.premise) | free_vars(f.conclusion)) - frozenset(f.vars)
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, Implies):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Forall):
        return free_vars(f.sub) - frozenset(f.vars)
    raise FormulaError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Evaluation (Tarskian, quantifiers range over the finite universe)


_Check = Callable[[FiniteStructure, Mapping[str, str]], bool]


def _guards(vs: Tuple[str, ...], premise: Optional[PosEx]) -> List[List[Formula]]:
    """A premise's tests by the depth (number of variables of vs bound) at
    which each can run.  A premise without existentials is split into its
    conjuncts, each tested as soon as its last variable is bound, so a false
    one skips the loops below it."""
    guards: List[List[Formula]] = [[] for _ in range(len(vs) + 1)]
    if premise is None:
        return guards
    m = premise.matrix
    for c in (premise,) if premise.vars else m.parts if isinstance(m, And) else (m,):
        if not isinstance(c, Truth):
            depth = max((i + 1 for i, v in enumerate(vs) if v in free_vars(c)), default=0)
            guards[depth].append(c)
    return guards


class _Source:
    """The body of one generated function `run(s, env)`.  Every symbol table
    is read once per call into a local (t0, t1, ...), every variable binding
    is a local of its own (v0, v1, ...), and a symbol or variable name enters
    the source only through `repr`.  Records each symbol used as (kind, name,
    arity) for the per-call signature check."""

    def __init__(self):
        self.symbols: Dict[Tuple[str, str, int], str] = {}  # -> local holding its table
        self.scope: Dict[str, str] = {}  # variable -> local of its innermost binding
        self.lines: List[str] = []
        self.bound = 0

    def bind(self, v: str) -> str:
        self.scope[v] = local = f"v{self.bound}"
        self.bound += 1
        return local

    def table(self, kind: str, name: str, arity: int) -> str:
        return self.symbols.setdefault((kind, name, arity), f"t{len(self.symbols)}")

    def term(self, t: Term) -> str:
        if isinstance(t, Var):
            return self.scope[t.name]
        if isinstance(t, Const):
            return self.table("constant", t.name, 0)
        return f"{self.table('function symbol', t.func, len(t.args))}[{self.args(t.args)}]"

    def args(self, args: Tuple[Term, ...]) -> str:
        return f"({''.join(self.term(a) + ', ' for a in args)})"

    def expr(self, f: Formula) -> str:
        """A Python expression for f's truth under the current bindings."""
        if isinstance(f, (Truth, Falsum)):
            return str(isinstance(f, Truth))
        if isinstance(f, EqAtom):
            return f"({self.term(f.left)} == {self.term(f.right)})"
        if isinstance(f, RelAtom):
            return f"({self.args(f.args)} in {self.table('relation symbol', f.name, len(f.args))})"
        if isinstance(f, (And, Or)):
            disjunction = isinstance(f, Or)
            if not f.parts:
                return str(not disjunction)
            return f"({(' or ' if disjunction else ' and ').join(map(self.expr, f.parts))})"
        if isinstance(f, Not):
            return f"(not {self.expr(f.sub)})"
        if isinstance(f, Implies):
            return f"(not {self.expr(f.left)} or {self.expr(f.right)})"
        if isinstance(f, PosEx):  # as not forall x. (matrix -> false), to share its loops
            return f"(not {self.forall(f.vars, PosEx((), f.matrix), Falsum())})" if f.vars else self.expr(f.matrix)
        if isinstance(f, Forall):
            return self.forall(f.vars, None, f.sub)
        if isinstance(f, Implication):
            return self.forall(f.vars, f.premise, f.conclusion)
        raise FormulaError(f"cannot evaluate {f!r}")

    def forall(self, vs: Tuple[str, ...], premise: Optional[PosEx], conclusion: Formula) -> str:
        """forall vs. premise -> conclusion as one generator expression: one
        `for` per variable, each guard as an `if` at its depth, and `all`
        stops at the first instance whose conclusion fails."""
        guards, outer = _guards(vs, premise), dict(self.scope)
        clauses = []
        for i, v in enumerate(vs):
            clauses.append(f" for {self.bind(v)} in U")
            if guards[i + 1]:
                clauses.append(f" if {self.conjunction(guards[i + 1])}")
        run = f"all({self.expr(conclusion)}{''.join(clauses)})" if vs else self.expr(conclusion)
        self.scope = outer
        return f"(not {self.conjunction(guards[0])} or {run})" if guards[0] else run

    def conjunction(self, parts: List[Formula]) -> str:
        return f"({' and '.join(map(self.expr, parts))})"

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def require(self, f: Formula, depth: int = 1) -> None:
        """Statements that return False when f is false: the conjuncts of a
        conjunction one after the other, and a universal closure as one
        `for` loop per variable with each guard at its depth."""
        if isinstance(f, And) and f.parts:
            for p in f.parts:
                self.require(p, depth)
            return
        if not isinstance(f, (Implication, Forall)):
            self.line(depth, f"if not {self.expr(f)}:")
            self.line(depth + 1, "return False")
            return
        premise, conclusion = (f.premise, f.conclusion) if isinstance(f, Implication) else (None, f.sub)
        guards, outer = _guards(f.vars, premise), dict(self.scope)
        if guards[0]:
            self.line(depth, f"if {self.conjunction(guards[0])}:")
            depth += 1
        for i, v in enumerate(f.vars):
            self.line(depth, f"for {self.bind(v)} in U:")
            depth += 1
            if guards[i + 1]:
                self.line(depth, f"if not {self.conjunction(guards[i + 1])}:")
                self.line(depth + 1, "continue")
        self.require(conclusion, depth)
        self.scope = outer

    def source(self, free: List[Tuple[str, str]]) -> str:
        reads = {"relation symbol": "s.rel({!r})", "function symbol": "s.functions[{!r}]",
                 "constant": "s.constants[{!r}]"}
        head = ["def run(s, env):", "    U = s.universe"]
        head += [f"    {local} = {reads[kind].format(name)}" for (kind, name, _), local in self.symbols.items()]
        head += [f"    {local} = env[{v!r}]" for v, local in free]
        return "\n".join(head + self.lines + ["    return True"])


def compile_formula(f: Formula) -> _Check:
    """f compiled once into check(s, env), its truth in s under env: one
    generated Python function (`_Source`).  Each call first checks f's
    symbols and free variables against s and env."""
    src, free = _Source(), free_vars(f)
    params = [(v, src.bind(v)) for v in sorted(free)]
    src.require(f)
    namespace: Dict[str, Callable] = {}
    exec(compile(src.source(params), "<formula>", "exec"), namespace)
    run = namespace["run"]
    checked = None  # the signature last found to hold f's symbols

    def check(s: FiniteStructure, env: Mapping[str, str]) -> bool:
        nonlocal checked
        sig = s.signature
        if sig is not checked:
            tables = {"relation symbol": sig.relation_arities, "function symbol": sig.function_arities,
                      "constant": dict.fromkeys(sig.constants, 0)}
            for kind, name, arity in src.symbols:
                known = tables[kind].get(name)
                if known != arity:
                    raise FormulaError(f"unknown {kind} {name}" if known is None else f"arity mismatch for {name}")
            checked = sig
        if not free <= env.keys():
            raise FormulaError(f"unbound variable {min(free - env.keys())}")
        return run(s, env)
    return check


def eval_formula(
    s: FiniteStructure, f: Formula, env: Optional[Mapping[str, str]] = None
) -> bool:
    return compile_formula(f)(s, env or {})


# ---------------------------------------------------------------------------
# Normal form, encoding and classification


def _positive_form(f: Formula) -> Optional[PosEx]:
    """f as one positive existential formula `exists xs. matrix`, or None.
    Quantifiers may only lead: a connective over a quantified part is not
    positive here."""
    if isinstance(f, PosEx):
        body = _positive_form(f.matrix)
        return None if body is None else PosEx(f.vars + body.vars, body.matrix)
    if isinstance(f, (And, Or)):
        parts = [None if isinstance(p, PosEx) else _positive_form(p) for p in f.parts]
        if any(p is None for p in parts):
            return None
        return PosEx((), type(f)(tuple(p.matrix for p in parts)))
    return PosEx((), f) if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)) else None


def _universal(vs: Tuple[str, ...], f: Formula) -> Optional[Tuple[Implication, ...]]:
    """forall vs. f as implications, when f is positive (true -> f), positive
    -> positive, the negation of a positive (phi -> false), a conjunction of
    these (the implications of its parts), or a universal closure of these."""
    if isinstance(f, Forall):
        return _universal(vs + f.vars, f.sub)
    if isinstance(f, Implies):
        premise, conclusion = _positive_form(f.left), _positive_form(f.right)
        return None if premise is None or conclusion is None else (Implication(vs, premise, conclusion),)
    inner = _positive_form(f.sub) if isinstance(f, Not) else None  # f is !phi, phi positive
    if inner is not None:
        return (Implication(vs + inner.vars, PosEx((), inner.matrix), FALSE_POSEX),)
    conclusion = _positive_form(f)
    if conclusion is not None:
        return (Implication(vs, TRUE_POSEX, conclusion),)
    if isinstance(f, And):
        parts = [_universal(vs, p) for p in f.parts]
        return None if None in parts else tuple(i for p in parts for i in p)
    return None


def as_implications(f: Formula) -> Tuple[Implication, ...]:
    """The implications an h-inductive sentence encodes as: those of
    `_universal`, and a conjunction of h-inductive parts the implications of
    its parts.  Any other shape is a FormulaError."""
    if isinstance(f, Implication):
        return (f,)
    imps = _universal((), f)
    if imps is not None:
        return imps
    if isinstance(f, And):
        return tuple(i for p in f.parts for i in as_implications(p))
    raise FormulaError(f"not encodable as h-inductive: {f!r}")


def classify_sentence(f: Formula) -> str:
    """Most specific class among positive / h-universal / h-inductive /
    outside, for a closed formula."""
    if free_vars(f):
        raise FormulaError("classification requires a closed formula")
    if _positive_form(f) is not None:
        return "positive"
    if isinstance(f, Not) and _positive_form(f.sub) is not None:
        return "h-universal"
    try:
        as_implications(f)
    except FormulaError:
        return "outside"
    return "h-inductive"
