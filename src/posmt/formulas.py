"""Formula ASTs, one normal form, evaluation and printing.

The positive fragment: atoms (relation, equality, falsum, truth) combined
with AND/OR, existentially quantified (PosEx).  H-inductive sentences are
conjunctions of universally closed implications between positive formulas;
h-universal sentences are negations of positive sentences.  The general
fragment (Not / Implies / Forall / Exists / GAnd / GOr over anything) holds
what a `general:` sentence parses to.  One normal form decides what a
theory may hold: `_positive_form` turns a formula into one positive
existential formula or None, `as_implications` builds on it to encode every
h-inductive shape as implications (and rejects any other), and
`classify_sentence` reads a sentence's class off the same two.  Evaluation
compiles each formula once into closures over one mutable variable
environment (`compile_formula`), independently of the model finder and of
the encoding.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
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
    parts: Tuple["PosQF", ...]


@record(frozen=True)
class Or:
    parts: Tuple["PosQF", ...]


PosQF = Union[RelAtom, EqAtom, Falsum, Truth, And, Or]


@record(frozen=True)
class PosEx:
    """Existentially quantified positive formula exists x... . matrix."""

    vars: Tuple[str, ...]
    matrix: PosQF


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
class HInductiveSentence:
    conjuncts: Tuple[Implication, ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise FormulaError("h-inductive sentence needs at least one conjunct")


@record(frozen=True)
class HUniversalSentence:
    """Negation of a closed positive formula."""

    inner: PosEx


# General fragment, for classification only.


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


@record(frozen=True)
class Exists:
    vars: Tuple[str, ...]
    sub: "Formula"


@record(frozen=True)
class GAnd:
    parts: Tuple["Formula", ...]


@record(frozen=True)
class GOr:
    parts: Tuple["Formula", ...]


Formula = Union[
    RelAtom, EqAtom, Falsum, Truth, And, Or, PosEx, Implication,
    HInductiveSentence, HUniversalSentence, Not, Implies, Forall, Exists,
    GAnd, GOr,
]

TRUE_POSEX = PosEx((), Truth())
FALSE_POSEX = PosEx((), Falsum())


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, RelAtom):
        return frozenset(v for a in f.args for v in term_vars(a))
    if isinstance(f, EqAtom):
        return frozenset(term_vars(f.left) + term_vars(f.right))
    if isinstance(f, (Falsum, Truth)):
        return frozenset()
    if isinstance(f, (And, Or, GAnd, GOr)):
        return frozenset().union(*(free_vars(p) for p in f.parts)) if f.parts else frozenset()
    if isinstance(f, PosEx):
        return free_vars(f.matrix) - frozenset(f.vars)
    if isinstance(f, Implication):
        return (free_vars(f.premise) | free_vars(f.conclusion)) - frozenset(f.vars)
    if isinstance(f, HInductiveSentence):
        return frozenset().union(*(free_vars(c) for c in f.conjuncts))
    if isinstance(f, HUniversalSentence):
        return free_vars(f.inner)
    if isinstance(f, Not):
        return free_vars(f.sub)
    if isinstance(f, Implies):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.sub) - frozenset(f.vars)
    raise FormulaError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Evaluation (Tarskian, quantifiers range over the finite universe)


_Check = Callable[[FiniteStructure, Dict[str, str]], bool]


class _Compiler:
    """Closures (s, env) -> value over one mutable env dict.  Records each
    symbol used as (kind, name, arity) for the per-call signature check."""

    def __init__(self):
        self.symbols: Dict[Tuple[str, str, int], None] = {}

    def term(self, t: Term) -> Callable:
        if isinstance(t, Var):
            return lambda s, env, v=t.name: env[v]
        if isinstance(t, Const):
            self.symbols["constant", t.name, 0] = None
            return lambda s, env, c=t.name: s.constants[c]
        vals = self.values("function symbol", t.func, t.args)
        return lambda s, env, fn=t.func: s.functions[fn][vals(s, env)]

    def values(self, kind: str, name: str, args: Tuple[Term, ...]) -> Callable:
        self.symbols[kind, name, len(args)] = None
        if len(args) > 1 and all(isinstance(a, Var) for a in args):
            return lambda s, env, get=itemgetter(*(a.name for a in args)): get(env)
        subs = [self.term(a) for a in args]
        return lambda s, env: tuple(t(s, env) for t in subs)

    def formula(self, f: Formula) -> _Check:
        if isinstance(f, (Truth, Falsum)):
            return lambda s, env, b=isinstance(f, Truth): b
        if isinstance(f, EqAtom):
            left, right = self.term(f.left), self.term(f.right)
            return lambda s, env: left(s, env) == right(s, env)
        if isinstance(f, RelAtom):
            vals = self.values("relation symbol", f.name, f.args)
            return lambda s, env, r=f.name: vals(s, env) in s.rel(r)
        if isinstance(f, (Or, GOr)):
            parts = [self.formula(p) for p in f.parts]
            return lambda s, env: any(p(s, env) for p in parts)
        if isinstance(f, (And, GAnd, HInductiveSentence)):
            return _all([self.formula(p) for p in (f.conjuncts if isinstance(f, HInductiveSentence) else f.parts)])
        if isinstance(f, (Not, HUniversalSentence)):
            sub = self.formula(f.sub if isinstance(f, Not) else f.inner)
            return lambda s, env: not sub(s, env)
        if isinstance(f, Implies):
            return _implies(self.formula(f.left), self.formula(f.right))
        if isinstance(f, Forall):
            return self.formula(Implication(f.vars, TRUE_POSEX, PosEx((), f.sub)))
        if isinstance(f, (PosEx, Exists)):  # as not forall x. (body -> false), to share its loops
            body = f.matrix if isinstance(f, PosEx) else f.sub
            return self.formula(Not(Implication(f.vars, PosEx((), body), FALSE_POSEX)) if f.vars else body)
        if not isinstance(f, Implication):
            raise FormulaError(f"cannot evaluate {f!r}")
        # One loop per variable.  A premise without existentials is split
        # into conjuncts, each tested as soon as its last variable is bound,
        # so a false one skips the loops below it.
        vs, m = f.vars, f.premise.matrix
        guards: List[List[_Check]] = [[] for _ in range(len(vs) + 1)]
        for c in (f.premise,) if f.premise.vars else m.parts if isinstance(m, And) else (m,):
            depth = max((i + 1 for i, v in enumerate(vs) if v in free_vars(c)), default=0)
            guards[depth].append(self.formula(c))
        run = self.formula(f.conclusion)
        for i in reversed(range(len(vs) + 1)):
            run = _implies(_all(guards[i]), run) if guards[i] else run
            run = _loop(vs[i - 1], run) if i else run
        return run


def _all(parts: List[_Check]) -> _Check:
    return parts[0] if len(parts) == 1 else lambda s, env: all(p(s, env) for p in parts)


def _implies(premise: _Check, conclusion: _Check) -> _Check:
    return lambda s, env: not premise(s, env) or conclusion(s, env)


def _loop(v: str, body: _Check) -> _Check:
    """body for every value of v; v's outer binding is restored after."""
    def loop(s, env):
        outer = {v: env[v]} if v in env else {}
        ok = all(body(s, env) for env[v] in s.universe)
        del env[v]
        env.update(outer)
        return ok
    return loop


def compile_formula(f: Formula) -> _Check:
    """f compiled once into check(s, env), its truth in s under env.  Each call
    first checks f's symbols and free variables against s and env."""
    comp = _Compiler()
    run, free = comp.formula(f), free_vars(f)

    def check(s: FiniteStructure, env: Mapping[str, str]) -> bool:
        sig = s.signature
        tables = {"relation symbol": sig.relation_arities, "function symbol": sig.function_arities,
                  "constant": dict.fromkeys(sig.constants, 0)}
        for kind, name, arity in comp.symbols:
            known = tables[kind].get(name)
            if known != arity:
                raise FormulaError(f"unknown {kind} {name}" if known is None else f"arity mismatch for {name}")
        if not free <= env.keys():
            raise FormulaError(f"unbound variable {min(free - env.keys())}")
        return run(s, dict(env))
    return check


def eval_formula(
    s: FiniteStructure, f: Formula, env: Optional[Mapping[str, str]] = None
) -> bool:
    return compile_formula(f)(s, env or {})


# ---------------------------------------------------------------------------
# Normal form, encoding and classification


def _positive_form(f: Formula) -> Optional[PosEx]:
    """f as one positive existential formula `exists xs. matrix`, or None.
    Quantifiers may only lead (a connective over a quantified part is not
    positive here), and GAnd / GOr become And / Or."""
    if isinstance(f, (PosEx, Exists)):
        body = _positive_form(f.matrix if isinstance(f, PosEx) else f.sub)
        return None if body is None else PosEx(f.vars + body.vars, body.matrix)
    if isinstance(f, (And, Or, GAnd, GOr)):
        parts = [None if isinstance(p, (PosEx, Exists)) else _positive_form(p) for p in f.parts]
        if any(p is None for p in parts):
            return None
        return PosEx((), (And if isinstance(f, (And, GAnd)) else Or)(tuple(p.matrix for p in parts)))
    return PosEx((), f) if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)) else None


def _negated(f: Formula) -> Optional[PosEx]:
    """phi in positive form when f is the negation of a positive phi."""
    if isinstance(f, HUniversalSentence):
        return _positive_form(f.inner)
    return _positive_form(f.sub) if isinstance(f, Not) else None


def _universal(vs: Tuple[str, ...], f: Formula) -> Optional[Implication]:
    """forall vs. f as one implication, when f is positive, positive ->
    positive, or a universal closure of these."""
    if isinstance(f, Forall):
        return _universal(vs + f.vars, f.sub)
    if isinstance(f, Implies):
        premise, conclusion = _positive_form(f.left), _positive_form(f.right)
        return None if premise is None or conclusion is None else Implication(vs, premise, conclusion)
    conclusion = _positive_form(f)
    return None if conclusion is None else Implication(vs, TRUE_POSEX, conclusion)


def as_implications(f: Formula) -> Tuple[Implication, ...]:
    """The implications an h-inductive sentence encodes as: positive phi is
    true -> phi, a negated one phi -> false, a universal closure of
    positive -> positive is one implication, and a conjunction of
    h-inductive parts the implications of its parts.  Any other shape is a
    FormulaError."""
    if isinstance(f, HInductiveSentence):
        return f.conjuncts
    if isinstance(f, Implication):
        return (f,)
    inner = _negated(f)
    if inner is not None:
        return (Implication(inner.vars, PosEx((), inner.matrix), FALSE_POSEX),)
    imp = _universal((), f)
    if imp is not None:
        return (imp,)
    if isinstance(f, (And, GAnd)):
        return tuple(i for p in f.parts for i in as_implications(p))
    raise FormulaError(f"not encodable as h-inductive: {f!r}")


def classify_sentence(f: Formula) -> str:
    """Most specific class among positive / h-universal / h-inductive /
    outside, for a closed formula."""
    if free_vars(f):
        raise FormulaError("classification requires a closed formula")
    if _positive_form(f) is not None:
        return "positive"
    if _negated(f) is not None:
        return "h-universal"
    try:
        as_implications(f)
    except FormulaError:
        return "outside"
    return "h-inductive"


# ---------------------------------------------------------------------------
# Pretty printing (inverse of the parser on ASTs)


def _pp_term(t: Term) -> str:
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    return f"{t.func}({', '.join(_pp_term(a) for a in t.args)})"


def _pp_qf(f: PosQF, prec: int = 0) -> str:
    # prec 0 = or-level, 1 = and-level, 2 = atom
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, RelAtom):
        return f"{f.name}({', '.join(_pp_term(a) for a in f.args)})"
    if isinstance(f, EqAtom):
        return f"{_pp_term(f.left)} = {_pp_term(f.right)}"
    if isinstance(f, And):
        body = " & ".join(_pp_qf(p, 2) for p in f.parts)
        return f"({body})" if prec >= 2 else body
    if isinstance(f, Or):
        body = " | ".join(_pp_qf(p, 1) for p in f.parts)
        return f"({body})" if prec >= 1 else body
    raise FormulaError(f"cannot print {f!r}")


def _pp_posex(f: PosEx) -> str:
    if f.vars:
        return f"exists {' '.join(f.vars)}. {_pp_qf(f.matrix)}"
    return _pp_qf(f.matrix)


def pp_formula(f: Formula) -> str:
    if isinstance(f, HInductiveSentence):
        parts = []
        for c in f.conjuncts:
            head = f"forall {' '.join(c.vars)}. " if c.vars else ""
            parts.append(f"{head}({_pp_posex(c.premise)}) -> ({_pp_posex(c.conclusion)})")
        return "hinductive: " + "; ".join(parts)
    if isinstance(f, Implication):
        return pp_formula(HInductiveSentence((f,)))
    if isinstance(f, HUniversalSentence):
        return f"huniversal: ! {_pp_posex(f.inner)}"
    if isinstance(f, PosEx):
        return f"positive: {_pp_posex(f)}"
    return f"positive: {_pp_qf(f)}"
