"""Formula ASTs, shape classification, evaluation and printing.

The positive fragment: atoms (relation, equality, falsum, truth) combined
with AND/OR, existentially quantified (PosEx).  H-inductive sentences are
conjunctions of universally closed implications between positive formulas;
h-universal sentences are negations of positive sentences.  A small general
fragment (Not / Implies / Forall over anything) exists only so that
arbitrary sentences can be classified.  Evaluation compiles each formula
once into closures over one mutable variable environment (`compile_formula`),
independently of the model finder.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .errors import FormulaError
from .structures import FiniteStructure


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RelAtom:
    name: str
    args: Tuple[Term, ...]


@dataclass(frozen=True)
class EqAtom:
    left: Term
    right: Term


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class Truth:
    pass


Atom = Union[RelAtom, EqAtom, Falsum, Truth]


@dataclass(frozen=True)
class And:
    parts: Tuple["PosQF", ...]


@dataclass(frozen=True)
class Or:
    parts: Tuple["PosQF", ...]


PosQF = Union[RelAtom, EqAtom, Falsum, Truth, And, Or]


@dataclass(frozen=True)
class PosEx:
    """Existentially quantified positive formula exists x... . matrix."""

    vars: Tuple[str, ...]
    matrix: PosQF


@dataclass(frozen=True)
class Implication:
    """Universal closure of premise -> conclusion (both positive)."""

    vars: Tuple[str, ...]
    premise: PosEx
    conclusion: PosEx


@dataclass(frozen=True)
class HInductiveSentence:
    conjuncts: Tuple[Implication, ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise FormulaError("h-inductive sentence needs at least one conjunct")


@dataclass(frozen=True)
class HUniversalSentence:
    """Negation of a closed positive formula."""

    inner: PosEx


# General fragment, for classification only.


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    vars: Tuple[str, ...]
    sub: "Formula"


@dataclass(frozen=True)
class Exists:
    vars: Tuple[str, ...]
    sub: "Formula"


@dataclass(frozen=True)
class GAnd:
    parts: Tuple["Formula", ...]


@dataclass(frozen=True)
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
# Classification


def _is_posqf(f: Formula) -> bool:
    if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)):
        return True
    if isinstance(f, (And, Or, GAnd, GOr)):
        return all(_is_posqf(p) for p in f.parts)
    return False


def _is_positive(f: Formula) -> bool:
    if _is_posqf(f):
        return True
    if isinstance(f, (PosEx, Exists)):
        body = f.matrix if isinstance(f, PosEx) else f.sub
        return _is_positive(body)
    # nested quantifiers inside connectives are outside our fragment
    return False


def _is_hinductive(f: Formula) -> bool:
    if isinstance(f, HInductiveSentence):
        return True
    if isinstance(f, HUniversalSentence):
        return True
    if _is_positive(f):
        return True
    if isinstance(f, Not):
        return _is_positive(f.sub)
    if isinstance(f, Implication):
        return True
    if isinstance(f, Implies):
        return _is_positive(f.left) and _is_positive(f.right)
    if isinstance(f, Forall):
        return _is_hinductive_body(f.sub)
    if isinstance(f, (GAnd, And)):
        return all(_is_hinductive(p) for p in f.parts)
    return False


def _is_hinductive_body(f: Formula) -> bool:
    if isinstance(f, Implies):
        return _is_positive(f.left) and _is_positive(f.right)
    if isinstance(f, Forall):
        return _is_hinductive_body(f.sub)
    return _is_positive(f)


def classify_sentence(f: Formula) -> str:
    """Most specific class among positive / h-universal / h-inductive /
    outside, for a closed formula."""
    if free_vars(f):
        raise FormulaError("classification requires a closed formula")
    if _is_positive(f):
        return "positive"
    if isinstance(f, HUniversalSentence):
        return "h-universal"
    if isinstance(f, Not) and _is_positive(f.sub):
        return "h-universal"
    if _is_hinductive(f):
        return "h-inductive"
    return "outside"


def as_implications(f: Formula) -> Tuple[Implication, ...]:
    """Encode a positive / h-universal / h-inductive sentence as implications
    (positive phi becomes T -> phi; h-universal !phi becomes phi -> falsum)."""
    if isinstance(f, HInductiveSentence):
        return f.conjuncts
    if isinstance(f, Implication):
        return (f,)
    if isinstance(f, HUniversalSentence):
        inner = f.inner
        return (Implication(inner.vars, PosEx((), inner.matrix), FALSE_POSEX),)
    if isinstance(f, PosEx):
        return (Implication((), TRUE_POSEX, f),)
    if _is_posqf(f):
        return (Implication((), TRUE_POSEX, PosEx((), f)),)
    raise FormulaError(f"not encodable as h-inductive: {f!r}")


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
    if _is_posqf(f):
        return f"positive: {_pp_qf(f)}"
    raise FormulaError(f"cannot print {f!r}")
