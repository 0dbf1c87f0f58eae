"""Formula ASTs, shape classification, evaluation and printing.

The positive fragment: atoms (relation, equality, falsum, truth) combined
with AND/OR, existentially quantified (PosEx).  H-inductive sentences are
conjunctions of universally closed implications between positive formulas;
h-universal sentences are negations of positive sentences.  A small general
fragment (Not / Implies / Forall over anything) exists only so that
arbitrary sentences can be classified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

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


def evaluate_term(s: FiniteStructure, t: Term, env: Mapping[str, str]) -> str:
    if isinstance(t, Var):
        if t.name not in env:
            raise FormulaError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, Const):
        if t.name not in s.signature.constants:
            raise FormulaError(f"unknown constant {t.name}")
        return s.const(t.name)
    arities = s.signature.function_arities
    if t.func not in arities:
        raise FormulaError(f"unknown function symbol {t.func}")
    if len(t.args) != arities[t.func]:
        raise FormulaError(f"arity mismatch for {t.func}")
    return s.func(t.func, tuple(evaluate_term(s, a, env) for a in t.args))


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


def _eval_atom(s: FiniteStructure, f: Atom, env: Mapping[str, str]) -> bool:
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsum):
        return False
    if isinstance(f, EqAtom):
        return evaluate_term(s, f.left, env) == evaluate_term(s, f.right, env)
    if f.name not in s.signature.relation_arities:
        raise FormulaError(f"unknown relation symbol {f.name}")
    if len(f.args) != s.signature.relation_arities[f.name]:
        raise FormulaError(f"arity mismatch for {f.name}")
    return tuple(evaluate_term(s, a, env) for a in f.args) in s.rel(f.name)


def eval_formula(
    s: FiniteStructure, f: Formula, env: Optional[Mapping[str, str]] = None
) -> bool:
    env = env or {}
    if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)):
        return _eval_atom(s, f, env)
    if isinstance(f, (And, GAnd)):
        return all(eval_formula(s, p, env) for p in f.parts)
    if isinstance(f, (Or, GOr)):
        return any(eval_formula(s, p, env) for p in f.parts)
    if isinstance(f, (PosEx, Exists)):
        body = f.matrix if isinstance(f, PosEx) else f.sub
        if not f.vars:
            return eval_formula(s, body, env)
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if eval_formula(s, body, e2):
                return True
        return False
    if isinstance(f, Implication):
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if eval_formula(s, f.premise, e2) and not eval_formula(s, f.conclusion, e2):
                return False
        return True
    if isinstance(f, HInductiveSentence):
        return all(eval_formula(s, c, env) for c in f.conjuncts)
    if isinstance(f, HUniversalSentence):
        return not eval_formula(s, f.inner, env)
    if isinstance(f, Not):
        return not eval_formula(s, f.sub, env)
    if isinstance(f, Implies):
        return (not eval_formula(s, f.left, env)) or eval_formula(s, f.right, env)
    if isinstance(f, Forall):
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if not eval_formula(s, f.sub, e2):
                return False
        return True
    raise FormulaError(f"cannot evaluate {f!r}")


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
    if isinstance(f, (And, Or, GAnd, GOr)):
        # nested quantifiers inside connectives are outside our fragment
        return all(_is_posqf(p) for p in f.parts)
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
    if _is_positive(f) or (isinstance(f, PosEx) and _is_positive(f.matrix)):
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
