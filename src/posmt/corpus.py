"""Bounded corpora of positive and h-inductive sentences.

A corpus is parameterized by a variable pool v0..v(k-1) and an atom-count
cap per side.  CQ size is measured in variables; the atom cap keeps the
corpora finite at desk scale.  Each corpus lists one representative per
renaming class: the least member of its orbit under variable permutations.
The orbits are walked over tuples of pool indices, with one table per
permutation giving the index of each atom's image, so each class is
permuted once.

Satisfaction is computed against a per-structure table of all total
assignments of the pool, with the atoms true under each assignment encoded
as a bitmask; sentence truth then reduces to subset tests over projections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .formulas import (
    FALSE_POSEX, And, App, Atom, Const, EqAtom, HUniversalSentence,
    Implication, PosEx, RelAtom, Truth, Var,
)
from .errors import BudgetExceeded
from .structures import FiniteStructure, Signature

# Atom codes: ("rel", name, argcodes) | ("feq", name, argcodes, rescode)
#           | ("eq", code, code)   with arg code ("v", i) or ("c", name)
AtomCode = Tuple

DEFAULT_MAX_ATOMS_CQ = 3
DEFAULT_MAX_ATOMS_IMPL = 2
CORPUS_CAP = 2_000_000


class AtomPool:
    """All flat atoms over the variable pool of size k (plus constants)."""

    def __init__(self, sig: Signature, k: int):
        self.sig = sig
        self.k = k
        args: List[Tuple] = [("v", i) for i in range(k)]
        args += [("c", c) for c in sig.constants]
        atoms: List[AtomCode] = []
        for name, arity in sig.relations:
            for tup in itertools.product(args, repeat=arity):
                atoms.append(("rel", name, tup))
        for name, arity in sig.functions:
            for tup in itertools.product(args, repeat=arity):
                for res in args:
                    atoms.append(("feq", name, tup, res))
        for i, a in enumerate(args):
            for b_ in args[i + 1:]:
                if a[0] == "c" and b_[0] == "c":
                    continue
                # store the orientation permute_atom normalizes to
                lo, hi = (a, b_) if a <= b_ else (b_, a)
                atoms.append(("eq", lo, hi))
        self.atoms: Tuple[AtomCode, ...] = tuple(sorted(atoms))
        self.index: Dict[AtomCode, int] = {a: i for i, a in enumerate(self.atoms)}

    # -- permutation action -----------------------------------------------

    def permute_atom(self, code: AtomCode, perm: Sequence[int]) -> AtomCode:
        def pa(arg):
            return ("v", perm[arg[1]]) if arg[0] == "v" else arg

        if code[0] == "rel":
            return ("rel", code[1], tuple(pa(a) for a in code[2]))
        if code[0] == "feq":
            return ("feq", code[1], tuple(pa(a) for a in code[2]), pa(code[3]))
        a, b = pa(code[1]), pa(code[2])
        if b < a:
            a, b = b, a
        return ("eq", a, b)

    def atom_vars(self, code: AtomCode) -> FrozenSet[int]:
        out = set()

        def grab(arg):
            if arg[0] == "v":
                out.add(arg[1])

        if code[0] == "rel":
            for a in code[2]:
                grab(a)
        elif code[0] == "feq":
            for a in code[2]:
                grab(a)
            grab(code[3])
        else:
            grab(code[1])
            grab(code[2])
        return frozenset(out)

    # -- AST conversion ---------------------------------------------------

    def _term(self, arg) -> "Var | Const":
        return Var(f"v{arg[1]}") if arg[0] == "v" else Const(arg[1])

    def atom_ast(self, code: AtomCode) -> Atom:
        if code[0] == "rel":
            return RelAtom(code[1], tuple(self._term(a) for a in code[2]))
        if code[0] == "feq":
            return EqAtom(App(code[1], tuple(self._term(a) for a in code[2])), self._term(code[3]))
        return EqAtom(self._term(code[1]), self._term(code[2]))


@dataclass(frozen=True)
class CQSentence:
    """Existential closure of a conjunction of pool atoms."""

    codes: Tuple[AtomCode, ...]

    def vars(self, pool: AtomPool) -> FrozenSet[int]:
        out: FrozenSet[int] = frozenset()
        for c in self.codes:
            out |= pool.atom_vars(c)
        return out

    def to_posex(self, pool: AtomPool) -> PosEx:
        vs = tuple(f"v{i}" for i in sorted(self.vars(pool)))
        atoms = tuple(pool.atom_ast(c) for c in self.codes)
        matrix = Truth() if not atoms else (atoms[0] if len(atoms) == 1 else And(atoms))
        return PosEx(vs, matrix)

    def negation(self, pool: AtomPool) -> HUniversalSentence:
        return HUniversalSentence(self.to_posex(pool))


@dataclass(frozen=True)
class BoundedImplication:
    """forall F (exists rest premise -> exists rest conclusion).

    conclusion None encodes falsum, i.e. the h-universal negation of the
    premise (such entries carry no free variables)."""

    premise: Tuple[AtomCode, ...]
    conclusion: Optional[Tuple[AtomCode, ...]]
    free: Tuple[int, ...]

    def to_implication(self, pool: AtomPool) -> Implication:
        fset = set(self.free)
        fvars = tuple(f"v{i}" for i in sorted(fset))

        def side(codes: Tuple[AtomCode, ...]) -> PosEx:
            used = set()
            for c in codes:
                used |= pool.atom_vars(c)
            vs = tuple(f"v{i}" for i in sorted(used - fset))
            atoms = tuple(pool.atom_ast(c) for c in codes)
            matrix = Truth() if not atoms else (atoms[0] if len(atoms) == 1 else And(atoms))
            return PosEx(vs, matrix)

        concl = FALSE_POSEX if self.conclusion is None else side(self.conclusion)
        return Implication(fvars, side(self.premise), concl)


def _subsets(n: int, most: int) -> List[Tuple[int, ...]]:
    """The subsets of range(n) with at most `most` members, by size."""
    return [c for r in range(most + 1) for c in itertools.combinations(range(n), r)]


def _least_members(pool: AtomPool, sides: Sequence[Tuple[int, ...]], candidates: Iterable[Tuple]) -> List[Tuple]:
    """The least member of each renaming orbit met in `candidates`, in the
    order first met, with atom codes for pool indices.  A candidate is
    (premise, conclusion, free): two of `sides` (sorted tuples of indices
    into the sorted `pool.atoms`, so they order as their codes do; the
    conclusion may be None) and a sorted tuple of variables."""
    frees = _subsets(pool.k, pool.k)
    tables = []  # per variable permutation: the image of each side and free set
    for perm in itertools.permutations(range(pool.k)):
        img = [pool.index[pool.permute_atom(c, perm)] for c in pool.atoms]
        side_img = {s: tuple(sorted(img[i] for i in s)) for s in sides}
        side_img[None] = None
        tables.append((side_img, {f: tuple(sorted(perm[i] for i in f)) for f in frees}))
    seen = set()
    least: List[Tuple] = []
    for cand in candidates:
        if cand in seen:
            continue
        orbit = {(s[cand[0]], s[cand[1]], f[cand[2]]) for s, f in tables}
        seen |= orbit
        premise, conclusion, free = min(orbit)
        codes = None if conclusion is None else tuple(pool.atoms[i] for i in conclusion)
        least.append((tuple(pool.atoms[i] for i in premise), codes, free))
    return least


@lru_cache(maxsize=64)
def cq_corpus(sig: Signature, k: int) -> Tuple[CQSentence, ...]:
    """All CQ sentences with <= k variables and <= DEFAULT_MAX_ATOMS_CQ
    atoms, one per renaming class, in deterministic order.  Includes the
    empty conjunction only implicitly (it is trivially true everywhere) --
    entries are nonempty."""
    pool = atom_pool(sig, k)
    subsets = _subsets(len(pool.atoms), DEFAULT_MAX_ATOMS_CQ)
    least = _least_members(pool, subsets, ((s, (), ()) for s in subsets[1:]))
    out = [CQSentence(codes) for codes, _, _ in least]
    out.sort(key=lambda c: (len(c.codes), c.codes))
    return tuple(out)


@lru_cache(maxsize=64)
def implication_corpus(sig: Signature, k: int) -> Tuple[BoundedImplication, ...]:
    """All bounded h-inductive sentences forall F (exists P -> exists Q) with
    <= k pool variables and <= DEFAULT_MAX_ATOMS_IMPL atoms per side, one
    per renaming class."""
    pool = atom_pool(sig, k)
    subsets = _subsets(len(pool.atoms), DEFAULT_MAX_ATOMS_IMPL)
    frees = _subsets(k, k)
    if len(subsets) ** 2 * len(frees) > CORPUS_CAP:
        raise BudgetExceeded(
            f"implication corpus over {sig} at k={k} would exceed "
            f"{CORPUS_CAP} candidates; lower k"
        )
    candidates = itertools.chain(
        ((p, q, f) for p in subsets for q in subsets if p != q for f in frees),  # p == q: tautology
        # h-universal entries: premise -> falsum, necessarily with no free vars
        ((p, None, ()) for p in subsets[1:]),
    )
    out = [BoundedImplication(*m) for m in _least_members(pool, subsets, candidates)]
    out.sort(key=lambda b: (b.premise, b.conclusion is None, b.conclusion or (), b.free))
    return tuple(out)


@lru_cache(maxsize=64)
def atom_pool(sig: Signature, k: int) -> AtomPool:
    return AtomPool(sig, k)


class CorpusEvaluator:
    """Fast satisfaction of corpus entries over one structure."""

    def __init__(self, pool: AtomPool, structure: FiniteStructure):
        self.pool = pool
        self.structure = structure
        k = pool.k
        self.assignments = list(itertools.product(structure.universe, repeat=k))
        self.masks: List[int] = []
        for t in self.assignments:
            mask = 0
            for i, code in enumerate(pool.atoms):
                if self._atom_true(code, t):
                    mask |= 1 << i
            self.masks.append(mask)
        self._proj: Dict[Tuple[int, ...], List[Tuple[str, ...]]] = {}

    def _elem(self, arg, t) -> str:
        return t[arg[1]] if arg[0] == "v" else self.structure.const(arg[1])

    def _atom_true(self, code: AtomCode, t) -> bool:
        s = self.structure
        if code[0] == "rel":
            return tuple(self._elem(a, t) for a in code[2]) in s.rel(code[1])
        if code[0] == "feq":
            args = tuple(self._elem(a, t) for a in code[2])
            return s.func(code[1], args) == self._elem(code[3], t)
        return self._elem(code[1], t) == self._elem(code[2], t)

    def _projections(self, free: Tuple[int, ...]) -> List[Tuple[str, ...]]:
        if free not in self._proj:
            self._proj[free] = [tuple(t[i] for i in free) for t in self.assignments]
        return self._proj[free]

    def _codes_mask(self, codes: Sequence[AtomCode]) -> int:
        mask = 0
        for c in codes:
            mask |= 1 << self.pool.index[c]
        return mask

    def cq_true(self, cq: CQSentence) -> bool:
        need = self._codes_mask(cq.codes)
        return any(need & ~m == 0 for m in self.masks)

    def impl_true(self, imp: BoundedImplication) -> bool:
        p = self._codes_mask(imp.premise)
        if imp.conclusion is None:
            return all(p & ~m for m in self.masks)
        q = self._codes_mask(imp.conclusion)
        proj = self._projections(imp.free)
        sat_p = {proj[i] for i, m in enumerate(self.masks) if p & ~m == 0}
        if not sat_p:
            return True
        sat_q = {proj[i] for i, m in enumerate(self.masks) if q & ~m == 0}
        return sat_p <= sat_q


_EVALUATORS: Dict[Tuple, CorpusEvaluator] = {}


def evaluator(sig: Signature, k: int, structure: FiniteStructure) -> CorpusEvaluator:
    key = (sig, k, structure.key())
    if key not in _EVALUATORS:
        if len(_EVALUATORS) > 4096:
            _EVALUATORS.clear()
        _EVALUATORS[key] = CorpusEvaluator(atom_pool(sig, k), structure)
    return _EVALUATORS[key]


# -- corpus-relative theory fragments ---------------------------------------


def diag_plus_star(s: FiniteStructure, k: int) -> Tuple[CQSentence, ...]:
    """Positive sentences (over the base language) of CQ-size <= k true in s."""
    ev = evaluator(s.signature, k, s)
    return tuple(c for c in cq_corpus(s.signature, k) if ev.cq_true(c))


def tu_star(s: FiniteStructure, k: int) -> Tuple[CQSentence, ...]:
    """The h-universal fragment, listed by the positive sentences REFUTED by
    s (their negations are the h-universal sentences true in s)."""
    ev = evaluator(s.signature, k, s)
    return tuple(c for c in cq_corpus(s.signature, k) if not ev.cq_true(c))


def ti_star(s: FiniteStructure, k: int) -> Tuple[BoundedImplication, ...]:
    """Bounded h-inductive sentences (base language) true in s."""
    ev = evaluator(s.signature, k, s)
    return tuple(b for b in implication_corpus(s.signature, k) if ev.impl_true(b))
