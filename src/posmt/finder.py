"""Bounded model search for h-inductive sentences.

A DFS over interpretation cells (constants, function entries, relation
entries) with three-valued evaluation of the ground instances of the
sentences: any instance that is definitely false prunes the branch.
Supports a frozen partial seed (used for quotient completion and
joint-consistency candidates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import BudgetExceeded
from .formulas import (
    And, Const, EqAtom, Falsum, Implication, Or, PosEx, PosQF, RelAtom, Term,
    Truth, Var,
)
from .structures import FiniteStructure, Signature, element_names

UNKNOWN = "unknown"


class _Partial:
    """Mutable partial interpretation over a fixed universe."""

    def __init__(self, sig: Signature, universe: Tuple[str, ...]):
        self.sig = sig
        self.universe = universe
        self.rel: Dict[Tuple[str, Tuple[str, ...]], Optional[bool]] = {}
        self.func: Dict[Tuple[str, Tuple[str, ...]], Optional[str]] = {}
        self.const: Dict[str, Optional[str]] = {}
        for name, arity in sig.relations:
            for tup in itertools.product(universe, repeat=arity):
                self.rel[(name, tup)] = None
        for name, arity in sig.functions:
            for args in itertools.product(universe, repeat=arity):
                self.func[(name, args)] = None
        for c in sig.constants:
            self.const[c] = None

    def to_structure(self) -> FiniteStructure:
        relations = {
            name: frozenset(t for (n, t), v in self.rel.items() if n == name and v)
            for name, _ in self.sig.relations
        }
        functions: Dict[str, Dict[Tuple[str, ...], str]] = {}
        for (name, args), val in self.func.items():
            assert val is not None
            functions.setdefault(name, {})[args] = val
        for name, _ in self.sig.functions:
            functions.setdefault(name, {})
        constants = {}
        for c, v in self.const.items():
            assert v is not None
            constants[c] = v
        return FiniteStructure(self.sig, self.universe, relations, functions, constants)


def _eval3_term(ps: _Partial, t: Term, env: Mapping[str, str]) -> Optional[str]:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return ps.const[t.name]
    vals = []
    for a in t.args:
        v = _eval3_term(ps, a, env)
        if v is None:
            return None
        vals.append(v)
    return ps.func[(t.func, tuple(vals))]


def _eval3_qf(ps: _Partial, f: PosQF, env: Mapping[str, str]):
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsum):
        return False
    if isinstance(f, EqAtom):
        lv = _eval3_term(ps, f.left, env)
        rv = _eval3_term(ps, f.right, env)
        if lv is None or rv is None:
            return UNKNOWN
        return lv == rv
    if isinstance(f, RelAtom):
        vals = []
        for a in f.args:
            v = _eval3_term(ps, a, env)
            if v is None:
                return UNKNOWN
            vals.append(v)
        v = ps.rel[(f.name, tuple(vals))]
        return UNKNOWN if v is None else v
    if isinstance(f, And):
        result = True
        for p in f.parts:
            v = _eval3_qf(ps, p, env)
            if v is False:
                return False
            if v is UNKNOWN:
                result = UNKNOWN
        return result
    if isinstance(f, Or):
        result = False
        for p in f.parts:
            v = _eval3_qf(ps, p, env)
            if v is True:
                return True
            if v is UNKNOWN:
                result = UNKNOWN
        return result
    raise TypeError(f"not a positive quantifier-free formula: {f!r}")


def _eval3_posex(ps: _Partial, f: PosEx, env: Mapping[str, str]):
    if not f.vars:
        return _eval3_qf(ps, f.matrix, env)
    result = False
    for vals in itertools.product(ps.universe, repeat=len(f.vars)):
        e2 = dict(env)
        e2.update(zip(f.vars, vals))
        v = _eval3_qf(ps, f.matrix, e2)
        if v is True:
            return True
        if v is UNKNOWN:
            result = UNKNOWN
    return result


@dataclass
class _Instance:
    premise: PosEx
    conclusion: PosEx
    env: Dict[str, str]

    def status(self, ps: _Partial):
        p = _eval3_posex(ps, self.premise, self.env)
        if p is False:
            return True
        c = _eval3_posex(ps, self.conclusion, self.env)
        if c is True:
            return True
        if p is True and c is False:
            return False
        return UNKNOWN


def find_models(
    sig: Signature,
    universe: Tuple[str, ...],
    implications: Sequence[Implication],
    node_cap: Optional[int] = None,
    seed_true_relations: Optional[Mapping[str, Sequence[Tuple[str, ...]]]] = None,
    seed_functions: Optional[Mapping[str, Mapping[Tuple[str, ...], str]]] = None,
    seed_constants: Optional[Mapping[str, str]] = None,
    freeze_relations: bool = False,
) -> Iterator[FiniteStructure]:
    """All total interpretations on `universe` satisfying the implications.

    Seeded relation facts are fixed true (others stay free unless
    freeze_relations, which fixes them false).  Seeded function entries and
    constants are fixed.  Deterministic order; raises BudgetExceeded past
    node_cap assignments.
    """
    ps = _Partial(sig, universe)
    cells: List[Tuple] = []
    for c in sig.constants:
        if seed_constants and c in seed_constants:
            ps.const[c] = seed_constants[c]
        else:
            cells.append(("const", c))
    # higher-arity functions first: their cells feed more constraints, so
    # pruning kicks in earlier (e.g. group mul before inv)
    for name, arity in sorted(sig.functions, key=lambda fa: (-fa[1], fa[0])):
        seeded = (seed_functions or {}).get(name, {})
        for args in itertools.product(universe, repeat=arity):
            if args in seeded:
                ps.func[(name, args)] = seeded[args]
            else:
                cells.append(("func", name, args))
    for name, arity in sig.relations:
        seeded_tuples = set(map(tuple, (seed_true_relations or {}).get(name, ())))
        for tup in itertools.product(universe, repeat=arity):
            if tup in seeded_tuples:
                ps.rel[(name, tup)] = True
            elif freeze_relations:
                ps.rel[(name, tup)] = False
            else:
                cells.append(("rel", name, tup))

    instances: List[_Instance] = []
    for imp in implications:
        for vals in itertools.product(universe, repeat=len(imp.vars)):
            instances.append(_Instance(imp.premise, imp.conclusion, dict(zip(imp.vars, vals))))

    nodes = 0

    def check(active: List[int]):
        """Returns (pruned, still_active)."""
        still = []
        for idx in active:
            st = instances[idx].status(ps)
            if st is False:
                return True, still
            if st is UNKNOWN:
                still.append(idx)
        return False, still

    def dfs(i: int, active: List[int]) -> Iterator[FiniteStructure]:
        nonlocal nodes
        if i == len(cells):
            if not active:
                yield ps.to_structure()
            else:
                # all cells assigned: statuses must be definite
                if all(instances[idx].status(ps) is True for idx in active):
                    yield ps.to_structure()
            return
        cell = cells[i]
        if cell[0] == "rel":
            domain: Sequence = (False, True)
        else:
            domain = universe
        for value in domain:
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise BudgetExceeded(f"model search exceeded node cap {node_cap}")
            _set(ps, cell, value)
            pruned, still = check(active)
            if not pruned:
                yield from dfs(i + 1, still)
            _set(ps, cell, None)

    pruned, active = check(list(range(len(instances))))
    if not pruned:
        yield from dfs(0, active)


def _set(ps: _Partial, cell: Tuple, value) -> None:
    if cell[0] == "const":
        ps.const[cell[1]] = value
    elif cell[0] == "func":
        ps.func[(cell[1], cell[2])] = value
    else:
        ps.rel[(cell[1], cell[2])] = value


def models_up_to_size(
    sig: Signature,
    implications: Sequence[Implication],
    max_size: int,
    node_cap: Optional[int] = None,
    up_to_iso: bool = True,
) -> List[FiniteStructure]:
    """Models with |universe| <= max_size, the first found of each
    isomorphism class when up_to_iso, sorted stably by (size, canonical
    key).  The models are grouped by `class_key`, so the canonical key is
    computed once per class."""
    names = element_names(max_size)
    out: List[FiniteStructure] = []
    for size in range(1, max_size + 1):
        universe = names[:size]
        canonical = {}
        keyed = []
        for st in find_models(sig, universe, implications, node_cap=node_cap):
            cls = st.class_key()
            ck = canonical.get(cls)
            if ck is None:
                ck = canonical[cls] = st.canonical_key()
            elif up_to_iso:
                continue
            keyed.append((ck, st))
        keyed.sort(key=lambda kv: kv[0])
        out.extend(st for _, st in keyed)
    return out
