"""Bounded model search for h-inductive sentences.

A DFS over interpretation cells: the unseeded constants, then the function
entries (higher arity first), then the relation entries, each tried in
universe order (relations false before true).  The cells are numbered as
`Orbits` lays a structure out; each has a slot in one flat value list,
`None` while unassigned, and elements are their indices in the universe.

Each implication is compiled once per search into closures over
`(env, val)`: `env` holds the element indices of the variable slots
(universal, then existential) and `val` is the value list.  The closures
evaluate three-valued, with `None` for unknown.  A ground instance is the
implication's status closure with one `env`, and it watches a static
superset of the cells it can read: the exact cell where a symbol is
applied to variables only, every cell of the symbol where a constant or a
function term is an argument.  Assigning a cell re-checks only the
still-unknown instances that watch it.  One that is definitely false
prunes the branch; one that is definitely true stays marked satisfied
until the DFS backtracks past that assignment.  Supports a frozen partial
seed (used for quotient completion and joint-consistency candidates).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded, FormulaError
from .formulas import (
    FALSE_POSEX, TRUE_POSEX, And, Const, EqAtom, Falsum, Implication, Or, PosEx,
    PosQF, RelAtom, Term, Truth, Var,
)
from .structures import FiniteStructure, Orbits, Signature, element_names

# A compiled formula or term: (env, val) -> value, None while unknown.
_Eval = Callable[[Tuple[int, ...], List], object]


class _Compiler:
    """Compiles the premise and conclusion of one implication, collecting
    the cells they can read: `static` cells, read by every ground instance,
    and `reads` patterns for a symbol applied to variables.  A pattern
    (first cell, universal (slot, multiplier) pairs, offsets) reads the
    cells first + sum(env[slot] * multiplier) + offset, one offset per
    value of the existential variables among the arguments."""

    def __init__(self, orbits: Orbits, imp: Implication):
        self.orbits = orbits
        self.nvars = len(imp.vars)
        self.universal = {v: i for i, v in enumerate(imp.vars)}
        self.slots = self.universal  # the slots in scope
        self.exts: List[Tuple[int, ...]] = [()]  # values of the existential slots
        self.static: Set[int] = set()
        self.reads: List[Tuple[int, Tuple[Tuple[int, int], ...], Tuple[int, ...]]] = []

    def posex(self, f: PosEx) -> _Eval:
        self.slots = dict(self.universal)
        self.slots.update((v, self.nvars + i) for i, v in enumerate(f.vars))
        exts = self.exts = list(itertools.product(range(self.orbits.n), repeat=len(f.vars)))
        matrix = self.qf(f.matrix)
        if not f.vars:
            return matrix

        def exists(env, val):
            result = False
            for e in exts:
                v = matrix(env + e, val)
                if v is True:
                    return True
                if v is None:
                    result = None
            return result
        return exists

    def qf(self, f: PosQF) -> _Eval:
        if isinstance(f, Truth):
            return lambda env, val: True
        if isinstance(f, Falsum):
            return lambda env, val: False
        if isinstance(f, EqAtom):
            if isinstance(f.left, Var) and isinstance(f.right, Var):
                s, u = self.slots[f.left.name], self.slots[f.right.name]
                return lambda env, val: env[s] == env[u]
            left, right = self.term(f.left), self.term(f.right)

            def eq(env, val):
                a = left(env, val)
                if a is None:
                    return None
                b = right(env, val)
                if b is None:
                    return None
                return a == b
            return eq
        if isinstance(f, RelAtom):
            return self.entry(f.name, f.args)
        if isinstance(f, (And, Or)):
            parts = [self.qf(p) for p in f.parts]
            stop, rest = (False, True) if isinstance(f, And) else (True, False)
            if len(parts) == 2:
                first, second = parts

                def pair(env, val):
                    u = first(env, val)
                    if u is stop:
                        return stop
                    v = second(env, val)
                    if v is stop:
                        return stop
                    return None if u is None or v is None else rest
                return pair

            def junction(env, val):
                result = rest
                for p in parts:
                    v = p(env, val)
                    if v is stop:
                        return stop
                    if v is None:
                        result = None
                return result
            return junction
        raise TypeError(f"not a positive quantifier-free formula: {f!r}")

    def term(self, t: Term) -> _Eval:
        if isinstance(t, Var):
            s = self.slots[t.name]
            return lambda env, val: env[s]
        if isinstance(t, Const):
            c = self.orbits.blocks[t.name][0]
            self.static.add(c)
            return lambda env, val: val[c]
        return self.entry(t.func, t.args)

    def entry(self, name: str, args: Tuple[Term, ...]) -> _Eval:
        """The value of the cell of `name` at `args`: a function entry or
        a relation's truth value."""
        first, arity = self.orbits.blocks[name]
        n = self.orbits.n
        if len(args) != arity:
            raise FormulaError(f"arity mismatch for {name}")
        if all(isinstance(a, Var) for a in args):
            ss = tuple(self.slots[a.name] for a in args)
            pairs = [(s, n ** (arity - 1 - i)) for i, s in enumerate(ss)]
            k = self.nvars
            ex = [(s - k, m) for s, m in pairs if s >= k]
            offsets = {sum(e[s] * m for s, m in ex) for e in self.exts} if ex else {0}
            self.reads.append((first, tuple((s, m) for s, m in pairs if s < k), tuple(sorted(offsets))))
            if arity == 1:
                (s,) = ss
                return lambda env, val: val[first + env[s]]
            if arity == 2:
                s, u = ss
                return lambda env, val: val[first + env[s] * n + env[u]]
        else:
            self.static.update(range(first, first + n ** arity))
        subs = [self.term(a) for a in args]

        def apply(env, val):
            i = 0
            for sub in subs:
                v = sub(env, val)
                if v is None:
                    return None
                i = i * n + v
            return val[first + i]
        return apply


def _compile(orbits: Orbits, imp: Implication):
    """The status closure of `imp` (True once satisfied, False once
    violated, None while unknown) and its compiler's read sets."""
    comp = _Compiler(orbits, imp)
    premise = comp.posex(imp.premise)
    conclusion = comp.posex(imp.conclusion)
    if imp.premise == TRUE_POSEX:
        return conclusion, comp
    if imp.conclusion == FALSE_POSEX:
        def refuted(env, val):
            p = premise(env, val)
            return None if p is None else not p
        return refuted, comp

    def status(env, val):
        p = premise(env, val)
        if p is False:
            return True
        c = conclusion(env, val)
        if c is True:
            return True
        if p is True and c is False:
            return False
        return None
    return status, comp


def find_models(
    sig: Signature,
    universe: Tuple[str, ...],
    implications: Sequence[Implication],
    node_cap: Optional[int] = None,
    seed_true_relations: Optional[Mapping[str, Sequence[Tuple[str, ...]]]] = None,
    seed_functions: Optional[Mapping[str, Mapping[Tuple[str, ...], str]]] = None,
    seed_constants: Optional[Mapping[str, str]] = None,
) -> Iterator[FiniteStructure]:
    """All total interpretations on `universe` satisfying the implications.

    Seeded relation facts are fixed true, and every other relation fact
    stays free.  Seeded function entries and constants are fixed.
    Deterministic order; raises BudgetExceeded past node_cap assignments.
    """
    n = len(universe)
    orbits = Orbits(sig, n)
    index = {e: i for i, e in enumerate(universe)}
    val: List = [None] * orbits.size
    order: List[int] = []
    for c in sig.constants:
        if seed_constants and c in seed_constants:
            val[orbits.blocks[c][0]] = index[seed_constants[c]]
        else:
            order.append(orbits.blocks[c][0])
    # higher-arity functions first: their cells feed more constraints, so
    # pruning kicks in earlier (e.g. group mul before inv)
    for name, arity in sorted(sig.functions, key=lambda fa: (-fa[1], fa[0])):
        seeded = (seed_functions or {}).get(name, {})
        first = orbits.blocks[name][0]
        for i, args in enumerate(itertools.product(universe, repeat=arity)):
            if args in seeded:
                val[first + i] = index[seeded[args]]
            else:
                order.append(first + i)
    elements = tuple(range(n))
    domains = [elements] * len(order)
    for name, arity in sig.relations:
        seeded_tuples = set(map(tuple, (seed_true_relations or {}).get(name, ())))
        first = orbits.blocks[name][0]
        for i, tup in enumerate(itertools.product(universe, repeat=arity)):
            if tup in seeded_tuples:
                val[first + i] = True
            else:
                order.append(first + i)
                domains.append((False, True))

    free = [False] * orbits.size
    for c in order:
        free[c] = True
    watch: List[List] = [[] for _ in range(orbits.size)]
    count = 0
    for imp in implications:
        status, comp = _compile(orbits, imp)
        static = [c for c in comp.static if free[c]]
        for env in itertools.product(elements, repeat=len(imp.vars)):
            st = status(env, val)
            if st is False:
                return
            if st is True:
                continue
            read = set(static)
            for first, univ, offsets in comp.reads:
                for s, m in univ:
                    first += env[s] * m
                for o in offsets:
                    if free[first + o]:
                        read.add(first + o)
            entry = (count, status, env)
            count += 1
            for c in read:
                watch[c].append(entry)

    build = orbits.builder(universe)
    depth = len(order)
    if not depth:
        yield build(val)
        return
    done = [False] * count  # instances satisfied by the current assignment
    trail: List[int] = []  # satisfied instances, in the order they were marked
    mark = [0] * depth  # trail length on entering each level
    tried = [0] * depth  # values tried at each level
    nodes = 0
    i = 0
    while True:
        m = mark[i]
        if len(trail) > m:
            for j in trail[m:]:
                done[j] = False
            del trail[m:]
        c = order[i]
        domain = domains[i]
        k = tried[i]
        if k == len(domain):
            val[c] = None
            if not i:
                return
            i -= 1
            continue
        tried[i] = k + 1
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise BudgetExceeded(f"model search exceeded node cap {node_cap}")
        val[c] = domain[k]
        for j, status, env in watch[c]:
            if not done[j]:
                st = status(env, val)
                if st is None:
                    continue
                if st is False:
                    break
                done[j] = True
                trail.append(j)
        else:
            if i + 1 == depth:
                yield build(val)
            else:
                i += 1
                tried[i] = 0
                mark[i] = len(trail)


def models_up_to_size(
    sig: Signature,
    implications: Sequence[Implication],
    max_size: int,
    node_cap: Optional[int] = None,
) -> List[FiniteStructure]:
    """Models with |universe| <= max_size, the first found of each
    isomorphism class, sorted stably by (size, canonical key).  The first
    model met in a class has its whole orbit of codes (`Orbits`) marked and
    is keyed once, by the least image of its code (`Orbits.least`)."""
    names = element_names(max_size)
    out: List[FiniteStructure] = []
    for size in range(1, max_size + 1):
        universe = names[:size]
        orbits = Orbits(sig, size)
        marked = set()
        keyed = []
        for st in find_models(sig, universe, implications, node_cap=node_cap):
            code = orbits.pack(st)
            if code in marked:
                continue
            marked.update(orbits.images(code))
            keyed.append((orbits.least(code), st))
        keyed.sort(key=lambda kv: kv[0])
        out.extend(st for _, st in keyed)
    return out
