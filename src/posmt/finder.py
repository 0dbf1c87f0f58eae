"""Bounded model search for h-inductive sentences.

A DFS over interpretation cells: the free constants, then the function
entries (higher arity first), then the relation entries, each tried in
universe order (relations false before true).  The cells are numbered as
`Orbits` lays a structure out; each has a slot in one flat value list,
`None` while unassigned, and elements are their indices in the universe.

Each implication is compiled into closures over `(env, val)`: `env` holds
the element indices of the variable slots (universal, then existential)
and `val` is the value list.  The closures evaluate three-valued, with
`None` for unknown.  A ground instance is the implication's status closure
with one `env`, and it watches a static superset of the cells it can read:
the exact cell where a symbol is applied to variables only, every cell of
the symbol where a constant or a function term is an argument.  None of
that depends on a search's seeds, so it is done once per (signature, size,
implications) into a ground program (`_ground`) that every search of that
size shares.  Assigning a cell re-checks only the still-unknown instances
that watch it.  One that is definitely false prunes the branch; one that
is definitely true stays marked satisfied until the DFS backtracks past
that assignment.

One cell-level search, `_search`, takes fixed cells: a map from a cell to
its preset value (true, false, or an element index) that the DFS never
assigns.  It first re-checks the instances that watch a fixed cell: a
false one leaves no model, and a true one stays satisfied for the whole
search.  `find_models` turns its seeds (facts fixed true, function entries
and constants) into fixed cells and builds a structure per model; the
quotient phase of amalgamation seeds it that way.  `models_up_to_size`
codes the models it meets and builds only each class's representative; for
a universal relational theory it fixes a smaller model's cells, true and
false, and searches only a new element's cells.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

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


class _Program:
    """The ground instances of implications over one (signature, size), as
    every search of that size starts from them.  `watch[c]` lists the
    instances that read cell c as (number, status closure, env), in
    instance order: implication order, then `itertools.product` order of
    `env`.  Instances already true with no cell assigned are left out, and
    `count` is the number of the rest.  `watch` is None when an instance is
    false with no cell assigned: that size has no model, for any seed."""

    __slots__ = ("count", "watch")

    def __init__(self, orbits: Orbits, implications: Sequence[Implication]):
        val = [None] * orbits.size
        elements = range(orbits.n)
        watch: List[List] = [[] for _ in val]
        count = 0
        for imp in implications:
            status, comp = _compile(orbits, imp)
            for env in itertools.product(elements, repeat=len(imp.vars)):
                st = status(env, val)
                if st is False:
                    self.count, self.watch = 0, None
                    return
                if st is True:
                    continue
                read = set(comp.static)
                for first, univ, offsets in comp.reads:
                    for s, m in univ:
                        first += env[s] * m
                    read.update(first + o for o in offsets)
                entry = (count, status, env)
                count += 1
                for c in read:
                    watch[c].append(entry)
        self.count, self.watch = count, watch


# Ground programs by (signature, size, implications), emptied in one go
# when full.
_PROGRAMS: Dict[Tuple, _Program] = {}


def _ground(orbits: Orbits, implications: Sequence[Implication]) -> _Program:
    """The ground program of `implications` over `orbits`' layout, made
    once per (signature, size, implications)."""
    implications = tuple(implications)
    key = (orbits.sig, orbits.n, implications)
    program = _PROGRAMS.get(key)
    if program is None:
        if len(_PROGRAMS) >= 64:
            _PROGRAMS.clear()
        program = _PROGRAMS[key] = _Program(orbits, implications)
    return program


def _search(
    orbits: Orbits,
    implications: Sequence[Implication],
    fixed: Mapping[int, object],
    node_cap: Optional[int] = None,
    spent: int = 0,
) -> Generator[List, None, int]:
    """Every assignment of the cells not in `fixed` under which the
    implications hold; `fixed` maps a cell to its preset value (True,
    False, or an element index).  The free cells are searched in order:
    the constants, the function entries (higher arity first), then the
    relation cells, each cell's values in universe order (false before
    true).  Yields the live value list in the lexicographic order of the
    free cells' values, so read it before resuming.

    Counts assignments on from `spent` and returns the count, so that
    consecutive searches can share one cap; raises BudgetExceeded past
    node_cap."""
    program = _ground(orbits, implications)
    watch = program.watch
    if watch is None:
        return spent
    sig, n = orbits.sig, orbits.n
    val: List = [None] * orbits.size
    for c, v in fixed.items():
        val[c] = v
    done = [False] * program.count  # instances satisfied by the current assignment
    # the instances that read a fixed cell: a false one leaves no model, and
    # a true one stays satisfied for the whole search, off the trail
    for c in fixed:
        for j, status, env in watch[c]:
            if not done[j]:
                st = status(env, val)
                if st is False:
                    return spent
                if st:
                    done[j] = True
    order = [orbits.blocks[c][0] for c in sig.constants]
    # higher-arity functions first: their cells feed more constraints, so
    # pruning kicks in earlier (e.g. group mul before inv)
    for name, arity in sorted(sig.functions, key=lambda fa: (-fa[1], fa[0])):
        first = orbits.blocks[name][0]
        order.extend(range(first, first + n ** arity))
    order = [c for c in order if c not in fixed]
    elements = tuple(range(n))
    domains = [elements] * len(order)
    relation_cells = [c for c in range(orbits.offsets[-1]) if c not in fixed]
    order += relation_cells
    domains += [(False, True)] * len(relation_cells)

    depth = len(order)
    if not depth:
        yield val
        return spent
    trail: List[int] = []  # satisfied instances, in the order they were marked
    mark = [0] * depth  # trail length on entering each level
    tried = [0] * depth  # values tried at each level
    nodes = spent
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
                return nodes
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
                yield val
            else:
                i += 1
                tried[i] = 0
                mark[i] = len(trail)


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
    orbits = Orbits(sig, len(universe))
    index = {e: i for i, e in enumerate(universe)}.__getitem__
    fixed: Dict[int, object] = {}
    for name, tuples in (seed_true_relations or {}).items():
        first = orbits.blocks[name][0]
        fixed.update((first + orbits.cell(map(index, t)), True) for t in tuples)
    for name, table in (seed_functions or {}).items():
        first = orbits.blocks[name][0]
        fixed.update((first + orbits.cell(map(index, args)), index(e)) for args, e in table.items())
    for name, e in (seed_constants or {}).items():
        fixed[orbits.blocks[name][0]] = index(e)
    build = orbits.builder(universe)
    for val in _search(orbits, implications, fixed, node_cap):
        yield build(val)


def _first_in_cell_order(codes: Sequence[int]) -> int:
    """The relation-only code whose cell values come first in cell order,
    false before true: the first of them an unseeded search meets."""
    best = codes[0]
    for code in codes:
        diff = code ^ best
        if diff & -diff & best:  # they first differ at a cell true in best
            best = code
    return best


def _extensions(
    orbits: Orbits, implications: Sequence[Implication], reps: Sequence[int],
    node_cap: Optional[int],
) -> Iterator[List]:
    """The models on n elements whose first n - 1 carry one of `reps`
    (codes of relation-only structures on n - 1 elements): one search per
    code, with its cells fixed, true and false, and one node cap over all
    of them, as over one search of every cell."""
    below = Orbits(orbits.sig, orbits.n - 1)
    lift = [(orbits.offsets[j] + orbits.cell(t), below.offsets[j] + below.cell(t))
            for j, (_, arity) in enumerate(orbits.sig.relations)
            for t in itertools.product(range(below.n), repeat=arity)]
    spent = 0
    for code in reps:
        fixed = {c: bool(code >> d & 1) for c, d in lift}
        spent = yield from _search(orbits, implications, fixed, node_cap, spent)


def models_up_to_size(
    sig: Signature,
    implications: Sequence[Implication],
    max_size: int,
    node_cap: Optional[int] = None,
) -> List[FiniteStructure]:
    """Models with |universe| <= max_size, one per isomorphism class,
    sorted by (size, canonical key).  A class is represented by its least
    image in search order, the first of its models an unseeded search on
    that size meets.

    Each model met is coded (`Orbits.code`); the first met in a class has
    its whole orbit of codes marked and is keyed once, by the least of the
    same images (`Orbits.least`), and only representatives are built.

    A universal relational theory (relations only, and no conclusion with
    an existential quantifier) is closed under induced substructures, so
    every model on n elements extends a representative on the first n - 1.
    Size n is then searched once per representative of size n - 1, with
    its cells fixed (true and false) and only the new element's free.  Any
    other theory gets one search over every cell per size."""
    names = element_names(max_size)
    extend = not sig.functions and not sig.constants and all(
        not imp.conclusion.vars for imp in implications)
    out: List[FiniteStructure] = []
    reps: List[int] = []
    for size in range(1, max_size + 1):
        orbits = Orbits(sig, size)
        if extend and size > 1:
            found = _extensions(orbits, implications, reps, node_cap)
        else:
            found = _search(orbits, implications, {}, node_cap)
        marked: Set[int] = set()
        classes = []
        for val in found:
            code = orbits.code(val)
            if code in marked:
                continue
            images = list(orbits.images(code))
            marked.update(images)
            classes.append((orbits.least(images), _first_in_cell_order(images) if extend else code))
        classes.sort()
        reps = [code for _, code in classes]
        build = orbits.builder(names[:size])
        out.extend(build(orbits.values(code)) for code in reps)
    return out
