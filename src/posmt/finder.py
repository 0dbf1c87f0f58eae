"""Bounded model search for h-inductive sentences.

A DFS over interpretation cells: the free constants, then the function
entries (higher arity first), then the relation entries, each tried in
universe order (relations false before true).  The cells are numbered as
`Orbits` lays a structure out, whose codes order relation-only models as
this search meets them; each has a slot in one flat value list, `None`
while unassigned, and elements are their indices in the universe.

Each implication is generated into one Python function, `status(env,
val)` (`_compile`): `env` holds the element indices of the universal
variables and `val` is the value list.  It evaluates three-valued: True once
the implication holds, False once it fails, None while unknown.  A ground
instance is the status function with one `env`, and it watches a static
superset of the cells it can read: the exact cell where a symbol is applied
to variables only, every cell of the symbol where a constant or a function
term is an argument.  None of that depends on a search's fixed cells, so
it is done once per (signature, size, implications) into a ground program
(`_ground`) that every search of that size shares.  Assigning a cell
re-checks only the still-unknown instances that watch it.  One that is
definitely false prunes the branch; one that is definitely true stays
marked satisfied until the DFS backtracks past that assignment.

One cell-level search, `_search`, takes fixed cells: a map from a cell to
its preset value (true, false, or an element index) that the DFS never
assigns.  It first re-checks the instances that watch a fixed cell: a
false one leaves no model, and a true one stays satisfied for the whole
search.  `find_models` passes its fixed cells on and builds a structure per
model; the quotient phase of amalgamation passes the cells its gluing
fixes.
`models_of_size` lists one size once per process, codes the models it
meets and builds only each class's representative; for a universal
relational theory it fixes a smaller model's cells, true and false, and
searches only a new element's cells.  `models_by_size` reads the sizes one
at a time, so a verdict settled at a small size lists no larger one.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Generator, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded, FormulaError
from .formulas import (
    And, Const, EqAtom, Falsum, Implication, Or, PosEx, PosQF, RelAtom, Term, Truth, Var,
)
from .structures import FiniteStructure, Orbits, Signature, element_names


class _Compiler:
    """Writes the premise and conclusion of one implication as Python
    expressions over the universal slot locals (v0, v1, ...) and the value
    list `val`, three-valued: True, False, or None while unknown.  An
    existential quantifier is unrolled into a disjunction of its matrix at
    every value of its variables, written as integer literals, so the first
    true witness stops it.  A subterm that may be unknown is bound to a
    temporary (t0, t1, ...) by a step `(tK := ...) is None`, and its atom is
    None when any of its steps is.  Collects the cells the expressions can
    read: `static` cells, read by every ground instance, and `reads`
    patterns for a symbol applied to variables.  A pattern (first cell,
    universal (slot, multiplier) pairs) reads the cell first +
    sum(env[slot] * multiplier)."""

    def __init__(self, orbits: Orbits, imp: Implication):
        self.orbits = orbits
        self.nvars = len(imp.vars)
        self.universal = {v: i for i, v in enumerate(imp.vars)}
        self.slots = self.universal  # the slots in scope
        self.bound: Dict[int, int] = {}  # existential slot -> its value in this disjunct
        self.static: Set[int] = set()
        self.reads: Set[Tuple[int, Tuple[Tuple[int, int], ...]]] = set()
        self.temps = 0

    def watched(self, env: Tuple[int, ...]) -> Set[int]:
        """The cells the instance at `env` can read."""
        read = set(self.static)
        for first, univ in self.reads:
            for s, m in univ:
                first += env[s] * m
            read.add(first)
        return read

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def posex(self, f: PosEx) -> str:
        self.slots = dict(self.universal)
        self.slots.update((v, self.nvars + i) for i, v in enumerate(f.vars))
        parts = []
        for ext in itertools.product(range(self.orbits.n), repeat=len(f.vars)):
            self.bound = dict(enumerate(ext, self.nvars))
            parts.append(self.qf(f.matrix))
        return parts[0] if len(parts) == 1 else self.join(parts, "True", "False")

    def join(self, parts: List[str], stop: str, rest: str) -> str:
        """The three-valued conjunction (stop False) or disjunction (stop
        True) of the expressions `parts`, left to right."""
        temps = [self.temp() for _ in parts]
        first = " or ".join(f"({t} := {p}) is {stop}" for t, p in zip(temps, parts))
        unknown = " or ".join(f"{t} is None" for t in temps)
        return f"{stop} if {first} else None if {unknown} else {rest}"

    def qf(self, f: PosQF) -> str:
        if isinstance(f, (Truth, Falsum)):
            return str(isinstance(f, Truth))
        if isinstance(f, (EqAtom, RelAtom)):
            steps: List[str] = []
            if isinstance(f, EqAtom):
                atom = f"{self.term(f.left, steps)} == {self.term(f.right, steps)}"
            else:
                atom = self.entry(f.name, f.args, steps)
            return f"None if {' or '.join(steps)} else {atom}" if steps else atom
        if isinstance(f, (And, Or)):
            stop, rest = ("False", "True") if isinstance(f, And) else ("True", "False")
            return self.join([self.qf(p) for p in f.parts], stop, rest) if f.parts else rest
        raise TypeError(f"not a positive quantifier-free formula: {f!r}")

    def term(self, t: Term, steps: List[str]) -> str:
        """A name or literal holding t's element: its slot's local or value,
        or a temporary bound by a step appended to `steps`."""
        if isinstance(t, Var):
            s = self.slots[t.name]
            return str(self.bound[s]) if s in self.bound else f"v{s}"
        if isinstance(t, Const):
            c = self.orbits.blocks[t.name][0]
            self.static.add(c)
            cell = f"val[{c}]"
        else:
            cell = self.entry(t.func, t.args, steps)
        name = self.temp()
        steps.append(f"({name} := {cell}) is None")
        return name

    def entry(self, name: str, args: Tuple[Term, ...], steps: List[str]) -> str:
        """`val` at the cell of `name` at `args`: a function entry or a
        relation's truth value."""
        first, arity = self.orbits.blocks[name]
        n = self.orbits.n
        if len(args) != arity:
            raise FormulaError(f"arity mismatch for {name}")
        if all(isinstance(a, Var) for a in args):
            pairs = [(self.slots[a.name], n ** (arity - 1 - i)) for i, a in enumerate(args)]
            offset = sum(self.bound[s] * m for s, m in pairs if s in self.bound)
            self.reads.add((first + offset, tuple((s, m) for s, m in pairs if s not in self.bound)))
        else:
            self.static.update(range(first, first + n ** arity))
        index = [str(first)] if first else []
        for i, a in enumerate(args):
            m = n ** (arity - 1 - i)
            index.append(self.term(a, steps) + (f" * {m}" if m > 1 else ""))
        return f"val[{' + '.join(index) or '0'}]"


def _compile(orbits: Orbits, imp: Implication):
    """The generated status function of `imp`, `status(env, val)`: True once
    satisfied, False once violated, None while unknown, with `env` the
    element indices of the universal slots.  Returned with its compiler's
    read sets."""
    comp = _Compiler(orbits, imp)
    premise = comp.posex(imp.premise)
    conclusion = comp.posex(imp.conclusion)
    source = (
        "def status(env, val):\n"
        f"    ({''.join(f'v{i}, ' for i in range(comp.nvars))}) = env\n"
        f"    p = {premise}\n"
        "    if p is False:\n"
        "        return True\n"
        f"    c = {conclusion}\n"
        "    if c is True:\n"
        "        return True\n"
        "    return None if p is None or c is None else False\n"
    )
    namespace: Dict[str, object] = {}
    exec(compile(source, "<implication>", "exec"), namespace)
    return namespace["status"], comp


class _Program:
    """The ground instances of implications over one (signature, size), as
    every search of that size starts from them.  `watch[c]` lists the
    instances that read cell c as (number, status function, env), in
    instance order: implication order, then `itertools.product` order of
    `env`.  Instances already true with no cell assigned are left out, and
    `count` is the number of the rest.  `watch` is None when an instance is
    false with no cell assigned: that size has no model, whatever cells are
    fixed."""

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
                entry = (count, status, env)
                count += 1
                for c in comp.watched(env):
                    watch[c].append(entry)
        self.count, self.watch = count, watch


@functools.lru_cache(maxsize=64)
def _ground(sig: Signature, n: int, implications: Tuple[Implication, ...]) -> _Program:
    """The ground program of `implications` over (sig, n), made once per
    (signature, size, implications)."""
    return _Program(Orbits.of(sig, n), implications)


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
    program = _ground(orbits.sig, orbits.n, tuple(implications))
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
    fixed: Optional[Mapping[int, object]] = None,
) -> Iterator[FiniteStructure]:
    """All total interpretations on `universe` satisfying the implications,
    with the `fixed` cells preset, given as `_search` takes them.
    Deterministic order; raises BudgetExceeded past node_cap assignments.
    """
    orbits = Orbits.of(sig, len(universe))
    build = orbits.builder(universe)
    for val in _search(orbits, implications, fixed or {}, node_cap):
        yield build(val)


def _lift(orbits: Orbits, reps: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The relation cells on the first n - 1 elements, in the order of the
    cells on n - 1 elements, and per code of `reps` (relation-only, on n - 1
    elements) the code on n elements that sets the same of those cells and
    no other."""
    cells = [orbits.offsets[j] + orbits.cell(t) for j, (_, arity) in enumerate(orbits.sig.relations)
             for t in itertools.product(range(orbits.n - 1), repeat=arity)]
    weights, below = [orbits.weights[c] for c in cells], Orbits.of(orbits.sig, orbits.n - 1)
    return cells, [sum(itertools.compress(weights, below.values(code))) for code in reps]


def _extensions(
    orbits: Orbits, implications: Sequence[Implication], cells: Sequence[int],
    seeds: Sequence[int], node_cap: Optional[int],
) -> Iterator[List]:
    """The models on n elements that agree with one of `seeds` on `cells`:
    one search per seed, with those cells fixed, true and false, and one
    node cap over all of them, as over one search of every cell."""
    spent = 0
    for seed in seeds:
        values = orbits.values(seed)
        fixed = {c: bool(values[c]) for c in cells}
        spent = yield from _search(orbits, implications, fixed, node_cap, spent)


@functools.lru_cache(maxsize=64)
def models_of_size(sig: Signature, implications: Tuple[Implication, ...], size: int,
                   node_cap: Optional[int] = None) -> Tuple[Tuple[int, ...], Tuple[FiniteStructure, ...]]:
    """The models on `size` elements, one per isomorphism class, sorted by
    canonical key, as codes and as structures; one node cap over the size.
    A class is represented by its least image in search order, the first of
    its models a search with no fixed cell on that size meets; for a
    relation-only code that is the least of its images as ints.

    Each model met is coded (`Orbits.code`); the first met in a class has
    the codes of its orbit that a later search may meet marked, and is
    keyed once, by its least image; both its images and that key are read
    off one sum of its lanes (`Orbits.orbit`).  Only representatives are
    built.

    A universal relational theory (relations only, and no conclusion with
    an existential quantifier) is closed under induced substructures, so
    every model on n elements extends a representative on the first n - 1.
    Size n is then searched once per representative of size n - 1, read
    from this list, with its cells fixed (true and false) and only the new
    element's free, and only the images that carry a representative there
    are marked.  Any other theory gets one search over every cell."""
    orbits = Orbits.of(sig, size)
    extend = not sig.functions and not sig.constants and all(
        not imp.conclusion.vars for imp in implications)
    mask, heads = 0, {0}  # every image may be met
    if extend and size > 1:
        cells, seeds = _lift(orbits, models_of_size(sig, implications, size - 1, node_cap)[0])
        mask, heads = sum(map(orbits.weights.__getitem__, cells)), set(seeds)
        found = _extensions(orbits, implications, cells, seeds, node_cap)
    else:
        found = _search(orbits, implications, {}, node_cap)
    marked: Set[int] = set()
    classes = []
    for val in found:
        code = orbits.code(val)
        if code in marked:
            continue
        images, least = orbits.orbit(code)
        marked.update(itertools.compress(images, map(heads.__contains__, map(mask.__and__, images))))
        classes.append((least, min(images) if extend else code))
    classes.sort()
    reps = tuple(code for _, code in classes)
    build = orbits.builder(element_names(size))
    return reps, tuple(build(orbits.values(code)) for code in reps)


def models_by_size(sig: Signature, implications: Sequence[Implication], max_size: int,
                   node_cap: Optional[int] = None) -> Iterator[Tuple[FiniteStructure, ...]]:
    """The lists of `models_of_size` for sizes 1, 2, ..., max_size, one at a
    time: a size is listed when it is first read, so a caller that stops
    early searches no larger size."""
    implications = tuple(implications)
    for size in range(1, max_size + 1):
        element_names(size)  # a size past the name pool fails before its search
        yield models_of_size(sig, implications, size, node_cap)[1]


def models_up_to_size(sig: Signature, implications: Sequence[Implication], max_size: int,
                      node_cap: Optional[int] = None) -> List[FiniteStructure]:
    """Models with |universe| <= max_size, one per isomorphism class,
    sorted by (size, canonical key): the lists of `models_by_size`."""
    element_names(max_size)  # a size past the name pool fails before any search
    return list(itertools.chain.from_iterable(models_by_size(sig, implications, max_size, node_cap)))
