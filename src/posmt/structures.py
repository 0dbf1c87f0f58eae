"""Finite signatures and structures: the semantic substrate.

Universes are nonempty, finite and ordered.  Element identifiers are opaque
strings.  All types are immutable after construction and safe to share for
concurrent reads.

`Orbits` is the one encoding of a structure over (signature, n): it lays
the structure out in cells, packs it into an int code, builds structures
back from cell values and lists a code's images under the n! permutations
of the elements.  Enumeration and the model lists keep the first structure
met in each class and mark its whole orbit, so every later member is
skipped.  The least image of a code (`Orbits.least`) orders the model
lists; `key()` and `canonical_key()` are read off the same codes.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import getitem
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import SignatureError, StructureError
from .records import field, record

# Default element names used by enumeration, large enough for size <= 12.
ELEMENT_NAMES = tuple("abcdefghijkl")


def element_names(size: int) -> Tuple[str, ...]:
    """The first `size` default element names."""
    if size > len(ELEMENT_NAMES):
        raise StructureError(
            f"size {size} exceeds the {len(ELEMENT_NAMES)} default element names"
        )
    return ELEMENT_NAMES[:size]


@record(frozen=True)
class Signature:
    """Relation, function and constant symbols with their arities.

    Equality and the antilogy are formula-level and never appear here.
    Function symbols have arity >= 1; 0-ary functions must be declared as
    constants.
    """

    relations: Tuple[Tuple[str, int], ...] = ()
    functions: Tuple[Tuple[str, int], ...] = ()
    constants: Tuple[str, ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.relations] + [n for n, _ in self.functions]
        names += list(self.constants)
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate symbol names in {names}")
        for name, arity in self.relations + self.functions:
            if not isinstance(arity, int) or arity < 1:
                raise SignatureError(f"arity of {name} must be a positive integer")

    @classmethod
    def make(
        cls,
        relations: Optional[Mapping[str, int]] = None,
        functions: Optional[Mapping[str, int]] = None,
        constants: Sequence[str] = (),
    ) -> "Signature":
        return cls(
            relations=tuple(sorted((relations or {}).items())),
            functions=tuple(sorted((functions or {}).items())),
            constants=tuple(constants),
        )

    @cached_property
    def relation_arities(self) -> Mapping[str, int]:
        return dict(self.relations)

    @cached_property
    def function_arities(self) -> Mapping[str, int]:
        return dict(self.functions)

    def has_symbol(self, name: str) -> bool:
        return (
            name in self.relation_arities
            or name in self.function_arities
            or name in self.constants
        )

    def with_constants(self, extra: Sequence[str]) -> "Signature":
        return Signature(
            relations=self.relations,
            functions=self.functions,
            constants=self.constants + tuple(extra),
        )


@record(frozen=True, eq=False)
class FiniteStructure:
    """A finite interpretation of a signature.

    `relations` maps each relation symbol to a frozenset of tuples,
    `functions` maps each function symbol to a total table (arg tuple ->
    element), `constants` maps each constant symbol to an element.  The
    dict fields are never mutated, so `key()` is built once; use it for hashing.
    """

    signature: Signature
    universe: Tuple[str, ...]
    relations: Mapping[str, FrozenSet[Tuple[str, ...]]] = field(default_factory=dict)
    functions: Mapping[str, Mapping[Tuple[str, ...], str]] = field(default_factory=dict)
    constants: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.universe:
            raise StructureError("universe must be nonempty")
        if len(set(self.universe)) != len(self.universe):
            raise StructureError("universe has repeated elements")
        elems = set(self.universe)
        for name, arity in self.signature.relations:
            for tup in self.relations.get(name, frozenset()):
                if len(tup) != arity or not set(tup) <= elems:
                    raise StructureError(f"bad tuple {tup} for relation {name}")
        for name, arity in self.signature.functions:
            table = self.functions.get(name)
            if table is None:
                raise StructureError(f"missing interpretation for function {name}")
            for args in itertools.product(self.universe, repeat=arity):
                if args not in table:
                    raise StructureError(f"function {name} not total at {args}")
                if table[args] not in elems:
                    raise StructureError(f"function {name} maps {args} outside universe")
        for name in self.signature.constants:
            if name not in self.constants:
                raise StructureError(f"missing interpretation for constant {name}")
            if self.constants[name] not in elems:
                raise StructureError(f"constant {name} interpreted outside universe")

    def rel(self, name: str) -> FrozenSet[Tuple[str, ...]]:
        return self.relations.get(name, frozenset())

    def func(self, name: str, args: Tuple[str, ...]) -> str:
        return self.functions[name][args]

    def const(self, name: str) -> str:
        return self.constants[name]

    def size(self) -> int:
        return len(self.universe)

    # -- identity ---------------------------------------------------------

    def key(self):
        """Hashable encoding of the labelled structure (not iso-invariant):
        the universe and the structure's `Orbits` code over it."""
        if "_key" not in self.__dict__:
            self.__dict__["_key"] = (self.universe, Orbits(self.signature, len(self.universe)).pack(self))
        return self.__dict__["_key"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteStructure):
            return NotImplemented
        return self.signature == other.signature and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.signature, self.key()))

    def canonical_key(self):
        """Iso-invariant encoding: the size and the least image of the
        structure's code (`Orbits.least`)."""
        orbits = Orbits(self.signature, len(self.universe))
        return len(self.universe), orbits.least(orbits.images(orbits.pack(self)))

    def rename(self, mapping: Mapping[str, str]) -> "FiniteStructure":
        """Relabel elements injectively."""
        if len(set(mapping.values())) != len(self.universe):
            raise StructureError("rename map is not injective")
        return FiniteStructure(
            signature=self.signature,
            universe=tuple(mapping[e] for e in self.universe),
            relations={
                n: frozenset(tuple(mapping[e] for e in t) for t in ts)
                for n, ts in self.relations.items()
            },
            functions={
                n: {
                    tuple(mapping[e] for e in args): mapping[v]
                    for args, v in table.items()
                }
                for n, table in self.functions.items()
            },
            constants={c: mapping[e] for c, e in self.constants.items()},
        )


def induced_substructure(s: FiniteStructure, subset: Sequence[str]) -> FiniteStructure:
    """Substructure on `subset`, which must be closed under functions and
    contain all constant interpretations."""
    sub = tuple(e for e in s.universe if e in set(subset))
    subset_set = set(sub)
    functions = {}
    for name, arity in s.signature.functions:
        table = {}
        for args in itertools.product(sub, repeat=arity):
            val = s.func(name, args)
            if val not in subset_set:
                raise StructureError(f"subset not closed under {name} at {args}")
            table[args] = val
        functions[name] = table
    for c in s.signature.constants:
        if s.const(c) not in subset_set:
            raise StructureError(f"subset misses interpretation of constant {c}")
    return FiniteStructure(
        signature=s.signature,
        universe=sub,
        relations={
            n: frozenset(t for t in s.rel(n) if set(t) <= subset_set)
            for n, _ in s.signature.relations
        },
        functions=functions,
        constants=dict(s.constants),
    )


def generated_substructure(
    s: FiniteStructure, seed: Sequence[str]
) -> Tuple[FiniteStructure, Dict[str, str]]:
    """Least substructure containing `seed` and all constants, closed under
    all functions.  Returns the structure and its inclusion map."""
    elems = set(seed)
    for e in elems:
        if e not in set(s.universe):
            raise StructureError(f"seed element {e} not in universe")
    elems |= {s.const(c) for c in s.signature.constants}
    if not elems:
        raise StructureError("empty seed over a constant-free signature")
    changed = True
    while changed:
        changed = False
        for name, arity in s.signature.functions:
            for args in itertools.product(sorted(elems), repeat=arity):
                val = s.func(name, args)
                if val not in elems:
                    elems.add(val)
                    changed = True
    sub = induced_substructure(s, sorted(elems, key=s.universe.index))
    return sub, {e: e for e in sub.universe}


class Orbits:
    """Structures of one signature over n elements packed into int codes,
    and each code's images under the n! permutations of the elements.

    A structure is laid out in `size` cells.  Relation j's cell i is
    `offsets[j] + i`, its element indices read as a base-n number, so a
    relation's cells come in `itertools.product` order.  Each function's
    entries in product order, then the constants, follow as the digits;
    `blocks` maps every symbol to its (first cell, arity).  A code is
    `bits * tail + digits`: `bits` has bit c set when relation cell c is
    true, and the digits are base-n element indices, the first most
    significant.  So counting through `range(tail)` walks them in
    `itertools.product` order of their values, and there are `count` codes
    in all.
    """

    def __init__(self, sig: Signature, n: int):
        self.sig, self.n = sig, n
        self.cells = [n ** arity for _, arity in sig.relations]
        self.offsets = list(itertools.accumulate(self.cells, initial=0))
        self.digits = sum(n ** arity for _, arity in sig.functions) + len(sig.constants)
        self.size = self.offsets[-1] + self.digits
        self.tail = n ** self.digits
        self.count = self.tail << self.offsets[-1]

    @cached_property
    def blocks(self) -> Dict[str, Tuple[int, int]]:
        """Symbol -> (first cell, arity); a constant has arity 0."""
        symbols = self.sig.relations + self.sig.functions + tuple((c, 0) for c in self.sig.constants)
        firsts = itertools.accumulate((self.n ** arity for _, arity in symbols), initial=0)
        return {name: (first, arity) for (name, arity), first in zip(symbols, firsts)}

    def _cell(self, t) -> int:
        cell = 0
        for e in t:
            cell = cell * self.n + e
        return cell

    def pack(self, s: FiniteStructure) -> int:
        index = {e: i for i, e in enumerate(s.universe)}.__getitem__
        bits = 0
        for (name, _), offset in zip(self.sig.relations, self.offsets):
            for t in s.rel(name):
                bits |= 1 << (offset + self._cell(map(index, t)))
        values = [index(s.functions[name][args]) for name, arity in self.sig.functions
                  for args in itertools.product(s.universe, repeat=arity)]
        values += [index(s.constants[c]) for c in self.sig.constants]
        return bits * self.tail + self._cell(values)

    def unpack(self, code: int) -> Tuple[int, list]:
        """The relation bits and the list of digits of a code."""
        bits, rest = divmod(code, self.tail)
        values = [0] * self.digits
        for i in reversed(range(self.digits)):
            rest, values[i] = divmod(rest, self.n)
        return bits, values

    def values(self, code: int) -> list:
        """The cell values of a code: relation cells 0 or 1, then the digits."""
        bits, digits = self.unpack(code)
        return [bits >> c & 1 for c in range(self.offsets[-1])] + digits

    def builder(self, universe: Tuple[str, ...]):
        """The function from a list of cell values (relation cells true or
        false, the others element indices) to the structure on `universe`.
        Every structure it builds shares the same argument tuples."""
        sig = self.sig

        def entries(name, arity):
            return list(enumerate(itertools.product(universe, repeat=arity), self.blocks[name][0]))
        relations = [(name, entries(name, arity)) for name, arity in sig.relations]
        functions = [(name, entries(name, arity)) for name, arity in sig.functions]
        constants = [(c, self.blocks[c][0]) for c in sig.constants]

        def build(val) -> FiniteStructure:
            return FiniteStructure(
                sig, universe,
                {name: frozenset(t for c, t in cells if val[c]) for name, cells in relations},
                {name: {args: universe[val[c]] for c, args in cells} for name, cells in functions},
                {name: universe[val[c]] for name, c in constants},
            )
        return build

    def codes(self) -> Iterator[int]:
        """Every code in enumeration order: each relation's cell sets by
        size, then as `itertools.combinations` of its cells (the first
        relation outermost), then the digits counting up."""
        last, tail = len(self.cells) - 1, self.tail

        def walk(j: int, bits: int) -> Iterator[int]:
            cells = [1 << (self.offsets[j] + i) for i in range(self.cells[j])]
            for r in range(len(cells) + 1):
                for combo in itertools.combinations(cells, r):
                    if j < last:
                        yield from walk(j + 1, bits | sum(combo))
                    else:
                        yield bits | sum(combo)
        return itertools.chain.from_iterable(
            range(b * tail, (b + 1) * tail) for b in (walk(0, 0) if self.cells else [0])
        )

    def images(self, code: int) -> Iterator[int]:
        """The code of the structure relabelled by each permutation of the
        elements, repeated once per automorphism."""
        bits, values = self.unpack(code)
        ones = [i for i in range(bits.bit_length()) if bits >> i & 1]
        for bit_images, digit_images in self._tables:
            yield sum(map(bit_images.__getitem__, ones)) + sum(map(getitem, digit_images, values))

    def least(self, images: Iterable[int]):
        """The least of a code's images (`images(code)`), read as (each
        relation's set cells, the digits).  Cells order as their index
        tuples in product order, and a function table lists every argument
        tuple, so this orders codes as the least relabelling's sorted tuples
        and tables would."""
        return min(map(self._read, images))

    def _read(self, code: int):
        bits, digits = self.unpack(code)
        return tuple(
            tuple(i for i in range(cells) if bits >> (offset + i) & 1)
            for cells, offset in zip(self.cells, self.offsets)
        ), tuple(digits)

    @cached_property
    def _tables(self):
        """Per permutation p: the code weight of the image of each relation
        bit, and per digit the code weight of p[v] at the digit's image
        position, for each value v."""
        n, tail = self.n, self.tail
        weights = [n ** (self.digits - 1 - i) for i in range(self.digits)]
        tables = []
        for p in itertools.permutations(range(n)):
            bit_images = tuple(
                tail << (offset + self._cell(p[e] for e in t))
                for (_, arity), offset in zip(self.sig.relations, self.offsets)
                for t in itertools.product(range(n), repeat=arity)
            )
            positions, start = [], 0
            for _, arity in self.sig.functions:
                positions += [start + self._cell(p[e] for e in args)
                              for args in itertools.product(range(n), repeat=arity)]
                start += n ** arity
            positions += range(start, self.digits)
            digit_images = [tuple(weights[q] * v for v in p) for q in positions]
            tables.append((bit_images, digit_images))
        return tables


def enumerate_structures(sig: Signature, max_size: int) -> Iterator[FiniteStructure]:
    """The first structure of each isomorphism class with |universe| <=
    max_size, in deterministic order: by size, then each relation's tuple
    sets by size and then as combinations of its tuples (the first relation
    outermost), then the function tables and constants in
    `itertools.product` order.

    Codes (`Orbits`) are walked in that order, one byte per code marks the
    orbit of each structure yielded, and a structure is built only for an
    unmarked code.
    """
    if max_size < 1:
        raise StructureError("max_size must be >= 1")
    names = element_names(max_size)
    for size in range(1, max_size + 1):
        orbits = Orbits(sig, size)
        build = orbits.builder(names[:size])
        marked = bytearray(orbits.count)
        for code in orbits.codes():
            if marked[code]:
                continue
            yield build(orbits.values(code))
            for image in orbits.images(code):
                marked[image] = 1


def are_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    if a.signature != b.signature or a.size() != b.size():
        return False
    orbits = Orbits(a.signature, a.size())
    return orbits.pack(b) in orbits.images(orbits.pack(a))


def disjoint_rename(a: FiniteStructure, b: FiniteStructure) -> Tuple[FiniteStructure, FiniteStructure]:
    """Rename the two universes apart (used when forming sums)."""
    ra = a.rename({e: "L." + e for e in a.universe})
    rb = b.rename({e: "R." + e for e in b.universe})
    return ra, rb


class UnionFind:
    """Path-halving union-find over hashable items (a scratch table for
    quotients; unlike the structures above, it is mutated in place)."""

    def __init__(self, items: Sequence):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y) -> None:
        self.parent[self.find(x)] = self.find(y)
