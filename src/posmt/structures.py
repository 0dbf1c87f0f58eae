"""Finite signatures and structures: the semantic substrate.

Universes are nonempty, finite and ordered.  Element identifiers are opaque
strings.  All types are immutable after construction and safe to share for
concurrent reads.

`Orbits.of(signature, n)` is the one encoding of a structure over n
elements: it lays the structure out in cells, packs it into an int code,
builds structures back from cell values, and reads a code's images under
the n! permutations of the elements off one sum of big ints with a field
per permutation (SWAR lanes).  Relation cell 0 is a code's most
significant bit, so codes order as their cell values do, which is the
finder's search order.  Every list up to isomorphism is a model list of
the finder, which marks the orbit of the first model met in each class
(only the codes a later search can meet), so later members are skipped;
all structures are the empty theory's models (`enumerate_structures`).
The least image (`Orbits.least`, one `min` over a lane sum) orders the
lists; `key()` and `canonical_key()` read the codes.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property, lru_cache
from operator import getitem, mul
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import SignatureError, StructureError
from .records import field, record

# Default element names used by enumeration, large enough for size <= 12.
ELEMENT_NAMES = tuple("abcdefghijkl")

# memoryview formats of the lane fields that fit a word, in the lanes' byte order
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


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
            self.__dict__["_key"] = (self.universe, Orbits.of(self.signature, len(self.universe)).pack(self))
        return self.__dict__["_key"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteStructure):
            return NotImplemented
        return self.signature == other.signature and self.key() == other.key()

    def __hash__(self) -> int:
        # equal structures have equal keys; `__eq__` also compares signatures
        return hash(self.key())

    def canonical_key(self):
        """Iso-invariant encoding: the size and the least image of the
        structure's code (`Orbits.least`)."""
        orbits = Orbits.of(self.signature, len(self.universe))
        return len(self.universe), orbits.least(orbits.pack(self))

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


class Orbits:
    """Structures of one signature over n elements packed into int codes,
    and each code's images under the n! permutations of the elements.

    A structure is laid out in `size` cells.  Relation j's cell i is
    `offsets[j] + i`, its element indices read as a base-n number, so a
    relation's cells come in `itertools.product` order.  Each function's
    entries in product order, then the constants, follow as the digits;
    `blocks` maps every symbol to its (first cell, arity).  A code is
    `bits * tail + digits`: `bits` holds the relation cells' truth values,
    cell 0 most significant, and the digits are base-n element indices, the
    first most significant.  So codes order as the lists of their cell
    values (`values`) do, and there are `count` codes in all; `weights`
    holds each cell's place value, and only this class applies it.
    """

    def __init__(self, sig: Signature, n: int):
        self.sig, self.n = sig, n
        self.cells = [n ** arity for _, arity in sig.relations]
        self.offsets = list(itertools.accumulate(self.cells, initial=0))
        self.digits = sum(n ** arity for _, arity in sig.functions) + len(sig.constants)
        self.size = self.offsets[-1] + self.digits
        self.tail = n ** self.digits
        self.count = self.tail << self.offsets[-1]
        # the code weight of each cell: of a relation cell's truth, of a digit's value
        self.weights = [self.tail << c for c in reversed(range(self.offsets[-1]))] + [
            n ** (self.digits - 1 - i) for i in range(self.digits)]

    @classmethod
    @lru_cache(maxsize=64)
    def of(cls, sig: Signature, n: int) -> "Orbits":
        """The one `Orbits` of (sig, n), so its lanes are built once."""
        return cls(sig, n)

    @cached_property
    def blocks(self) -> Dict[str, Tuple[int, int]]:
        """Symbol -> (first cell, arity); a constant has arity 0."""
        symbols = self.sig.relations + self.sig.functions + tuple((c, 0) for c in self.sig.constants)
        firsts = itertools.accumulate((self.n ** arity for _, arity in symbols), initial=0)
        return {name: (first, arity) for (name, arity), first in zip(symbols, firsts)}

    def cell(self, t) -> int:
        """The element indices `t` read as a base-n number: the cell of
        the tuple `t` within its symbol's block."""
        cell = 0
        for e in t:
            cell = cell * self.n + e
        return cell

    def pack(self, s: FiniteStructure) -> int:
        index = {e: i for i, e in enumerate(s.universe)}.__getitem__
        bits = sum(self.weights[offset + self.cell(map(index, t))]
                   for (name, _), offset in zip(self.sig.relations, self.offsets) for t in s.rel(name))
        values = [index(s.functions[name][args]) for name, arity in self.sig.functions
                  for args in itertools.product(s.universe, repeat=arity)]
        values += [index(s.constants[c]) for c in self.sig.constants]
        return bits + self.cell(values)

    def values(self, code: int) -> list:
        """The cell values of a code: relation cells 0 or 1, then the digits."""
        bits, rest = divmod(code, self.tail)
        values = [bits >> c & 1 for c in reversed(range(self.offsets[-1]))] + [0] * self.digits
        for i in reversed(range(self.offsets[-1], self.size)):
            rest, values[i] = divmod(rest, self.n)
        return values

    def code(self, values) -> int:
        """The code of a list of cell values (the inverse of `values`):
        relation cells true or false, then element indices."""
        return sum(map(mul, self.weights, values))

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

    def least(self, code: int):
        """The least image of a code, read as (each relation's set cells,
        the digits).  Cells order as their index tuples in product order,
        and a function table lists every argument tuple, so this orders
        codes as the least relabelling's sorted tuples and tables would.

        Every image sets as many cells of each relation as the code, so the
        image whose set cells read first has the largest relation bits, and
        equal relation bits compare by the digits: the least image is the
        least field of `const - relations + digits`."""
        return self._least(*self._sums(code))

    def orbit(self, code: int):
        """The code's images and `least(code)`, from one sum of the code's
        lanes.  The images are the codes of the structure relabelled by each
        permutation of the elements, in `itertools.permutations` order, so
        repeated once per automorphism.  For a relation-only code, the least
        image is the first of its class that a search with no fixed cell
        meets."""
        sums = self._sums(code)
        return self._fields(sum(sums)), self._least(*sums)

    def _least(self, relation_sum: int, digit_sum: int):
        """`least`, from the code's two lane sums (`_sums`)."""
        high, low = divmod(min(self._fields(self._lanes[2] - relation_sum + digit_sum)), self.tail)
        unset = f"{high:0{self.offsets[-1]}b}"  # cell 0 first, "0" where the image sets it
        return tuple(tuple(i for i in range(cells) if unset[offset + i] == "0")
                     for cells, offset in zip(self.cells, self.offsets)), tuple(self.values(low)[self.offsets[-1]:])

    def _sums(self, code: int) -> Tuple[int, int]:
        """The sum of the relation lanes at the code's set cells, and the
        sum of its digits' lanes."""
        values = self.values(code)
        relations, digits = self._lanes[:2]
        return sum(itertools.compress(relations, values)), sum(map(getitem, digits, values[self.offsets[-1]:]))

    def _fields(self, lane: int) -> List[int]:
        """The fields of a lane, one per permutation in order."""
        width, length = self._lanes[3:]
        raw = lane.to_bytes(length, "little")
        if width in _FORMATS:
            return memoryview(raw).cast(_FORMATS[width]).tolist()
        return [int.from_bytes(raw[i:i + width], "little") for i in range(0, length, width)]

    @cached_property
    def _lanes(self):
        """Ints with one field per permutation p, in `itertools.permutations`
        order, each of the fewest of 1, 2, 4 or 8 bytes, else of whole
        bytes, that hold `count - 1`.  Per relation cell, field p holds the
        code weight of the cell's image under p; per digit position, per
        value v, the code weight of p[v] at the position's image.  Then the
        lane with the largest relation bits in every field, the field width
        and the lane length in bytes.  The fields of the sum of a code's set
        cells' and digits' lanes are its images."""
        n, nrel, weights = self.n, self.offsets[-1], self.weights
        need = -(-(self.count - 1).bit_length() // 8)
        width = next((w for w in (1, 2, 4, 8) if w >= need), need)
        perms = list(itertools.permutations(range(n)))

        def block(p, first, arity):
            """The image under p of each cell of a block, in cell order."""
            scaled = ([v * n ** i for v in p] for i in reversed(range(arity)))
            return map(sum, itertools.product(*scaled), itertools.repeat(first))

        def lane(fields) -> int:
            fields = map(int.to_bytes, fields, itertools.repeat(width), itertools.repeat("little"))
            return int.from_bytes(b"".join(fields), "little")
        rows = [list(itertools.chain.from_iterable(block(p, *b) for b in self.blocks.values())) for p in perms]
        columns = list(zip(*rows))
        return (
            [lane(map(weights.__getitem__, column)) for column in columns[:nrel]],
            [[lane(weights[q] * p[v] for q, p in zip(column, perms)) for v in range(n)]
             for column in columns[nrel:]],
            lane([self.count - self.tail] * len(perms)),
            width, width * len(perms),
        )


def enumerate_structures(sig: Signature, max_size: int) -> Iterator[FiniteStructure]:
    """One structure of each isomorphism class with |universe| <= max_size:
    the models of the empty theory, as `finder.models_by_size` lists them
    (by size, then by canonical key; each class's least relabelling in
    search order)."""
    from .finder import models_by_size  # finder imports this module
    if max_size < 1:
        raise StructureError("max_size must be >= 1")
    element_names(max_size)
    for models in models_by_size(sig, (), max_size):
        yield from models


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
