"""Finite signatures and structures: the semantic substrate.

Universes are nonempty, finite and ordered.  Element identifiers are opaque
strings.  All types are immutable after construction and safe to share for
concurrent reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import BudgetExceeded, SignatureError, StructureError

# Default element names used by enumeration, large enough for size <= 12.
ELEMENT_NAMES = tuple("abcdefghijkl")


def element_names(size: int) -> Tuple[str, ...]:
    """The first `size` default element names."""
    if size > len(ELEMENT_NAMES):
        raise StructureError(
            f"size {size} exceeds the {len(ELEMENT_NAMES)} default element names"
        )
    return ELEMENT_NAMES[:size]


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
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
        """Hashable encoding of the labelled structure (not iso-invariant)."""
        if "_key" not in self.__dict__:
            self.__dict__["_key"] = (
                self.universe,
                tuple((n, tuple(sorted(self.rel(n)))) for n, _ in self.signature.relations),
                tuple(
                    (n, tuple(sorted(self.functions[n].items())))
                    for n, _ in self.signature.functions
                ),
                tuple((c, self.constants[c]) for c in self.signature.constants),
            )
        return self.__dict__["_key"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteStructure):
            return NotImplemented
        return self.signature == other.signature and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.signature, self.key()))

    def canonical_key(self):
        """Iso-invariant encoding: lexicographically least relabelling."""
        n = len(self.universe)
        best = None
        for perm in itertools.permutations(range(n)):
            # perm[i] is the new index of the i-th universe element
            idx = {e: perm[i] for i, e in enumerate(self.universe)}
            enc = (
                n,
                tuple(
                    tuple(sorted(tuple(idx[e] for e in tup) for tup in self.rel(name)))
                    for name, _ in self.signature.relations
                ),
                tuple(
                    tuple(
                        sorted(
                            (tuple(idx[e] for e in args), idx[val])
                            for args, val in self.functions[name].items()
                        )
                    )
                    for name, _ in self.signature.functions
                ),
                tuple(idx[self.constants[c]] for c in self.signature.constants),
            )
            if best is None or enc < best:
                best = enc
        return best

    def class_key(self):
        """Complete isomorphism invariant: over one signature, equal exactly
        for isomorphic structures.  Cheaper than `canonical_key`, whose
        order it does not share.

        Every fact is a tuple of element indices: a relation tuple, a
        function entry (the arguments, then the value) or a constant's
        element.  The elements are coloured by iterated refinement over the
        facts, each colour ranked by value, so the ordered partition is
        iso-invariant.  The key is the size and the least encoding, one
        bitmask per symbol, over the relabellings that map each colour cell
        onto its own block of positions.
        """
        n = len(self.universe)
        index = {e: i for i, e in enumerate(self.universe)}.__getitem__
        sig = self.signature
        facts = [
            [tuple(map(index, t)) for t in self.rel(name)] for name, _ in sig.relations
        ]
        facts += [
            [tuple(map(index, args)) + (index(v),) for args, v in self.functions[name].items()]
            for name, _ in sig.functions
        ]
        facts += [[(index(self.constants[c]),)] for c in sig.constants]
        colour = _refine(n, facts)
        cells = [[] for _ in range(max(colour) + 1)]
        for e, c in enumerate(colour):
            cells[c].append(e)
        best = None
        for blocks in itertools.product(*map(itertools.permutations, cells)):
            pos = [0] * n
            i = 0
            for block in blocks:
                for e in block:
                    pos[e] = i
                    i += 1
            enc = []
            for tuples in facts:
                mask = 0
                for t in tuples:
                    code = 0
                    for e in t:
                        code = code * n + pos[e]
                    mask |= 1 << code
                enc.append(mask)
            if best is None or enc < best:
                best = enc
        return (n, *best)

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


def _refine(n: int, facts) -> list:
    """Colour rank of each element index, refined until stable: an
    element's next colour ranks its colour with the sorted (position,
    symbol, colours of the fact) of every fact it occurs in."""
    colour = [0] * n
    cells = 1
    while cells < n:
        occurs = [[] for _ in range(n)]
        for s, tuples in enumerate(facts):
            for t in tuples:
                cols = (s, *[colour[e] for e in t])
                for p, e in enumerate(t):
                    occurs[e].append((p, cols))
        keys = [(c, *sorted(o)) for c, o in zip(colour, occurs)]
        ranked = sorted(set(keys))
        if len(ranked) == cells:
            break
        rank = {k: r for r, k in enumerate(ranked)}
        colour = [rank[k] for k in keys]
        cells = len(ranked)
    return colour


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


def _relation_spaces(sig: Signature, universe: Tuple[str, ...]):
    return [
        (name, list(itertools.product(universe, repeat=arity)))
        for name, arity in sig.relations
    ]


def enumerate_structures(
    sig: Signature,
    max_size: int,
    up_to_iso: bool = True,
    cap: Optional[int] = None,
) -> Iterator[FiniteStructure]:
    """All structures with |universe| <= max_size, in deterministic order.

    With up_to_iso, the first structure of each isomorphism class (exact
    deduplication by `class_key`).  Raises BudgetExceeded
    when more than `cap` structures would be yielded.
    """
    if max_size < 1:
        raise StructureError("max_size must be >= 1")
    names = element_names(max_size)
    count = 0
    for size in range(1, max_size + 1):
        universe = names[:size]
        seen = set()
        for st in _raw_structures(sig, universe):
            if up_to_iso:
                ck = st.class_key()
                if ck in seen:
                    continue
                seen.add(ck)
            count += 1
            if cap is not None and count > cap:
                raise BudgetExceeded(f"enumeration exceeded cap {cap}")
            yield st


def _raw_structures(sig: Signature, universe: Tuple[str, ...]) -> Iterator[FiniteStructure]:
    rel_spaces = _relation_spaces(sig, universe)
    func_spaces = [
        (name, list(itertools.product(universe, repeat=arity)))
        for name, arity in sig.functions
    ]
    def rel_subsets(space):
        # lazy powerset in subset-size order (avoids materializing 2^|space|)
        for r in range(len(space) + 1):
            for combo in itertools.combinations(space, r):
                yield frozenset(combo)

    def lazy_product(factories, depth=0, prefix=()):
        if depth == len(factories):
            yield prefix
            return
        for value in factories[depth]():
            yield from lazy_product(factories, depth + 1, prefix + (value,))

    n_rel = len(rel_spaces)
    n_func = len(func_spaces)
    factories = (
        [(lambda sp=space: rel_subsets(sp)) for _, space in rel_spaces]
        + [
            (lambda sp=space: (dict(zip(sp, values)) for values in itertools.product(universe, repeat=len(sp))))
            for _, space in func_spaces
        ]
        + [(lambda: iter(universe)) for _ in sig.constants]
    )
    for combo in lazy_product(factories):
        rels = combo[:n_rel]
        funcs = combo[n_rel:n_rel + n_func]
        consts = combo[n_rel + n_func:]
        yield FiniteStructure(
            signature=sig,
            universe=universe,
            relations={name: rels[i] for i, (name, _) in enumerate(rel_spaces)},
            functions={name: funcs[i] for i, (name, _) in enumerate(func_spaces)},
            constants={c: consts[i] for i, c in enumerate(sig.constants)},
        )


def are_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    if a.signature != b.signature or a.size() != b.size():
        return False
    return a.class_key() == b.class_key()


def disjoint_rename(
    a: FiniteStructure, b: FiniteStructure, prefix_a: str = "L.", prefix_b: str = "R."
) -> Tuple[FiniteStructure, FiniteStructure]:
    """Rename the two universes apart (used when forming sums)."""
    ra = a.rename({e: prefix_a + e for e in a.universe})
    rb = b.rename({e: prefix_b + e for e in b.universe})
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
