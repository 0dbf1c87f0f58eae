"""Homomorphism search and classification into the four-kind hierarchy.

`search_homs` is plain backtracking (Ullmann, J. ACM 23, 1976), one loop
over the source universe whose levels check the facts they complete.  The
checks on a given map read its images off the map, whose keys must be
exactly the source universe.

Kind chain: Hom < Embedding < Immersion < StrongImmersion, decided in one
place, `classify_morphism`: it checks for a homomorphism once, then goes up
the chain only as far as its caller needs.  Immersion is decided exactly by
the retraction criterion (valid over finite targets).  In the chain, a
strong immersion is a surjective embedding: an embedding reflects every
tuple inside its image, so a bijective one is an isomorphism, which is a
strong immersion at every bound.  The bound k on the number of target elements an h-inductive
sentence may mention applies only to the standalone `is_strong_immersion`,
which is decided in closed form: a bijective homomorphism that reflects
every relation tuple spanning <= k elements.  Bijectivity is forced
because the target must model the source's surjectivity sentence and its
parameter inequalities.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Collection, Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from .errors import BudgetExceeded, SignatureError, StructureError
from .records import record
from .structures import FiniteStructure


class MorphismKind(IntEnum):
    HOM = 0
    EMBEDDING = 1
    IMMERSION = 2
    STRONG_IMMERSION = 3

    @classmethod
    def from_letter(cls, letter: str) -> "MorphismKind":
        if letter not in _KINDS:
            raise ValueError(f"unknown morphism kind letter {letter!r}")
        return _KINDS[letter]

    @property
    def letter(self) -> str:
        return "heis"[int(self)]


_KINDS = {kind.letter: kind for kind in MorphismKind}


@record(frozen=True, eq=False)
class Morphism:
    source: FiniteStructure
    target: FiniteStructure
    map: Mapping[str, str]

    def __post_init__(self):
        if self.source.signature != self.target.signature:
            raise SignatureError("morphism endpoints have different signatures")
        tgt = set(self.target.universe)
        for e in self.source.universe:
            if e not in self.map:
                raise StructureError(f"map not total at {e}")
            if self.map[e] not in tgt:
                raise StructureError(f"map sends {e} outside the target universe")
        if len(self.map) != len(self.source.universe):
            raise StructureError(f"map keys outside the source: {sorted(self.map.keys() - self.source.universe)}")

    def __call__(self, e: str) -> str:
        return self.map[e]

    def map_key(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((e, self.map[e]) for e in self.source.universe)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.map_key() == other.map_key()
        )

    def __hash__(self):
        return hash((self.source, self.target, self.map_key()))

    def is_injective(self) -> bool:
        vals = [self.map[e] for e in self.source.universe]
        return len(set(vals)) == len(vals)


# ---------------------------------------------------------------------------
# Atomic preservation / reflection


def is_homomorphism(m: Morphism) -> bool:
    a, b, image = m.source, m.target, m.map.__getitem__
    for name, _ in a.signature.relations:
        brel = b.rel(name)
        for tup in a.rel(name):
            if tuple(map(image, tup)) not in brel:
                return False
    for name, _ in a.signature.functions:
        btab = b.functions[name]
        for args, val in a.functions[name].items():
            if btab[tuple(map(image, args))] != image(val):
                return False
    for c in a.signature.constants:
        if image(a.const(c)) != b.const(c):
            return False
    return True


def _embeds(m: Morphism) -> bool:
    """Whether homomorphism m is an embedding: injective, and every target
    tuple inside its image pulls back into the source."""
    if not m.is_injective():
        return False
    a, b = m.source, m.target
    preimage = {m.map[e]: e for e in a.universe}.get
    for name, _ in a.signature.relations:
        arel = a.rel(name)
        for tup in b.rel(name):
            back = tuple(map(preimage, tup))
            if None not in back and back not in arel:
                return False
    return True


# ---------------------------------------------------------------------------
# Backtracking hom search


def search_homs(
    a: FiniteStructure,
    b: FiniteStructure,
    required: Optional[Mapping[str, str]] = None,
    node_cap: Optional[int] = None,
    forbidden: Optional[Collection[str]] = None,
    injective: bool = False,
) -> Iterator[Dict[str, str]]:
    """All homomorphisms a -> b that send each key of `required` to its
    value and no other element into `forbidden`, by backtracking in universe
    order; with `injective`, only the injective ones, each image taken at
    most once along a branch.  Deterministic: images tried in target
    universe order, each map a dict in source universe order.  A level
    checks the relation tuples and function entries (in the target's
    graph) whose last element it assigns."""
    if a.signature != b.signature:
        raise SignatureError("hom search across different signatures")
    pinned = required or {}
    required = dict(pinned)
    free = tuple(e for e in b.universe if e not in forbidden) if forbidden else b.universe
    for c in a.signature.constants:
        src = a.const(c)
        tgt = b.const(c)
        if required.get(src, tgt) != tgt or (src not in pinned and tgt not in free):
            return
        required[src] = tgt
    order = a.universe
    level = {e: i for i, e in enumerate(order)}.__getitem__
    checks: List[List[Tuple[FrozenSet, Tuple[str, ...]]]] = [[] for _ in order]
    for name, _ in a.signature.relations:
        brel = b.rel(name)
        for t in a.rel(name):
            checks[max(map(level, t))].append((brel, t))
    for name, _ in a.signature.functions:
        graph = frozenset(args + (v,) for args, v in b.functions[name].items())
        for t in (args + (v,) for args, v in a.functions[name].items()):
            checks[max(map(level, t))].append((graph, t))
    choices = [(required[e],) if e in required else free for e in order]
    assignment: Dict[str, str] = {}
    image = assignment.__getitem__
    used: Set[str] = set()  # the images taken above the current level, for an injective search
    nodes, cap = 0, float("inf") if node_cap is None else node_cap
    stack = [iter(choices[0])]
    while stack:
        i = len(stack) - 1
        e, last = order[i], i + 1 == len(order)
        for cand in stack[i]:
            if cand in used:
                continue
            nodes += 1
            if nodes > cap:
                raise BudgetExceeded(f"hom search exceeded node cap {node_cap}")
            assignment[e] = cand
            for target, t in checks[i]:
                if tuple(map(image, t)) not in target:
                    break
            else:
                if last:
                    yield dict(assignment)
                    continue
                if injective:
                    used.add(cand)
                stack.append(iter(choices[i + 1]))
                break
        else:
            stack.pop()
            if injective and stack:
                used.discard(assignment[order[i - 1]])


# ---------------------------------------------------------------------------
# Immersions


def retraction(m: Morphism) -> Optional[Morphism]:
    """A homomorphism r: target -> source with r . m = id, if one exists."""
    if not m.is_injective():
        return None
    required = {m.map[e]: e for e in m.source.universe}
    r = next(search_homs(m.target, m.source, required), None)
    return Morphism(m.target, m.source, r) if r is not None else None


# ---------------------------------------------------------------------------
# Strong immersions (bounded)


def is_strong_immersion(m: Morphism, k: Optional[int] = None) -> Tuple[bool, Optional[dict]]:
    """Bounded decision of `target models the h-inductive theory of the
    source with parameters`, over sentences on at most k target elements
    (default: the target size).

    Decided in closed form: m is a bijective homomorphism whose inverse maps
    every relation tuple of the target spanning <= k distinct elements into
    the source.  The source's theory with parameters contains its
    surjectivity sentence (every element equals a named one), which fails at
    any target element outside the image, already on one element; it
    contains `a = a' -> false` for distinct a, a', which fails at a
    parameter with two preimages; and it contains `R(a1..ar) -> false` for
    every tuple missing from R in the source.  Function and constant facts
    pull back along a bijective homomorphism on their own.  Returns
    (True, None) at the bound or (False, witness).
    """
    a, b = m.source, m.target
    if k is None:
        k = len(b.universe)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not is_homomorphism(m):
        return False, {"reason": "not a homomorphism"}
    inverse: Dict[str, str] = {}
    for e in a.universe:
        if m.map[e] in inverse:
            return False, {"reason": "not injective", "witness": [inverse[m.map[e]], e]}
        inverse[m.map[e]] = e
    for e in b.universe:
        if e not in inverse:
            return False, {"reason": "not surjective", "witness": [e]}
    for name, _ in b.signature.relations:
        arel = a.rel(name)
        for tup in sorted(b.rel(name)):
            if len(set(tup)) <= k and tuple(inverse[e] for e in tup) not in arel:
                return False, {"reason": "tuple not reflected", "relation": name,
                               "witness": list(tup), "bound": k}
    return True, None


# ---------------------------------------------------------------------------
# Classification and enumeration


def classify_morphism(m: Morphism, need: MorphismKind = MorphismKind.STRONG_IMMERSION) -> MorphismKind:
    """Strongest kind in the chain that holds, decided only as far as `need`
    asks: min(kind, need), so the default is the exact kind.  A non-hom is a
    StructureError.  A surjective embedding is an isomorphism, hence a
    strong immersion at every bound."""
    if not is_homomorphism(m):
        raise StructureError("not a homomorphism")
    if need == MorphismKind.HOM or not _embeds(m):
        return MorphismKind.HOM
    if need == MorphismKind.EMBEDDING:
        return need
    if len(set(map(m.map.__getitem__, m.source.universe))) == len(m.target.universe):
        return need
    return MorphismKind.IMMERSION if retraction(m) is not None else MorphismKind.EMBEDDING


def enumerate_homs(
    a: FiniteStructure,
    b: FiniteStructure,
    required: Optional[Mapping[str, str]] = None,
    kind: MorphismKind = MorphismKind.HOM,
    node_cap: Optional[int] = None,
    forbidden: Optional[Collection[str]] = None,
) -> List[Morphism]:
    """All morphisms of at least the requested kind, sorted by map encoding
    (the image tuple in source universe order); `required` and `forbidden`
    restrict the maps as in `search_homs`.  From kind e up only injective
    maps are searched, and kind s, a bijection in the chain, needs equal
    sizes."""
    if kind == MorphismKind.STRONG_IMMERSION and len(a.universe) != len(b.universe):
        return []
    injective = kind >= MorphismKind.EMBEDDING
    maps = sorted(search_homs(a, b, required, node_cap, forbidden, injective),
                  key=lambda mp: tuple(map(mp.__getitem__, a.universe)))
    out = [Morphism(a, b, mp) for mp in maps]
    if kind > MorphismKind.HOM:
        out = [m for m in out if classify_morphism(m, kind) >= kind]
    return out
