"""Homomorphism search and classification into the four-kind hierarchy.

Kind chain: Hom < Embedding < Immersion < StrongImmersion.  Immersion is
decided exactly by the retraction criterion (valid over finite targets).
Strong immersion is bounded by the number k of target elements an
h-inductive sentence may mention, and is decided in closed form: a
bijective homomorphism that reflects every relation tuple spanning <= k
elements.  Bijectivity is forced because the target must model the
source's surjectivity sentence and its parameter inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import BudgetExceeded, SignatureError, StructureError
from .structures import FiniteStructure


class MorphismKind(IntEnum):
    HOM = 0
    EMBEDDING = 1
    IMMERSION = 2
    STRONG_IMMERSION = 3

    @classmethod
    def from_letter(cls, letter: str) -> "MorphismKind":
        table = {"h": cls.HOM, "e": cls.EMBEDDING, "i": cls.IMMERSION, "s": cls.STRONG_IMMERSION}
        if letter not in table:
            raise ValueError(f"unknown morphism kind letter {letter!r}")
        return table[letter]

    @property
    def letter(self) -> str:
        return "heis"[int(self)]


@dataclass(frozen=True, eq=False)
class Morphism:
    source: FiniteStructure
    target: FiniteStructure
    map: Mapping[str, str]
    certificate: Any = field(default=None, compare=False)

    def __post_init__(self):
        if self.source.signature != self.target.signature:
            raise SignatureError("morphism endpoints have different signatures")
        tgt = set(self.target.universe)
        for e in self.source.universe:
            if e not in self.map:
                raise StructureError(f"map not total at {e}")
            if self.map[e] not in tgt:
                raise StructureError(f"map sends {e} outside the target universe")

    def __call__(self, e: str) -> str:
        return self.map[e]

    def apply(self, tup: Sequence[str]) -> Tuple[str, ...]:
        return tuple(self.map[e] for e in tup)

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

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other: (self . other)(x) = self(other(x))."""
        if other.target != self.source:
            raise StructureError("composition endpoints do not match")
        return Morphism(other.source, self.target, {e: self.map[other.map[e]] for e in other.source.universe})


def identity(s: FiniteStructure) -> Morphism:
    return Morphism(s, s, {e: e for e in s.universe})


# ---------------------------------------------------------------------------
# Atomic preservation / reflection


def is_homomorphism(m: Morphism) -> bool:
    a, b = m.source, m.target
    for name, _ in a.signature.relations:
        brel = b.rel(name)
        for tup in a.rel(name):
            if m.apply(tup) not in brel:
                return False
    for name, _ in a.signature.functions:
        btab = b.functions[name]
        for args, val in a.functions[name].items():
            if btab[m.apply(args)] != m.map[val]:
                return False
    for c in a.signature.constants:
        if m.map[a.const(c)] != b.const(c):
            return False
    return True


def is_embedding(m: Morphism) -> bool:
    if not m.is_injective() or not is_homomorphism(m):
        return False
    a, b = m.source, m.target
    inverse = {m.map[e]: e for e in a.universe}
    for name, _ in a.signature.relations:
        arel = a.rel(name)
        for tup in b.rel(name):
            if all(e in inverse for e in tup) and tuple(inverse[e] for e in tup) not in arel:
                return False
    return True


# ---------------------------------------------------------------------------
# Backtracking hom search


def _source_facts(a: FiniteStructure):
    facts = []
    for name, _ in a.signature.relations:
        for tup in sorted(a.rel(name)):
            facts.append(("rel", name, tup))
    for name, _ in a.signature.functions:
        for args, val in sorted(a.functions[name].items()):
            facts.append(("func", name, args + (val,)))
    return facts


def search_homs(
    a: FiniteStructure,
    b: FiniteStructure,
    required: Optional[Mapping[str, str]] = None,
    node_cap: Optional[int] = None,
) -> Iterator[Dict[str, str]]:
    """All homomorphisms a -> b that send each key of `required` to its
    value, by backtracking in universe order.  Deterministic: images tried in
    target universe order."""
    if a.signature != b.signature:
        raise SignatureError("hom search across different signatures")
    required = dict(required or {})
    for c in a.signature.constants:
        src = a.const(c)
        tgt = b.const(c)
        if required.get(src, tgt) != tgt:
            return
        required[src] = tgt
    facts = _source_facts(a)
    order = list(a.universe)
    pos = {e: i for i, e in enumerate(order)}
    # facts checkable once all their elements are assigned; index by last element
    facts_by_last: List[List[Tuple]] = [[] for _ in order]
    for kind, name, tup in facts:
        last = max(pos[e] for e in tup)
        facts_by_last[last].append((kind, name, tup))

    assignment: Dict[str, str] = {}
    nodes = 0

    def ok_at(i: int) -> bool:
        for kind, name, tup in facts_by_last[i]:
            img = tuple(assignment[e] for e in tup)
            if kind == "rel":
                if img not in b.rel(name):
                    return False
            else:
                if b.functions[name][img[:-1]] != img[-1]:
                    return False
        return True

    def dfs(i: int) -> Iterator[Dict[str, str]]:
        nonlocal nodes
        if i == len(order):
            yield dict(assignment)
            return
        e = order[i]
        candidates = [required[e]] if e in required else list(b.universe)
        for cand in candidates:
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise BudgetExceeded(f"hom search exceeded node cap {node_cap}")
            assignment[e] = cand
            if ok_at(i):
                yield from dfs(i + 1)
            del assignment[e]

    yield from dfs(0)


def find_hom(
    a: FiniteStructure,
    b: FiniteStructure,
    required: Optional[Mapping[str, str]] = None,
    node_cap: Optional[int] = None,
) -> Optional[Dict[str, str]]:
    return next(search_homs(a, b, required, node_cap=node_cap), None)


def hom_exists(a: FiniteStructure, b: FiniteStructure) -> bool:
    return find_hom(a, b) is not None


# ---------------------------------------------------------------------------
# Immersions


def retraction(m: Morphism) -> Optional[Morphism]:
    """A homomorphism r: target -> source with r . m = id, if one exists."""
    if not m.is_injective():
        return None
    required = {m.map[e]: e for e in m.source.universe}
    r = find_hom(m.target, m.source, required)
    return Morphism(m.target, m.source, r) if r is not None else None


def is_immersion(m: Morphism) -> bool:
    """Exact over finite targets: an immersion iff a retraction exists."""
    return is_homomorphism(m) and retraction(m) is not None


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


def classify_morphism(m: Morphism, k: Optional[int] = None) -> MorphismKind:
    """Strongest kind in the chain that holds (strong immersion at bound k,
    defaulting to the target size)."""
    if not is_homomorphism(m):
        raise StructureError("not a homomorphism")
    if not is_embedding(m):
        return MorphismKind.HOM
    if not is_immersion(m):
        return MorphismKind.EMBEDDING
    strong, _ = is_strong_immersion(m, k)
    return MorphismKind.STRONG_IMMERSION if strong else MorphismKind.IMMERSION


def enumerate_homs(
    a: FiniteStructure,
    b: FiniteStructure,
    required: Optional[Mapping[str, str]] = None,
    kind: MorphismKind = MorphismKind.HOM,
    k: Optional[int] = None,
    node_cap: Optional[int] = None,
) -> List[Morphism]:
    """All morphisms of at least the requested kind, sorted by map encoding.
    Morphisms of kind >= Immersion carry their certificate."""
    out = []
    for mp in search_homs(a, b, required, node_cap=node_cap):
        m = Morphism(a, b, mp)
        cert: Any = None
        if kind >= MorphismKind.EMBEDDING and not is_embedding(m):
            continue
        if kind >= MorphismKind.IMMERSION:
            r = retraction(m)
            if r is None:
                continue
            cert = {"retraction": dict(r.map)}
        if kind >= MorphismKind.STRONG_IMMERSION:
            strong, _ = is_strong_immersion(m, k)
            if not strong:
                continue
            cert = dict(cert or {})
            cert["strong_bound"] = k if k is not None else len(b.universe)
        out.append(Morphism(a, b, mp, certificate=cert))
    out.sort(key=lambda m: m.map_key())
    return out
