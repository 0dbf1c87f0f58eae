"""Brute-force reference implementations used to validate the fast criteria.

The immersion oracle checks reflection of conjunctive queries directly: a CQ
over a relational/functional signature is, up to logical equivalence, the
canonical query of a finite structure with a chosen free subset (equality
atoms between bound variables collapse them; the one irreducible equality CQ,
`x = y` between free variables, is checked as injectivity).  For targets of
size <= 3 the canonical queries of all structures of size <= 3 exhaust every
CQ with at most 6 variables.

The strong-immersion reference decides the bounded h-inductive theory with
parameters by brute force: for every target subset W of size <= k it takes
the pointed diagram of W as premise and checks that every target solution
is the image of a source solution on at most k elements.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from posmt.morphisms import Morphism, is_homomorphism, search_homs
from posmt.structures import FiniteStructure, Signature, enumerate_structures


class ImmersionOracle:
    """CQ-reflection decision for homs between structures of bounded size."""

    def __init__(self, sig: Signature, size: int = 3):
        self.corpus: List[FiniteStructure] = list(enumerate_structures(sig, size))
        self._homs: Dict[Tuple, List[Dict[str, str]]] = {}
        self._sat: Dict[Tuple, FrozenSet[Tuple[str, ...]]] = {}

    def homs(self, a: FiniteStructure, b: FiniteStructure) -> List[Dict[str, str]]:
        key = (a.key(), b.key())
        if key not in self._homs:
            self._homs[key] = [dict(m) for m in search_homs(a, b)]
        return self._homs[key]

    def sat(self, d: FiniteStructure, x: FiniteStructure,
            free: Tuple[str, ...]) -> FrozenSet[Tuple[str, ...]]:
        """Tuples of x satisfying the canonical query of d with `free` free."""
        key = (d.key(), x.key(), free)
        if key not in self._sat:
            self._sat[key] = frozenset(
                tuple(m[v] for v in free) for m in self.homs(d, x)
            )
        return self._sat[key]

    def is_immersion(self, m: Morphism) -> bool:
        """True iff m reflects every CQ of the corpus (and the equality CQ)."""
        if len(set(m.map.values())) != len(m.map):
            return False
        a, b = m.source, m.target
        for d in self.corpus:
            for r in range(len(d.universe) + 1):
                for free in itertools.combinations(d.universe, r):
                    sat_b = self.sat(d, b, free)
                    if not sat_b:
                        continue
                    sat_a = self.sat(d, a, free)
                    for asg in itertools.product(a.universe, repeat=r):
                        if tuple(m.map[e] for e in asg) in sat_b and asg not in sat_a:
                            return False
        return True


def strong_immersion_reference(m: Morphism, k: Optional[int] = None) -> bool:
    """Bounded strong-immersion decision by enumerating premise subsets W of
    the target (|W| <= k, parameters are the m-images in W) and all source
    and target solutions of their pointed diagrams."""
    a, b = m.source, m.target
    if k is None:
        k = len(b.universe)
    if not is_homomorphism(m):
        return False
    preimages: Dict[str, List[str]] = {}
    for e in a.universe:
        preimages.setdefault(m.map[e], []).append(e)
    image = set(preimages)
    a_consts = {c: a.const(c) for c in a.signature.constants}
    b_consts = {c: b.const(c) for c in b.signature.constants}

    for size in range(1, min(k, len(b.universe)) + 1):
        for w in itertools.combinations(b.universe, size):
            params = [e for e in w if e in image]
            xs = [e for e in w if e not in image]
            facts = _subset_facts(b, set(w))
            # the premise forces all preimages of one parameter equal, while
            # in the source they differ
            injective_here = all(len(preimages[p]) == 1 for p in params)
            good_images = set()
            if injective_here:
                env = {p: preimages[p][0] for p in params}
                for abar in itertools.product(a.universe, repeat=len(xs)):
                    env.update(zip(xs, abar))
                    if not _facts_hold(a, facts, env, a_consts):
                        continue
                    if len(set(env.values())) <= k:
                        good_images.add(tuple(m.map[e] for e in abar))
            for bbar in itertools.product(b.universe, repeat=len(xs)):
                env = {p: p for p in params}
                env.update(zip(xs, bbar))
                if _facts_hold(b, facts, env, b_consts) and bbar not in good_images:
                    return False
    return True


def _subset_facts(s: FiniteStructure, subset: set) -> List[Tuple]:
    facts = []
    for name, _ in s.signature.relations:
        for tup in sorted(s.rel(name)):
            if set(tup) <= subset:
                facts.append(("rel", name, tup))
    for name, _ in s.signature.functions:
        for args, val in sorted(s.functions[name].items()):
            if set(args) <= subset and val in subset:
                facts.append(("func", name, args + (val,)))
    for c in s.signature.constants:
        if s.const(c) in subset:
            facts.append(("const", c, (s.const(c),)))
    return facts


def _facts_hold(s: FiniteStructure, facts, env: Mapping[str, str], consts: Mapping[str, str]) -> bool:
    for kind, name, tup in facts:
        img = tuple(env[e] for e in tup)
        if kind == "rel":
            if img not in s.rel(name):
                return False
        elif kind == "func":
            if s.functions[name][img[:-1]] != img[-1]:
                return False
        elif consts[name] != img[0]:
            return False
    return True
