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

The model-finder reference runs the same DFS as `finder.find_models` but
evaluates the ground instances by walking the formula trees over a partial
interpretation, re-checking every unknown instance after every assigned
cell.  It must visit the same nodes and yield the same models in the same
order.

The corpus references canonicalise every candidate sentence on its own,
trying every variable permutation and keeping the least image.  The
corpora built by walking orbits must equal them tuple for tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from posmt.corpus import (
    CORPUS_CAP, DEFAULT_MAX_ATOMS_CQ, DEFAULT_MAX_ATOMS_IMPL, AtomCode, AtomPool,
    BoundedImplication, CQSentence, atom_pool,
)
from posmt.errors import BudgetExceeded
from posmt.formulas import (
    And, Const, EqAtom, Falsum, Implication, Or, PosEx, PosQF, RelAtom, Term,
    Truth, Var,
)
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


# ---------------------------------------------------------------------------
# Model-finder reference: tree-walking three-valued evaluation that
# re-checks every unknown instance after every cell.


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




def find_models_reference(
    sig: Signature,
    universe: Tuple[str, ...],
    implications: Sequence[Implication],
    node_cap: Optional[int] = None,
    seed_true_relations: Optional[Mapping[str, Sequence[Tuple[str, ...]]]] = None,
    seed_functions: Optional[Mapping[str, Mapping[Tuple[str, ...], str]]] = None,
    seed_constants: Optional[Mapping[str, str]] = None,
    freeze_relations: bool = False,
) -> Tuple[List[FiniteStructure], int]:
    """All total interpretations on `universe` satisfying the implications.

    Seeded relation facts are fixed true (others stay free unless
    freeze_relations, which fixes them false).  Seeded function entries and
    constants are fixed.  Deterministic order; raises BudgetExceeded past
    node_cap assignments.  Returns the models and the node count.
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
    models: List[FiniteStructure] = []

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

    def dfs(i: int, active: List[int]) -> None:
        nonlocal nodes
        if i == len(cells):
            if not active:
                models.append(ps.to_structure())
            else:
                # all cells assigned: statuses must be definite
                if all(instances[idx].status(ps) is True for idx in active):
                    models.append(ps.to_structure())
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
                dfs(i + 1, still)
            _set(ps, cell, None)

    pruned, active = check(list(range(len(instances))))
    if not pruned:
        dfs(0, active)
    return models, nodes


def _set(ps: _Partial, cell: Tuple, value) -> None:
    if cell[0] == "const":
        ps.const[cell[1]] = value
    elif cell[0] == "func":
        ps.func[(cell[1], cell[2])] = value
    else:
        ps.rel[(cell[1], cell[2])] = value


def _canon_impl(
    pool: AtomPool, premise, conclusion, free
) -> Tuple[Tuple[AtomCode, ...], Tuple[AtomCode, ...], Tuple[int, ...]]:
    best = None
    for perm in itertools.permutations(range(pool.k)):
        enc = (
            tuple(sorted(pool.permute_atom(c, perm) for c in premise)),
            None if conclusion is None else tuple(sorted(pool.permute_atom(c, perm) for c in conclusion)),
            tuple(sorted(perm[i] for i in free)),
        )
        if best is None or enc < best:
            best = enc
    return best


def cq_corpus_reference(sig: Signature, k: int, max_atoms: int = DEFAULT_MAX_ATOMS_CQ) -> Tuple[CQSentence, ...]:
    """All CQ sentences with <= k variables and <= max_atoms atoms, one per
    renaming class, in deterministic order.  Includes the empty conjunction
    only implicitly (it is trivially true everywhere) -- entries are
    nonempty."""
    pool = atom_pool(sig, k)
    seen = set()
    out: List[CQSentence] = []
    for r in range(1, max_atoms + 1):
        for combo in itertools.combinations(pool.atoms, r):
            canon = _canon_impl(pool, combo, (), ())[0]
            if canon in seen:
                continue
            seen.add(canon)
            out.append(CQSentence(canon))
    out.sort(key=lambda c: (len(c.codes), c.codes))
    return tuple(out)


def implication_corpus_reference(
    sig: Signature, k: int, max_atoms: int = DEFAULT_MAX_ATOMS_IMPL
) -> Tuple[BoundedImplication, ...]:
    """All bounded h-inductive sentences forall F (exists P -> exists Q) with
    <= k pool variables and <= max_atoms atoms per side, one per renaming
    class."""
    pool = atom_pool(sig, k)
    subsets: List[Tuple[AtomCode, ...]] = [()]
    for r in range(1, max_atoms + 1):
        subsets.extend(itertools.combinations(pool.atoms, r))
    frees = [tuple(c) for r in range(k + 1) for c in itertools.combinations(range(k), r)]
    if len(subsets) ** 2 * len(frees) > CORPUS_CAP:
        raise BudgetExceeded(
            f"implication corpus over {sig} at k={k} would exceed "
            f"{CORPUS_CAP} candidates; lower k or the atom cap"
        )
    seen = set()
    out: List[BoundedImplication] = []
    for premise in subsets:
        for conclusion in subsets:
            if premise == conclusion:
                continue  # tautology
            for free in frees:
                canon = _canon_impl(pool, premise, conclusion, free)
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(BoundedImplication(*canon))
    # h-universal entries: premise -> falsum, necessarily with no free vars
    for premise in subsets[1:]:
        canon = _canon_impl(pool, premise, None, ())
        if canon not in seen:
            seen.add(canon)
            out.append(BoundedImplication(*canon))
    out.sort(key=lambda b: (b.premise, b.conclusion is None, b.conclusion or (), b.free))
    return tuple(out)
