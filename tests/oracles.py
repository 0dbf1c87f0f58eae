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

The corpus-evaluator reference tabulates every total assignment of the
variable pool with the pool atoms true under it as one bitmask per row,
and decides a sentence by subset tests over projections of the rows.
`corpus.CorpusEvaluator`, which keeps one bitset per atom over the
assignments instead, must give every corpus entry the same truth value.

The evaluation reference walks the formula tree per assignment, copying
the environment at every quantifier.  The compiled evaluator behind
`formulas.eval_formula` must return the same truth value.

The kind references decide the four-kind chain as it was decided before
`morphisms.classify_morphism` became the one place: embedding, then a
retraction, then the bounded strong immersion at k.  They keep the bound
k, which cannot change a kind once a map is an embedding.

The canonical-key reference relabels a structure by every permutation of
its elements, encodes each image as sorted tuples of element indices and
keeps the least.  `FiniteStructure.canonical_key`, the least image of an
`Orbits` code, must order every pair of structures as it does.

The deduplication references build every labelled structure (or take
every model the finder yields) and group them by `class_key`, a complete
isomorphism invariant computed per structure by colour refinement and a
least encoding over the relabellings that keep each colour class
together.  The orbit-marking enumeration and model lists must equal them
tuple for tuple.

The sentence-class reference is the classifier that decided which
sentences a theory accepts before `formulas._positive_form` and
`formulas.as_implications` decided it: four predicates over the syntax
tree.  `classify_sentence` must give every closed formula the same class.

The apex-pool reference lists every size of the amalgamation solver's
pool at once, up front, as the solver read it before it listed each size
only on reaching it.  Verdicts and first-found apexes must not change.

The theory-fragment references hold each bounded fragment as a frozenset
of corpus entries, as `theories` did before it held T_i* as a mask over
the implication corpus: the Kaiser hull is an intersection of sets and
report condition 4 an equality of sets.  `kaiser_hull_bounded` and
`jc_characterization_report` must give the same sentences and conditions.
The extremality check and `diag_plus_star_set`, which only tests call,
live here too.

The amalgamation-solver reference is the solver as it was before it
rejected candidates from their out-maps alone: it completes every quotient
and lists every out-map pair, and leaves the strong-immersion kinds and the
strong condition to the certificate check.  `solve_amalgamation` must give
the same status and notes, or the same apex and out-maps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from posmt.corpus import (
    CORPUS_CAP, DEFAULT_MAX_ATOMS_CQ, DEFAULT_MAX_ATOMS_IMPL, AtomCode, AtomPool,
    BoundedImplication, CQSentence, atom_pool,
)
from posmt.errors import BudgetExceeded, FormulaError, StructureError
from posmt.formulas import (
    And, Atom, Const, EqAtom, Exists, Falsum, Forall, Formula, GAnd, GOr,
    HInductiveSentence, HUniversalSentence, Implication, Implies, Not, Or,
    PosEx, PosQF, RelAtom, Term, Truth, Var, free_vars,
)
from posmt.morphisms import (
    Morphism, MorphismKind, is_embedding, is_homomorphism, is_immersion,
    is_strong_immersion, retraction, search_homs,
)
from posmt import corpus
from posmt.finder import find_models
from posmt.structures import FiniteStructure, Signature, element_names, enumerate_structures
from posmt.records import replace
from posmt.theories import (
    Budget, DiagramSet, Theory, Verdict, _continuation_verdict, _pc_models, models, no,
    ti_star_set, tu_star_set, yes,
)


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


def classify_morphism_reference(m: Morphism, k: Optional[int] = None) -> MorphismKind:
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


def enumerate_homs_reference(
    a: FiniteStructure,
    b: FiniteStructure,
    required: Optional[Mapping[str, str]] = None,
    kind: MorphismKind = MorphismKind.HOM,
    k: Optional[int] = None,
    node_cap: Optional[int] = None,
) -> List[Morphism]:
    """All morphisms of at least the requested kind, sorted by map encoding,
    filtered kind by kind: embedding, retraction, strong immersion at k."""
    out = []
    for mp in search_homs(a, b, required, node_cap=node_cap):
        m = Morphism(a, b, mp)
        if kind >= MorphismKind.EMBEDDING and not is_embedding(m):
            continue
        if kind >= MorphismKind.IMMERSION:
            r = retraction(m)
            if r is None:
                continue
        if kind >= MorphismKind.STRONG_IMMERSION:
            strong, _ = is_strong_immersion(m, k)
            if not strong:
                continue
        out.append(m)
    out.sort(key=lambda m: m.map_key())
    return out


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


# ---------------------------------------------------------------------------
# Row-wise corpus satisfaction


class CorpusEvaluatorReference:
    """Satisfaction of corpus entries over one structure, row by row: one
    bitmask of true pool atoms per total assignment of the pool."""

    def __init__(self, pool: AtomPool, structure: FiniteStructure):
        self.pool = pool
        self.structure = structure
        k = pool.k
        self.assignments = list(itertools.product(structure.universe, repeat=k))
        self.masks: List[int] = []
        for t in self.assignments:
            mask = 0
            for i, code in enumerate(pool.atoms):
                if self._atom_true(code, t):
                    mask |= 1 << i
            self.masks.append(mask)
        self._proj: Dict[Tuple[int, ...], List[Tuple[str, ...]]] = {}

    def _elem(self, arg, t) -> str:
        return t[arg[1]] if arg[0] == "v" else self.structure.const(arg[1])

    def _atom_true(self, code: AtomCode, t) -> bool:
        s = self.structure
        if code[0] == "rel":
            return tuple(self._elem(a, t) for a in code[2]) in s.rel(code[1])
        if code[0] == "feq":
            args = tuple(self._elem(a, t) for a in code[2])
            return s.func(code[1], args) == self._elem(code[3], t)
        return self._elem(code[1], t) == self._elem(code[2], t)

    def _projections(self, free: Tuple[int, ...]) -> List[Tuple[str, ...]]:
        if free not in self._proj:
            self._proj[free] = [tuple(t[i] for i in free) for t in self.assignments]
        return self._proj[free]

    def _codes_mask(self, codes: Sequence[AtomCode]) -> int:
        mask = 0
        for c in codes:
            mask |= 1 << self.pool.index[c]
        return mask

    def cq_true(self, cq: CQSentence) -> bool:
        need = self._codes_mask(cq.codes)
        return any(need & ~m == 0 for m in self.masks)

    def impl_true(self, imp: BoundedImplication) -> bool:
        p = self._codes_mask(imp.premise)
        if imp.conclusion is None:
            return all(p & ~m for m in self.masks)
        q = self._codes_mask(imp.conclusion)
        proj = self._projections(imp.free)
        sat_p = {proj[i] for i, m in enumerate(self.masks) if p & ~m == 0}
        if not sat_p:
            return True
        sat_q = {proj[i] for i, m in enumerate(self.masks) if q & ~m == 0}
        return sat_p <= sat_q


def corpus_evaluator_reference(sig: Signature, k: int, structure: FiniteStructure) -> CorpusEvaluatorReference:
    return CorpusEvaluatorReference(atom_pool(sig, k), structure)


# ---------------------------------------------------------------------------
# Theory fragments as frozensets of corpus entries


def diag_plus_star_set(a: FiniteStructure, k: int) -> FrozenSet:
    return frozenset(corpus.diag_plus_star(a, k))


def _tu_of_models_reference(t: Theory, ms: Sequence[FiniteStructure], b: Budget) -> FrozenSet:
    """`tu_of_theory_set` over the listed models `ms` of t."""
    out: Optional[FrozenSet] = None
    for m in ms:
        s = tu_star_set(m, b.k)
        out = s if out is None else (out & s)
        if not out:
            break
    if out is None:  # inconsistent at bound: all sentences are consequences
        return frozenset(corpus.cq_corpus(t.signature, b.k))
    return out


def _hull_of_pc_models_reference(t: Theory, pcs: Sequence[FiniteStructure], b: Budget) -> FrozenSet:
    """`kaiser_hull_set` over the listed bounded-pc models `pcs` of t."""
    out: Optional[FrozenSet] = None
    for m in pcs:
        s = ti_star_set(m, b.k)
        out = s if out is None else (out & s)
    if out is None:
        return frozenset(corpus.implication_corpus(t.signature, b.k))
    return out


def kaiser_hull_bounded_reference(t: Theory, b: Budget) -> Tuple[DiagramSet, DiagramSet]:
    """`theories.kaiser_hull_bounded` over frozenset fragments."""
    pool = atom_pool(t.signature, b.k)
    ms = models(t, b)
    hull_set = _hull_of_pc_models_reference(t, _pc_models(ms, b), b)
    tu_set = _tu_of_models_reference(t, ms, b)
    hull = tuple(
        HInductiveSentence((imp.to_implication(pool),))
        for imp in corpus.implication_corpus(t.signature, b.k)
        if imp in hull_set
    )
    tu = tuple(
        c.negation(pool) for c in corpus.cq_corpus(t.signature, b.k) if c in tu_set
    )
    return (
        DiagramSet("Tk", t.signature, hull, b.k),
        DiagramSet("Tu(T)", t.signature, tu, b.k),
    )


def jc_characterization_report_reference(t: Theory, b: Budget) -> Dict:
    """`theories.jc_characterization_report` over frozenset fragments."""
    ms_n = models(t, b)
    ms_big = models(t, replace(b, n=b.N))
    cqs = corpus.cq_corpus(t.signature, b.k)

    def realized(structures: Sequence[FiniteStructure]) -> Dict:
        evs = [corpus.evaluator(t.signature, b.k, m) for m in structures]
        sat: Dict = {}
        for c in cqs:
            who = frozenset(i for i, ev in enumerate(evs) if ev.cq_true(c))
            if who:
                sat[c] = who
        return sat

    # (1) prime disjunction over models of size <= n
    sat_n = realized(ms_n)
    cond1 = all(
        s1 & s2 for s1, s2 in itertools.combinations(sat_n.values(), 2)
    ) if len(sat_n) > 1 else True
    # (2) pairwise consistency of positive extensions, at bound N
    sat_big = realized(ms_big)
    cond2 = all(
        s1 & s2 for s1, s2 in itertools.combinations(sat_big.values(), 2)
    ) if len(sat_big) > 1 else True
    # (3) some model attains the bounded T_u(T)
    tu_t = _tu_of_models_reference(t, ms_n, b)
    cond3 = any(tu_star_set(m, b.k) == tu_t for m in ms_n) if ms_n else True
    # (4) some model attains the bounded Kaiser hull
    pcs = _pc_models(ms_n, b)
    hull = _hull_of_pc_models_reference(t, pcs, b)
    cond4 = any(ti_star_set(m, b.k) == hull for m in ms_n) if ms_n else True
    # (5) bounded-pc models share T_u*
    tu_sets = {tu_star_set(m, b.k) for m in pcs}
    cond5 = len(tu_sets) <= 1
    jc = _continuation_verdict(b, list(itertools.combinations_with_replacement(ms_n, 2)), ms_big)
    conditions = {"cond1": cond1, "cond2": cond2, "cond3": cond3, "cond4": cond4, "cond5": cond5}
    return {
        "conditions": conditions,
        "is_jc": jc.status,
        "agreement": {name: (value == jc.is_yes) for name, value in conditions.items()},
        "budget": b.as_dict(),
    }


def tu_ti_extremality_check(t: Theory, b: Budget) -> Verdict:
    """For every bounded-pc model A and model B of t: T_u*(A) is minimal
    and T_i*(A) is maximal among the bounded fragments of models of t."""
    ms = models(t, b)
    pcs = _pc_models(ms, b)
    for a in pcs:
        tu_a = tu_star_set(a, b.k)
        ti_a = ti_star_set(a, b.k)
        for other in ms:
            tu_b = tu_star_set(other, b.k)
            if tu_b <= tu_a and tu_a != tu_b:
                return no(b, {"pc": a, "model": other, "violated": "Tu* minimality"})
            ti_b = ti_star_set(other, b.k)
            if ti_a <= ti_b and ti_a != ti_b:
                return no(b, {"pc": a, "model": other, "violated": "Ti* maximality"})
    return yes(b, {"pc_models": len(pcs), "models": len(ms)})


# ---------------------------------------------------------------------------
# Two-valued evaluation by walking the formula tree


def evaluate_term(s: FiniteStructure, t: Term, env: Mapping[str, str]) -> str:
    if isinstance(t, Var):
        if t.name not in env:
            raise FormulaError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, Const):
        if t.name not in s.signature.constants:
            raise FormulaError(f"unknown constant {t.name}")
        return s.const(t.name)
    arities = s.signature.function_arities
    if t.func not in arities:
        raise FormulaError(f"unknown function symbol {t.func}")
    if len(t.args) != arities[t.func]:
        raise FormulaError(f"arity mismatch for {t.func}")
    return s.func(t.func, tuple(evaluate_term(s, a, env) for a in t.args))


def _eval_atom(s: FiniteStructure, f: Atom, env: Mapping[str, str]) -> bool:
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsum):
        return False
    if isinstance(f, EqAtom):
        return evaluate_term(s, f.left, env) == evaluate_term(s, f.right, env)
    if f.name not in s.signature.relation_arities:
        raise FormulaError(f"unknown relation symbol {f.name}")
    if len(f.args) != s.signature.relation_arities[f.name]:
        raise FormulaError(f"arity mismatch for {f.name}")
    return tuple(evaluate_term(s, a, env) for a in f.args) in s.rel(f.name)


def eval_formula_reference(
    s: FiniteStructure, f: Formula, env: Optional[Mapping[str, str]] = None
) -> bool:
    env = env or {}
    if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)):
        return _eval_atom(s, f, env)
    if isinstance(f, (And, GAnd)):
        return all(eval_formula_reference(s, p, env) for p in f.parts)
    if isinstance(f, (Or, GOr)):
        return any(eval_formula_reference(s, p, env) for p in f.parts)
    if isinstance(f, (PosEx, Exists)):
        body = f.matrix if isinstance(f, PosEx) else f.sub
        if not f.vars:
            return eval_formula_reference(s, body, env)
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if eval_formula_reference(s, body, e2):
                return True
        return False
    if isinstance(f, Implication):
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if eval_formula_reference(s, f.premise, e2) and not eval_formula_reference(s, f.conclusion, e2):
                return False
        return True
    if isinstance(f, HInductiveSentence):
        return all(eval_formula_reference(s, c, env) for c in f.conjuncts)
    if isinstance(f, HUniversalSentence):
        return not eval_formula_reference(s, f.inner, env)
    if isinstance(f, Not):
        return not eval_formula_reference(s, f.sub, env)
    if isinstance(f, Implies):
        return (not eval_formula_reference(s, f.left, env)) or eval_formula_reference(s, f.right, env)
    if isinstance(f, Forall):
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if not eval_formula_reference(s, f.sub, e2):
                return False
        return True
    raise FormulaError(f"cannot evaluate {f!r}")


def canonical_key_reference(s: FiniteStructure):
    """Iso-invariant encoding: lexicographically least relabelling."""
    n = len(s.universe)
    best = None
    for perm in itertools.permutations(range(n)):
        # perm[i] is the new index of the i-th universe element
        idx = {e: perm[i] for i, e in enumerate(s.universe)}
        enc = (
            n,
            tuple(
                tuple(sorted(tuple(idx[e] for e in tup) for tup in s.rel(name)))
                for name, _ in s.signature.relations
            ),
            tuple(
                tuple(
                    sorted(
                        (tuple(idx[e] for e in args), idx[val])
                        for args, val in s.functions[name].items()
                    )
                )
                for name, _ in s.signature.functions
            ),
            tuple(idx[s.constants[c]] for c in s.signature.constants),
        )
        if best is None or enc < best:
            best = enc
    return best


def class_key(s: FiniteStructure):
    """Complete isomorphism invariant: over one signature, equal exactly
    for isomorphic structures.  Cheaper than `canonical_key_reference`,
    whose order it does not share.

    Every fact is a tuple of element indices: a relation tuple, a
    function entry (the arguments, then the value) or a constant's
    element.  The elements are coloured by iterated refinement over the
    facts, each colour ranked by value, so the ordered partition is
    iso-invariant.  The key is the size and the least encoding, one
    bitmask per symbol, over the relabellings that map each colour cell
    onto its own block of positions.
    """
    n = len(s.universe)
    index = {e: i for i, e in enumerate(s.universe)}.__getitem__
    sig = s.signature
    facts = [
        [tuple(map(index, t)) for t in s.rel(name)] for name, _ in sig.relations
    ]
    facts += [
        [tuple(map(index, args)) + (index(v),) for args, v in s.functions[name].items()]
        for name, _ in sig.functions
    ]
    facts += [[(index(s.constants[c]),)] for c in sig.constants]
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


def _relation_spaces(sig: Signature, universe: Tuple[str, ...]):
    return [
        (name, list(itertools.product(universe, repeat=arity)))
        for name, arity in sig.relations
    ]


def enumerate_structures_reference(
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
                ck = class_key(st)
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


def models_up_to_size_reference(
    sig: Signature,
    implications: Sequence[Implication],
    max_size: int,
    node_cap: Optional[int] = None,
    up_to_iso: bool = True,
) -> List[FiniteStructure]:
    """Models with |universe| <= max_size, the first found of each
    isomorphism class when up_to_iso, sorted stably by (size, canonical
    key).  The models are grouped by `class_key`, so the canonical key is
    computed once per class."""
    names = element_names(max_size)
    out: List[FiniteStructure] = []
    for size in range(1, max_size + 1):
        universe = names[:size]
        canonical = {}
        keyed = []
        for st in find_models(sig, universe, implications, node_cap=node_cap):
            cls = class_key(st)
            ck = canonical.get(cls)
            if ck is None:
                ck = canonical[cls] = canonical_key_reference(st)
            elif up_to_iso:
                continue
            keyed.append((ck, st))
        keyed.sort(key=lambda kv: kv[0])
        out.extend(st for _, st in keyed)
    return out


@functools.lru_cache(maxsize=None)
def apex_candidates_reference(theory, sig: Signature, cap: int, node_cap: int) -> Tuple[FiniteStructure, ...]:
    """The apex pool up to size `cap`, every size listed at once: the
    models of `theory`, or every structure over `sig` when it is None, up
    to isomorphism."""
    from posmt.theories import Budget, models
    if theory is not None:
        return tuple(models(theory, Budget(n=cap, N=cap, node_cap=node_cap)))
    return tuple(enumerate_structures(sig, cap))


# ---------------------------------------------------------------------------
# Amalgamation solver, certifying every candidate it builds


def _solve_quotient_reference(p):
    from posmt.amalgamation import QUOTIENT_COMPLETION_LIMIT, _certify, _quotient_seed
    cls, universe, seed_rels, seed_funcs, seed_consts = _quotient_seed(p)
    if len(universe) > p.budget.N:
        return None
    sig = p.f.target.signature
    implications = p.theory.implications() if p.theory is not None else ()
    out_b_map = {e: cls[("B", e)] for e in p.f.target.universe}
    out_c_map = {e: cls[("C", e)] for e in p.g.target.universe}
    # the quotient out-maps are fixed; if a required kind needs injectivity
    # the glued maps cannot provide, every completion would fail
    if p.kinds[2] >= MorphismKind.EMBEDDING and len(set(out_b_map.values())) < len(out_b_map):
        return None
    if p.kinds[3] >= MorphismKind.EMBEDDING and len(set(out_c_map.values())) < len(out_c_map):
        return None
    tried = 0
    for d in find_models(
        sig, universe, implications,
        node_cap=p.budget.node_cap,
        seed_true_relations={k: sorted(v) for k, v in seed_rels.items()},
        seed_functions=seed_funcs,
        seed_constants=seed_consts,
    ):
        sol = _certify(p, d, Morphism(p.f.target, d, out_b_map), Morphism(p.g.target, d, out_c_map))
        if sol is not None:
            return sol
        tried += 1
        if tried >= QUOTIENT_COMPLETION_LIMIT:
            break
    return None


def _solve_enumeration_reference(p):
    from posmt.amalgamation import _apex_candidates, _certify, _enum_sizes
    from posmt.morphisms import enumerate_homs
    gamma, delta = p.kinds[2], p.kinds[3]
    cap, exhaustive = _enum_sizes(p)
    if cap == 0:
        return None, False
    for d in _apex_candidates(p, cap):
        if gamma >= MorphismKind.EMBEDDING and d.size() < p.f.target.size():
            continue
        if delta >= MorphismKind.EMBEDDING and d.size() < p.g.target.size():
            continue
        # a bounded strong immersion between finite structures forces equal
        # size (the target models the source's surjectivity sentence)
        if gamma >= MorphismKind.STRONG_IMMERSION and d.size() != p.f.target.size():
            continue
        if delta >= MorphismKind.STRONG_IMMERSION and d.size() != p.g.target.size():
            continue
        for out_b in enumerate_homs(p.f.target, d, kind=gamma, node_cap=p.budget.node_cap):
            required = {p.g(a): out_b(p.f(a)) for a in p.base.universe}
            if any(required[p.g(a)] != out_b(p.f(a)) for a in p.base.universe):
                continue  # g identifies base points whose B-images land apart
            for out_c in enumerate_homs(p.g.target, d, required, kind=delta, node_cap=p.budget.node_cap):
                sol = _certify(p, d, out_b, out_c)
                if sol is not None:
                    return sol, exhaustive
    return None, exhaustive


def solve_amalgamation_reference(p):
    """A certified solution with |D| <= N, or a "no"/"unknown" verdict."""
    from posmt.theories import no, unknown
    p.validate_in_kinds()
    try:
        sol = _solve_quotient_reference(p)
        if sol is not None:
            return sol
        sol, exhaustive = _solve_enumeration_reference(p)
        if sol is not None:
            return sol
        if not exhaustive:
            return unknown(p.budget, notes=("apex enumeration truncated below N",))
        return no(p.budget, notes=("exhaustive apex search below N completed empty",))
    except BudgetExceeded as exc:
        return unknown(p.budget, notes=(str(exc),))


# ---------------------------------------------------------------------------
# Sentence classes, as decided before one normal form decided them


def _is_posqf(f: Formula) -> bool:
    if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)):
        return True
    if isinstance(f, (And, Or, GAnd, GOr)):
        return all(_is_posqf(p) for p in f.parts)
    return False


def _is_positive(f: Formula) -> bool:
    if _is_posqf(f):
        return True
    if isinstance(f, (PosEx, Exists)):
        body = f.matrix if isinstance(f, PosEx) else f.sub
        return _is_positive(body)
    # nested quantifiers inside connectives are outside our fragment
    return False


def _is_hinductive(f: Formula) -> bool:
    if isinstance(f, HInductiveSentence):
        return True
    if isinstance(f, HUniversalSentence):
        return True
    if _is_positive(f):
        return True
    if isinstance(f, Not):
        return _is_positive(f.sub)
    if isinstance(f, Implication):
        return True
    if isinstance(f, Implies):
        return _is_positive(f.left) and _is_positive(f.right)
    if isinstance(f, Forall):
        return _is_hinductive_body(f.sub)
    if isinstance(f, (GAnd, And)):
        return all(_is_hinductive(p) for p in f.parts)
    return False


def _is_hinductive_body(f: Formula) -> bool:
    if isinstance(f, Implies):
        return _is_positive(f.left) and _is_positive(f.right)
    if isinstance(f, Forall):
        return _is_hinductive_body(f.sub)
    if isinstance(f, Not):
        return _is_positive(f.sub)
    if isinstance(f, HUniversalSentence):
        return True
    if isinstance(f, (GAnd, And)):
        return all(_is_hinductive_body(p) for p in f.parts)
    return _is_positive(f)


def classify_sentence_reference(f: Formula) -> str:
    """Most specific class among positive / h-universal / h-inductive /
    outside, for a closed formula."""
    if free_vars(f):
        raise FormulaError("classification requires a closed formula")
    if _is_positive(f):
        return "positive"
    if isinstance(f, HUniversalSentence):
        return "h-universal"
    if isinstance(f, Not) and _is_positive(f.sub):
        return "h-universal"
    if _is_hinductive(f):
        return "h-inductive"
    return "outside"
