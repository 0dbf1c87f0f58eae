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
order, and an instance's status (`_Instance.status`) must equal the
finder's generated status function on any partial value list.

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

The hom-search reference is the recursive generator that
`morphisms.search_homs` replaced, with the map checks and the retraction
built on it as they were; the immersion, strong-immersion, kind and hom
enumeration references run it, not the kernel.  The kernel must yield the
same maps in the same order and run out of nodes at the same cap.

The continuation reference decides joint continuation pair by pair, over
every model of size <= N listed before the first pair, as `is_jc_bounded`
and `is_T_complete_pair` did before they listed a size at a time.  It
keeps the first homomorphism from a structure into a candidate in a dict
of its own call, not in `theories`' memo, and runs the same searches at
the same node cap as when it searched each pair's homs afresh.  Wherever the reference decides, the verdicts, their
certificates and notes must be the same; where it runs out of nodes, the
fast verdicts run out with the same message or say "yes" at a size below
the one that ran out.

The kind references decide the four-kind chain as it was decided before
`morphisms.classify_morphism` became the one place: embedding, then a
retraction, then the bounded strong immersion at k.  They keep the bound
k, which cannot change a kind once a map is an embedding.

The canonical-key reference relabels a structure by every permutation of
its elements, encodes each image as sorted tuples of element indices and
keeps the least.  `FiniteStructure.canonical_key`, the least image of an
`Orbits` code, must order every pair of structures as it does.

The orbit references compute a code's images one permutation at a time,
from per-permutation tables of image weights, compare codes pairwise for
the least image, and read each code's cells for the first in cell order, as
`Orbits` did before it summed lanes with one field per permutation.  They
lay codes out on their own (relation cell 0 the most significant bit),
without `Orbits.weights`, `values` or `code`.  The images of `Orbits.orbit`,
`least` and the least image as an int must give the same lists and the
same answers.

The deduplication references build every labelled structure (or take
every model the finder yields) and group them by `class_key`, a complete
isomorphism invariant computed per structure by colour refinement and a
least encoding over the relabellings that keep each colour class
together.  The finder's model lists must equal the model reference tuple
for tuple, and so must the list of all structures, which is the empty
theory's model list.  The structure reference keeps the order that the
list of all structures had before it became a model list (tuple sets by
size, then as combinations), so that list must hold the same classes at
each size.

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
report condition 4 an equality of sets.  `kaiser_hull_bounded` must print
sentences that parse back to the reference's trees, and
`jc_characterization_report` must give the same conditions.
The extremality check and `diag_plus_star_set`, which only tests call,
live here too.

The ground-refutation reference is `theories._ground_refutation` as it
was before it became one loop with one helper: it tests each implication
once as a fact and once as a denial.  The two must return the same
certificate, or None, on every set of ground facts and denials.

The amalgamation-solver reference is the solver as it was before it
rejected candidates from their out-maps alone: it completes every quotient
and lists every out-map pair, and leaves the strong-immersion kinds and the
strong condition to the certificate check.  `solve_amalgamation` must give
the same status and notes, or the same apex and out-maps.  Its quotient
phase glues the wings with the union-find keyed by (side, element) pairs
that the solver used before it glued on integer indices.

The strong-condition reference weighs every pair (b, c) that the
out-maps identify, as `check_strong_condition` did before it read the
enumeration phase's `_disjoint_targets`; the two must agree on any maps.

The basis reference solves every (B, f, C, g) instance of a basis check
on its own, as `check_basis` did before it solved one instance per
symmetry class.  The reports must be equal.

The reference printer is the tree printer that `hull` ran on each of its
sentences before it printed them from the rows of the integer implication
table (`corpus.hull_texts`, `corpus.cq_text`): every hull and T_u(T) line must be its output
on the sentence's tree, and it inverts the parser on the trees it prints.

The harness generator references draw and build every random structure
and wing afresh, as `harness` did before it built each draw once: the
structures are built while the RNG is read, and a hom wing is one of the
first 20 maps of a fresh `search_homs`.  `embedding_extension` still builds
each draw afresh and has no reference.  The interned generators must
leave the RNG in the same state and give structures with the same
`key()` and the same maps.

The JSON reference copies a report into plain dicts and lists first, as
`textio.jsonable` did before the writer printed reports straight from the
objects the commands build: `json.dumps` of that copy must give the bytes
of `textio.report_to_json`.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from posmt.corpus import (
    CORPUS_CAP, DEFAULT_MAX_ATOMS_CQ, DEFAULT_MAX_ATOMS_IMPL, AtomCode, AtomPool,
    BoundedImplication, CQSentence, atom_pool,
)
from posmt.errors import BudgetExceeded, FormulaError, SignatureError, StructureError
from posmt.formulas import (
    And, Atom, Const, EqAtom, Falsum, Forall, Formula, Implication, Implies,
    Not, Or, PosEx, PosQF, RelAtom, TRUE_POSEX, Term, Truth, Var, free_vars,
)
from posmt.morphisms import Morphism, MorphismKind, is_strong_immersion, search_homs
from posmt import corpus
from posmt.finder import find_models
from posmt.harness import POSET_SIG
from posmt.structures import (
    FiniteStructure, Orbits, Signature, UnionFind, element_names, enumerate_structures,
)
from posmt.textio import structure_to_json, verdict_to_json
from posmt.theories import (
    Budget, DiagramSet, Theory, Verdict, bounded_pc_models, is_model, models, no, tu_star_set, yes,
)


def replace(obj, **changes):
    """A new record like `obj` with the given fields changed; `__init__`
    and `__post_init__` run again, so the new record is checked."""
    values = {name: getattr(obj, name) for name in type(obj).__record_fields__}
    values.update(changes)
    return type(obj)(**values)


# ---------------------------------------------------------------------------
# Hom search and the map checks, as they were before the iterative kernel


def _source_facts(a: FiniteStructure):
    facts = []
    for name, _ in a.signature.relations:
        for tup in sorted(a.rel(name)):
            facts.append(("rel", name, tup))
    for name, _ in a.signature.functions:
        for args, val in sorted(a.functions[name].items()):
            facts.append(("func", name, args + (val,)))
    return facts


def search_homs_reference(
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
    universe order.  The recursive generator that `morphisms.search_homs`
    replaced; it yields the same maps in the same order, counting nodes the
    same way."""
    if a.signature != b.signature:
        raise SignatureError("hom search across different signatures")
    pinned = required or {}
    required = dict(pinned)
    free = [e for e in b.universe if e not in forbidden] if forbidden else list(b.universe)
    for c in a.signature.constants:
        src = a.const(c)
        tgt = b.const(c)
        if required.get(src, tgt) != tgt or (src not in pinned and tgt not in free):
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
    used: Set[str] = set()  # the images taken, for an injective search
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
        candidates = [required[e]] if e in required else free
        for cand in candidates:
            if cand in used:
                continue
            nodes += 1
            if node_cap is not None and nodes > node_cap:
                raise BudgetExceeded(f"hom search exceeded node cap {node_cap}")
            assignment[e] = cand
            if injective:
                used.add(cand)
            if ok_at(i):
                yield from dfs(i + 1)
            used.discard(cand)
            del assignment[e]

    yield from dfs(0)


def is_homomorphism_reference(m: Morphism) -> bool:
    a, b = m.source, m.target
    for name, _ in a.signature.relations:
        brel = b.rel(name)
        for tup in a.rel(name):
            if tuple(m.map[e] for e in tup) not in brel:
                return False
    for name, _ in a.signature.functions:
        btab = b.functions[name]
        for args, val in a.functions[name].items():
            if btab[tuple(m.map[e] for e in args)] != m.map[val]:
                return False
    for c in a.signature.constants:
        if m.map[a.const(c)] != b.const(c):
            return False
    return True


def is_embedding_reference(m: Morphism) -> bool:
    """A homomorphism that is injective and pulls back every target tuple
    inside its image."""
    if not is_homomorphism_reference(m) or not m.is_injective():
        return False
    a, b = m.source, m.target
    inverse = {m.map[e]: e for e in a.universe}
    for name, _ in a.signature.relations:
        arel = a.rel(name)
        for tup in b.rel(name):
            if all(e in inverse for e in tup) and tuple(inverse[e] for e in tup) not in arel:
                return False
    return True


def retraction_reference(m: Morphism) -> Optional[Morphism]:
    """A homomorphism r: target -> source with r . m = id, if one exists."""
    if not m.is_injective():
        return None
    required = {m.map[e]: e for e in m.source.universe}
    r = next(search_homs_reference(m.target, m.source, required), None)
    return Morphism(m.target, m.source, r) if r is not None else None


class ImmersionOracle:
    """CQ-reflection decision for homs between structures of bounded size."""

    def __init__(self, sig: Signature, size: int = 3):
        self.corpus: List[FiniteStructure] = list(enumerate_structures(sig, size))
        self._homs: Dict[Tuple, List[Dict[str, str]]] = {}
        self._sat: Dict[Tuple, FrozenSet[Tuple[str, ...]]] = {}

    def homs(self, a: FiniteStructure, b: FiniteStructure) -> List[Dict[str, str]]:
        key = (a.key(), b.key())
        if key not in self._homs:
            self._homs[key] = [dict(m) for m in search_homs_reference(a, b)]
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
    if not is_homomorphism_reference(m):
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
    if not is_homomorphism_reference(m):
        raise StructureError("not a homomorphism")
    if not is_embedding_reference(m):
        return MorphismKind.HOM
    if retraction_reference(m) is None:
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
    for mp in search_homs_reference(a, b, required, node_cap=node_cap):
        m = Morphism(a, b, mp)
        if kind >= MorphismKind.EMBEDDING and not is_embedding_reference(m):
            continue
        if kind >= MorphismKind.IMMERSION:
            r = retraction_reference(m)
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




def seeded_cells(
    sig: Signature,
    universe: Tuple[str, ...],
    seed_true_relations: Optional[Mapping[str, Sequence[Tuple[str, ...]]]] = None,
    seed_functions: Optional[Mapping[str, Mapping[Tuple[str, ...], str]]] = None,
    seed_constants: Optional[Mapping[str, str]] = None,
) -> Dict[int, object]:
    """The cells of `Orbits(sig, len(universe))` that name-keyed seeds fix,
    as `find_models` takes them: facts true, function entries and constants
    at the index of their element."""
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
    return fixed


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


def is_pc_within_reference(m: FiniteStructure, t: Theory, b: Budget) -> Verdict:
    """`theories.is_pc_within` as it was before it read the models a size
    at a time: every model of t of size <= n is listed before the first hom
    is searched.  A hom is an immersion iff it has a retraction, found by
    the reference search."""
    if m.signature != t.signature:
        raise SignatureError(f"theory {t.name!r} is not over the structure's signature")
    if not is_model(m, t):
        raise StructureError("structure is not a model of the theory")
    targets = models(t, b)
    checked_models = checked_homs = 0
    for other in targets:
        checked_models += 1
        for hmap in search_homs(m, other, node_cap=b.node_cap):
            checked_homs += 1
            if retraction_reference(Morphism(m, other, hmap)) is None:  # hmap is a hom
                return no(b, {"target": other, "hom": hmap})
    return yes(b, {"models_checked": checked_models, "homs_checked": checked_homs})


def bounded_pc_models_reference(t: Theory, b: Budget) -> List[FiniteStructure]:
    """`theories.bounded_pc_models` through `is_pc_within_reference`."""
    return [m for m in models(t, b) if is_pc_within_reference(m, t, b).is_yes]


def diag_plus_star_set(a: FiniteStructure, k: int) -> FrozenSet:
    return frozenset(corpus.diag_plus_star(a, k))


def _tu_of_models_reference(t: Theory, ms: Sequence[FiniteStructure], b: Budget) -> FrozenSet:
    """Bounded T_u(T) over the listed models `ms` of t: the CQ sentences
    refuted by every one of them (`theories._tu_of_models`)."""
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
        s = frozenset(corpus.ti_star(m, b.k))
        out = s if out is None else (out & s)
    if out is None:
        return frozenset(corpus.implication_corpus(t.signature, b.k))
    return out


def kaiser_hull_bounded_reference(t: Theory, b: Budget) -> Tuple[DiagramSet, DiagramSet]:
    """`theories.kaiser_hull_bounded` over frozenset fragments."""
    pool = atom_pool(t.signature, b.k)
    hull_set = _hull_of_pc_models_reference(t, bounded_pc_models_reference(t, b), b)
    tu_set = _tu_of_models_reference(t, models(t, b), b)
    hull = tuple(
        And((imp.to_implication(pool),))
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
    """`theories.jc_characterization_report` over frozenset fragments, with
    every model of size <= N listed and every condition computed over all
    of them."""
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
    pcs = bounded_pc_models_reference(t, b)
    hull = _hull_of_pc_models_reference(t, pcs, b)
    cond4 = any(frozenset(corpus.ti_star(m, b.k)) == hull for m in ms_n) if ms_n else True
    # (5) bounded-pc models share T_u*
    tu_sets = {tu_star_set(m, b.k) for m in pcs}
    cond5 = len(tu_sets) <= 1
    jc = continuation_verdict_reference(b, list(itertools.combinations_with_replacement(ms_n, 2)), ms_big)
    conditions = {"cond1": cond1, "cond2": cond2, "cond3": cond3, "cond4": cond4, "cond5": cond5}
    return {
        "conditions": conditions,
        "is_jc": jc.status,
        "agreement": {name: (value == jc.is_yes) for name, value in conditions.items()},
        "budget": b.as_dict(),
    }


def continuation_verdict_reference(
    b: Budget, pairs: Sequence[Tuple], candidates: Sequence[FiniteStructure]
) -> Verdict:
    """Joint continuation over the listed models `candidates` of size <= N:
    a pair has one when some candidate receives a hom from each side.  The
    first hom from a structure into a candidate is searched once per call
    and kept in a dict of this call, apart from `theories`' own memo."""
    first: Dict[Tuple, Optional[Dict[str, str]]] = {}

    def hom(s: FiniteStructure, i: int) -> Optional[Dict[str, str]]:
        key = (s.key(), i)
        if key not in first:
            first[key] = next(search_homs_reference(s, candidates[i], node_cap=b.node_cap), None)
        return first[key]

    for a, bst in pairs:
        if not any(hom(a, i) is not None and hom(bst, i) is not None for i in range(len(candidates))):
            return no(b, {"pair": (a, bst)}, notes=("no common continuation of size <= N",))
    return yes(b, {"pairs_checked": len(pairs)})


def is_jc_bounded_reference(t: Theory, b: Budget) -> Verdict:
    """`theories.is_jc_bounded` with the models of t listed up to max(n, N)
    before the first pair is decided."""
    ms = models(t, replace(b, n=max(b.n, b.N)))
    pairs = list(itertools.combinations_with_replacement([m for m in ms if m.size() <= b.n], 2))
    return continuation_verdict_reference(b, pairs, [m for m in ms if m.size() <= b.N])


def is_T_complete_pair_reference(t1: Theory, t2: Theory, t: Theory, b: Budget) -> Verdict:
    """`theories.is_T_complete_pair` with the models of t listed up to N
    before the first pair is decided."""
    pairs = list(itertools.product(models(t1, b), models(t2, b)))
    return continuation_verdict_reference(b, pairs, models(t, replace(b, n=b.N)))


def tu_ti_extremality_check(t: Theory, b: Budget) -> Verdict:
    """For every bounded-pc model A and model B of t: T_u*(A) is minimal
    and T_i*(A) is maximal among the bounded fragments of models of t."""
    ms = models(t, b)
    pcs = bounded_pc_models(t, b)
    for a in pcs:
        tu_a = tu_star_set(a, b.k)
        ti_a = frozenset(corpus.ti_star(a, b.k))
        for other in ms:
            tu_b = tu_star_set(other, b.k)
            if tu_b <= tu_a and tu_a != tu_b:
                return no(b, {"pc": a, "model": other, "violated": "Tu* minimality"})
            ti_b = frozenset(corpus.ti_star(other, b.k))
            if ti_a <= ti_b and ti_a != ti_b:
                return no(b, {"pc": a, "model": other, "violated": "Ti* maximality"})
    return yes(b, {"pc_models": len(pcs), "models": len(ms)})


def ground_refutation_reference(sig: Signature, implications: Sequence[Implication]) -> Optional[Dict]:
    """Congruence closure over ground constant facts: detect an atomic clash
    between unconditional positive facts and ground h-universal constraints.
    Returns a refutation certificate or None (inconclusive)."""

    def ground_const(t) -> Optional[str]:
        return t.name if isinstance(t, Const) else None

    def conj_atoms(matrix) -> List:
        if isinstance(matrix, And):
            return [atom for p in matrix.parts for atom in conj_atoms(p)]
        return [matrix]

    uf = UnionFind(sig.constants)
    find, union = uf.find, uf.union
    facts: Set[Tuple[str, Tuple[str, ...]]] = set()
    forbidden: List[Tuple] = []  # ("rel", name, consts) or ("eq", c1, c2)
    for imp in implications:
        trivial_premise = not imp.vars and not imp.premise.vars and imp.premise == TRUE_POSEX
        if trivial_premise and not imp.conclusion.vars:
            for atom in conj_atoms(imp.conclusion.matrix):
                if isinstance(atom, EqAtom):
                    c1, c2 = ground_const(atom.left), ground_const(atom.right)
                    if c1 and c2:
                        union(c1, c2)
                elif isinstance(atom, RelAtom):
                    cs = tuple(ground_const(t) for t in atom.args)
                    if all(cs):
                        facts.add((atom.name, cs))
        # `exists x. false` counts as a falsum conclusion too
        if isinstance(imp.conclusion.matrix, Falsum) and not imp.vars and not imp.premise.vars:
            atoms = conj_atoms(imp.premise.matrix)
            if len(atoms) == 1:
                atom = atoms[0]
                if isinstance(atom, EqAtom):
                    c1, c2 = ground_const(atom.left), ground_const(atom.right)
                    if c1 and c2:
                        forbidden.append(("eq", c1, c2))
                elif isinstance(atom, RelAtom):
                    cs = tuple(ground_const(t) for t in atom.args)
                    if all(cs):
                        forbidden.append(("rel", atom.name, cs))
    closed = {(name, tuple(find(c) for c in cs)) for name, cs in facts}
    for item in forbidden:
        if item[0] == "eq":
            if find(item[1]) == find(item[2]):
                return {"clash": f"{item[1]} = {item[2]} is both asserted and forbidden"}
        else:
            _, name, cs = item
            if (name, tuple(find(c) for c in cs)) in closed:
                args = ", ".join(cs)
                return {"clash": f"{name}({args}) is both asserted and forbidden"}
    return None


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
    if isinstance(f, And):
        return all(eval_formula_reference(s, p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula_reference(s, p, env) for p in f.parts)
    if isinstance(f, PosEx):
        if not f.vars:
            return eval_formula_reference(s, f.matrix, env)
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if eval_formula_reference(s, f.matrix, e2):
                return True
        return False
    if isinstance(f, Implication):
        for vals in itertools.product(s.universe, repeat=len(f.vars)):
            e2 = dict(env)
            e2.update(zip(f.vars, vals))
            if eval_formula_reference(s, f.premise, e2) and not eval_formula_reference(s, f.conclusion, e2):
                return False
        return True
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


def _orbit_tables(orbits: Orbits):
    """Per permutation p: the code weight of the image of each relation
    cell (cell 0 the most significant relation bit), and per digit the code
    weight of p[v] at the digit's image position, for each value v."""
    n, tail, nrel = orbits.n, orbits.tail, orbits.offsets[-1]
    weights = [n ** (orbits.digits - 1 - i) for i in range(orbits.digits)]
    tables = []
    for p in itertools.permutations(range(n)):
        bit_images = tuple(
            tail << (nrel - 1 - offset - orbits.cell(p[e] for e in t))
            for (_, arity), offset in zip(orbits.sig.relations, orbits.offsets)
            for t in itertools.product(range(n), repeat=arity)
        )
        positions, start = [], 0
        for _, arity in orbits.sig.functions:
            positions += [start + orbits.cell(p[e] for e in args)
                          for args in itertools.product(range(n), repeat=arity)]
            start += n ** arity
        positions += range(start, orbits.digits)
        digit_images = [tuple(weights[q] * v for v in p) for q in positions]
        tables.append((bit_images, digit_images))
    return tables


def _read_cells(orbits: Orbits, code: int):
    """A code's relation cell values, cell 0 first, and its digits."""
    nrel = orbits.offsets[-1]
    bits, rest = divmod(code, orbits.tail)
    digits = []
    for _ in range(orbits.digits):
        rest, d = divmod(rest, orbits.n)
        digits.append(d)
    return [bits >> (nrel - 1 - c) & 1 for c in range(nrel)], digits[::-1]


def orbit_images_reference(orbits: Orbits, code: int) -> List[int]:
    """The code of the structure relabelled by each permutation of the
    elements, one permutation at a time, in `itertools.permutations` order."""
    cells, values = _read_cells(orbits, code)
    ones = [c for c, v in enumerate(cells) if v]
    return [sum(bit_images[c] for c in ones) + sum(d[v] for d, v in zip(digit_images, values))
            for bit_images, digit_images in _orbit_tables(orbits)]


def read_code(orbits: Orbits, code: int):
    """A code read as (each relation's set cells, the digits)."""
    cells, digits = _read_cells(orbits, code)
    return tuple(
        tuple(i for i in range(count) if cells[offset + i])
        for count, offset in zip(orbits.cells, orbits.offsets)
    ), tuple(digits)


def least_reference(orbits: Orbits, codes: Sequence[int]):
    """The least of `codes` as `read_code` reads them, compared without
    reading each.  Where two first differ in a relation cell (the highest
    bit that differs), the one with the cell set reads first if the other
    has a later set cell of the same relation, and last if not (the other's
    tuples then run out first); equal relation bits compare by the digits."""
    tail, nrel = orbits.tail, orbits.offsets[-1]
    # per relation bit, the lowest bit of its relation
    ends = [nrel - end for cells, end in zip(orbits.cells, orbits.offsets[1:]) for _ in range(cells)][::-1]
    best = codes[0]
    best_bits, best_digits = divmod(best, tail)
    for code in codes:
        bits, digits = divmod(code, tail)
        diff = bits ^ best_bits
        if diff:
            high = diff.bit_length() - 1
            later = (1 << high) - (1 << ends[high])
            before = best_bits & later if bits >> high & 1 else not bits & later
        else:
            before = digits < best_digits
        if before:
            best, best_bits, best_digits = code, bits, digits
    return read_code(orbits, best)


def first_in_cell_order_reference(orbits: Orbits, codes: Sequence[int]) -> int:
    """The relation-only code whose cell values come first in cell order,
    false before true."""
    return min(codes, key=lambda code: _read_cells(orbits, code)[0])


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
    """All structures with |universe| <= max_size, in deterministic order:
    by size, then each relation's tuple sets by size and then as
    combinations of its tuples (the first relation outermost), then the
    function tables and constants in `itertools.product` order.

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


def _quotient_seed(p):
    """Glue f(a) ~ g(a) in B |_| C and close under function congruence and
    constant agreement.  Returns (class-of dict, class names, seeds)."""
    b, c = p.f.target, p.g.target
    sig = b.signature
    elems = [("B", e) for e in b.universe] + [("C", e) for e in c.universe]
    uf = UnionFind(elems)
    find, union = uf.find, uf.union
    for a in p.base.universe:
        union(("B", p.f(a)), ("C", p.g(a)))
    for cn in sig.constants:
        union(("B", b.const(cn)), ("C", c.const(cn)))
    # function congruence: equal argument classes force equal value classes
    changed = True
    while changed:
        changed = False
        for name, _ in sig.functions:
            cells: Dict[Tuple, Tuple] = {}
            for side, s in (("B", b), ("C", c)):
                for args, val in s.functions.get(name, {}).items():
                    key = (name,) + tuple(find((side, e)) for e in args)
                    v = find((side, val))
                    if key in cells:
                        if cells[key] != v:
                            union(cells[key], v)
                            changed = True
                    else:
                        cells[key] = v
    classes: Dict[Tuple, List[Tuple]] = {}
    for e in elems:
        classes.setdefault(find(e), []).append(e)
    order = sorted(classes, key=lambda r: min(classes[r]))
    name_of = {root: f"q{i}" for i, root in enumerate(order)}
    cls = {e: name_of[find(e)] for e in elems}
    universe = tuple(name_of[r] for r in order)

    seed_rels: Dict[str, Set[Tuple[str, ...]]] = {name: set() for name, _ in sig.relations}
    seed_funcs: Dict[str, Dict[Tuple[str, ...], str]] = {name: {} for name, _ in sig.functions}
    seed_consts: Dict[str, str] = {}
    for side, s in (("B", b), ("C", c)):
        for name, _ in sig.relations:
            for tup in s.rel(name):
                seed_rels[name].add(tuple(cls[(side, e)] for e in tup))
        for name, entries in s.functions.items():
            for args, val in entries.items():
                seed_funcs[name][tuple(cls[(side, e)] for e in args)] = cls[(side, val)]
        for cn in sig.constants:
            seed_consts[cn] = cls[(side, s.const(cn))]
    return cls, universe, seed_rels, seed_funcs, seed_consts


def check_strong_condition_reference(
    out_b: Morphism, out_c: Morphism, f: Morphism, g: Morphism, strict: bool = False
) -> bool:
    """`amalgamation.check_strong_condition` over every pair (b, c) that
    the out-maps identify: b in f(A) and c in g(A) (strict: some a with
    b = f(a) and c = g(a))."""
    image_f = set(f.map.values())
    image_g = set(g.map.values())
    for b_el in out_b.source.universe:
        for c_el in out_c.source.universe:
            if out_b(b_el) != out_c(c_el):
                continue
            if b_el not in image_f or c_el not in image_g:
                return False
            if strict and not any(
                f(a) == b_el and g(a) == c_el for a in f.source.universe
            ):
                return False
    return True


def _solve_quotient_reference(p):
    from posmt.amalgamation import QUOTIENT_COMPLETION_LIMIT, AmalgamationSolution, _certify
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
        fixed=seeded_cells(sig, universe, seed_rels, seed_funcs, seed_consts),
    ):
        out_b, out_c = Morphism(p.f.target, d, out_b_map), Morphism(p.g.target, d, out_c_map)
        if _certify(p, d, out_b, out_c):
            return AmalgamationSolution(d, out_b, out_c)
        tried += 1
        if tried >= QUOTIENT_COMPLETION_LIMIT:
            break
    return None


def _solve_enumeration_reference(p):
    from posmt.amalgamation import AmalgamationSolution, _apex_candidates, _certify, _enum_sizes
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
                if _certify(p, d, out_b, out_c):
                    return AmalgamationSolution(d, out_b, out_c), exhaustive
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


def check_basis_reference(a, kinds, theory, b, strong=False, strict_strong=False):
    """Iterate all wings B, C in the class (size <= n, up to iso) and all
    maps of the required in-kinds from a; report solvability of each."""
    from posmt.amalgamation import (
        AmalgamationProblem, AmalgamationSolution, BasisReport, parse_kinds, solve_amalgamation,
    )
    from posmt.morphisms import enumerate_homs
    from posmt.theories import is_model
    kinds = parse_kinds(kinds)
    alpha, beta = kinds[0], kinds[1]
    if theory is not None:
        if not is_model(a, theory):
            raise StructureError("the base is not a model of the theory")
        wings = models(theory, b)
    else:
        wings = list(enumerate_structures(a.signature, b.n))
    # each wing's maps are listed once; the beta lists only if some alpha
    # list is not empty, as no instance reads them otherwise
    left = [enumerate_homs(a, w, kind=alpha, node_cap=b.node_cap) for w in wings]
    right = left if beta == alpha or not any(left) else [
        enumerate_homs(a, w, kind=beta, node_cap=b.node_cap) for w in wings]
    instances: List[Dict] = []
    statuses: List[str] = []
    for bw, fs in zip(wings, left):
        for cw, gs in zip(wings, right):
            for f in fs:
                for g in gs:
                    problem = AmalgamationProblem(f, g, kinds, theory, strong, strict_strong, b)
                    result = solve_amalgamation(problem)
                    solved = isinstance(result, AmalgamationSolution)
                    status = "yes" if solved else result.status
                    statuses.append(status)
                    instances.append({
                        "B": bw, "C": cw, "f": dict(f.map), "g": dict(g.map),
                        "status": status,
                        "apex_size": result.apex.size() if solved else None,
                    })
    if all(s == "yes" for s in statuses):
        agg = Verdict("yes", b, {"instances": len(statuses)})
    elif any(s == "no" for s in statuses):
        agg = Verdict("no", b, {"failing": statuses.count("no")})
    else:
        agg = Verdict("unknown", b, {"unknown": statuses.count("unknown")})
    return BasisReport(a, kinds, theory.name if theory else "all-structures", tuple(instances), agg)


# ---------------------------------------------------------------------------
# Sentence classes, as decided before one normal form decided them


def _is_posqf(f: Formula) -> bool:
    if isinstance(f, (RelAtom, EqAtom, Falsum, Truth)):
        return True
    if isinstance(f, (And, Or)):
        return all(_is_posqf(p) for p in f.parts)
    return False


def _is_positive(f: Formula) -> bool:
    if _is_posqf(f):
        return True
    if isinstance(f, PosEx):
        return _is_positive(f.matrix)
    # nested quantifiers inside connectives are outside our fragment
    return False


def _is_hinductive(f: Formula) -> bool:
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
    if isinstance(f, And):
        return all(_is_hinductive(p) for p in f.parts)
    return False


def _is_hinductive_body(f: Formula) -> bool:
    if isinstance(f, Implies):
        return _is_positive(f.left) and _is_positive(f.right)
    if isinstance(f, Forall):
        return _is_hinductive_body(f.sub)
    if isinstance(f, Not):
        return _is_positive(f.sub)
    if isinstance(f, And):
        return all(_is_hinductive_body(p) for p in f.parts)
    return _is_positive(f)


def classify_sentence_reference(f: Formula) -> str:
    """Most specific class among positive / h-universal / h-inductive /
    outside, for a closed formula."""
    if free_vars(f):
        raise FormulaError("classification requires a closed formula")
    if _is_positive(f):
        return "positive"
    if isinstance(f, Not) and _is_positive(f.sub):
        return "h-universal"
    if _is_hinductive(f):
        return "h-inductive"
    return "outside"


# ---------------------------------------------------------------------------
# Sentences printed by walking their trees (inverse of the parser on ASTs)


def _pp_term(t: Term) -> str:
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    return f"{t.func}({', '.join(_pp_term(a) for a in t.args)})"


def _pp_qf(f: PosQF, prec: int = 0) -> str:
    # prec 0 = or-level, 1 = and-level, 2 = atom
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, RelAtom):
        return f"{f.name}({', '.join(_pp_term(a) for a in f.args)})"
    if isinstance(f, EqAtom):
        return f"{_pp_term(f.left)} = {_pp_term(f.right)}"
    if isinstance(f, And):
        body = " & ".join(_pp_qf(p, 2) for p in f.parts)
        return f"({body})" if prec >= 2 else body
    if isinstance(f, Or):
        body = " | ".join(_pp_qf(p, 1) for p in f.parts)
        return f"({body})" if prec >= 1 else body
    raise FormulaError(f"cannot print {f!r}")


def _pp_posex(f: PosEx) -> str:
    if f.vars:
        return f"exists {' '.join(f.vars)}. {_pp_qf(f.matrix)}"
    return _pp_qf(f.matrix)


def pp_formula(f: Formula) -> str:
    if isinstance(f, And) and f.parts and all(isinstance(c, Implication) for c in f.parts):
        parts = []
        for c in f.parts:
            head = f"forall {' '.join(c.vars)}. " if c.vars else ""
            parts.append(f"{head}({_pp_posex(c.premise)}) -> ({_pp_posex(c.conclusion)})")
        return "hinductive: " + "; ".join(parts)
    if isinstance(f, Implication):
        return pp_formula(And((f,)))
    if isinstance(f, Not):
        return f"huniversal: ! {_pp_posex(f.sub)}"
    if isinstance(f, PosEx):
        return f"positive: {_pp_posex(f)}"
    return f"positive: {_pp_qf(f)}"


# ---------------------------------------------------------------------------
# Harness generators, each draw built afresh


def _build_reference(sig: Signature, universe: Tuple[str, ...], holds, value, constant) -> FiniteStructure:
    relations = {name: frozenset(t for t in itertools.product(universe, repeat=arity) if holds(name, t))
                 for name, arity in sig.relations}
    functions = {name: {args: value(name, args) for args in itertools.product(universe, repeat=arity)}
                 for name, arity in sig.functions}
    return FiniteStructure(sig, universe, relations, functions, {c: constant(c) for c in sig.constants})


def random_structure_reference(rng: random.Random, sig: Signature, max_size: int) -> FiniteStructure:
    universe = element_names(max_size)[: rng.randint(1, max_size)]
    return _build_reference(sig, universe, lambda name, t: rng.random() < 0.4,
                            lambda name, args: rng.choice(universe), lambda c: rng.choice(universe))


def random_poset_reference(rng: random.Random, max_size: int) -> FiniteStructure:
    universe = element_names(max_size)[: rng.randint(1, max_size)]
    n = len(universe)
    rows = [1 << i | sum(1 << j for j in range(i + 1, n) if rng.random() < 0.5) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    le = {(x, y) for x, row in zip(universe, rows) for j, y in enumerate(universe) if row >> j & 1}
    return FiniteStructure(POSET_SIG, universe, {"le": frozenset(le)}, {}, {})


def inflate_reference(rng: random.Random, a: FiniteStructure, extra: int) -> Morphism:
    fresh = tuple(f"x{i}" for i in range(extra))
    rep = {e: e for e in a.universe}
    rep.update((e, rng.choice(a.universe)) for e in fresh)

    def back(t):
        return tuple(map(rep.__getitem__, t))
    b = _build_reference(a.signature, a.universe + fresh, lambda name, t: back(t) in a.rel(name),
                         lambda name, args: a.func(name, back(args)), a.constants.__getitem__)
    return Morphism(a, b, {e: e for e in a.universe})


def disjoint_poset_extension_reference(rng: random.Random, a: FiniteStructure, max_extra: int) -> Morphism:
    extra = random_poset_reference(rng, max(1, max_extra))
    extra = extra.rename({e: f"x.{e}" for e in extra.universe})
    pairs = set(a.rel("le")) | set(extra.rel("le"))
    b = FiniteStructure(POSET_SIG, a.universe + extra.universe, {"le": frozenset(pairs)}, {}, {})
    return Morphism(a, b, {e: e for e in a.universe})


def iso_copy_reference(a: FiniteStructure) -> Morphism:
    renamed = a.rename({e: f"y.{e}" for e in a.universe})
    return Morphism(a, renamed, {e: f"y.{e}" for e in a.universe})


def random_hom_wing_reference(rng: random.Random, a: FiniteStructure, wing: FiniteStructure) -> Optional[Morphism]:
    homs = list(itertools.islice(search_homs(a, wing), 20))
    if not homs:
        return None
    return Morphism(a, wing, rng.choice(homs))


# ---------------------------------------------------------------------------
# Report JSON, as a copy into plain data before it is printed


def plain_json(value):
    """`value` as plain JSON data; a set is sorted by `repr`, and anything
    else that JSON has no form for prints as its `repr`."""
    if isinstance(value, FiniteStructure):
        return {"structure": structure_to_json(value)}
    if isinstance(value, Morphism):
        return {"map": dict(value.map)}
    if isinstance(value, MorphismKind):
        return value.letter
    if isinstance(value, Verdict):
        return plain_json(verdict_to_json(value))
    if isinstance(value, Budget):
        return value.as_dict()
    if isinstance(value, dict):
        return {str(k): plain_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [plain_json(v) for v in items]
    if isinstance(value, (And, Not, PosEx)):
        try:
            return pp_formula(value)
        except Exception:
            return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)
