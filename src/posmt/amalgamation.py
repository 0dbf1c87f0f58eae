"""[alpha, beta, gamma, delta]-amalgamation over finite classes.

Kind convention for a problem (f: A->B, g: A->C, apex D):
    alpha = required kind of f        beta  = required kind of g
    gamma = required kind of B->D     delta = required kind of C->D

The solver searches first among quotients of the amalgamated sum B |_A C
(glue f(a) ~ g(a), close under function congruence, complete the free cells
with the bounded model finder); then general apex enumeration with
constrained hom search, over a pool of apexes listed a size at a time as
far as the search reads.  "no" is only reported when the exhaustive phase
completed.  The glued sum itself (every unseeded fact false, every unseeded
entry the first element) is certified before the completions are searched:
when it is in the class it is the first completion the finder would yield.

Strong amalgamation adds the disjointness condition: the out-maps may
identify b in B with c in C only when b is in f(A) and c is in g(A)
(strict mode additionally demands a common preimage in A; it applies only
to a strong problem).

A basis check (`check_basis`) solves one instance per symmetry class when
both out-kinds are h: instances that differ by wing automorphisms or by the
B/C swap share a "yes", an exhaustive "no" or an "unknown" from a truncated
apex search.  The theorem harness (`verify_theorem`) solves each distinct
generated problem once and re-checks every instance's certificate.

Every candidate is certified in full (`_certify`), but the conditions that
the out-maps alone settle are decided before any search: the quotient
phase completes no quotient whose fixed out-maps are not injective where
kind e or more is asked, or not onto where kind s is; the enumeration
phase skips an apex that is not isomorphic by size and tuple counts to a
wing asked to be strongly immersed, and, for a strong problem, an out_b
that already breaks the disjointness condition, and lists out_c only among
maps that send C outside g(A) off out_b's image.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import BudgetExceeded, PosmtError, SignatureError, StructureError
from .finder import find_models
from .morphisms import (
    Morphism, MorphismKind, classify_morphism, enumerate_homs, search_homs,
)
from .records import record
from .structures import (
    ELEMENT_NAMES, FiniteStructure, Orbits, Signature, UnionFind, element_names,
    enumerate_structures,
)
from .theories import Budget, Theory, Verdict, is_model, models, no, unknown

NOT_STRONG = "strict mode refines strong amalgamation; the problem is not strong"


def parse_kinds(spec: Union[str, Sequence]) -> Tuple[MorphismKind, ...]:
    """Kind 4-tuple from letters like "iihh" / ["i","i","h","h"]."""
    if isinstance(spec, str):
        spec = list(spec)
    kinds = tuple(
        k if isinstance(k, MorphismKind) else MorphismKind.from_letter(k) for k in spec
    )
    if len(kinds) != 4:
        raise ValueError("amalgamation kinds must be a 4-tuple")
    return kinds


@record(frozen=True)
class AmalgamationProblem:
    f: Morphism  # A -> B
    g: Morphism  # A -> C
    kinds: Tuple[MorphismKind, MorphismKind, MorphismKind, MorphismKind]
    theory: Optional[Theory] = None  # None: the class of all structures
    strong: bool = False
    strict_strong: bool = False
    budget: Budget = Budget()

    def __post_init__(self):
        if self.f.source is not self.g.source and self.f.source.key() != self.g.source.key():
            raise StructureError("the two wing maps must share their source")
        if self.theory is not None and self.theory.signature != self.f.source.signature:
            raise SignatureError(f"theory {self.theory.name!r} is not over the base's signature")
        if self.strict_strong and not self.strong:
            raise StructureError(NOT_STRONG)

    @property
    def base(self) -> FiniteStructure:
        return self.f.source

    def validate_in_kinds(self) -> None:
        alpha, beta = self.kinds[0], self.kinds[1]
        if classify_morphism(self.f, alpha) < alpha:
            raise StructureError(f"left map is not a {alpha.letter}-hom")
        if classify_morphism(self.g, beta) < beta:
            raise StructureError(f"right map is not a {beta.letter}-hom")


@record(frozen=True)
class AmalgamationSolution:
    apex: FiniteStructure
    out_b: Morphism  # B -> D
    out_c: Morphism  # C -> D
    # each out-map's kind decided up to the required one: min(kind, required)
    kinds: Tuple[MorphismKind, MorphismKind]
    commutation: Tuple[Tuple[str, str, str], ...]  # (a, via_B, via_C) rows
    strong_ok: Optional[bool] = None


def check_strong_condition(
    out_b: Morphism, out_c: Morphism, f: Morphism, g: Morphism, strict: bool = False
) -> bool:
    """True iff out_b(b) = out_c(c) only happens at images of the base:
    b in f(A) and c in g(A) (strict: some a with b = f(a) and c = g(a))."""
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


def _commutation_table(p: AmalgamationProblem, out_b: Morphism, out_c: Morphism):
    rows = []
    for a in p.base.universe:
        via_b = out_b(p.f(a))
        via_c = out_c(p.g(a))
        if via_b != via_c:
            return None
        rows.append((a, via_b, via_c))
    return tuple(rows)


def _in_class(d: FiniteStructure, p: AmalgamationProblem) -> bool:
    return p.theory is None or is_model(d, p.theory)


def _certify(p: AmalgamationProblem, d: FiniteStructure, out_b: Morphism, out_c: Morphism):
    """Full re-verification of a candidate solution; None if it fails."""
    gamma, delta = p.kinds[2], p.kinds[3]
    if not _in_class(d, p):
        return None
    table = _commutation_table(p, out_b, out_c)
    if table is None:
        return None
    try:  # a map that is no homomorphism rejects the candidate
        kb = classify_morphism(out_b, gamma)
        if kb < gamma:
            return None
        kc = classify_morphism(out_c, delta)
    except StructureError:
        return None
    if kc < delta:
        return None
    strong_ok = None
    if p.strong:
        strong_ok = check_strong_condition(out_b, out_c, p.f, p.g, p.strict_strong)
        if not strong_ok:
            return None
    return AmalgamationSolution(d, out_b, out_c, (kb, kc), table, strong_ok)


def verify_solution(p: AmalgamationProblem, sol: AmalgamationSolution) -> bool:
    return _certify(p, sol.apex, sol.out_b, sol.out_c) is not None


# ---------------------------------------------------------------------------
# Phase 1: quotient of the amalgamated sum


def _quotient_seed(p: AmalgamationProblem):
    """Glue f(a) ~ g(a) in B |_| C and close under function congruence and
    constant agreement, on indices: B's elements, then C's, by name.  The
    classes are q0, q1, ... in order of their least index.  Returns their
    layout, names, both out-maps, and the cells B and C fix."""
    b, c = p.f.target, p.g.target
    sig = b.signature
    index_b = {e: i for i, e in enumerate(sorted(b.universe))}
    index_c = {e: i for i, e in enumerate(sorted(c.universe), len(index_b))}
    sides = ((b, index_b), (c, index_c))
    uf = UnionFind(range(len(index_b) + len(index_c)))
    find, union = uf.find, uf.union
    for a in p.base.universe:
        union(index_b[p.f(a)], index_c[p.g(a)])
    for cn in sig.constants:
        union(index_b[b.const(cn)], index_c[c.const(cn)])
    # function congruence: equal argument classes force equal value classes
    entries = [(name, tuple(map(index.__getitem__, args)), index[v])
               for s, index in sides for name, table in s.functions.items() for args, v in table.items()]
    changed = bool(entries)
    while changed:
        changed = False
        cells: Dict[Tuple, int] = {}
        for name, args, v in entries:
            w = find(cells.setdefault((name, *map(find, args)), v))
            if w != find(v):
                union(w, v)
                changed = True
    number: Dict[int, int] = {}
    cls = [number.setdefault(find(i), len(number)) for i in range(len(uf.parent))]
    orbits = Orbits(sig, len(number))
    universe = tuple(f"q{i}" for i in range(len(number)))
    fixed: Dict[int, object] = {}
    for s, index in sides:
        q = {e: cls[i] for e, i in index.items()}.__getitem__
        for name, _ in sig.relations:
            first = orbits.blocks[name][0]
            fixed.update((first + orbits.cell(map(q, t)), True) for t in s.rel(name))
        for name, table in s.functions.items():
            first = orbits.blocks[name][0]
            fixed.update((first + orbits.cell(map(q, args)), q(v)) for args, v in table.items())
        for cn in sig.constants:
            fixed[orbits.blocks[cn][0]] = q(s.const(cn))
    out_b, out_c = ({e: universe[cls[i]] for e, i in index.items()} for _, index in sides)
    return orbits, universe, out_b, out_c, fixed


QUOTIENT_COMPLETION_LIMIT = 64


def _solve_quotient(p: AmalgamationProblem) -> Optional[AmalgamationSolution]:
    orbits, universe, out_b_map, out_c_map, fixed = _quotient_seed(p)
    if len(universe) > p.budget.N:
        return None
    implications = p.theory.implications() if p.theory is not None else ()
    # the quotient out-maps are fixed; if a required kind needs injectivity
    # (e and up) or a bijection (s) the glued maps cannot provide, every
    # completion would fail
    for kind, out_map in ((p.kinds[2], out_b_map), (p.kinds[3], out_c_map)):
        image = len(set(out_map.values()))
        if kind >= MorphismKind.EMBEDDING and image < len(out_map):
            return None
        if kind >= MorphismKind.STRONG_IMMERSION and image < len(universe):
            return None

    def certify(d: FiniteStructure) -> Optional[AmalgamationSolution]:
        return _certify(p, d, Morphism(p.f.target, d, out_b_map), Morphism(p.g.target, d, out_c_map))

    # the glued sum, each free cell at its least value (false, or the first
    # element), is the first completion the search meets whenever it is in
    # the class, after one node per free cell; past the node cap the search
    # stops before meeting it
    if orbits.size - len(fixed) <= p.budget.node_cap:
        glued = [fixed.get(c, False if c < orbits.offsets[-1] else 0) for c in range(orbits.size)]
        sol = certify(orbits.builder(universe)(glued))
        if sol is not None:
            return sol
    tried = 0
    for d in find_models(orbits.sig, universe, implications, node_cap=p.budget.node_cap, fixed=fixed):
        sol = certify(d)
        if sol is not None:
            return sol
        tried += 1
        if tried >= QUOTIENT_COMPLETION_LIMIT:
            break
    return None


# ---------------------------------------------------------------------------
# Phase 2: general apex enumeration


MAX_ENUM_APEX = len(ELEMENT_NAMES)  # enumerated universes use the default names
ENUM_RAW_LIMIT = 10 ** 6  # raw interpretation count beyond which a size is skipped
TRUNCATED = ("apex enumeration truncated below N",)  # notes of an "unknown" that stopped below N


def _enum_sizes(p: AmalgamationProblem) -> Tuple[int, bool]:
    """Largest feasible apex size to enumerate, and whether that makes the
    search exhaustive up to budget N."""
    sig = p.f.target.signature
    top = 0
    for size in range(1, min(p.budget.N, MAX_ENUM_APEX) + 1):
        if Orbits(sig, size).count > ENUM_RAW_LIMIT:
            break
        top = size
    return top, top == p.budget.N


_CANDIDATE_CACHE: Dict[Tuple, Tuple[FiniteStructure, ...]] = {}


def _apex_candidates(p: AmalgamationProblem, cap: int) -> Iterator[FiniteStructure]:
    """The apex pool up to size `cap` in order: the models of the problem's
    theory, or every structure, up to isomorphism.  Each size is listed
    only when the solver reads that far, and kept per size."""
    sig = p.f.target.signature
    for size in range(1, cap + 1):
        key = (p.theory, sig, size, p.budget.node_cap)
        if key not in _CANDIDATE_CACHE:
            if len(_CANDIDATE_CACHE) > 64:
                _CANDIDATE_CACHE.clear()
            if p.theory is not None:
                found = models(p.theory, Budget(n=size, N=size, k=p.budget.k, node_cap=p.budget.node_cap))
            else:
                found = enumerate_structures(sig, size)
            _CANDIDATE_CACHE[key] = tuple(d for d in found if d.size() == size)
        yield from _CANDIDATE_CACHE[key]


def _tuple_counts(s: FiniteStructure) -> Tuple[int, ...]:
    return tuple(len(s.rel(name)) for name, _ in s.signature.relations)


def _apex_fits(d: FiniteStructure, wing: FiniteStructure, kind: MorphismKind) -> bool:
    """Whether some map of `kind` from the wing into apex d can exist, by
    sizes and tuple counts alone."""
    if kind >= MorphismKind.STRONG_IMMERSION:
        # a strong immersion between finite structures is a bijective
        # embedding (the target models the source's surjectivity sentence),
        # so an isomorphism: equal size and equal tuple counts
        return d.size() == wing.size() and _tuple_counts(d) == _tuple_counts(wing)
    return kind < MorphismKind.EMBEDDING or d.size() >= wing.size()


def _disjoint_targets(p: AmalgamationProblem, out_b: Morphism,
                      required: Dict[str, str]) -> Optional[Set[str]]:
    """The strong condition for out_b and any out_c that sends g(A) to
    `required`: the targets the C elements outside g(A) must avoid (out_b's
    image), or None when out_b alone breaks it.  It does when a B element
    outside f(A) lands on a required image, or, in strict mode, when some
    b in f(A) and c in g(A) meet without a common preimage in A."""
    f_image = set(p.f.map.values())
    met = set(required.values())
    if any(out_b(e) in met for e in out_b.source.universe if e not in f_image):
        return None
    if p.strict_strong:
        pairs = {(p.f(a), p.g(a)) for a in p.base.universe}
        if any((b_el, c_el) not in pairs for c_el, img in required.items()
               for b_el in f_image if out_b(b_el) == img):
            return None
    return set(out_b.map.values())


def _solve_enumeration(p: AmalgamationProblem) -> Tuple[Optional[AmalgamationSolution], bool]:
    gamma, delta = p.kinds[2], p.kinds[3]
    cap, exhaustive = _enum_sizes(p)
    if cap == 0:
        return None, False
    for d in _apex_candidates(p, cap):
        if not (_apex_fits(d, p.f.target, gamma) and _apex_fits(d, p.g.target, delta)):
            continue
        for out_b in enumerate_homs(p.f.target, d, kind=gamma, node_cap=p.budget.node_cap):
            required = {p.g(a): out_b(p.f(a)) for a in p.base.universe}
            if any(required[p.g(a)] != out_b(p.f(a)) for a in p.base.universe):
                continue  # g identifies base points whose B-images land apart
            forbidden = None
            if p.strong:
                forbidden = _disjoint_targets(p, out_b, required)
                if forbidden is None:
                    continue  # out_b alone breaks the strong condition
            for out_c in enumerate_homs(p.g.target, d, required, kind=delta,
                                        node_cap=p.budget.node_cap, forbidden=forbidden):
                sol = _certify(p, d, out_b, out_c)
                if sol is not None:
                    return sol, exhaustive
    return None, exhaustive


def solve_amalgamation(p: AmalgamationProblem) -> Union[AmalgamationSolution, Verdict]:
    """A certified solution with |D| <= N, or a "no"/"unknown" verdict."""
    p.validate_in_kinds()
    try:
        sol = _solve_quotient(p)
        if sol is not None:
            return sol
        sol, exhaustive = _solve_enumeration(p)
        if sol is not None:
            return sol
        if not exhaustive:
            return unknown(p.budget, notes=TRUNCATED)
        return no(p.budget, notes=("exhaustive apex search below N completed empty",))
    except BudgetExceeded as exc:
        return unknown(p.budget, notes=(str(exc),))


# ---------------------------------------------------------------------------
# Basis checking


@record(frozen=True)
class BasisReport:
    structure: FiniteStructure
    kinds: Tuple[MorphismKind, ...]
    class_name: str
    instances: Tuple[Dict, ...]  # per wing-pair: maps, outcome, witness size
    verdict: Verdict


def _pointed_keys(wings: Sequence[FiniteStructure], maps: Sequence[List[Morphism]]) -> List[List[Tuple]]:
    """Each (wing, map) pair's class under the wing's automorphisms: the
    wing's index and the least of the map's image tuples under them."""
    keys = []
    for i, (w, ms) in enumerate(zip(wings, maps)):
        autos = [s.map for s in enumerate_homs(w, w, kind=MorphismKind.STRONG_IMMERSION)] if ms else []
        keys.append([(i, min(tuple(s[m.map[a]] for a in m.source.universe) for s in autos)) for m in ms])
    return keys


def check_basis(
    a: FiniteStructure,
    kinds: Union[str, Sequence],
    theory: Optional[Theory],
    b: Budget,
    strong: bool = False,
    strict_strong: bool = False,
) -> BasisReport:
    """Iterate all wings B, C in the class (size <= n, up to iso) and all
    maps of the required in-kinds from a; report solvability of each.

    With out-kinds h h, status and apex size are isomorphism invariants:
    every completion of the glued quotient certifies or none does, and the
    apex pool is searched a whole size at a time.  So instances that differ
    by wing automorphisms, or by swapping (B, f) with (C, g) when alpha =
    beta, share a "yes", an exhaustive "no" or an "unknown" from a
    truncated apex search, which stops below N whatever the labelling; one
    from the node cap depends on the labelling.  Under out-kinds e, i and s
    the first completion that certifies (of QUOTIENT_COMPLETION_LIMIT)
    depends on the labelling, so each instance is solved on its own."""
    if strict_strong and not strong:  # even where no instance would say so
        raise StructureError(NOT_STRONG)
    kinds = parse_kinds(kinds)
    alpha, beta = kinds[0], kinds[1]
    if theory is not None:
        if theory.signature != a.signature:
            raise SignatureError(f"theory {theory.name!r} is not over the base's signature")
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
    shared = kinds[2] == kinds[3] == MorphismKind.HOM
    left_keys = _pointed_keys(wings, left)
    right_keys = left_keys if right is left else _pointed_keys(wings, right)
    answers: Dict[Tuple, Tuple[str, Optional[int]]] = {}
    instances: List[Dict] = []
    for bw, fs, f_keys in zip(wings, left, left_keys):
        for cw, gs, g_keys in zip(wings, right, right_keys):
            for f, f_key in zip(fs, f_keys):
                for g, g_key in zip(gs, g_keys):
                    key = min((f_key, g_key), (g_key, f_key)) if alpha == beta else (f_key, g_key)
                    answer = answers.get(key)
                    if answer is None:
                        result = solve_amalgamation(AmalgamationProblem(f, g, kinds, theory, strong, strict_strong, b))
                        solved = isinstance(result, AmalgamationSolution)
                        answer = ("yes", result.apex.size()) if solved else (result.status, None)
                        if shared and (answer[0] != "unknown" or result.notes == TRUNCATED):
                            answers[key] = answer
                    instances.append({"B": bw, "C": cw, "f": dict(f.map), "g": dict(g.map),
                                      "status": answer[0], "apex_size": answer[1]})
    statuses = [inst["status"] for inst in instances]
    if all(s == "yes" for s in statuses):
        agg = Verdict("yes", b, {"instances": len(statuses)})
    elif any(s == "no" for s in statuses):
        agg = Verdict("no", b, {"failing": statuses.count("no")})
    else:
        agg = Verdict("unknown", b, {"unknown": statuses.count("unknown")})
    return BasisReport(a, kinds, theory.name if theory else "all-structures", tuple(instances), agg)


# ---------------------------------------------------------------------------
# Theorem-verification harness


def _rand_subuniverse(rng: random.Random, max_size: int) -> Tuple[str, ...]:
    return element_names(max_size)[: rng.randint(1, max_size)]


def random_structure(rng: random.Random, sig: Signature, max_size: int) -> FiniteStructure:
    universe = _rand_subuniverse(rng, max_size)
    relations = {}
    for name, arity in sig.relations:
        table = {
            tup for tup in itertools.product(universe, repeat=arity) if rng.random() < 0.4
        }
        relations[name] = frozenset(table)
    functions = {}
    for name, arity in sig.functions:
        functions[name] = {
            args: rng.choice(universe) for args in itertools.product(universe, repeat=arity)
        }
    constants = {c: rng.choice(universe) for c in sig.constants}
    return FiniteStructure(sig, universe, relations, functions, constants)


POSET_SIG = Signature.make(relations={"le": 2})


def random_poset(rng: random.Random, max_size: int) -> FiniteStructure:
    universe = _rand_subuniverse(rng, max_size)
    n = len(universe)
    pairs = set()
    for i in range(n):
        pairs.add((universe[i], universe[i]))
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                pairs.add((universe[i], universe[j]))
    # transitive closure of a DAG respecting the index order stays a poset
    changed = True
    while changed:
        changed = False
        for (x, y), (y2, z) in itertools.product(list(pairs), repeat=2):
            if y == y2 and (x, z) not in pairs:
                pairs.add((x, z))
                changed = True
    return FiniteStructure(POSET_SIG, universe, {"le": frozenset(pairs)}, {}, {})


def poset_theory() -> Theory:
    from .parser import parse_formula
    sig = POSET_SIG
    return Theory.make(sig, [
        parse_formula("hinductive: forall x. true -> le(x,x)", sig),
        parse_formula("hinductive: forall x y. le(x,y) & le(y,x) -> x=y", sig),
        parse_formula("hinductive: forall x y z. le(x,y) & le(y,z) -> le(x,z)", sig),
    ], "T_pos")


def inflate(rng: random.Random, a: FiniteStructure, extra: int) -> Morphism:
    """Immersion a -> b where b adds `extra` clones of elements of a; facts
    on clones mirror their representatives, so collapsing them back is a
    retraction."""
    universe = list(a.universe)
    rep = {e: e for e in a.universe}
    for i in range(extra):
        fresh = f"x{i}"
        rep[fresh] = rng.choice(list(a.universe))
        universe.append(fresh)
    relations = {}
    for name, arity in a.signature.relations:
        table = a.rel(name)
        relations[name] = frozenset(
            tup for tup in itertools.product(universe, repeat=arity)
            if tuple(rep[e] for e in tup) in table
        )
    functions = {}
    for name, entries in a.functions.items():
        functions[name] = {
            args: a.func(name, tuple(rep[e] for e in args))
            for args in itertools.product(universe, repeat=a.signature.function_arities[name])
        }
    b = FiniteStructure(a.signature, tuple(universe), relations, functions, dict(a.constants))
    return Morphism(a, b, {e: e for e in a.universe})


def disjoint_poset_extension(rng: random.Random, a: FiniteStructure, max_extra: int) -> Morphism:
    """Immersion a -> b within posets: b = a plus a disjoint random poset
    (the retraction collapses the new part onto one element of a)."""
    extra = random_poset(rng, max(1, max_extra))
    extra = extra.rename({e: f"x.{e}" for e in extra.universe})
    universe = a.universe + extra.universe
    pairs = set(a.rel("le")) | set(extra.rel("le"))
    b = FiniteStructure(POSET_SIG, universe, {"le": frozenset(pairs)}, {}, {})
    return Morphism(a, b, {e: e for e in a.universe})


def iso_copy(a: FiniteStructure) -> Morphism:
    renamed = a.rename({e: f"y.{e}" for e in a.universe})
    return Morphism(a, renamed, {e: f"y.{e}" for e in a.universe})


def random_hom_wing(rng: random.Random, a: FiniteStructure, wing: FiniteStructure) -> Optional[Morphism]:
    homs = list(itertools.islice(search_homs(a, wing), 20))
    if not homs:
        return None
    return Morphism(a, wing, rng.choice(homs))


def embedding_extension(rng: random.Random, a: FiniteStructure, extra: int) -> Morphism:
    """Embedding a -> b: add fresh elements and random facts that involve at
    least one fresh element (facts among a-elements are reflected exactly)."""
    universe = list(a.universe)
    fresh = [f"x{i}" for i in range(extra)]
    universe.extend(fresh)
    relations = {}
    for name, arity in a.signature.relations:
        table = set(a.rel(name))
        for tup in itertools.product(universe, repeat=arity):
            if any(e in fresh for e in tup) and rng.random() < 0.3:
                table.add(tup)
        relations[name] = frozenset(table)
    functions = {}
    for name, arity in a.signature.functions:
        entries = {}
        for args in itertools.product(universe, repeat=arity):
            if all(e in a.universe for e in args):
                entries[args] = a.func(name, args)
            else:
                entries[args] = rng.choice(universe)
        functions[name] = entries
    b = FiniteStructure(a.signature, tuple(universe), relations, functions, dict(a.constants))
    return Morphism(a, b, {e: e for e in a.universe})


THEOREM_IDS = (
    "si-si-strong", "ii-hh-strong", "ih-ih-strong", "h-strong-pc", "inheritance",
    "example-1", "example-2", "example-3", "example-4", "example-5",
    "example-6", "example-7",
)


def _gen_instance(
    theorem: str, rng: random.Random, b: Budget, t_pos: Theory
) -> Optional[AmalgamationProblem]:
    if theorem == "si-si-strong":
        # A immersed in B, strongly immersed in C (finite: an isomorphism)
        a = random_structure(rng, POSET_SIG, b.n)
        return AmalgamationProblem(
            inflate(rng, a, rng.randint(1, 2)), iso_copy(a),
            parse_kinds("issi"), None, strong=True, budget=b,
        )
    if theorem == "ii-hh-strong":
        a = random_poset(rng, b.n)
        f = disjoint_poset_extension(rng, a, 2)
        g = disjoint_poset_extension(rng, a, 2)
        return AmalgamationProblem(f, g, parse_kinds("iihh"), t_pos, strong=True, budget=b)
    if theorem == "ih-ih-strong":
        # per the proof: A immersed in B, continued in C; apex models
        # T_i(C) u Diag+(B), i.e. C lands by an immersion, B by a hom
        a = random_poset(rng, b.n)
        f = disjoint_poset_extension(rng, a, 2)
        g = random_hom_wing(rng, a, random_poset(rng, b.n))
        if g is None:
            return None
        return AmalgamationProblem(f, g, parse_kinds("ihhi"), t_pos, strong=True, budget=b)
    if theorem in ("h-strong-pc", "example-5"):
        # the point is pc for T_pos; example 5 is the non-strong statement
        point = FiniteStructure(POSET_SIG, ("a",), {"le": frozenset({("a", "a")})}, {}, {})
        f = random_hom_wing(rng, point, random_poset(rng, b.n))
        g = random_hom_wing(rng, point, random_poset(rng, b.n))
        if f is None or g is None:
            return None
        return AmalgamationProblem(
            f, g, parse_kinds("hhhh"), t_pos, strong=(theorem == "h-strong-pc"), budget=b
        )
    if theorem == "example-1":
        # [i,h,s,h]: the immersed wing absorbs the hom wing through its
        # retraction, so the hom wing's apex copy lands by a strong map
        a = random_structure(rng, POSET_SIG, b.n)
        f = random_hom_wing(rng, a, random_structure(rng, POSET_SIG, b.n))
        if f is None:
            return None
        return AmalgamationProblem(f, inflate(rng, a, 1), parse_kinds("hish"), None, budget=b)
    if theorem == "example-2":
        # the non-strong form of the [s,i,s,i] theorem: same orientation
        a = random_structure(rng, POSET_SIG, b.n)
        return AmalgamationProblem(inflate(rng, a, 1), iso_copy(a), parse_kinds("issi"), None, budget=b)
    if theorem == "example-3":
        # [e,s]-asymmetric: the strong wing is a copy of the base, the
        # embedded wing is carried into the apex by the embedding itself
        a = random_structure(rng, POSET_SIG, b.n)
        return AmalgamationProblem(
            iso_copy(a), embedding_extension(rng, a, 1), parse_kinds("sees"), None, budget=b
        )
    if theorem == "example-4":
        # non-strong [i,h]-asymmetric, oriented as in the ih-ih proof
        a = random_structure(rng, POSET_SIG, b.n)
        g = random_hom_wing(rng, a, random_structure(rng, POSET_SIG, b.n))
        if g is None:
            return None
        return AmalgamationProblem(inflate(rng, a, 1), g, parse_kinds("ihhi"), None, budget=b)
    if theorem == "example-7":
        a = random_structure(rng, POSET_SIG, b.n)
        return AmalgamationProblem(iso_copy(a), iso_copy(a), parse_kinds("ssss"), None, budget=b)
    raise ValueError(f"unknown theorem id {theorem!r}")


def _solver():
    """`solve_amalgamation` for the problems of one harness run, which share
    signature, kinds, class and budget: each distinct problem, by its
    universes, facts and wing maps, is solved once."""
    answers: Dict[Tuple, Union[AmalgamationSolution, Verdict]] = {}

    def facts(s: FiniteStructure) -> Tuple:
        return (s.universe, tuple(map(s.rel, s.signature.relation_arities)),
                tuple(tuple(table.items()) for table in s.functions.values()), tuple(s.constants.items()))

    def solve(p: AmalgamationProblem) -> Union[AmalgamationSolution, Verdict]:
        base = p.base.universe
        key = (facts(p.base), facts(p.f.target), facts(p.g.target),
               tuple(map(p.f.map.__getitem__, base)), tuple(map(p.g.map.__getitem__, base)))
        if key not in answers:
            answers[key] = solve_amalgamation(p)
        return answers[key]
    return solve


def verify_theorem(
    theorem: str, seed: int, b: Budget, instances: int = 50
) -> Dict:
    """Run `instances` generated instances of the named statement.  Outcomes
    are "witnessed" or "budget-exhausted"; a verified counterexample would be
    reported as a red flag, never as a refutation (the guaranteed apexes may
    be infinite)."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    if instances < 1:
        raise PosmtError("the instance count must be positive")
    if theorem == "example-6":
        return _verify_local_ring(b)
    rng = random.Random(seed)
    t_pos = poset_theory()
    if theorem == "inheritance":
        return _verify_inheritance(rng, b, instances, t_pos)
    solve = _solver()
    rows = []
    witnessed = 0
    red_flags = []
    done = 0
    while done < instances:
        p = _gen_instance(theorem, rng, b, t_pos)
        if p is None:
            continue
        done += 1
        result = solve(p)
        if isinstance(result, AmalgamationSolution):
            if not verify_solution(p, result):
                raise PosmtError("a solver solution failed its certificate re-check")
            witnessed += 1
            rows.append({"outcome": "witnessed", "apex_size": result.apex.size()})
        else:
            outcome = "budget-exhausted"
            if result.status == "no":
                # exhaustive miss below N: a red flag, not a refutation
                red_flags.append({"instance": done, "notes": result.notes})
            rows.append({"outcome": outcome})
    return {
        "theorem": theorem,
        "instances": done,
        "witnessed": witnessed,
        "rate": witnessed / done,
        "red_flags": red_flags,
        "rows": rows,
        "budget": b.as_dict(),
        "seed": seed,
    }


def _verify_inheritance(rng: random.Random, b: Budget, instances: int, t: Theory) -> Dict:
    """B an [h]-strong basis at bound and A immersed in B: A's [h]-strong
    instances should be solvable at bound too."""
    if b.n < 2:
        raise PosmtError("the inheritance harness needs n >= 2: B is A plus one point")
    solve = _solver()
    rows = []
    witnessed = 0
    red_flags = []
    done = 0
    while done < instances:
        a = random_poset(rng, b.n - 1)
        big = disjoint_poset_extension(rng, a, 1).target
        done += 1
        f = random_hom_wing(rng, a, random_poset(rng, b.n))
        g = random_hom_wing(rng, a, random_poset(rng, b.n))
        if f is None or g is None:
            continue
        # premise: the corresponding instances of big are solvable
        fb = random_hom_wing(rng, big, random_poset(rng, b.n))
        gb = random_hom_wing(rng, big, random_poset(rng, b.n))
        premise_ok = True
        if fb is not None and gb is not None:
            pb = AmalgamationProblem(fb, gb, parse_kinds("hhhh"), t, strong=True, budget=b)
            premise_ok = isinstance(solve(pb), AmalgamationSolution)
        p = AmalgamationProblem(f, g, parse_kinds("hhhh"), t, strong=True, budget=b)
        result = solve(p)
        ok = isinstance(result, AmalgamationSolution)
        if ok:
            if not verify_solution(p, result):
                raise PosmtError("a solver solution failed its certificate re-check")
            witnessed += 1
        elif premise_ok and result.status == "no":
            red_flags.append({"instance": done, "notes": result.notes})
        rows.append({"outcome": "witnessed" if ok else "budget-exhausted", "premise_ok": premise_ok})
    return {
        "theorem": "inheritance", "instances": done, "witnessed": witnessed,
        "rate": witnessed / done, "red_flags": red_flags,
        "rows": rows, "budget": b.as_dict(),
    }


def ring_theory() -> Theory:
    from .parser import parse_formula
    sig = Signature.make(functions={"add": 2, "mul": 2, "neg": 1}, constants=["zero", "one"])
    axioms = [
        "hinductive: forall x y z. true -> add(add(x,y),z) = add(x,add(y,z))",
        "hinductive: forall x y. true -> add(x,y) = add(y,x)",
        "hinductive: forall x. true -> add(x,zero) = x",
        "hinductive: forall x. true -> add(x,neg(x)) = zero",
        "hinductive: forall x y z. true -> mul(mul(x,y),z) = mul(x,mul(y,z))",
        "hinductive: forall x y. true -> mul(x,y) = mul(y,x)",
        "hinductive: forall x. true -> mul(x,one) = x",
        "hinductive: forall x y z. true -> mul(x,add(y,z)) = add(mul(x,y),mul(x,z))",
    ]
    return Theory.make(sig, [parse_formula(s, sig) for s in axioms], "T_ring")


def _verify_local_ring(b: Budget) -> Dict:
    """Desk-scale instance of the local-ring fact: Z/2 (a local ring) is an
    [h]-amalgamation basis within the bounded class of rings."""
    t = ring_theory()
    sig = t.signature
    z2 = FiniteStructure(
        sig, ("a", "b"), {},
        {
            "add": {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "a"},
            "mul": {("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "b"},
            "neg": {("a",): "a", ("b",): "b"},
        },
        {"zero": "a", "one": "b"},
    )
    report = check_basis(z2, "hhhh", t, Budget(n=2, N=min(b.N, 4), k=b.k, node_cap=b.node_cap))
    return {
        "theorem": "example-6",
        "instances": len(report.instances),
        "witnessed": sum(1 for i in report.instances if i["status"] == "yes"),
        "rate": 1.0 if report.verdict.is_yes else 0.0,
        "red_flags": [] if report.verdict.status != "no" else [{"verdict": "no"}],
        "rows": [{"outcome": "witnessed" if i["status"] == "yes" else "budget-exhausted"} for i in report.instances],
        "budget": b.as_dict(),
    }
