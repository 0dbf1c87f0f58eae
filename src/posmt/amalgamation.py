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
apex search.  The randomized theorem harness lives in `harness`.

A solution's certificate is the apex and its two out-maps.  Every
candidate is certified in full (`_certify`): the apex is in the class, the
square commutes, each out-map has its required kind, decided by
`classify_morphism` (the one kind decider beside the bounded
`is_strong_immersion`), and a strong problem's out-maps meet only over the
base, a condition stated once, in `_disjoint_targets`, which
`check_strong_condition` and the enumeration phase both read.  The
conditions that the out-maps alone settle are decided before any search:
the quotient phase completes no quotient whose fixed out-maps are not
injective where kind e or more is asked, or not onto where kind s is; the
enumeration phase skips an apex that is not isomorphic by size and tuple
counts to a wing asked to be strongly immersed, and, for a strong problem,
an out_b that already breaks the disjointness condition, and lists out_c
only among maps that send C outside g(A) off out_b's image.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import BudgetExceeded, SignatureError, StructureError
from .finder import find_models, models_by_size
from .morphisms import Morphism, MorphismKind, classify_morphism, enumerate_homs
from .records import record
from .structures import ELEMENT_NAMES, FiniteStructure, Orbits, UnionFind, enumerate_structures
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


def check_strong_condition(
    out_b: Morphism, out_c: Morphism, f: Morphism, g: Morphism, strict: bool = False
) -> bool:
    """True iff out_b(b) = out_c(c) only happens at images of the base:
    b in f(A) and c in g(A) (strict: some a with b = f(a) and c = g(a))."""
    image_g = set(g.map.values())
    forbidden = _disjoint_targets(f, g, strict, out_b, {c_el: out_c(c_el) for c_el in image_g})
    return forbidden is not None and not any(
        out_c(c_el) in forbidden for c_el in out_c.source.universe if c_el not in image_g)


def _disjoint_targets(f: Morphism, g: Morphism, strict: bool, out_b: Morphism,
                      required: Dict[str, str]) -> Optional[Set[str]]:
    """The strong condition for out_b and any out_c that sends g(A) to
    `required`: the targets the C elements outside g(A) must avoid (out_b's
    image), or None when out_b alone breaks it.  It does when a B element
    outside f(A) lands on a required image, or, in strict mode, when some
    b in f(A) and c in g(A) meet without a common preimage in A."""
    f_image = set(f.map.values())
    met = set(required.values())
    if any(out_b(e) in met for e in out_b.source.universe if e not in f_image):
        return None
    if strict:
        pairs = {(f(a), g(a)) for a in f.source.universe}
        if any((b_el, c_el) not in pairs for c_el, img in required.items()
               for b_el in f_image if out_b(b_el) == img):
            return None
    return set(out_b.map.values())


def _certify(p: AmalgamationProblem, d: FiniteStructure, out_b: Morphism, out_c: Morphism) -> bool:
    """Full re-verification of a candidate solution: d is in the class, the
    square commutes, each out-map has its required kind, and in a strong
    problem the out-maps meet only over the base."""
    if p.theory is not None and not is_model(d, p.theory):
        return False
    if any(out_b(p.f(a)) != out_c(p.g(a)) for a in p.base.universe):
        return False
    try:  # a map that is no homomorphism rejects the candidate
        if any(classify_morphism(m, need) < need for m, need in ((out_b, p.kinds[2]), (out_c, p.kinds[3]))):
            return False
    except StructureError:
        return False
    return not p.strong or check_strong_condition(out_b, out_c, p.f, p.g, p.strict_strong)


def verify_solution(p: AmalgamationProblem, sol: AmalgamationSolution) -> bool:
    return _certify(p, sol.apex, sol.out_b, sol.out_c)


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
    orbits = Orbits.of(sig, len(number))
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

    def completions() -> Iterator[FiniteStructure]:
        # the glued sum, each free cell at its least value (false, or the
        # first element), is the first completion the search meets whenever
        # it is in the class, after one node per free cell; past the node
        # cap the search stops before meeting it
        if orbits.size - len(fixed) <= p.budget.node_cap:
            yield orbits.builder(universe)(
                [fixed.get(c, False if c < orbits.offsets[-1] else 0) for c in range(orbits.size)])
        yield from itertools.islice(
            find_models(orbits.sig, universe, implications, node_cap=p.budget.node_cap, fixed=fixed),
            QUOTIENT_COMPLETION_LIMIT)

    for d in completions():
        out_b, out_c = Morphism(p.f.target, d, out_b_map), Morphism(p.g.target, d, out_c_map)
        if _certify(p, d, out_b, out_c):
            return AmalgamationSolution(d, out_b, out_c)
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
        if Orbits.of(sig, size).count > ENUM_RAW_LIMIT:
            break
        top = size
    return top, top == p.budget.N


def _apex_candidates(p: AmalgamationProblem, cap: int) -> Iterator[FiniteStructure]:
    """The apex pool up to size `cap` in order: the models of the problem's
    theory, or every structure, up to isomorphism.  Each size is read once,
    and only when the solver reads that far (`finder.models_by_size`,
    `structures.enumerate_structures`)."""
    if p.theory is None:
        return enumerate_structures(p.f.target.signature, cap)
    return itertools.chain.from_iterable(
        models_by_size(p.theory.signature, p.theory.implications(), cap, p.budget.node_cap))


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
                forbidden = _disjoint_targets(p.f, p.g, p.strict_strong, out_b, required)
                if forbidden is None:
                    continue  # out_b alone breaks the strong condition
            for out_c in enumerate_homs(p.g.target, d, required, kind=delta,
                                        node_cap=p.budget.node_cap, forbidden=forbidden):
                if _certify(p, d, out_b, out_c):
                    return AmalgamationSolution(d, out_b, out_c), exhaustive
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
