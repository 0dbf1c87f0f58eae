"""[alpha, beta, gamma, delta]-amalgamation over finite classes.

Kind convention for a problem (f: A->B, g: A->C, apex D):
    alpha = required kind of f        beta  = required kind of g
    gamma = required kind of B->D     delta = required kind of C->D

The solver searches first among quotients of the amalgamated sum B |_A C
(glue f(a) ~ g(a), close under function congruence, complete the free cells
with the bounded model finder); then general apex enumeration with
constrained hom search.  "no" is only reported when the exhaustive phase completed.

Strong amalgamation adds the disjointness condition: the out-maps may
identify b in B with c in C only when b is in f(A) and c is in g(A)
(strict mode additionally demands a common preimage in A).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .errors import BudgetExceeded, PosmtError, StructureError
from .finder import find_models
from .morphisms import (
    Morphism, MorphismKind, classify_morphism, enumerate_homs, is_homomorphism,
    search_homs,
)
from .structures import (
    ELEMENT_NAMES, FiniteStructure, Signature, UnionFind, element_names,
    enumerate_structures,
)
from .theories import Budget, Theory, Verdict, is_model, models, no, unknown


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


@dataclass(frozen=True)
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

    @property
    def base(self) -> FiniteStructure:
        return self.f.source

    def validate_in_kinds(self) -> None:
        alpha, beta = self.kinds[0], self.kinds[1]
        if classify_morphism(self.f) < alpha:
            raise StructureError(f"left map is not a {alpha.letter}-hom")
        if classify_morphism(self.g) < beta:
            raise StructureError(f"right map is not a {beta.letter}-hom")


@dataclass(frozen=True)
class AmalgamationSolution:
    apex: FiniteStructure
    out_b: Morphism  # B -> D
    out_c: Morphism  # C -> D
    kinds: Tuple[MorphismKind, MorphismKind]  # certified kinds of out_b, out_c
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
    if not (is_homomorphism(out_b) and is_homomorphism(out_c)):
        return None
    kb = classify_morphism(out_b)
    if kb < gamma:
        return None
    kc = classify_morphism(out_c)
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


QUOTIENT_COMPLETION_LIMIT = 64


def _solve_quotient(p: AmalgamationProblem) -> Optional[AmalgamationSolution]:
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


# ---------------------------------------------------------------------------
# Phase 2: general apex enumeration


MAX_ENUM_APEX = len(ELEMENT_NAMES)  # enumerated universes use the default names
ENUM_RAW_LIMIT = 10 ** 6  # raw interpretation count beyond which a size is skipped


def _raw_count(sig: Signature, size: int) -> int:
    total = 1
    for _, arity in sig.relations:
        total *= 2 ** (size ** arity)
    for _, arity in sig.functions:
        total *= size ** (size ** arity)
    total *= size ** len(sig.constants)
    return total


def _enum_sizes(p: AmalgamationProblem) -> Tuple[int, bool]:
    """Largest feasible apex size to enumerate, and whether that makes the
    search exhaustive up to budget N."""
    sig = p.f.target.signature
    top = 0
    for size in range(1, min(p.budget.N, MAX_ENUM_APEX) + 1):
        if _raw_count(sig, size) > ENUM_RAW_LIMIT:
            break
        top = size
    return top, top == p.budget.N


_CANDIDATE_CACHE: Dict[Tuple, Tuple[FiniteStructure, ...]] = {}


def _apex_candidates(p: AmalgamationProblem, cap: int) -> Tuple[FiniteStructure, ...]:
    key = (p.theory, p.f.target.signature, cap, p.budget.node_cap)
    if key not in _CANDIDATE_CACHE:
        if len(_CANDIDATE_CACHE) > 64:
            _CANDIDATE_CACHE.clear()
        if p.theory is not None:
            found = models(p.theory, Budget(n=cap, N=cap, k=p.budget.k, node_cap=p.budget.node_cap))
        else:
            found = list(enumerate_structures(p.f.target.signature, cap))
        _CANDIDATE_CACHE[key] = tuple(found)
    return _CANDIDATE_CACHE[key]


def _solve_enumeration(p: AmalgamationProblem) -> Tuple[Optional[AmalgamationSolution], bool]:
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
            return unknown(p.budget, notes=("apex enumeration truncated below N",))
        return no(p.budget, notes=("exhaustive apex search below N completed empty",))
    except BudgetExceeded as exc:
        return unknown(p.budget, notes=(str(exc),))


# ---------------------------------------------------------------------------
# Basis checking


@dataclass(frozen=True)
class BasisReport:
    structure: FiniteStructure
    kinds: Tuple[MorphismKind, ...]
    class_name: str
    instances: Tuple[Dict, ...]  # per wing-pair: maps, outcome, witness size
    verdict: Verdict


def check_basis(
    a: FiniteStructure,
    kinds: Union[str, Sequence],
    theory: Optional[Theory],
    b: Budget,
    strong: bool = False,
    strict_strong: bool = False,
) -> BasisReport:
    """Iterate all wings B, C in the class (size <= n, up to iso) and all
    maps of the required in-kinds from a; report solvability of each."""
    kinds = parse_kinds(kinds)
    alpha, beta = kinds[0], kinds[1]
    if theory is not None:
        if not is_model(a, theory):
            raise StructureError("the base is not a model of the theory")
        wings = models(theory, b)
    else:
        wings = enumerate_structures(a.signature, b.n)
    instances: List[Dict] = []
    statuses: List[str] = []
    for bw in wings:
        fs = enumerate_homs(a, bw, kind=alpha, node_cap=b.node_cap)
        if not fs:
            continue
        for cw in wings:
            gs = enumerate_homs(a, cw, kind=beta, node_cap=b.node_cap) if cw is not bw else fs
            for f in fs:
                for g in gs:
                    g = Morphism(a, cw, g.map) if g.target is not cw else g
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


def _gen_instance(theorem: str, rng: random.Random, b: Budget) -> Optional[AmalgamationProblem]:
    if theorem == "si-si-strong":
        # A immersed in B, strongly immersed in C (finite: an isomorphism)
        a = random_structure(rng, POSET_SIG, b.n)
        return AmalgamationProblem(
            inflate(rng, a, rng.randint(1, 2)), iso_copy(a),
            parse_kinds("issi"), None, strong=True, budget=b,
        )
    if theorem == "ii-hh-strong":
        t = poset_theory()
        a = random_poset(rng, b.n)
        f = disjoint_poset_extension(rng, a, 2)
        g = disjoint_poset_extension(rng, a, 2)
        return AmalgamationProblem(f, g, parse_kinds("iihh"), t, strong=True, budget=b)
    if theorem == "ih-ih-strong":
        # per the proof: A immersed in B, continued in C; apex models
        # T_i(C) u Diag+(B), i.e. C lands by an immersion, B by a hom
        t = poset_theory()
        a = random_poset(rng, b.n)
        f = disjoint_poset_extension(rng, a, 2)
        g = random_hom_wing(rng, a, random_poset(rng, b.n))
        if g is None:
            return None
        return AmalgamationProblem(f, g, parse_kinds("ihhi"), t, strong=True, budget=b)
    if theorem in ("h-strong-pc", "example-5"):
        # the point is pc for T_pos; example 5 is the non-strong statement
        t = poset_theory()
        point = FiniteStructure(POSET_SIG, ("a",), {"le": frozenset({("a", "a")})}, {}, {})
        f = random_hom_wing(rng, point, random_poset(rng, b.n))
        g = random_hom_wing(rng, point, random_poset(rng, b.n))
        if f is None or g is None:
            return None
        return AmalgamationProblem(
            f, g, parse_kinds("hhhh"), t, strong=(theorem == "h-strong-pc"), budget=b
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


def verify_theorem(
    theorem: str, seed: int, b: Budget, instances: int = 50
) -> Dict:
    """Run `instances` generated instances of the named statement.  Outcomes
    are "witnessed" or "budget-exhausted"; a verified counterexample would be
    reported as a red flag, never as a refutation (the guaranteed apexes may
    be infinite)."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    rng = random.Random(seed)
    if theorem == "inheritance":
        return _verify_inheritance(rng, b, instances)
    if theorem == "example-6":
        return _verify_local_ring(b)
    rows = []
    witnessed = 0
    red_flags = []
    done = 0
    while done < instances:
        p = _gen_instance(theorem, rng, b)
        if p is None:
            continue
        done += 1
        result = solve_amalgamation(p)
        if isinstance(result, AmalgamationSolution):
            assert verify_solution(p, result)
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
        "rate": witnessed / done if done else 1.0,
        "red_flags": red_flags,
        "rows": rows,
        "budget": b.as_dict(),
        "seed": seed,
    }


def _verify_inheritance(rng: random.Random, b: Budget, instances: int) -> Dict:
    """B an [h]-strong basis at bound and A immersed in B: A's [h]-strong
    instances should be solvable at bound too."""
    if b.n < 2:
        raise PosmtError("the inheritance harness needs n >= 2: B is A plus one point")
    t = poset_theory()
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
            premise_ok = isinstance(solve_amalgamation(pb), AmalgamationSolution)
        p = AmalgamationProblem(f, g, parse_kinds("hhhh"), t, strong=True, budget=b)
        result = solve_amalgamation(p)
        ok = isinstance(result, AmalgamationSolution)
        if ok:
            assert verify_solution(p, result)
            witnessed += 1
        elif premise_ok and result.status == "no":
            red_flags.append({"instance": done, "notes": result.notes})
        rows.append({"outcome": "witnessed" if ok else "budget-exhausted", "premise_ok": premise_ok})
    return {
        "theorem": "inheritance", "instances": done, "witnessed": witnessed,
        "rate": witnessed / done if done else 1.0, "red_flags": red_flags,
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
