"""Randomized harness over the amalgamation theorems.

`verify_theorem` draws instances of a named statement from a seeded RNG,
solves each distinct generated problem once (`_solver`) and re-checks
every instance's certificate.  Outcomes are "witnessed" or
"budget-exhausted"; an exhaustive "no" below the bound is reported as a
red flag, never as a refutation (the guaranteed apexes may be infinite).
Example 6 is a basis check of Z/2 within the bounded class of rings.

Each generator but `embedding_extension` first draws from the RNG, call
for call as it did when it built every draw afresh, into a hashable tuple,
then builds from that tuple behind a bounded `lru_cache`.  So each random
structure, poset, inflation, disjoint extension, isomorphic copy and list
of hom wings a draw repeats is built, validated and packed once per process
and shared; structures are immutable, and every instance's certificate is
still re-checked.  An embedding extension repeats in about 3 draws of 10 at
`verify`'s default sizes, too few to pay for a cache.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple, Union

from .amalgamation import (
    AmalgamationProblem, AmalgamationSolution, check_basis, parse_kinds, solve_amalgamation,
    verify_solution,
)
from .errors import PosmtError
from .morphisms import Morphism, search_homs
from .parser import parse_formula
from .structures import FiniteStructure, Signature, element_names
from .theories import Budget, Theory, Verdict


def _build(sig: Signature, universe: Tuple[str, ...], holds: Callable, value: Callable,
           constant: Callable) -> FiniteStructure:
    """The structure over `universe` with the relation tuples `holds(name,
    tup)` accepts, function entries `value(name, args)` and constants
    `constant(name)`, asked in signature order and, within a symbol, in
    `itertools.product` order."""
    relations = {name: frozenset(t for t in itertools.product(universe, repeat=arity) if holds(name, t))
                 for name, arity in sig.relations}
    functions = {name: {args: value(name, args) for args in itertools.product(universe, repeat=arity)}
                 for name, arity in sig.functions}
    return FiniteStructure(sig, universe, relations, functions, {c: constant(c) for c in sig.constants})


def _rand_subuniverse(rng: random.Random, max_size: int) -> Tuple[str, ...]:
    return element_names(max_size)[: rng.randint(1, max_size)]


def random_structure(rng: random.Random, sig: Signature, max_size: int) -> FiniteStructure:
    universe = _rand_subuniverse(rng, max_size)
    n = len(universe)
    # what `_build` asks, in its order: a bit per relation tuple, then an
    # element per function entry and per constant
    bits = tuple(rng.random() < 0.4 for _ in range(sum(n ** arity for _, arity in sig.relations)))
    cells = sum(n ** arity for _, arity in sig.functions) + len(sig.constants)
    return _structure(sig, universe, bits, tuple(rng.choice(universe) for _ in range(cells)))


@lru_cache(maxsize=1024)
def _structure(sig: Signature, universe: Tuple[str, ...], bits: Tuple[bool, ...],
               values: Tuple[str, ...]) -> FiniteStructure:
    bit, value = iter(bits), iter(values)
    return _build(sig, universe, lambda name, t: next(bit), lambda name, args: next(value),
                  lambda c: next(value))


POSET_SIG = Signature.make(relations={"le": 2})


def random_poset(rng: random.Random, max_size: int) -> FiniteStructure:
    universe = _rand_subuniverse(rng, max_size)
    n = len(universe)
    # row i holds i and each later j with probability 1/2; Warshall's
    # closure of a DAG respecting the index order stays a poset
    rows = [1 << i | sum(1 << j for j in range(i + 1, n) if rng.random() < 0.5) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return _poset(universe, tuple(rows))


@lru_cache(maxsize=1024)
def _poset(universe: Tuple[str, ...], rows: Tuple[int, ...]) -> FiniteStructure:
    """The poset over `universe` whose row i holds the elements above the i-th."""
    le = {(x, y) for x, row in zip(universe, rows) for j, y in enumerate(universe) if row >> j & 1}
    return FiniteStructure(POSET_SIG, universe, {"le": frozenset(le)}, {}, {})


# the one-point poset: while `_poset` holds it, a drawn one-point poset is this object
_POINT = _poset(element_names(1), (1,))


def poset_theory() -> Theory:
    return Theory.make(POSET_SIG, [parse_formula(s, POSET_SIG) for s in (
        "hinductive: forall x. true -> le(x,x)",
        "hinductive: forall x y. le(x,y) & le(y,x) -> x=y",
        "hinductive: forall x y z. le(x,y) & le(y,z) -> le(x,z)")], "T_pos")


def inflate(rng: random.Random, a: FiniteStructure, extra: int) -> Morphism:
    """Immersion a -> b where b adds `extra` clones of elements of a; facts
    on clones mirror their representatives, so collapsing them back is a
    retraction."""
    return _inflate(a, tuple(rng.choice(a.universe) for _ in range(extra)))


@lru_cache(maxsize=1024)
def _inflate(a: FiniteStructure, reps: Tuple[str, ...]) -> Morphism:
    fresh = tuple(f"x{i}" for i in range(len(reps)))
    rep = {e: e for e in a.universe}
    rep.update(zip(fresh, reps))

    def back(t: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(map(rep.__getitem__, t))
    b = _build(a.signature, a.universe + fresh, lambda name, t: back(t) in a.rel(name),
               lambda name, args: a.func(name, back(args)), a.constants.__getitem__)
    return Morphism(a, b, {e: e for e in a.universe})


def disjoint_poset_extension(rng: random.Random, a: FiniteStructure, max_extra: int) -> Morphism:
    """Immersion a -> b within posets: b = a plus a disjoint random poset
    (the retraction collapses the new part onto one element of a)."""
    return _disjoint_extension(a, random_poset(rng, max(1, max_extra)))


@lru_cache(maxsize=1024)
def _disjoint_extension(a: FiniteStructure, extra: FiniteStructure) -> Morphism:
    extra = extra.rename({e: f"x.{e}" for e in extra.universe})
    universe = a.universe + extra.universe
    pairs = set(a.rel("le")) | set(extra.rel("le"))
    b = FiniteStructure(POSET_SIG, universe, {"le": frozenset(pairs)}, {}, {})
    return Morphism(a, b, {e: e for e in a.universe})


@lru_cache(maxsize=1024)
def iso_copy(a: FiniteStructure) -> Morphism:
    renamed = a.rename({e: f"y.{e}" for e in a.universe})
    return Morphism(a, renamed, {e: f"y.{e}" for e in a.universe})


def random_hom_wing(rng: random.Random, a: FiniteStructure, wing: FiniteStructure) -> Optional[Morphism]:
    homs = _hom_wings(a, wing)
    return rng.choice(homs) if homs else None


@lru_cache(maxsize=1024)
def _hom_wings(a: FiniteStructure, wing: FiniteStructure) -> Tuple[Morphism, ...]:
    """The wings a -> wing of the first 20 homomorphisms `search_homs` yields."""
    return tuple(Morphism(a, wing, h) for h in itertools.islice(search_homs(a, wing), 20))


def embedding_extension(rng: random.Random, a: FiniteStructure, extra: int) -> Morphism:
    """Embedding a -> b: add fresh elements and random facts that involve at
    least one fresh element (facts among a-elements are reflected exactly)."""
    old = set(a.universe)
    universe = a.universe + tuple(f"x{i}" for i in range(extra))
    b = _build(a.signature, universe,
               lambda name, t: t in a.rel(name) if old.issuperset(t) else rng.random() < 0.3,
               lambda name, args: a.func(name, args) if old.issuperset(args) else rng.choice(universe),
               a.constants.__getitem__)
    return Morphism(a, b, {e: e for e in a.universe})


_KINDS = {kinds: parse_kinds(kinds) for kinds in ("hhhh", "issi", "iihh", "ihhi", "hish", "sees", "ssss")}

THEOREM_IDS = (
    "si-si-strong", "ii-hh-strong", "ih-ih-strong", "h-strong-pc", "inheritance",
    "example-1", "example-2", "example-3", "example-4", "example-5",
    "example-6", "example-7",
)


def _gen_instance(theorem: str, rng: random.Random, b: Budget, t_pos: Theory) -> Optional[Tuple]:
    """One draw: the problem and, for inheritance, the premise problem on
    B.  None when the draw does not count: a hom wing between random
    structures may not exist.  Between posets one always does, as a
    constant map is a homomorphism, so a poset draw always counts."""
    if theorem == "inheritance":
        # B an [h]-strong basis at bound and A immersed in B: A's [h]-strong
        # instances should be solvable at bound too; the premise is sampled
        # on one instance of B
        a = random_poset(rng, b.n - 1)
        big = disjoint_poset_extension(rng, a, 1).target
        f = random_hom_wing(rng, a, random_poset(rng, b.n))
        g = random_hom_wing(rng, a, random_poset(rng, b.n))
        fb = random_hom_wing(rng, big, random_poset(rng, b.n))
        gb = random_hom_wing(rng, big, random_poset(rng, b.n))
        premise = AmalgamationProblem(fb, gb, _KINDS["hhhh"], t_pos, strong=True, budget=b)
        return AmalgamationProblem(f, g, _KINDS["hhhh"], t_pos, strong=True, budget=b), premise
    if theorem == "si-si-strong":
        # A immersed in B, strongly immersed in C (finite: an isomorphism)
        a = random_structure(rng, POSET_SIG, b.n)
        p = AmalgamationProblem(
            inflate(rng, a, rng.randint(1, 2)), iso_copy(a),
            _KINDS["issi"], None, strong=True, budget=b,
        )
    elif theorem == "ii-hh-strong":
        a = random_poset(rng, b.n)
        f = disjoint_poset_extension(rng, a, 2)
        g = disjoint_poset_extension(rng, a, 2)
        p = AmalgamationProblem(f, g, _KINDS["iihh"], t_pos, strong=True, budget=b)
    elif theorem == "ih-ih-strong":
        # per the proof: A immersed in B, continued in C; apex models
        # T_i(C) u Diag+(B), i.e. C lands by an immersion, B by a hom
        a = random_poset(rng, b.n)
        f = disjoint_poset_extension(rng, a, 2)
        g = random_hom_wing(rng, a, random_poset(rng, b.n))
        p = AmalgamationProblem(f, g, _KINDS["ihhi"], t_pos, strong=True, budget=b)
    elif theorem in ("h-strong-pc", "example-5"):
        # the point is pc for T_pos; example 5 is the non-strong statement
        f = random_hom_wing(rng, _POINT, random_poset(rng, b.n))
        g = random_hom_wing(rng, _POINT, random_poset(rng, b.n))
        p = AmalgamationProblem(
            f, g, _KINDS["hhhh"], t_pos, strong=(theorem == "h-strong-pc"), budget=b
        )
    elif theorem == "example-1":
        # [i,h,s,h]: the immersed wing absorbs the hom wing through its
        # retraction, so the hom wing's apex copy lands by a strong map
        a = random_structure(rng, POSET_SIG, b.n)
        f = random_hom_wing(rng, a, random_structure(rng, POSET_SIG, b.n))
        if f is None:
            return None
        p = AmalgamationProblem(f, inflate(rng, a, 1), _KINDS["hish"], None, budget=b)
    elif theorem == "example-2":
        # the non-strong form of the [s,i,s,i] theorem: same orientation
        a = random_structure(rng, POSET_SIG, b.n)
        p = AmalgamationProblem(inflate(rng, a, 1), iso_copy(a), _KINDS["issi"], None, budget=b)
    elif theorem == "example-3":
        # [e,s]-asymmetric: the strong wing is a copy of the base, the
        # embedded wing is carried into the apex by the embedding itself
        a = random_structure(rng, POSET_SIG, b.n)
        p = AmalgamationProblem(
            iso_copy(a), embedding_extension(rng, a, 1), _KINDS["sees"], None, budget=b
        )
    elif theorem == "example-4":
        # non-strong [i,h]-asymmetric, oriented as in the ih-ih proof
        a = random_structure(rng, POSET_SIG, b.n)
        g = random_hom_wing(rng, a, random_structure(rng, POSET_SIG, b.n))
        if g is None:
            return None
        p = AmalgamationProblem(inflate(rng, a, 1), g, _KINDS["ihhi"], None, budget=b)
    elif theorem == "example-7":
        a = random_structure(rng, POSET_SIG, b.n)
        p = AmalgamationProblem(iso_copy(a), iso_copy(a), _KINDS["ssss"], None, budget=b)
    else:
        raise ValueError(f"unknown theorem id {theorem!r}")
    return p, None


def _solver():
    """`solve_amalgamation` for the problems of one harness run, which share
    signature, kinds, class and budget: each distinct problem, by the
    labelled structures (`FiniteStructure.key`) and wing maps, is solved
    once."""
    answers: Dict[Tuple, Union[AmalgamationSolution, Verdict]] = {}

    def solve(p: AmalgamationProblem) -> Union[AmalgamationSolution, Verdict]:
        base = p.base.universe
        key = (p.base.key(), p.f.target.key(), p.g.target.key(),
               tuple(map(p.f.map.__getitem__, base)), tuple(map(p.g.map.__getitem__, base)))
        if key not in answers:
            answers[key] = solve_amalgamation(p)
        return answers[key]
    return solve


def verify_theorem(
    theorem: str, seed: int, b: Budget, instances: int = 50
) -> Dict:
    """Run `instances` generated instances of the named statement.  An
    inheritance row carries `premise_ok` (whether its sampled premise was
    solved), flags only when the premise holds, and its report no seed."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    if instances < 1:
        raise PosmtError("the instance count must be positive")
    if theorem == "example-6":
        return _verify_local_ring(b)
    inheritance = theorem == "inheritance"
    if inheritance and b.n < 2:
        raise PosmtError("the inheritance harness needs n >= 2: B is A plus one point")
    rng = random.Random(seed)
    t_pos = poset_theory()
    solve = _solver()
    rows = []
    witnessed = 0
    red_flags = []
    done = 0
    while done < instances:
        drawn = _gen_instance(theorem, rng, b, t_pos)
        if drawn is None:
            continue
        done += 1
        p, premise = drawn
        premise_ok = premise is None or isinstance(solve(premise), AmalgamationSolution)
        result = solve(p)
        ok = isinstance(result, AmalgamationSolution)
        if ok:
            if not verify_solution(p, result):
                raise PosmtError("a solver solution failed its certificate re-check")
            witnessed += 1
        elif premise_ok and result.status == "no":
            # exhaustive miss below N: a red flag, not a refutation
            red_flags.append({"instance": done, "notes": result.notes})
        row = {"outcome": "witnessed" if ok else "budget-exhausted"}
        if inheritance:
            row["premise_ok"] = premise_ok
        elif ok:
            row["apex_size"] = result.apex.size()
        rows.append(row)
    report = {
        "theorem": theorem,
        "instances": done,
        "witnessed": witnessed,
        "rate": witnessed / done,
        "red_flags": red_flags,
        "rows": rows,
        "budget": b.as_dict(),
    }
    if not inheritance:
        report["seed"] = seed
    return report


def ring_theory() -> Theory:
    sig = Signature.make(functions={"add": 2, "mul": 2, "neg": 1}, constants=["zero", "one"])
    return Theory.make(sig, [parse_formula(s, sig) for s in (
        "hinductive: forall x y z. true -> add(add(x,y),z) = add(x,add(y,z))",
        "hinductive: forall x y. true -> add(x,y) = add(y,x)",
        "hinductive: forall x. true -> add(x,zero) = x",
        "hinductive: forall x. true -> add(x,neg(x)) = zero",
        "hinductive: forall x y z. true -> mul(mul(x,y),z) = mul(x,mul(y,z))",
        "hinductive: forall x y. true -> mul(x,y) = mul(y,x)",
        "hinductive: forall x. true -> mul(x,one) = x",
        "hinductive: forall x y z. true -> mul(x,add(y,z)) = add(mul(x,y),mul(x,z))")], "T_ring")


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
