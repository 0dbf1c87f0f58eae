"""Acceptance criteria 1-10.

Each test prints exactly one `CRITERION <n>: PASS` / `FAIL` line so shell
runs can grep the outcome (`pytest -s tests/test_acceptance.py`).
"""

from __future__ import annotations

import functools
import random
import time

from posmt import corpus
from posmt.amalgamation import (
    AmalgamationProblem, AmalgamationSolution, _solve_enumeration, _solve_quotient,
    check_strong_condition, parse_kinds, solve_amalgamation, verify_solution,
)
from posmt.errors import StructureError
from posmt.harness import _gen_instance, poset_theory
from posmt.morphisms import (
    Morphism, MorphismKind, classify_morphism, is_homomorphism, is_strong_immersion,
    search_homs,
)
from posmt.structures import Signature, enumerate_structures
from posmt.theories import (
    Budget, bounded_pc_models, companion_check_bounded, diagram,
    is_jc_bounded, is_pc_within, jc_characterization_report,
    joint_consistency_bounded, models, pair_diagrams, theory_from_diagram,
    tu_star_set,
)

from conftest import SIG_F, make_theory
from oracles import ImmersionOracle, diag_plus_star_set, replace


def criterion(n: int):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nCRITERION {n}: FAIL")
                raise
            print(f"\nCRITERION {n}: PASS")

        return wrapper

    return deco


@criterion(1)
def test_criterion_1_poset_pc(t_pos, point):
    start = time.monotonic()
    assert is_pc_within(point, t_pos, Budget(n=4)).is_yes
    for m in models(t_pos, Budget(n=3)):
        if m.size() == 1:
            continue
        assert is_pc_within(m, t_pos, Budget(n=3)).status == "no", m
    assert time.monotonic() - start < 10


@criterion(2)
def test_criterion_2_unary_function_pc(loop):
    start = time.monotonic()
    for n in (1, 2, 3):
        term = "x"
        for _ in range(n):
            term = f"f({term})"
        t = make_theory(SIG_F, f"positive: exists x. {term} = x;", f"T_f{n}")
        pcs = bounded_pc_models(t, Budget(n=3))
        assert len(pcs) == 1, (n, len(pcs))
        assert pcs[0].canonical_key() == loop.canonical_key()
    assert time.monotonic() - start < 10


@criterion(3)
def test_criterion_3_trivial_group_pc():
    start = time.monotonic()
    sig = Signature.make(functions={"mul": 2, "inv": 1}, constants=["e"])
    t_g = make_theory(
        sig,
        "hinductive: forall x y z. true -> mul(mul(x,y),z) = mul(x,mul(y,z));"
        "hinductive: forall x. true -> mul(e,x) = x;"
        "hinductive: forall x. true -> mul(x,e) = x;"
        "hinductive: forall x. true -> mul(inv(x),x) = e;"
        "hinductive: forall x. true -> mul(x,inv(x)) = e;",
        "T_g",
    )
    b4 = Budget(n=4, node_cap=10**7)
    trivial = models(t_g, Budget(n=1))[0]
    assert is_pc_within(trivial, t_g, b4).is_yes
    pcs = bounded_pc_models(t_g, Budget(n=3, node_cap=10**7))
    assert len(pcs) == 1 and pcs[0].size() == 1
    assert time.monotonic() - start < 60


@criterion(4)
def test_criterion_4_immersion_oracle_equivalence():
    for sig in (Signature.make(relations={"R": 2}), SIG_F):
        oracle = ImmersionOracle(sig, size=3)
        for a in oracle.corpus:
            for b in oracle.corpus:
                for mp in search_homs(a, b):
                    m = Morphism(a, b, mp)
                    immersion = classify_morphism(m, MorphismKind.IMMERSION) >= MorphismKind.IMMERSION
                    assert immersion == oracle.is_immersion(m), (sig, m.map)


@criterion(5)
def test_criterion_5_kind_chain(point, chain2):
    for sig in (Signature.make(relations={"R": 2}), SIG_F):
        for a in enumerate_structures(sig, 3):
            for b in enumerate_structures(sig, 3):
                for mp in search_homs(a, b):
                    m = Morphism(a, b, mp)
                    kind = classify_morphism(m)
                    assert is_homomorphism(m)
                    if kind >= MorphismKind.EMBEDDING:
                        assert classify_morphism(m, MorphismKind.EMBEDDING) >= MorphismKind.EMBEDDING
                    if kind >= MorphismKind.IMMERSION:
                        assert classify_morphism(m, MorphismKind.IMMERSION) >= MorphismKind.IMMERSION
                    if kind >= MorphismKind.STRONG_IMMERSION:
                        assert is_strong_immersion(m)[0]
    inc = Morphism(point, chain2, {"a": "a"})
    assert classify_morphism(inc) == MorphismKind.IMMERSION


@criterion(6)
def test_criterion_6_remark_suite():
    from posmt.harness import random_structure

    rng = random.Random(2024)
    k = 3
    sigs = (Signature.make(relations={"R": 2}), SIG_F)
    pairs = []
    while len(pairs) < 500:
        sig = sigs[len(pairs) % 2]
        pairs.append(
            (random_structure(rng, sig, 3), random_structure(rng, sig, 3))
        )
    for a, b in pairs:
        tu_a, tu_b = tu_star_set(a, k), tu_star_set(b, k)
        # (a) a hom A -> B reverses Tu* inclusion
        if next(search_homs(a, b), None) is not None:
            assert tu_b <= tu_a
        # (b) an immersion A -> B makes the bounded Tu* agree
        if any(classify_morphism(Morphism(a, b, mp), MorphismKind.IMMERSION) >= MorphismKind.IMMERSION
               for mp in search_homs(a, b)):
            assert tu_a == tu_b
        # (c) Tu* lists exactly the refuted CQs
        ev = corpus.evaluator(a.signature, k, a)
        assert tu_a == frozenset(
            c for c in corpus.cq_corpus(a.signature, k) if not ev.cq_true(c)
        )
        # (d) Diag+* inclusion is Tu* anti-inclusion
        assert (diag_plus_star_set(a, k) <= diag_plus_star_set(b, k)) == (tu_b <= tu_a)
        # (e) Tu* inclusion gives joint consistency of the positive diagrams
        if tu_a <= tu_b:
            da, db = pair_diagrams(a, b, "Diag+", Budget(k=k))
            v = joint_consistency_bounded([da, db], Budget(N=a.size() + b.size(), k=k))
            assert v.is_yes


@criterion(7)
def test_criterion_7_jc_characterization(t_pos):
    t_fix = make_theory(SIG_F, "positive: exists x. f(x) = x;", "T_fix")
    for t in (t_pos, t_fix):
        b = Budget(n=3, N=4, k=3)
        rep = jc_characterization_report(t, b)
        assert rep["is_jc"] == "yes", t.name
        assert all(rep["conditions"].values()), (t.name, rep["conditions"])
        assert all(rep["agreement"].values()), (t.name, rep["agreement"])
        assert is_jc_bounded(t, b).is_yes


@criterion(8)
def test_criterion_8_companionship_lemma(loop):
    b = Budget(n=2, N=2, k=2)
    tu = theory_from_diagram(diagram(loop, "Tu*", b), "Tu*A")
    ti = theory_from_diagram(diagram(loop, "Ti*", b), "Ti*A")
    assert companion_check_bounded(tu, ti, b).is_yes
    # both positively complete at the bound
    assert is_jc_bounded(tu, b).is_yes
    assert is_jc_bounded(ti, b).is_yes


@criterion(9)
def test_criterion_9_amalgamation_theorems():
    start = time.monotonic()
    t_pos = poset_theory()
    for theorem in ("si-si-strong", "ii-hh-strong"):
        rng = random.Random(7)
        done = 0
        while done < 50:
            drawn = _gen_instance(theorem, rng, Budget(n=3), t_pos)
            if drawn is None:
                continue
            done += 1
            p = drawn[0]
            wings = p.f.target.size() + p.g.target.size()
            p = replace(p, budget=replace(p.budget, N=2 * wings))
            result = solve_amalgamation(p)
            assert isinstance(result, AmalgamationSolution), (theorem, done, result)
            # full re-verification: kinds, commutation, class, disjointness
            assert verify_solution(p, result)
            assert check_strong_condition(result.out_b, result.out_c, p.f, p.g, p.strict_strong)
    assert time.monotonic() - start < 300


@criterion(10)
def test_criterion_10_solver_oracle():
    sig = Signature.make(relations={"R": 2})
    structs = list(enumerate_structures(sig, 2))
    budget = Budget(N=4)
    checked = 0
    for a in structs:
        for b in structs:
            fs = [dict(m) for m in search_homs(a, b)][:2]
            for c in structs:
                gs = [dict(m) for m in search_homs(a, c)][:2]
                for fm in fs:
                    for gm in gs:
                        for kinds in ("hhhh", "iihh"):
                            p = AmalgamationProblem(
                                Morphism(a, b, fm), Morphism(a, c, gm),
                                parse_kinds(kinds), budget=budget,
                            )
                            try:
                                p.validate_in_kinds()
                            except StructureError:
                                continue
                            q = _solve_quotient(p)
                            e, exhaustive = _solve_enumeration(p)
                            assert exhaustive
                            if q is not None:
                                assert verify_solution(p, q)
                            if e is not None:
                                assert verify_solution(p, e)
                            # quotient success implies an apex exists at all
                            assert not (q is not None and e is None)
                            auto = solve_amalgamation(p)
                            assert isinstance(auto, AmalgamationSolution) == (e is not None)
                            checked += 1
    assert checked > 100
