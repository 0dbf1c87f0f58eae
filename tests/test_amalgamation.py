from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt import amalgamation, morphisms
from posmt.amalgamation import (
    POSET_SIG, AmalgamationProblem, AmalgamationSolution, check_basis,
    check_strong_condition, disjoint_poset_extension, embedding_extension, inflate,
    iso_copy, parse_kinds, poset_theory, random_hom_wing, random_poset, random_structure,
    solve_amalgamation, verify_solution, verify_theorem, THEOREM_IDS,
    _solve_enumeration, _solve_quotient,
)
from posmt.errors import StructureError
from posmt.morphisms import (
    Morphism, MorphismKind, classify_morphism, enumerate_homs, search_homs,
)
from posmt.structures import FiniteStructure, Signature, enumerate_structures
from posmt.theories import Budget, models

from conftest import SIG_LE, run_optimised
from oracles import apex_candidates_reference, solve_amalgamation_reference

SIG_R = Signature.make(relations={"R": 2})


def test_strict_mode_needs_a_strong_problem(point):
    identity = Morphism(point, point, {"a": "a"})
    with pytest.raises(StructureError, match="not strong"):
        AmalgamationProblem(identity, identity, parse_kinds("hhhh"), strict_strong=True)
    AmalgamationProblem(identity, identity, parse_kinds("hhhh"), strong=True, strict_strong=True)


def test_parse_kinds():
    kinds = parse_kinds("iihh")
    assert kinds == (
        MorphismKind.IMMERSION, MorphismKind.IMMERSION,
        MorphismKind.HOM, MorphismKind.HOM,
    )
    with pytest.raises(ValueError):
        parse_kinds("ih")


def test_problem_requires_shared_base(chain2, point):
    f = Morphism(chain2, chain2, {"a": "a", "b": "b"})
    g = Morphism(point, point, {"a": "a"})
    with pytest.raises(StructureError):
        AmalgamationProblem(f, g, parse_kinds("hhhh"))


def test_identity_wings_solve(point, t_pos):
    p = AmalgamationProblem(
        Morphism(point, point, {"a": "a"}), Morphism(point, point, {"a": "a"}), parse_kinds("ssss"),
        t_pos, budget=Budget(),
    )
    sol = solve_amalgamation(p)
    assert isinstance(sol, AmalgamationSolution)
    assert verify_solution(p, sol)


def test_glued_legs_strong(point, chain2, t_pos):
    f = Morphism(point, chain2, {"a": "a"})
    g = Morphism(point, chain2, {"a": "a"})
    p = AmalgamationProblem(
        f, g, parse_kinds("iihh"), t_pos, strong=True, budget=Budget(N=6)
    )
    sol = solve_amalgamation(p)
    assert isinstance(sol, AmalgamationSolution)
    assert sol.strong_ok
    # strongness: the two chain copies only meet at the shared base point
    assert check_strong_condition(sol.out_b, sol.out_c, f, g)


def test_strong_condition_rejects_collapse(chain2, point):
    inc = Morphism(point, chain2, {"a": "a"})
    out = Morphism(chain2, point, {"a": "a", "b": "a"})
    # out(b) = out(a) although b is not an image of the base
    assert not check_strong_condition(out, out, inc, inc)
    # with surjective wings every collision sits over the base, but only the
    # strict mode insists on a common preimage
    ident = Morphism(chain2, chain2, {"a": "a", "b": "b"})
    assert check_strong_condition(out, out, ident, ident)
    assert not check_strong_condition(out, out, ident, ident, strict=True)


def test_wrong_in_kind_rejected(chain2, point):
    collapse = Morphism(chain2, point, {"a": "a", "b": "a"})
    p = AmalgamationProblem(collapse, collapse, parse_kinds("iihh"))
    with pytest.raises(StructureError):
        solve_amalgamation(p)


def test_validate_in_kinds_names_the_failing_wing(chain2, antichain2, point):
    identity = Morphism(chain2, chain2, {"a": "a", "b": "b"})
    not_hom = Morphism(chain2, antichain2, {"a": "a", "b": "b"})
    collapse = Morphism(chain2, point, {"a": "a", "b": "a"})
    with pytest.raises(StructureError, match="^not a homomorphism$"):
        AmalgamationProblem(not_hom, identity, parse_kinds("hhhh")).validate_in_kinds()
    with pytest.raises(StructureError, match="^not a homomorphism$"):
        AmalgamationProblem(identity, not_hom, parse_kinds("hhhh")).validate_in_kinds()
    with pytest.raises(StructureError, match="^left map is not a i-hom$"):
        AmalgamationProblem(collapse, identity, parse_kinds("ihhh")).validate_in_kinds()
    with pytest.raises(StructureError, match="^right map is not a i-hom$"):
        AmalgamationProblem(identity, collapse, parse_kinds("hihh")).validate_in_kinds()
    AmalgamationProblem(identity, collapse, parse_kinds("shhh")).validate_in_kinds()


def test_hom_wings_need_no_retraction_search(monkeypatch, point, chain2):
    # the inclusion is an immersion; kind h asks for no more than a homomorphism
    calls = []
    real = morphisms.retraction
    monkeypatch.setattr(morphisms, "retraction", lambda m: calls.append(m) or real(m))
    inclusion = Morphism(point, chain2, {"a": "a"})
    AmalgamationProblem(inclusion, inclusion, parse_kinds("hhhh")).validate_in_kinds()
    assert calls == []
    AmalgamationProblem(inclusion, inclusion, parse_kinds("iihh")).validate_in_kinds()
    assert calls == [inclusion, inclusion]


def test_certificate_checks_each_out_map_for_a_homomorphism_once(monkeypatch, point, chain2, t_pos):
    inclusion = Morphism(point, chain2, {"a": "a"})
    p = AmalgamationProblem(inclusion, inclusion, parse_kinds("iiii"), t_pos)
    sol = solve_amalgamation(p)
    assert isinstance(sol, AmalgamationSolution)
    calls = []
    real = morphisms.is_homomorphism

    def counted(m):
        calls.append(m)
        return real(m)
    monkeypatch.setattr(morphisms, "is_homomorphism", counted)
    if hasattr(amalgamation, "is_homomorphism"):  # a pass of its own in amalgamation counts too
        monkeypatch.setattr(amalgamation, "is_homomorphism", counted)
    assert verify_solution(p, sol)
    assert calls == [sol.out_b, sol.out_c]
    assert sol.kinds == (MorphismKind.IMMERSION, MorphismKind.IMMERSION)


def test_certificate_decides_out_map_kinds_only_up_to_the_required_ones(monkeypatch, point, chain2, t_pos):
    # the quotient glues two chains at their base point: both out-maps are
    # embeddings that are not onto, whose exact kind needs a retraction search
    inclusion = Morphism(point, chain2, {"a": "a"})
    p = AmalgamationProblem(inclusion, inclusion, parse_kinds("hhhh"), t_pos)
    calls = []
    real = morphisms.retraction
    monkeypatch.setattr(morphisms, "retraction", lambda m: calls.append(m) or real(m))
    sol = solve_amalgamation(p)
    assert isinstance(sol, AmalgamationSolution) and verify_solution(p, sol)
    assert calls == []
    assert sol.kinds == (MorphismKind.HOM, MorphismKind.HOM)
    assert classify_morphism(sol.out_b, MorphismKind.EMBEDDING) == MorphismKind.EMBEDDING
    assert classify_morphism(sol.out_c, MorphismKind.EMBEDDING) == MorphismKind.EMBEDDING
    assert sol.apex.size() > chain2.size()


def test_certificate_rejects_an_out_map_that_is_no_homomorphism(point, chain2, antichain2):
    inclusion = Morphism(point, chain2, {"a": "a"})
    p = AmalgamationProblem(inclusion, inclusion, parse_kinds("hhhh"))
    flat = Morphism(chain2, antichain2, {"a": "a", "b": "b"})
    assert not verify_solution(p, AmalgamationSolution(
        antichain2, flat, flat, (MorphismKind.HOM,) * 2, (("a", "a", "a"),)))


@pytest.mark.xfail(strict=True, reason="example-6 checks at Budget(n=2, N=min(N, 4)) but "
                   "reports the budget it was asked for; the fix changes pinned benchmark bytes")
def test_example_6_reports_the_budget_it_checked_at(monkeypatch):
    used = []
    real = amalgamation.check_basis
    monkeypatch.setattr(amalgamation, "check_basis", lambda *a: used.append(a[3]) or real(*a))
    report = verify_theorem("example-6", 0, Budget(n=5, N=8))
    assert [b.as_dict() for b in used] == [report["budget"]]


def test_exhaustive_no_certificate():
    # irreflexive edge wings over a bare point with embedding out-kinds and a
    # tiny apex bound: exhaustive search below N comes back empty
    a = FiniteStructure(SIG_R, ("a",), {"R": frozenset()})
    b = FiniteStructure(SIG_R, ("a", "b"), {"R": frozenset({("a", "b"), ("b", "a")})})
    f = Morphism(a, b, {"a": "a"})
    p = AmalgamationProblem(f, f, parse_kinds("eeee"), strong=True,
                            strict_strong=True, budget=Budget(N=2))
    result = solve_amalgamation(p)
    assert not isinstance(result, AmalgamationSolution)
    assert result.status in ("no", "unknown")


# ---------------------------------------------------------------------------
# solver oracle: quotient phase vs exhaustive enumeration (criterion 10 slice)


def _wing_problems(max_size: int, n_limit: int):
    structs = list(enumerate_structures(SIG_R, max_size))
    count = 0
    for a in structs:
        for b in structs:
            fs = [dict(m) for m in search_homs(a, b)]
            for c in structs:
                gs = [dict(m) for m in search_homs(a, c)]
                for fm in fs[:2]:
                    for gm in gs[:2]:
                        if count >= n_limit:
                            return
                        count += 1
                        yield Morphism(a, b, fm), Morphism(a, c, gm)


@pytest.mark.parametrize("kinds", ["hhhh", "iihh"])
def test_quotient_agrees_with_enumeration(kinds):
    solved_q = solved_e = 0
    for f, g in _wing_problems(2, 40):
        p = AmalgamationProblem(f, g, parse_kinds(kinds), budget=Budget(N=4))
        try:
            p.validate_in_kinds()
        except StructureError:
            continue
        q = _solve_quotient(p)
        e, exhaustive = _solve_enumeration(p)
        assert exhaustive
        # both are sound ...
        if q is not None:
            solved_q += 1
            assert verify_solution(p, q)
        if e is not None:
            solved_e += 1
            assert verify_solution(p, e)
        # ... and the quotient phase never succeeds where enumeration proves "no"
        assert not (q is not None and e is None)
    assert solved_e >= solved_q > 0


def test_solution_kind_monotone(point, chain2, t_pos):
    f = Morphism(point, chain2, {"a": "a"})
    weak = AmalgamationProblem(f, f, parse_kinds("iihh"), t_pos, budget=Budget(N=6))
    strong_out = AmalgamationProblem(f, f, parse_kinds("iiii"), t_pos, budget=Budget(N=6))
    sol = solve_amalgamation(strong_out)
    assert isinstance(sol, AmalgamationSolution)
    # a solution with immersion out-maps certifies the weaker problem as well
    assert verify_solution(weak, sol)


# ---------------------------------------------------------------------------
# candidates rejected from their out-maps alone


WING_MAKERS = {
    "inflate": lambda rng, a: inflate(rng, a, rng.randint(1, 2)),
    "iso": lambda rng, a: iso_copy(a),
    "embed": lambda rng, a: embedding_extension(rng, a, 1),
    "disjoint": lambda rng, a: disjoint_poset_extension(rng, a, 1),
    "hom": lambda rng, a: random_hom_wing(rng, a, random_poset(rng, 3)) or iso_copy(a),
    "hom-any": lambda rng, a: random_hom_wing(rng, a, random_structure(rng, POSET_SIG, 3)) or iso_copy(a),
}


def _random_problem(kinds, theory, mode, makers, N, rng):
    """Wings made from a random base by the named makers; each in-kind is
    lowered to its wing's kind, so that every problem is well posed."""
    t = poset_theory() if theory else None
    base = random_poset(rng, 2) if theory else random_structure(rng, POSET_SIG, 2)
    f, g = (WING_MAKERS[m](rng, base) for m in makers)
    kinds = parse_kinds(kinds)
    kinds = (min(kinds[0], classify_morphism(f)), min(kinds[1], classify_morphism(g))) + kinds[2:]
    return AmalgamationProblem(f, g, kinds, t, strong=mode != "plain",
                               strict_strong=mode == "strict", budget=Budget(N=N))


def _outcome(result):
    if isinstance(result, AmalgamationSolution):
        return ("yes", result.apex.key(), result.out_b.map_key(), result.out_c.map_key(),
                result.kinds, result.commutation, result.strong_ok)
    return result.status, result.notes


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.text("heis", min_size=4, max_size=4),
    theory=st.booleans(),
    mode=st.sampled_from(["plain", "strong", "strict"]),
    makers=st.tuples(st.sampled_from(sorted(WING_MAKERS)), st.sampled_from(sorted(WING_MAKERS))),
    N=st.integers(2, 3),
    rng=st.randoms(use_true_random=False),
)
def test_solver_answers_as_the_reference_that_certifies_every_candidate(kinds, theory, mode, makers, N, rng):
    # the solver rejects candidates from their out-maps alone (kind s onto
    # the quotient, an apex isomorphic to an s wing, the strong condition
    # while out_c is listed); the answers must not change
    p = _random_problem(kinds, theory, mode, makers, N, rng)
    assert _outcome(solve_amalgamation(p)) == _outcome(solve_amalgamation_reference(p))


@settings(max_examples=150, deadline=None)
@given(
    strict=st.booleans(),
    makers=st.tuples(st.sampled_from(sorted(WING_MAKERS)), st.sampled_from(sorted(WING_MAKERS))),
    size=st.integers(1, 3),
    rng=st.randoms(use_true_random=False),
)
def test_disjoint_targets_keep_exactly_the_out_maps_that_meet_the_strong_condition(
        strict, makers, size, rng):
    # into an apex that holds every tuple each map is a homomorphism, so
    # every out-map pair is weighed
    p = _random_problem("hhhh", False, "strict" if strict else "strong", makers, 3, rng)
    universe = ("a", "b", "c")[:size]
    full = FiniteStructure(POSET_SIG, universe, {"le": frozenset(itertools.product(universe, repeat=2))})
    for out_b in enumerate_homs(p.f.target, full):
        required = {p.g(a): out_b(p.f(a)) for a in p.base.universe}
        if any(required[p.g(a)] != out_b(p.f(a)) for a in p.base.universe):
            continue
        meeting = [out_c for out_c in enumerate_homs(p.g.target, full, required)
                   if check_strong_condition(out_b, out_c, p.f, p.g, strict)]
        forbidden = amalgamation._disjoint_targets(p, out_b, required)
        if forbidden is None:
            assert meeting == []
        else:
            assert enumerate_homs(p.g.target, full, required, forbidden=forbidden) == meeting


def test_example_1_completes_no_quotient(monkeypatch):
    # "hish" asks a strong immersion of B onto the apex, and the immersed
    # wing C = A plus a clone puts a class outside B's image into every
    # quotient: no completion is listed.  B maps only into apexes with its
    # own tuple count, as only those can be isomorphic to it
    completions, apex_counts = [], []
    real_find, real_homs = amalgamation.find_models, amalgamation.enumerate_homs

    def listing(a, b, *args, **kwargs):
        if kwargs.get("kind") == MorphismKind.STRONG_IMMERSION:
            apex_counts.append((len(a.rel("le")), len(b.rel("le"))))
        return real_homs(a, b, *args, **kwargs)
    monkeypatch.setattr(amalgamation, "find_models", lambda *a, **k: completions.append(a) or real_find(*a, **k))
    monkeypatch.setattr(amalgamation, "enumerate_homs", listing)
    report = verify_theorem("example-1", 0, Budget(N=8), instances=25)
    assert report["rate"] == 1.0
    assert completions == []
    assert apex_counts and all(wing == apex for wing, apex in apex_counts)


def test_inheritance_certifies_no_out_map_pair_that_breaks_disjointness(monkeypatch):
    # the strong condition is decided while out_c is listed, so no phase-2
    # certificate check fails on it
    phase, outcomes = [], []
    real_enumeration, real_check = amalgamation._solve_enumeration, amalgamation.check_strong_condition

    def enumeration(p):
        phase.append(2)
        try:
            return real_enumeration(p)
        finally:
            phase.pop()

    def check(*args):
        ok = real_check(*args)
        if phase:
            outcomes.append(ok)
        return ok
    monkeypatch.setattr(amalgamation, "_solve_enumeration", enumeration)
    monkeypatch.setattr(amalgamation, "check_strong_condition", check)
    report = verify_theorem("inheritance", 0, Budget(N=8), instances=200)
    assert report["red_flags"] == []
    assert outcomes and all(outcomes)


# ---------------------------------------------------------------------------
# the apex pool, listed a size at a time


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The size bound of every apex-pool listing, from an empty pool cache."""
    from posmt import amalgamation
    sizes = []
    real_enumerate, real_models = amalgamation.enumerate_structures, amalgamation.models

    def enumerating(sig, max_size):
        sizes.append(max_size)
        return real_enumerate(sig, max_size)

    def listing(t, b):
        sizes.append(b.n)
        return real_models(t, b)

    monkeypatch.setattr(amalgamation, "enumerate_structures", enumerating)
    monkeypatch.setattr(amalgamation, "models", listing)
    monkeypatch.setattr(amalgamation, "_CANDIDATE_CACHE", {})
    return sizes


@pytest.mark.parametrize("seed", [0, 20])
def test_example_1_lists_no_size_4_pool(pool_sizes, seed):
    # every instance finds its apex among sizes <= 3 (the cap is 4)
    report = verify_theorem("example-1", seed, Budget(N=8), instances=25)
    assert report["rate"] == 1.0
    assert pool_sizes and max(pool_sizes) <= 3


@pytest.mark.parametrize("N,status,cap", [(2, "no", 2), (8, "unknown", 4)])
def test_unsolved_problem_lists_every_pool_size(pool_sizes, N, status, cap):
    # strong immersions force |D| = |B| = |C|, and the wings differ in size:
    # an exhaustive "no" and a truncated "unknown" read the whole pool, every
    # size up to the cap (2^25 labelled digraphs on 5 points pass the limit)
    a = FiniteStructure(SIG_R, ("a",), {"R": frozenset()})
    b = FiniteStructure(SIG_R, ("a", "b"), {"R": frozenset({("a", "b"), ("b", "a")})})
    p = AmalgamationProblem(Morphism(a, a, {"a": "a"}), Morphism(a, b, {"a": "a"}),
                            parse_kinds("hhss"), budget=Budget(N=N))
    assert solve_amalgamation(p).status == status
    assert pool_sizes == list(range(1, cap + 1))


@pytest.mark.parametrize("theorem", ["example-1", "inheritance"])
def test_lazy_pool_answers_as_the_eager_pool(monkeypatch, theorem):
    from posmt import amalgamation

    def outcomes():
        real, seen = amalgamation.solve_amalgamation, []

        def recording(p):
            result = real(p)
            seen.append(_outcome(result))
            return result
        with monkeypatch.context() as m:
            m.setattr(amalgamation, "solve_amalgamation", recording)
            m.setattr(amalgamation, "_CANDIDATE_CACHE", {})
            verify_theorem(theorem, 0, Budget(N=8), instances=25)
        return seen

    lazy = outcomes()
    monkeypatch.setattr(amalgamation, "_apex_candidates", lambda p, cap: apex_candidates_reference(
        p.theory, p.f.target.signature, cap, p.budget.node_cap))
    assert outcomes() == lazy
    assert any(o[0] == "yes" for o in lazy)


# ---------------------------------------------------------------------------
# generators, basis, harness


@pytest.mark.parametrize("theorem", ["ii-hh-strong", "ih-ih-strong", "h-strong-pc", "inheritance"])
def test_verify_builds_poset_theory_once(monkeypatch, theorem):
    from posmt import amalgamation
    real, calls = amalgamation.poset_theory, []

    def counting():
        calls.append(theorem)
        return real()

    monkeypatch.setattr(amalgamation, "poset_theory", counting)
    report = verify_theorem(theorem, 0, Budget(n=3, N=6), instances=5)
    assert report["instances"] == 5
    assert len(calls) == 1


def test_random_poset_is_model():
    t = poset_theory()
    rng = random.Random(3)
    for _ in range(10):
        s = random_poset(rng, 4)
        from posmt.theories import is_model
        assert is_model(s, t)


def test_inflate_is_immersion():
    rng = random.Random(5)
    s = random_poset(rng, 3)
    m = inflate(rng, s, extra=2)
    from posmt.morphisms import is_immersion
    assert m.source.key() == s.key()
    assert is_immersion(m)


def test_check_basis_point_hhhh(point, t_pos):
    report = check_basis(point, "hhhh", t_pos, Budget(n=2, N=4))
    assert report.verdict.is_yes
    assert report.instances


@pytest.mark.parametrize("kinds", ["hihh", "ihhh"])
def test_check_basis_maps_each_wing_at_its_own_kind(chain2, t_pos, kinds):
    # with B = C the left maps stand in for the right ones only when the
    # two in-kinds agree
    b = Budget(n=2, N=4)
    alpha, beta = parse_kinds(kinds)[:2]
    report = check_basis(chain2, kinds, t_pos, b)
    wings = models(t_pos, b)
    expected = sum(len(enumerate_homs(chain2, bw, kind=alpha)) * len(enumerate_homs(chain2, cw, kind=beta))
                   for bw in wings for cw in wings)
    assert len(report.instances) == expected == 6
    for inst in report.instances:
        assert classify_morphism(Morphism(chain2, inst["B"], inst["f"])) >= alpha
        assert classify_morphism(Morphism(chain2, inst["C"], inst["g"])) >= beta


def test_check_basis_without_theory_pairs_every_wing(point):
    # the wings over all structures are read once per B and once per C
    b = Budget(n=2, N=3)
    report = check_basis(point, "hhhh", None, b)
    homs = [len(enumerate_homs(point, w)) for w in enumerate_structures(SIG_LE, 2)]
    assert len(report.instances) == sum(homs) ** 2 == 121
    assert len({inst["B"].key() for inst in report.instances}) == sum(1 for h in homs if h)


def test_verify_theorem_small():
    report = verify_theorem("si-si-strong", seed=11, b=Budget(N=8), instances=4)
    assert report["instances"] == 4
    assert report["rate"] == 1.0
    assert report["red_flags"] == []


def test_verify_theorem_ids_known():
    with pytest.raises(ValueError):
        verify_theorem("no-such-theorem", seed=0, b=Budget(), instances=1)
    assert "ii-hh-strong" in THEOREM_IDS


# Under `python -O` a failed certificate re-check must still stop the
# harness: the child exits 0 only if verify_theorem raises.
RECHECK_UNDER_O = """
import sys
import posmt.amalgamation as am
from posmt.errors import PosmtError
from posmt.theories import Budget
am.verify_solution = lambda p, sol: False
try:
    am.verify_theorem(sys.argv[1], seed=11, b=Budget(N=8), instances=4)
except PosmtError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize("theorem", ["si-si-strong", "inheritance"])
def test_failed_recheck_raises_under_python_O(theorem):
    proc = run_optimised(RECHECK_UNDER_O, theorem)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "re-check" in proc.stdout
