from __future__ import annotations

import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt import corpus
from posmt.errors import BudgetExceeded, SignatureError
from posmt.finder import find_models, models_up_to_size
from posmt.formulas import (
    And, App, Const, EqAtom, Falsum, HInductiveSentence, HUniversalSentence,
    Implication, Or, PosEx, RelAtom, Truth, Var,
)
from posmt.morphisms import Morphism, search_homs
from posmt.structures import (
    ELEMENT_NAMES, FiniteStructure, Signature, enumerate_structures,
)
from posmt.theories import (
    Budget, Theory, bounded_pc_models, companion_check_bounded, diagram,
    diag_plus_star_set, expand_with_constants, is_T_complete_pair,
    is_jc_bounded, is_model, is_pc_within, jc_characterization_report,
    joint_consistency_bounded, kaiser_hull_bounded, models, pair_diagrams,
    theory_from_diagram, tu_star_set, tu_ti_extremality_check,
)

from posmt.textio import load_workspace

from conftest import POSET_AXIOMS, SIG_F, SIG_LE, make_theory
from oracles import find_models_reference

SMALL = Budget(n=2, N=2, k=2)


# ---------------------------------------------------------------------------
# models


def test_poset_models_n2(t_pos):
    ms = models(t_pos, Budget(n=2))
    assert len(ms) == 3  # point, 2-chain, 2-antichain


def test_fixed_point_models_n1():
    t = make_theory(SIG_F, "positive: exists x. f(x) = x;", "T_fix")
    assert len(models(t, Budget(n=1))) == 1


def test_inconsistent_theory_has_no_models():
    t = make_theory(SIG_LE, "hinductive: true -> false;", "T_bot")
    assert models(t, Budget(n=2)) == []


def test_models_agree_with_enumeration_filter(t_pos):
    filtered = [
        s.canonical_key()
        for s in enumerate_structures(SIG_LE, 2)
        if is_model(s, t_pos)
    ]
    assert sorted(filtered) == sorted(
        s.canonical_key() for s in models(t_pos, Budget(n=2))
    )


def test_models_key_each_class_once(t_pos, monkeypatch):
    # 242 labelled posets of size <= 4 in 1 + 2 + 5 + 16 classes: the least
    # relabelling is computed once per class, not once per labelled model
    assert len(models(t_pos, Budget(n=4), up_to_iso=False)) == 242
    real = FiniteStructure.canonical_key
    calls = []

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FiniteStructure, "canonical_key", counting)
    assert len(models(t_pos, Budget(n=4))) == 24
    assert len(calls) == 24


@pytest.mark.parametrize("up_to_iso", [True, False])
def test_models_order_is_first_found_by_canonical_key(t_pos, up_to_iso):
    # reference: key every labelled model by its own least relabelling,
    # keep the first of each class, sort stably by (size, canonical key)
    expected = []
    for size in range(1, 5):
        keyed, seen = [], set()
        for st in find_models(SIG_LE, ELEMENT_NAMES[:size], t_pos.implications()):
            ck = st.canonical_key()
            if up_to_iso and ck in seen:
                continue
            seen.add(ck)
            keyed.append((ck, st))
        keyed.sort(key=lambda kv: kv[0])
        expected += [st for _, st in keyed]
    got = models_up_to_size(SIG_LE, t_pos.implications(), 4, up_to_iso=up_to_iso)
    assert [st.key() for st in got] == [st.key() for st in expected]


# ---------------------------------------------------------------------------
# diagrams


def test_expand_with_constants(chain2):
    sig2, c2 = expand_with_constants(chain2)
    assert len(sig2.constants) == 2
    assert {c2.const(c) for c in sig2.constants} == {"a", "b"}


def test_diag_plus_of_chain(chain2):
    ds = diagram(chain2, "Diag+", SMALL)
    assert len(ds.sentences) == 3  # le(ca,ca), le(ca,cb), le(cb,cb)


def test_diag_contains_negated_atoms(chain2):
    ds = diagram(chain2, "Diag", SMALL)
    negated = [s for s in ds.sentences if isinstance(s, HUniversalSentence)]
    assert negated  # le(cb,ca) and ca=cb are denied
    assert len(ds.sentences) == 3 + 2


def test_tu_star_of_loop_excludes_true_sentences(loop):
    ds = diagram(loop, "Tu*", SMALL)
    # the loop satisfies every CQ over {f/1}, so its Tu* is empty
    assert ds.sentences == ()


def test_relative_diagram_requires_subset(chain2):
    with pytest.raises(ValueError):
        diagram(chain2, "Tu(A|B)", SMALL)
    rel = diagram(chain2, "Tu(A|B)", SMALL, subset=("a",))
    assert len(rel.signature.constants) == 1


# ---------------------------------------------------------------------------
# joint consistency


def test_jc_of_positive_diagrams(chain2, antichain2, t_pos):
    da, db = pair_diagrams(chain2, antichain2, "Diag+", SMALL)
    assert joint_consistency_bounded([da, db], Budget(n=2, N=1, k=2)).is_yes
    assert joint_consistency_bounded([da, db, t_pos], SMALL).is_yes


def test_jc_atomic_contradiction(chain2):
    full = diagram(chain2, "Diag", SMALL)
    clash = make_theory(
        full.signature, "positive: c_a = c_b;", "clash"
    )
    v = joint_consistency_bounded([full, clash], SMALL)
    assert v.status == "no"
    assert v.certificate  # ground refutation


def test_is_jc_bounded(t_pos):
    assert is_jc_bounded(t_pos, Budget(n=2, N=1, k=2)).is_yes


def test_is_jc_vacuous_for_inconsistent():
    t = make_theory(SIG_LE, "hinductive: true -> false;", "T_bot")
    assert is_jc_bounded(t, SMALL).is_yes


# ---------------------------------------------------------------------------
# pc models


def test_point_is_pc(point, t_pos):
    assert is_pc_within(point, t_pos, Budget(n=3)).is_yes


def test_chain_is_not_pc(chain2, t_pos):
    v = is_pc_within(chain2, t_pos, SMALL)
    assert v.status == "no"
    counter = v.certificate
    assert counter  # the collapse hom is not an immersion


def test_bounded_pc_models_of_poset_theory(t_pos):
    pcs = bounded_pc_models(t_pos, Budget(n=2, N=2, k=2))
    assert len(pcs) == 1 and pcs[0].size() == 1


# ---------------------------------------------------------------------------
# T-completeness, companionship, hull


def test_t_complete_self(t_pos):
    assert is_T_complete_pair(t_pos, t_pos, t_pos, Budget(n=2, N=1, k=2)).is_yes


def test_t_complete_existential_witnesses_clash():
    # T1-models include points carrying both R and S, and those cannot map
    # into any model of T, so the pair is not T-complete at this bound
    sig = Signature.make(relations={"R": 1, "S": 1})
    t1 = make_theory(sig, "positive: exists x. R(x);", "T1")
    t2 = make_theory(sig, "positive: exists x. S(x);", "T2")
    t = make_theory(sig, "hinductive: forall x. R(x) & S(x) -> false;", "T")
    assert is_T_complete_pair(t1, t2, t, Budget(n=1, N=2, k=2)).status == "no"
    # restricting T1, T2 to separated witnesses makes the pair T-complete
    t1s = make_theory(
        sig, "positive: exists x. R(x); hinductive: forall x. S(x) -> false;", "T1s"
    )
    t2s = make_theory(
        sig, "positive: exists x. S(x); hinductive: forall x. R(x) -> false;", "T2s"
    )
    assert is_T_complete_pair(t1s, t2s, t, Budget(n=1, N=2, k=2)).is_yes


def test_t_complete_forced_clash():
    sig = Signature.make(relations={"R": 1, "S": 1})
    t1 = make_theory(sig, "hinductive: forall x. true -> R(x);", "T1")
    t2 = make_theory(sig, "hinductive: forall x. true -> S(x);", "T2")
    t = make_theory(sig, "hinductive: forall x. R(x) & S(x) -> false;", "T")
    assert is_T_complete_pair(t1, t2, t, Budget(n=1, N=2, k=2)).status == "no"


def test_companion_redundant_axiom(t_pos):
    t2 = make_theory(
        SIG_LE,
        "hinductive: forall x. true -> le(x,x);"
        "hinductive: forall x y z. le(x,y) & le(y,z) -> le(x,z);"
        "hinductive: forall x y. le(x,y) & le(y,x) -> x = y;"
        "hinductive: forall x. true -> le(x,x);",
        "T_pos2",
    )
    assert companion_check_bounded(t_pos, t2, SMALL).is_yes


def test_companion_signature_mismatch(t_pos):
    other = make_theory(SIG_F, "positive: exists x. f(x) = x;", "T_fix")
    with pytest.raises(SignatureError):
        companion_check_bounded(t_pos, other, SMALL)


def test_companionship_lemma_instance(loop):
    b = SMALL
    tu = theory_from_diagram(diagram(loop, "Tu*", b), "Tu*")
    ti = theory_from_diagram(diagram(loop, "Ti*", b), "Ti*")
    assert companion_check_bounded(tu, ti, b).is_yes


def test_kaiser_hull_contains_reflexivity(t_pos):
    from posmt.formulas import eval_formula

    b = Budget(n=2, N=2, k=2)
    hull, _tu = kaiser_hull_bounded(t_pos, b)
    refl = make_theory(SIG_LE, "hinductive: forall x. true -> le(x,x);").sentences[0].sentence
    probe = list(enumerate_structures(SIG_LE, 2))
    # some hull sentence is semantically reflexivity on the probe corpus
    assert any(
        all(eval_formula(x, s, {}) == eval_formula(x, refl, {}) for x in probe)
        for s in hull.sentences
    )


def test_kaiser_hull_computes_each_fragment_once(t_pos, monkeypatch):
    # one kaiser_hull_set (models once, then once per pc check) and one
    # tu_of_theory_set (models once), not one of each per corpus entry
    from posmt import theories

    b = Budget(n=2, N=2, k=2)
    bound = len(models(t_pos, b)) + 2
    real = theories.models
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(theories, "models", counting)
    kaiser_hull_bounded(t_pos, b)
    assert len(calls) <= bound


def test_kaiser_hull_self_consistency():
    t = make_theory(SIG_F, "positive: exists x. f(x) = x;", "T_fix")
    b = Budget(n=2, N=2, k=2)
    hull, _ = kaiser_hull_bounded(t, b)
    for m in bounded_pc_models(t, b):
        assert all(is_model(m, Theory.make(SIG_F, [s], "s")) for s in hull.sentences)


# ---------------------------------------------------------------------------
# characterization, extremality


def test_jc_characterization_poset(t_pos):
    rep = jc_characterization_report(t_pos, Budget(n=2, N=2, k=2))
    assert rep["is_jc"] == "yes"
    assert all(rep["conditions"].values())
    assert all(rep["agreement"].values())


def test_jc_characterization_inconsistent():
    t = make_theory(SIG_LE, "hinductive: true -> false;", "T_bot")
    rep = jc_characterization_report(t, SMALL)
    assert all(rep["conditions"].values())


def test_extremality(t_pos):
    assert tu_ti_extremality_check(t_pos, SMALL).is_yes


# ---------------------------------------------------------------------------
# Remark properties (a)-(e), small slice; the 500-pair run is criterion 6


def _pairs(sig, size=2):
    structs = list(enumerate_structures(sig, size))
    return [(a, b) for a in structs for b in structs]


@pytest.mark.parametrize("sig", [SIG_LE, SIG_F])
def test_remark_a_hom_reverses_tu_star(sig):
    k = 2
    for a, b in _pairs(sig):
        if any(True for _ in search_homs(a, b)):
            assert tu_star_set(b, k) <= tu_star_set(a, k)


@pytest.mark.parametrize("sig", [SIG_LE, SIG_F])
def test_remark_c_tu_star_is_unsat_cqs(sig):
    k = 2
    for a in enumerate_structures(sig, 2):
        ev = corpus.evaluator(sig, k, a)
        expected = frozenset(
            c for c in corpus.cq_corpus(sig, k) if not ev.cq_true(c)
        )
        assert tu_star_set(a, k) == expected


@pytest.mark.parametrize("sig", [SIG_LE, SIG_F])
def test_remark_d_diag_star_vs_tu_star(sig):
    k = 2
    for a, b in _pairs(sig):
        lhs = diag_plus_star_set(a, k) <= diag_plus_star_set(b, k)
        rhs = tu_star_set(b, k) <= tu_star_set(a, k)
        assert lhs == rhs


def test_remark_e_tu_star_inclusion_gives_jc(chain2, antichain2, point):
    k = 2
    for a, b in itertools.permutations((chain2, antichain2, point), 2):
        if tu_star_set(a, k) <= tu_star_set(b, k):
            da, db = pair_diagrams(a, b, "Diag+", Budget(n=2, N=4, k=k))
            n_bound = a.size() + b.size()
            v = joint_consistency_bounded(
                [da, db], Budget(n=2, N=n_bound, k=k, node_cap=10**7)
            )
            assert v.is_yes


# ---------------------------------------------------------------------------
# find_models against the tree-walking reference search and brute force

def assert_matches_reference(sig, universe, implications, **seeds):
    """find_models yields the reference's labelled models in its order and
    spends the same number of nodes: it finishes within that many and
    raises BudgetExceeded one node short of it."""
    ref, nodes = find_models_reference(sig, universe, implications, **seeds)
    got = list(find_models(sig, universe, implications, node_cap=nodes, **seeds))
    assert [m.key() for m in got] == [m.key() for m in ref]
    if nodes:
        with pytest.raises(BudgetExceeded):
            list(find_models(sig, universe, implications, node_cap=nodes - 1, **seeds))


def _test_theories():
    sig_rs = Signature.make(relations={"R": 1, "S": 1})
    sig_g = Signature.make(functions={"mul": 2, "inv": 1}, constants=["e"])
    group = (
        "hinductive: forall x y z. true -> mul(mul(x,y),z) = mul(x,mul(y,z));"
        "hinductive: forall x. true -> mul(e,x) = x;"
        "hinductive: forall x. true -> mul(x,e) = x;"
        "hinductive: forall x. true -> mul(inv(x),x) = e;"
        "hinductive: forall x. true -> mul(x,inv(x)) = e;"
    )
    cases = [
        ("T_pos", SIG_LE, POSET_AXIOMS, 4),
        ("T_bot", SIG_LE, "hinductive: true -> false;", 2),
        ("T_fix", SIG_F, "positive: exists x. f(x) = x;", 4),
        ("T_f2", SIG_F, "positive: exists x. f(f(x)) = x;", 4),
        ("T_f3", SIG_F, "positive: exists x. f(f(f(x))) = x;", 4),
        ("T_g", sig_g, group, 3),
        ("T1s", sig_rs, "positive: exists x. R(x); hinductive: forall x. S(x) -> false;", 3),
        ("T_RS", sig_rs, "hinductive: forall x. R(x) & S(x) -> false;", 3),
        ("T_B", Signature.make(relations={"B": 3}),
         "hinductive: forall x y z. B(x,y,z) -> B(y,z,x);"
         "hinductive: forall x. true -> exists y. B(x,y,y);", 2),
    ]
    for name, sig, text, max_size in cases:
        yield pytest.param(make_theory(sig, text), max_size, id=name)
    root = pathlib.Path(__file__).resolve().parent.parent
    for path in sorted(root.glob("data/*.posmt")) + sorted(root.glob("perfbench/data/*.posmt")):
        ws = load_workspace([path.read_text()])
        for name, t in ws.theories.items():
            yield pytest.param(t, 4, id=f"{path.relative_to(root)}:{name}")


@pytest.mark.parametrize("theory,max_size", _test_theories())
def test_find_models_matches_reference_on_known_theories(theory, max_size):
    for size in range(1, max_size + 1):
        assert_matches_reference(theory.signature, ELEMENT_NAMES[:size], theory.implications())


SIG_RC = Signature.make(relations={"P": 1, "R": 2}, constants=["c"])


def test_find_models_unseeded_constant_in_premise():
    # R(c, x) reads every R cell and the cell of c; c is assigned first
    t = make_theory(SIG_RC, "hinductive: forall x. R(c,x) -> P(x);"
                            "hinductive: forall x. P(x) -> R(x,c);")
    for size in (1, 2, 3):
        assert_matches_reference(SIG_RC, ELEMENT_NAMES[:size], t.implications())


def test_find_models_nested_function_term():
    # f(f(x)) = x reads f(x) exactly and every f cell through the outer f
    t = make_theory(SIG_F, "hinductive: forall x. true -> f(f(x)) = x;")
    for size in (1, 2, 3, 4):
        assert_matches_reference(SIG_F, ELEMENT_NAMES[:size], t.implications())
    assert len(list(find_models(SIG_F, ELEMENT_NAMES[:4], t.implications()))) == 10


def test_find_models_existential_conclusion():
    # exists y R(x, y) watches the whole row of x
    t = make_theory(SIG_RC, "hinductive: forall x. true -> exists y. R(x,y);"
                            "hinductive: forall x y. R(x,y) & R(y,x) -> x = y;")
    for size in (1, 2, 3):
        assert_matches_reference(SIG_RC, ELEMENT_NAMES[:size], t.implications())


@pytest.mark.parametrize("c", ["a", "b"])
def test_find_models_fully_seeded(c):
    sig = Signature.make(relations={"R": 2}, functions={"f": 1}, constants=["c"])
    t = make_theory(sig, "hinductive: forall x. R(x,f(x)) -> x = c;")
    seeds = dict(seed_true_relations={"R": [("a", "b")]},
                 seed_functions={"f": {("a",): "b", ("b",): "a"}},
                 seed_constants={"c": c}, freeze_relations=True)
    assert_matches_reference(sig, ("a", "b"), t.implications(), **seeds)
    got = list(find_models(sig, ("a", "b"), t.implications(), node_cap=0, **seeds))
    assert len(got) == (c == "a")


# Signatures for the differential tests, each with the largest universe
# whose unpruned search stays small.
FINDER_SIGS = [
    (Signature.make(relations={"R": 2}), 3),
    (Signature.make(relations={"P": 1}, functions={"f": 1}, constants=["c"]), 3),
    (Signature.make(relations={"P": 1, "R": 2}, functions={"f": 1}, constants=["c"]), 2),
    (Signature.make(relations={"R": 2}, functions={"f": 1}), 2),
]


@st.composite
def _terms(draw, sig, scope, depth=2):
    leaves = [Var(v) for v in scope] + [Const(c) for c in sig.constants]
    if sig.functions and depth and draw(st.integers(0, 2)) == 0:
        return App("f", (draw(_terms(sig, scope, depth - 1)),))
    return draw(st.sampled_from(leaves))


@st.composite
def _positive_qf(draw, sig, scope, depth=2):
    kind = draw(st.integers(0, 9 if depth else 7))
    if kind >= 8:
        parts = tuple(draw(st.lists(_positive_qf(sig, scope, depth - 1), min_size=1, max_size=3)))
        return And(parts) if kind == 8 else Or(parts)
    if kind == 0 or not (scope or sig.constants):
        return draw(st.sampled_from([Truth(), Falsum()]))
    if kind <= 3:
        return EqAtom(draw(_terms(sig, scope)), draw(_terms(sig, scope)))
    name, arity = draw(st.sampled_from(sig.relations))
    return RelAtom(name, tuple(draw(_terms(sig, scope)) for _ in range(arity)))


@st.composite
def _positive_ex(draw, sig, scope):
    bound = draw(st.sampled_from([(), (), ("y",), ("x",)]))  # ("x",) may shadow
    return PosEx(bound, draw(_positive_qf(sig, tuple(scope) + bound)))


@st.composite
def _implications(draw, sig):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        scope = draw(st.sampled_from([(), ("x",), ("x", "z")]))
        out.append(Implication(scope, draw(_positive_ex(sig, scope)), draw(_positive_ex(sig, scope))))
    return tuple(out)


@st.composite
def finder_cases(draw):
    """A small signature, universe and theory, with a seed half of the time."""
    sig, max_size = draw(st.sampled_from(FINDER_SIGS))
    universe = ELEMENT_NAMES[:draw(st.integers(1, max_size))]
    implications = draw(_implications(sig))
    seeds = {}
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        seeds["seed_true_relations"] = {
            name: [t for t in itertools.product(universe, repeat=arity) if rng.random() < 0.3]
            for name, arity in sig.relations
        }
        seeds["seed_functions"] = {
            name: {args: rng.choice(universe)
                   for args in itertools.product(universe, repeat=arity) if rng.random() < 0.5}
            for name, arity in sig.functions
        }
        seeds["seed_constants"] = {c: rng.choice(universe) for c in sig.constants
                                   if rng.random() < 0.5}
        seeds["freeze_relations"] = draw(st.booleans())
    return sig, universe, implications, seeds


@settings(max_examples=200, deadline=None)
@given(finder_cases())
def test_find_models_matches_reference(case):
    sig, universe, implications, seeds = case
    assert_matches_reference(sig, universe, implications, **seeds)


@settings(max_examples=100, deadline=None)
@given(finder_cases())
def test_find_models_matches_brute_force(case):
    sig, universe, implications, _ = case
    t = Theory.make(sig, [HInductiveSentence(implications)])
    expected = {
        s.key() for s in enumerate_structures(sig, len(universe), up_to_iso=False)
        if s.universe == universe and is_model(s, t)
    }
    got = [s.key() for s in find_models(sig, universe, implications)]
    assert len(got) == len(set(got))
    assert set(got) == expected
