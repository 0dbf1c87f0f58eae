from __future__ import annotations

import functools
import itertools
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posmt import amalgamation, corpus, finder
from posmt.errors import BudgetExceeded, SignatureError
from posmt.finder import find_models, models_up_to_size
from posmt.formulas import (
    FALSE_POSEX, TRUE_POSEX, And, App, Const, EqAtom, Falsum, Not,
    Implication, Or, PosEx, RelAtom, Truth, Var,
)
from posmt.morphisms import Morphism, search_homs
from posmt.parser import parse_formula
from posmt.structures import (
    ELEMENT_NAMES, FiniteStructure, Orbits, Signature, enumerate_structures,
)
from posmt.theories import (
    Budget, Theory, bounded_pc_models, companion_check_bounded, diagram,
    expand_with_constants, is_T_complete_pair, is_jc_bounded, is_model,
    is_pc_within, jc_characterization_report, joint_consistency_bounded,
    kaiser_hull_bounded, kaiser_hull_set, models, pair_diagrams, theory_from_diagram,
    tu_star_set, _ground_refutation,
)

from posmt.textio import load_workspace

from conftest import POSET_AXIOMS, SIG_F, SIG_LE, T_APART, make_theory, run_optimised
from oracles import (
    UNKNOWN, replace, _hull_of_pc_models_reference, _Instance, _Partial, class_key,
    diag_plus_star_set,
    enumerate_structures_reference, eval_formula_reference, find_models_reference,
    ground_refutation_reference, is_T_complete_pair_reference, is_jc_bounded_reference, is_pc_within_reference,
    jc_characterization_report_reference, kaiser_hull_bounded_reference, models_up_to_size_reference,
    seeded_cells, tu_ti_extremality_check,
)

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
    # image of a code is computed once per class, not once per labelled model
    # (`Orbits._least` reads it for `Orbits.least` and `Orbits.orbit`)
    labelled = sum(len(list(find_models(SIG_LE, ELEMENT_NAMES[:n], t_pos.implications())))
                   for n in range(1, 5))
    assert labelled == 242
    real = Orbits._least
    calls = []

    def counting(self, *sums):
        calls.append(sums)
        return real(self, *sums)

    monkeypatch.setattr(Orbits, "_least", counting)
    assert len(models(t_pos, Budget(n=4))) == 24
    assert len(calls) == 24


def test_one_size_builds_its_lanes_once(t_pos, monkeypatch):
    # `Orbits.of` keeps one layout per (signature, size), so two model lists
    # and a canonical key of the same sizes share its lanes
    Orbits.of.cache_clear()
    real, built = Orbits._lanes.func, []

    def counting(self):
        built.append((self.sig, self.n))
        return real(self)
    lanes = functools.cached_property(counting)
    lanes.__set_name__(Orbits, "_lanes")
    monkeypatch.setattr(Orbits, "_lanes", lanes)
    first = models_up_to_size(SIG_LE, t_pos.implications(), 4)
    again = models_up_to_size(SIG_LE, t_pos.implications(), 4)
    assert [m.key() for m in again] == [m.key() for m in first]
    assert len({m.canonical_key() for m in first}) == len(first) == 24
    assert built == [(SIG_LE, n) for n in range(1, 5)]


def _first_of_each(items, key):
    """The items whose key has not occurred before, in order."""
    seen, out = set(), []
    for x in items:
        if key(x) not in seen:
            seen.add(key(x))
            out.append(x)
    return out


@pytest.mark.parametrize("dedup_before_sort", [True, False])
def test_models_order_is_first_found_by_canonical_key(t_pos, dedup_before_sort):
    # reference: key every labelled model by its own least relabelling,
    # keep the first of each class, sort stably by (size, canonical key);
    # keeping the first of each class after the stable sort is the same
    expected = []
    for size in range(1, 5):
        keyed = [(st.canonical_key(), st)
                 for st in find_models(SIG_LE, ELEMENT_NAMES[:size], t_pos.implications())]
        if dedup_before_sort:
            keyed = _first_of_each(keyed, lambda kv: kv[0])
        keyed.sort(key=lambda kv: kv[0])
        expected += [st for _, st in _first_of_each(keyed, lambda kv: kv[0])]
    got = models_up_to_size(SIG_LE, t_pos.implications(), 4)
    assert [st.key() for st in got] == [st.key() for st in expected]


# ---------------------------------------------------------------------------
# model lists by one-point extension


@pytest.mark.parametrize("name", ["T_pos", "T_fix"])
def test_representative_is_the_first_model_the_full_search_meets(t_pos, name):
    t = t_pos if name == "T_pos" else make_theory(SIG_F, "positive: exists x. f(x) = x;")
    got = models_up_to_size(t.signature, t.implications(), 5)
    for size in range(1, 6):
        orbits, first = Orbits(t.signature, size), {}
        for m in find_models(t.signature, ELEMENT_NAMES[:size], t.implications()):
            first.setdefault(orbits.least(orbits.pack(m)), m)
        assert [m.key() for m in got if m.size() == size] == [first[k].key() for k in sorted(first)]


@pytest.mark.parametrize("theory, counts", [
    pytest.param(make_theory(SIG_LE, POSET_AXIOMS), [1, 2, 5, 16], id="T_pos"),
    pytest.param(Theory.make(Signature.make(relations={"R": 2}), [], "T"), [2, 10, 104, 3044], id="empty-R2"),
])
def test_least_image_is_the_first_code_the_full_search_meets(theory, counts):
    # codes order as the search meets them, so the first model met in each
    # class (OEIS A000112 posets, A000595 binary relations) is its least image
    for size, count in enumerate(counts, 1):
        orbits, marked, classes = Orbits.of(theory.signature, size), set(), 0
        for val in finder._search(orbits, theory.implications(), {}):
            code = orbits.code(val)
            if code not in marked:
                images = orbits.orbit(code)[0]
                assert min(images) == code
                marked.update(images)
                classes += 1
        assert classes == count


@pytest.mark.parametrize("name", ["T_pos", "T_fix"])
def test_each_new_class_sums_its_lanes_once(monkeypatch, t_pos, name):
    # a class's images and its canonical key are read off one lane sum
    t = t_pos if name == "T_pos" else make_theory(SIG_F, "positive: exists x. f(x) = x;")
    finder.models_of_size(t.signature, t.implications(), 3, None)  # listed before counting
    real, calls = Orbits._sums, []
    monkeypatch.setattr(Orbits, "_sums", lambda self, code: calls.append(code) or real(self, code))
    reps, _ = finder.models_of_size(t.signature, t.implications(), 4)
    assert len(calls) == len(reps) == {"T_pos": 16, "T_fix": 13}[name]


def test_tiny_node_cap_raises(t_pos):
    with pytest.raises(BudgetExceeded):
        models_up_to_size(SIG_LE, t_pos.implications(), 3, node_cap=5)
    with pytest.raises(BudgetExceeded):
        models(t_pos, Budget(n=2, node_cap=1))


SIG_R2 = Signature.make(relations={"R": 2})


@pytest.mark.parametrize("theory,max_size,extends", [
    pytest.param(make_theory(SIG_LE, POSET_AXIOMS), 4, True, id="T_pos"),
    pytest.param(make_theory(SIG_R2, "huniversal: ! exists x y. R(x,y) & R(y,x);"), 3, True,
                 id="huniversal"),
    pytest.param(make_theory(SIG_R2, "hinductive: forall x y z. R(x,y) & R(x,z) -> y = z | R(y,z);"),
                 3, True, id="disjunctive-equality"),
    pytest.param(make_theory(SIG_R2, "hinductive: forall x. exists y. R(x,y) & R(y,x) -> R(x,x);"),
                 3, True, id="existential-premise"),
    pytest.param(make_theory(SIG_F, "positive: exists x. f(x) = x;"), 4, False, id="T_fix"),
    pytest.param(make_theory(SIG_R2, "hinductive: forall x. true -> exists y. R(x,y);"
                                     "hinductive: forall x y. R(x,y) & R(y,x) -> x = y;"), 3, False,
                 id="existential-conclusion"),
])
def test_only_universal_relational_theories_extend(monkeypatch, theory, max_size, extends):
    real, sizes = finder._extensions, []

    def recording(orbits, *args):
        sizes.append(orbits.n)
        return real(orbits, *args)

    monkeypatch.setattr(finder, "_extensions", recording)
    args = (theory.signature, theory.implications(), max_size)
    assert [m.key() for m in models_up_to_size(*args)] == \
        [m.key() for m in models_up_to_size_reference(*args)]
    assert sizes == (list(range(2, max_size + 1)) if extends else [])


# Relational signatures for the differential, each with the largest size
# whose labelled reference listing stays small.
RELATIONAL_SIGS = [
    (Signature.make(relations={"P": 1}), 4),
    (Signature.make(relations={"P": 1, "Q": 1}), 4),
    (Signature.make(relations={"R": 2}), 3),
    (Signature.make(relations={"P": 1, "R": 2}), 3),
]


@st.composite
def _quantifier_free_conclusions(draw, sig, scope):
    """`false`, an atom, or `x = y | ...` over the universal variables."""
    def atom():
        name, arity = draw(st.sampled_from(sig.relations))
        return RelAtom(name, tuple(Var(draw(st.sampled_from(scope))) for _ in range(arity)))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return PosEx((), Falsum())
    if kind == 1:
        return PosEx((), atom())
    x, y = (Var(draw(st.sampled_from(scope))) for _ in range(2))
    return PosEx((), Or((EqAtom(x, y),) + tuple(atom() for _ in range(draw(st.integers(0, 2))))))


@st.composite
def universal_relational_cases(draw):
    """A relational signature, a size bound and implications whose
    conclusions have no existential quantifier; premises may have one."""
    sig, max_size = draw(st.sampled_from(RELATIONAL_SIGS))
    implications = []
    for _ in range(draw(st.integers(1, 3))):
        scope = draw(st.sampled_from([("x",), ("x", "z")]))
        implications.append(Implication(scope, draw(_positive_ex(sig, scope)),
                                        draw(_quantifier_free_conclusions(sig, scope))))
    return sig, tuple(implications), draw(st.integers(1, max_size))


@settings(max_examples=80, deadline=None)
@given(universal_relational_cases())
def test_one_point_extension_matches_reference(case):
    sig, implications, max_size = case
    got = models_up_to_size(sig, implications, max_size)
    expected = models_up_to_size_reference(sig, implications, max_size)
    assert [m.key() for m in got] == [m.key() for m in expected]


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
    negated = [s for s in ds.sentences if isinstance(s, Not)]
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


# random ground facts and denials over the constants a and b, with nested
# conjunctions, Truth, falsum and `exists x. false`; function terms,
# variables and multi-atom premises are drawn too, and each makes an atom
# or an implication count for nothing
GROUND_SIG = Signature.make(relations={"R": 1, "S": 2}, functions={"f": 1}, constants=["a", "b", "c"])
_CONSTS = st.sampled_from("ab").map(Const)
_TERMS = st.one_of(_CONSTS, _CONSTS, _CONSTS, _CONSTS.map(lambda c: App("f", (c,))))
_ATOMS = st.one_of(_TERMS.map(lambda t: RelAtom("R", (t,))), st.builds(lambda s, t: RelAtom("S", (s, t)), _TERMS, _TERMS),
                   st.builds(EqAtom, _TERMS, _TERMS), st.just(Truth()), st.just(Falsum()))
_MATRICES = st.recursive(_ATOMS, lambda inner: st.lists(inner, min_size=1, max_size=3).map(
    lambda parts: And(tuple(parts))), max_leaves=4)
_FALSUMS = st.sampled_from([FALSE_POSEX, PosEx(("x",), Falsum())])
_VARS = st.sampled_from([(), (), (), ("x",)])  # mostly none, as only ground implications count
_GROUND_IMPLICATIONS = st.one_of(
    st.builds(Implication, _VARS, st.sampled_from([TRUE_POSEX, TRUE_POSEX, PosEx(("x",), Truth())]),
              st.builds(PosEx, _VARS, _MATRICES)),  # facts
    st.builds(Implication, _VARS, st.builds(PosEx, _VARS, st.one_of(_ATOMS, _MATRICES)), _FALSUMS),  # denials
    st.builds(Implication, _VARS, st.builds(PosEx, _VARS, _MATRICES), st.builds(PosEx, _VARS, _MATRICES)))


_R_A, _A_B = RelAtom("R", (Const("a"),)), EqAtom(Const("a"), Const("b"))


def _ground(*texts):
    return [imp for text in texts for imp in parse_formula(text, GROUND_SIG).parts]


@settings(max_examples=300, deadline=None)
@given(st.lists(_GROUND_IMPLICATIONS, max_size=8))
@example(_ground("hinductive: true -> a = b", "hinductive: true -> S(a, c) & R(f(a))",
                 "hinductive: S(b, c) -> false"))
@example(_ground("hinductive: true -> (a = b & R(c)) & b = c", "hinductive: a = c -> exists x. false"))
@example(_ground("hinductive: true -> R(a)", "hinductive: R(a) & R(f(a)) -> false"))  # two atoms deny nothing
@example([  # an atom asserted or denied under a variable counts for nothing
    Implication(("y",), TRUE_POSEX, PosEx((), _R_A)), Implication((), TRUE_POSEX, PosEx(("x",), _R_A)),
    Implication((), PosEx((), _R_A), FALSE_POSEX), Implication((), TRUE_POSEX, PosEx((), _A_B)),
    Implication(("y",), PosEx((), _A_B), FALSE_POSEX), Implication((), PosEx(("x",), _A_B), FALSE_POSEX)])
def test_ground_refutation_matches_the_reference(implications):
    assert _ground_refutation(GROUND_SIG, implications) == ground_refutation_reference(GROUND_SIG, implications)


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


@pytest.mark.parametrize("n", [2, 3])
def test_companion_checks_each_model_once_when_the_implications_agree(monkeypatch, t_pos, n):
    # a copy of the theory under another name has the same implications, so
    # the same bounded-pc models: one pc check per model, and the verdict two
    # lists give; a redundant axiom changes the implications, and each
    # theory's models are checked
    from posmt import theories
    b = Budget(n=n, k=2)
    copy = replace(t_pos, name="T_copy")
    redundant = make_theory(SIG_LE, POSET_AXIOMS + "hinductive: forall x. true -> le(x,x);", "T_pos2")
    pcs = {m.canonical_key(): m for m in bounded_pc_models(t_pos, b)}
    calls = []
    real = theories.is_pc_within
    monkeypatch.setattr(theories, "is_pc_within", lambda m, t, b: calls.append(t) or real(m, t, b))
    for t2, checks in ((copy, 1), (redundant, 2)):
        calls.clear()
        v = companion_check_bounded(t_pos, t2, b)
        assert (v.status, v.certificate) == ("yes", {"pc_models": len(pcs)})
        assert len(calls) == checks * len(models(t_pos, b))


def test_companion_signature_mismatch(t_pos):
    other = make_theory(SIG_F, "positive: exists x. f(x) = x;", "T_fix")
    with pytest.raises(SignatureError):
        companion_check_bounded(t_pos, other, SMALL)


def test_companionship_lemma_instance(loop):
    b = SMALL
    tu = theory_from_diagram(diagram(loop, "Tu*", b), "Tu*")
    ti = theory_from_diagram(diagram(loop, "Ti*", b), "Ti*")
    assert companion_check_bounded(tu, ti, b).is_yes


@functools.lru_cache(maxsize=None)
def _parse(line: str, sig: Signature):
    return parse_formula(line, sig)  # hulls over a signature repeat their lines


def _parsed(lines, sig: Signature) -> tuple:
    """The hull's (or T_u(T)'s) printed sentences, parsed back into trees."""
    return tuple(_parse(line, sig) for line in lines)


def test_kaiser_hull_contains_reflexivity(t_pos):
    from posmt.formulas import eval_formula

    b = Budget(n=2, N=2, k=2)
    hull = _parsed(kaiser_hull_bounded(t_pos, b)[0], SIG_LE)
    assert hull == kaiser_hull_bounded_reference(t_pos, b)[0].sentences
    refl = make_theory(SIG_LE, "hinductive: forall x. true -> le(x,x);").sentences[0].sentence
    probe = list(enumerate_structures(SIG_LE, 2))
    # some hull sentence is semantically reflexivity on the probe corpus
    assert any(
        all(eval_formula(x, s, {}) == eval_formula(x, refl, {}) for x in probe)
        for s in hull
    )


def test_kaiser_hull_computes_each_fragment_once(t_pos, monkeypatch):
    # the hull and its T_u(T) are read off one listing of the models, not
    # one listing per corpus entry
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


# each verdict lists each (theory, size) it needs once: (call, the largest
# size listed, given n); a pc check used to list the models again for every
# model it checked, and jc and report listed sizes up to n again when they
# listed up to N.  jc stops at size 1, where the one-point poset continues
# every pair, and so does report, whose condition 2 that poset settles (it
# satisfies every CQ); a pc "no" stops at its counterexample, the one-point
# poset that the 2-chain collapses onto
CHAIN2 = FiniteStructure(SIG_LE, ("a", "b"), {"le": frozenset({("a", "a"), ("a", "b"), ("b", "b")})})
LISTINGS = [
    (lambda t, n: kaiser_hull_bounded(t, Budget(n=n, k=2)), lambda n: n),
    (lambda t, n: companion_check_bounded(t, t, Budget(n=n, k=2)), lambda n: n),
    (lambda t, n: tu_ti_extremality_check(t, Budget(n=n, k=2)), lambda n: n),
    (lambda t, n: is_jc_bounded(t, Budget(n=n - 1, N=n)), lambda n: n - 1),
    (lambda t, n: jc_characterization_report(t, Budget(n=n - 1, N=n, k=2)), lambda n: n - 1),
    (lambda t, n: is_pc_within(CHAIN2, t, Budget(n=n)), lambda n: 1),
]


@pytest.fixture()
def searched(monkeypatch):
    """The (implications, size) of every size `finder.models_of_size`
    searches, behind an empty cache of its own."""
    real = finder.models_of_size.__wrapped__
    calls = []

    @functools.lru_cache(maxsize=64)
    def counting(sig, implications, size, node_cap=None):
        calls.append((implications, size))
        return real(sig, implications, size, node_cap)

    monkeypatch.setattr(finder, "models_of_size", counting)
    return calls


@pytest.mark.parametrize("verdict, top", LISTINGS,
                         ids=["hull", "companion", "extremality", "jc", "report", "pc-no"])
@pytest.mark.parametrize("n", [2, 4])
def test_each_verdict_lists_each_model_set_once(t_pos, searched, verdict, top, n):
    verdict(t_pos, n)
    assert sorted(size for _, size in searched) == list(range(1, top(n) + 1))


@pytest.mark.parametrize("n", [2, 4])
def test_verdicts_in_one_process_list_each_size_once(t_pos, searched, n):
    for verdict, _ in LISTINGS:
        verdict(t_pos, n)
    assert sorted(size for _, size in searched) == list(range(1, n + 1))


def test_kaiser_hull_at_five_lists_the_models_once(t_pos, searched):
    # 89 listings of sizes 1 to 5 once: one, then one per pc check of the
    # 87 classes and one more for the bounded T_u(T); each size is now
    # searched once
    kaiser_hull_bounded(t_pos, Budget(n=5, k=2))
    assert [size for _, size in searched] == [1, 2, 3, 4, 5]


def test_kaiser_hull_self_consistency():
    t = make_theory(SIG_F, "positive: exists x. f(x) = x;", "T_fix")
    b = Budget(n=2, N=2, k=2)
    hull = _parsed(kaiser_hull_bounded(t, b)[0], SIG_F)
    assert hull == kaiser_hull_bounded_reference(t, b)[0].sentences
    for m in bounded_pc_models(t, b):
        assert all(is_model(m, Theory.make(SIG_F, [s], "s")) for s in hull)


SIG_PR = Signature.make(relations={"p": 1, "r": 2})
# no model at any size, so no pc model: the hull is the whole corpus
T_EMPTY = make_theory(SIG_LE, "hinductive: forall x. true -> false;", "T_empty")
# two one-point pc models, p and r(a,a), and no model attains their common
# T_i*: condition 4 is false
T_SPLIT = make_theory(SIG_PR, "hinductive: forall x y. p(x) & r(x,y) -> false;", "T_split")


@st.composite
def small_universal_theories(draw, apart=False):
    """Up to three sentences `forall x y. premise -> conclusion` over {le/2}
    or {p/1, r/2}, the conclusion an atom, `x = y` or `false`.  With
    `apart`, over {p/1, r/2} and with `p(x) & r(y,y) -> false` added: a
    model of p(a) and one of r(a,a) then meet in no model, so there are
    often two bounded-pc models and a CQ-realizing model for neither."""
    sig = SIG_PR if apart else draw(st.sampled_from([SIG_LE, SIG_PR]))

    def atom():
        name, arity = draw(st.sampled_from(sig.relations))
        return f"{name}({','.join(draw(st.sampled_from('xy')) for _ in range(arity))})"

    sentences = []
    for _ in range(draw(st.integers(1, 3))):
        premise = " & ".join(atom() for _ in range(draw(st.integers(0, 2)))) or "true"
        conclusion = draw(st.sampled_from([atom(), "x = y", "false"]))
        sentences.append(f"hinductive: forall x y. {premise} -> {conclusion};")
    if apart:
        sentences.append("hinductive: forall x y. p(x) & r(y,y) -> false;")
    return make_theory(sig, "\n".join(sentences), "T_random")


def test_empty_theory_has_no_pc_model():
    assert models(T_EMPTY, Budget(n=3)) == [] and bounded_pc_models(T_EMPTY, Budget(n=3)) == []


@settings(max_examples=80, deadline=None)
@given(small_universal_theories(), st.integers(1, 3), st.integers(0, 1), st.integers(1, 2))
@example(T_EMPTY, 2, 1, 2)
@example(T_SPLIT, 1, 0, 1)
def test_fragment_masks_match_frozenset_reference(t, n, extra, k):
    # the hull as an AND of masks and cond4 as mask equality give the
    # sentences and conditions of the frozenset fragments
    b = Budget(n=n, N=min(n + extra, 3), k=k)
    assert kaiser_hull_set(t, b) == _hull_of_pc_models_reference(t, bounded_pc_models(t, b), b)
    hull, tu = kaiser_hull_bounded(t, b)
    reference = kaiser_hull_bounded_reference(t, b)
    assert (_parsed(hull, t.signature), _parsed(tu, t.signature)) == tuple(ds.sentences for ds in reference)
    assert jc_characterization_report(t, b) == jc_characterization_report_reference(t, b)


def _outcome(verdict):
    """A verdict's (status, certificate, notes), or a report as it is, or
    the message of the BudgetExceeded it raised."""
    try:
        v = verdict()
    except BudgetExceeded as exc:
        return str(exc)
    return v if isinstance(v, dict) else (v.status, v.certificate, v.notes)


@settings(max_examples=200, deadline=None)
@given(small_universal_theories(), st.integers(1, 2), st.integers(1, 3), st.sampled_from([2, 5, 20, 10 ** 6]))
@example(T_SPLIT, 1, 1, 10 ** 6)
@example(T_SPLIT, 1, 2, 10 ** 6)
@example(T_SPLIT, 2, 3, 5)
@example(T_APART, 1, 1, 10 ** 6)
@example(T_APART, 2, 3, 10 ** 6)
def test_continuation_verdict_matches_the_loop_that_searches_afresh(t, n, N, node_cap):
    # the models of size <= N listed a size at a time, and each first hom
    # searched once: wherever the loop that lists every size first and
    # searches every pair's homs afresh decides, the verdict, its first
    # pair without a continuation and its notes are the same; where that
    # loop runs out of nodes, the verdict runs out with the same message or
    # says "yes" at a size below the listing that ran out
    b = Budget(n=n, N=N, node_cap=node_cap)
    for fast, reference in (
        (lambda: is_jc_bounded(t, b), lambda: is_jc_bounded_reference(t, b)),
        (lambda: is_T_complete_pair(t, t, t, b), lambda: is_T_complete_pair_reference(t, t, t, b)),
    ):
        expected, got = _outcome(reference), _outcome(fast)
        if isinstance(expected, str) and got != expected:
            assert got[0] == "yes"
        else:
            assert got == expected


T_POSETS = make_theory(SIG_LE, POSET_AXIOMS, "T_pos")


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_universal_theories(), small_universal_theories(apart=True)), st.integers(1, 2), st.integers(0, 2), st.integers(1, 2),
       st.sampled_from([5, 20, 10 ** 6]))
@example(T_EMPTY, 2, 2, 2, 10 ** 6)  # no model, so no bounded-pc model
@example(T_POSETS, 2, 2, 2, 10 ** 6)  # one bounded-pc model, the one-point poset
@example(T_POSETS, 1, 2, 2, 5)
@example(T_SPLIT, 1, 2, 1, 10 ** 6)  # two, p(a) and r(a, a)
@example(T_APART, 2, 2, 2, 10 ** 6)  # two, and no model satisfies every CQ
@example(T_APART, 1, 2, 1, 20)
def test_report_matches_the_reference_that_lists_everything(t, n, extra, k, node_cap):
    # the models of size <= N read a size at a time, up to the first that
    # satisfies every CQ, and conditions 4 and 5 taken as true with one
    # bounded-pc model: wherever the report that lists every model up to N
    # and computes every condition over all of them decides, the report is
    # the same; where it runs out of nodes, the report runs out with the
    # same message or is the one that reference gives without a node cap.
    # {p/1, r/2} has 46,752 structures up to 4 points, so N stays <= 3 there
    N = min(n + extra, 3 if t.signature == SIG_PR else 4)
    b = Budget(n=n, N=N, k=k, node_cap=node_cap)
    expected, got = (_outcome(lambda: f(t, b)) for f in (jc_characterization_report_reference,
                                                         jc_characterization_report))
    if isinstance(expected, str) and got != expected:
        uncapped = jc_characterization_report_reference(t, replace(b, node_cap=10 ** 6))
        assert got == {**uncapped, "budget": b.as_dict()}
    else:
        assert got == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_universal_theories(), small_universal_theories(apart=True)), st.integers(1, 3),
       st.sampled_from([2, 5, 20, 10 ** 6]))
@example(T_POSETS, 3, 10 ** 6)
@example(T_POSETS, 3, 5)
@example(T_APART, 3, 10 ** 6)
def test_pc_check_matches_the_reference_that_lists_everything(t, n, node_cap):
    # the models of size <= n read a size at a time, up to the first hom
    # that is not an immersion: wherever the check that lists them all
    # first decides, the verdict, its counterexample or its counts are the
    # same; where it runs out of nodes, the check runs out with the same
    # message or says "no" as it does without a node cap.  The sources are
    # the models of size <= 2 ({p/1, r/2} has 832 structures on 3 points,
    # so n stays <= 2 there)
    n = min(n, 2) if t.signature == SIG_PR else n
    b = Budget(n=n, node_cap=node_cap)
    for m in models(t, Budget(n=min(n, 2))):
        expected, got = (_outcome(lambda: f(m, t, b)) for f in (is_pc_within_reference, is_pc_within))
        if isinstance(expected, str) and got != expected:
            assert got[0] == "no" and got == _outcome(lambda: is_pc_within_reference(m, t, replace(b, node_cap=10 ** 6)))
        else:
            assert got == expected


def test_continuation_verdict_names_the_first_pair_without_one():
    # the one-point models are empty, r(a, a) and p(a); the last two meet
    # only in a model of two points
    ms = models(T_SPLIT, Budget(n=1))
    verdict = is_jc_bounded(T_SPLIT, Budget(n=1, N=1))
    assert verdict.status == "no" and verdict.certificate == {"pair": (ms[1], ms[2])}
    assert is_jc_bounded(T_SPLIT, Budget(n=1, N=2)).is_yes


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
    fixed = seeded_cells(sig, universe, **seeds)
    got = list(find_models(sig, universe, implications, node_cap=nodes, fixed=fixed))
    assert [m.key() for m in got] == [m.key() for m in ref]
    if nodes:
        with pytest.raises(BudgetExceeded):
            list(find_models(sig, universe, implications, node_cap=nodes - 1, fixed=fixed))


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


@pytest.mark.parametrize("theory,max_size", _test_theories())
@pytest.mark.parametrize("reference_up_to_iso", [True, False])
def test_models_up_to_size_matches_reference_on_known_theories(theory, max_size, reference_up_to_iso):
    # the labelled reference list is sorted stably by canonical key, so the
    # first model of each class in it is the first found
    args = (theory.signature, theory.implications(), max_size)
    expected = models_up_to_size_reference(*args, up_to_iso=reference_up_to_iso)
    if not reference_up_to_iso:
        expected = _first_of_each(expected, class_key)
    assert [m.key() for m in models_up_to_size(*args)] == [m.key() for m in expected]


def reference_is_model(s: FiniteStructure, t: Theory) -> bool:
    return all(eval_formula_reference(s, ts.sentence, {}) for ts in t.sentences)


@pytest.mark.parametrize("theory,max_size", _test_theories())
def test_is_model_matches_reference_on_known_theories(theory, max_size):
    # every labelled structure on <= 2 elements, then the theory's models
    probes = list(enumerate_structures_reference(theory.signature, 2, up_to_iso=False))
    found = models(theory, Budget(n=min(max_size, 3)))
    assert [is_model(s, theory) for s in probes] == [reference_is_model(s, theory) for s in probes]
    assert all(is_model(m, theory) and reference_is_model(m, theory) for m in found)
    assert all(ts.check is ts.check for ts in theory.sentences)  # compiled once per sentence


def test_is_model_matches_reference_on_digraphs(t_pos):
    # all labelled digraphs on <= 3 elements: posets and non-transitive ones alike
    probes = list(enumerate_structures_reference(SIG_LE, 3, up_to_iso=False))
    verdicts = [is_model(s, t_pos) for s in probes]
    assert verdicts == [reference_is_model(s, t_pos) for s in probes]
    assert sum(verdicts) == 1 + 3 + 19  # labelled posets on 1, 2 and 3 points


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
    # no relations, every function entry and constant seeded: no free cell
    sig = Signature.make(functions={"f": 1}, constants=["c", "d"])
    t = make_theory(sig, "hinductive: forall x. f(x) = d -> x = c;")
    seeds = dict(seed_functions={"f": {("a",): "b", ("b",): "a"}},
                 seed_constants={"c": c, "d": "b"})
    assert_matches_reference(sig, ("a", "b"), t.implications(), **seeds)
    got = list(find_models(sig, ("a", "b"), t.implications(), node_cap=0,
                           fixed=seeded_cells(sig, ("a", "b"), **seeds)))
    assert len(got) == (c == "a")


# ---------------------------------------------------------------------------
# the ground program: one per (signature, size, implications)

def _count_compiles(monkeypatch):
    """Start with an empty program cache and count `finder._compile` calls."""
    finder._ground.cache_clear()
    calls = []
    compile_ = finder._compile

    def counting(orbits, imp):
        calls.append((orbits.n, imp))
        return compile_(orbits, imp)
    monkeypatch.setattr(finder, "_compile", counting)
    return calls


SIG_PF = Signature.make(relations={"P": 1}, functions={"f": 1}, constants=["c"])


@pytest.mark.parametrize("sig,text,seeds", [
    (SIG_LE, POSET_AXIOMS, [
        {"seed_true_relations": {"le": [("a", "b")]}},
        {},
        {"seed_true_relations": {"le": [("a", "b"), ("b", "c"), ("d", "d")]}},
        {"seed_true_relations": {"le": [("a", "b"), ("b", "a")]}},
        {"seed_true_relations": {"le": [("a", "b")]}},
    ]),
    (SIG_PF, "hinductive: forall x. P(x) -> P(f(x)); hinductive: forall x. f(x) = c -> P(x);", [
        {"seed_constants": {"c": "b"}},
        {"seed_functions": {"f": {("a",): "b"}}, "seed_true_relations": {"P": [("c",)]}},
        {},
        {"seed_functions": {"f": {("a",): "a", ("b",): "c", ("c",): "a", ("d",): "d"}},
         "seed_constants": {"c": "a"}},
        {"seed_constants": {"c": "b"}},
    ]),
], ids=["T_pos", "function-and-constant"])
def test_one_ground_program_serves_every_seed(monkeypatch, sig, text, seeds):
    # one (signature, universe, implications), a run of seeds: each search
    # matches the reference, and the implications are compiled once
    compiled = _count_compiles(monkeypatch)
    implications = make_theory(sig, text).implications()
    for seed in seeds:
        assert_matches_reference(sig, ELEMENT_NAMES[:4], implications, **seed)
    assert len(compiled) == len(implications)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("seeded", [False, True])
def test_instance_false_on_the_bare_universe(size, seeded):
    # x = y is false at two distinct elements with no cell assigned, so
    # every size past 1 has no model, seeded or not
    t = make_theory(SIG_LE, "hinductive: forall x. true -> le(x,x);"
                            "hinductive: forall x y. true -> x = y;")
    universe = ELEMENT_NAMES[:size]
    seeds = {"seed_true_relations": {"le": [(universe[-1], universe[0])]}} if seeded else {}
    assert_matches_reference(SIG_LE, universe, t.implications(), **seeds)
    fixed = seeded_cells(SIG_LE, universe, **seeds)
    assert len(list(find_models(SIG_LE, universe, t.implications(), fixed=fixed))) == (size == 1)
    assert (finder._ground(SIG_LE, size, t.implications()).watch is None) == (size > 1)


def test_search_again_after_the_cache_was_emptied(t_pos):
    finder._ground.cache_clear()
    imps = t_pos.implications()
    seeds = {"seed_true_relations": {"le": [("a", "b")]}}
    expected, _ = find_models_reference(SIG_LE, ELEMENT_NAMES[:3], imps, **seeds)
    fixed = seeded_cells(SIG_LE, ELEMENT_NAMES[:3], **seeds)
    first = [m.key() for m in find_models(SIG_LE, ELEMENT_NAMES[:3], imps, fixed=fixed)]
    assert finder._ground.cache_info().currsize == 1
    # fill the cache with other programs until the first one is evicted
    maxsize = finder._ground.cache_info().maxsize
    for copies in range(2, maxsize + 2):
        finder._ground(SIG_LE, 1, imps * copies)
    assert finder._ground.cache_info().currsize == maxsize
    misses = finder._ground.cache_info().misses
    again = [m.key() for m in find_models(SIG_LE, ELEMENT_NAMES[:3], imps, fixed=fixed)]
    assert finder._ground.cache_info().misses == misses + 1
    assert first == again == [m.key() for m in expected]


def _drained(run):
    """Runs `run()` with `finder._search` counting: the models it yields
    and the node count each `_search` call returns."""
    returned = []
    search = finder._search

    def counting(*args):
        nodes = yield from search(*args)
        returned.append(nodes)
        return nodes
    finder._search = counting
    try:
        found = run()
    finally:
        finder._search = search
    return found, returned


def test_node_counts_pinned(monkeypatch, t_pos, chain2):
    # node counts as _search returned them before the ground program; the
    # finder search is the last chain2 quotient's, with the cells its gluing
    # fixes; one instance per symmetry class is solved, 253 of 841, and only
    # 80 of those quotients are searched, as the rest certify their glued sum
    quotient, seeds = [], []
    real_find, real_seed = amalgamation.find_models, amalgamation._quotient_seed

    def spy(*args, **kwargs):
        quotient.append((args, kwargs))
        return real_find(*args, **kwargs)
    monkeypatch.setattr(amalgamation, "find_models", spy)
    monkeypatch.setattr(amalgamation, "_quotient_seed", lambda p: seeds.append(real_seed(p)) or seeds[-1])
    amalgamation.check_basis(chain2, "hhhh", t_pos, Budget())
    _, universe, _, _, fixed = seeds[-1]
    found, returned = _drained(lambda: list(find_models(SIG_LE, universe, t_pos.implications(), fixed=fixed)))
    assert (len(seeds), len(quotient), len(universe), len(found), returned) == (
        253, 80, 5, 4231, [28304])

    t_fix = make_theory(SIG_F, "positive: exists x. f(x) = x;")
    found, returned = _drained(lambda: list(finder._search(Orbits(SIG_F, 4), t_fix.implications(), {})))
    assert (len(found), returned) == (175, [340])

    found, returned = _drained(lambda: models_up_to_size(SIG_LE, t_pos.implications(), 5))
    assert len(found) == 87
    assert returned == [2, 12, 34, 72, 72, 156, 240, 324, 424, 130, 284, 436, 596, 790, 942,
                        1104, 1258, 1440, 1610, 1794, 1992, 2172, 2336, 2534, 2776]


def test_check_basis_compiles_each_size_once(monkeypatch, t_pos, chain2):
    # 253 quotients (80 of them searched) and the wing lists, sizes 1 to 5: each
    # (size, implication) is compiled once, not once per search
    compiled = _count_compiles(monkeypatch)
    amalgamation.check_basis(chain2, "hhhh", t_pos, Budget())
    assert len(compiled) == len(set(compiled)) == 3 * 5


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
        parts = tuple(draw(st.lists(_positive_qf(sig, scope, depth - 1), min_size=0, max_size=3)))
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
    t = Theory.make(sig, [And(implications)])
    expected = {
        s.key() for s in enumerate_structures_reference(sig, len(universe), up_to_iso=False)
        if s.universe == universe and is_model(s, t)
    }
    got = [s.key() for s in find_models(sig, universe, implications)]
    assert len(got) == len(set(got))
    assert set(got) == expected


@st.composite
def status_cases(draw):
    """A small signature and size, implications, and a partial value list in
    `Orbits`' layout: each cell unassigned or set at random, independently,
    so in orders the DFS never assigns them."""
    sig, max_size = draw(st.sampled_from(FINDER_SIGS))
    orbits = Orbits(sig, draw(st.integers(1, max_size)))
    domains = [(False, True)] * orbits.offsets[-1] + [tuple(range(orbits.n))] * orbits.digits
    val = [draw(st.sampled_from((None,) + d)) for d in domains]
    return orbits, draw(_implications(sig)), val, domains


def _partial(orbits, val):
    """The oracle's partial interpretation of a value list."""
    names = ELEMENT_NAMES[:orbits.n]
    ps = _Partial(orbits.sig, names)
    for name, (first, arity) in orbits.blocks.items():
        for t in itertools.product(range(orbits.n), repeat=arity):
            v = val[first + orbits.cell(t)]
            args = tuple(names[i] for i in t)
            if (name, arity) in orbits.sig.relations:
                ps.rel[(name, args)] = v
            elif arity:
                ps.func[(name, args)] = None if v is None else names[v]
            else:
                ps.const[name] = None if v is None else names[v]
    return ps


def _identifiers(code):
    """Every name and string constant in a code object and the code objects
    nested in it."""
    out = set(code.co_names + code.co_varnames + code.co_cellvars + code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, str):
            out.add(const)
        elif hasattr(const, "co_names"):
            out |= _identifiers(const)
    return out


@settings(max_examples=300, deadline=None)
@given(status_cases())
def test_generated_status_matches_three_valued_oracle(case):
    # each ground instance's generated status equals the tree-walking oracle's
    # on a partial value list, and no cell it does not watch can move it
    orbits, implications, val, domains = case
    ps, names = _partial(orbits, val), ELEMENT_NAMES[:orbits.n]
    for imp in implications:
        status, comp = finder._compile(orbits, imp)
        # the source holds only the template's names, slot locals (v0, v1, ...)
        # and temporaries (t0, t1, ...), never a symbol or variable name
        assert all(name in {"env", "val", "U", "p", "c", ".0"} or
                   name[0] in "vt" and name[1:].isdigit() for name in _identifiers(status.__code__))
        for env in itertools.product(range(orbits.n), repeat=len(imp.vars)):
            got = status(env, val)
            expected = _Instance(imp.premise, imp.conclusion,
                                 {v: names[e] for v, e in zip(imp.vars, env)}).status(ps)
            assert got == (None if expected == UNKNOWN else expected), (imp, env)
            watched = comp.watched(env)
            for c, domain in enumerate(domains):
                if c not in watched:
                    for v in (None,) + domain:
                        moved = val[:c] + [v] + val[c + 1:]
                        assert status(env, moved) == got, (imp, env, c, v)


def test_verdict_status_checked_under_python_O():
    script = (
        "from posmt.theories import Budget, Verdict\n"
        "try:\n    Verdict('maybe', Budget())\nexcept ValueError:\n    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = run_optimised(script)
    assert proc.returncode == 0, proc.stderr
