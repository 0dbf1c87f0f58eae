from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt.errors import FormulaError, ParseError
from posmt.finder import find_models
from posmt.formulas import (
    And, App, Const, EqAtom, Falsum, Forall, Implication, Implies, Not, Or,
    PosEx, RelAtom, Truth, Var, as_implications, classify_sentence,
    eval_formula, free_vars,
)
from posmt.parser import parse_formula, parse_sentences
from posmt.structures import FiniteStructure, Signature
from posmt.textio import load_workspace

from conftest import SIG_LE
from oracles import classify_sentence_reference, eval_formula_reference, pp_formula


# ---------------------------------------------------------------------------
# hypothesis: parse . print round-trip on positive formulas

VARS = ("x", "y", "z")

atoms = st.one_of(
    st.just(Truth()),
    st.just(Falsum()),
    st.builds(
        RelAtom,
        st.just("le"),
        st.tuples(st.sampled_from(VARS).map(Var), st.sampled_from(VARS).map(Var)),
    ),
    st.builds(EqAtom, st.sampled_from(VARS).map(Var), st.sampled_from(VARS).map(Var)),
)

# shapes are kept in the parser's normal form (Or of Ands of atoms) so that
# printing and reparsing reproduces the exact tree
ands = st.one_of(atoms, st.lists(atoms, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))))
matrices = st.one_of(ands, st.lists(ands, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs))))
posexes = st.builds(
    PosEx,
    st.lists(st.sampled_from(VARS), unique=True, max_size=3).map(tuple),
    matrices,
)


@given(posexes)
@settings(max_examples=200)
def test_parse_print_round_trip(p):
    assert parse_formula(pp_formula(p), SIG_LE) == p


@given(posexes, posexes, st.lists(st.sampled_from(VARS), unique=True, max_size=2).map(tuple))
@settings(max_examples=100)
def test_parse_print_round_trip_implication(prem, conc, names):
    s = And((Implication(names, prem, conc),))
    assert parse_formula(pp_formula(s), SIG_LE) == s


@given(posexes)
@settings(max_examples=100)
def test_parse_print_round_trip_huniversal(p):
    s = Not(p)
    assert parse_formula(pp_formula(s), SIG_LE) == s


# hypothesis: a theory block reads the same sentences as parse_formula

closed_posexes = matrices.map(lambda m: PosEx(VARS, m))
sentences = st.one_of(
    closed_posexes,
    closed_posexes.map(Not),
    st.lists(
        st.builds(Implication, st.just(VARS), posexes, posexes), min_size=1, max_size=3
    ).map(lambda cs: And(tuple(cs))),
)


@given(st.lists(sentences, max_size=4), st.booleans())
@settings(max_examples=100)
def test_theory_block_parses_like_parse_formula(sents, final_semicolon):
    texts = [pp_formula(s) for s in sents]
    body = ";\n  ".join(texts) + (";" if final_semicolon and texts else "")
    ws = load_workspace([f"signature S {{ relations: le/2; }}\ntheory T over S {{\n  {body}\n}}\n"])
    read = [ts.sentence for ts in ws.theory("T").sentences]
    assert read == [parse_formula(t, SIG_LE) for t in texts] == sents


# ---------------------------------------------------------------------------
# parser details


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("positive: le(x,", SIG_LE)
    assert exc.value.line == 1 and exc.value.column > 1


def test_relation_arity_checked():
    with pytest.raises(ParseError):
        parse_formula("positive: le(x)", SIG_LE)


def test_underscore_variables_rejected():
    with pytest.raises(ParseError):
        parse_formula("positive: exists _v. le(_v,_v)", SIG_LE)


def test_parse_sentences_splits_on_class_keywords():
    out = parse_sentences(
        "hinductive: forall x. true -> le(x,x);\npositive: exists x. le(x,x);",
        SIG_LE,
    )
    assert len(out) == 2
    assert isinstance(out[0], And) and isinstance(out[0].parts[0], Implication)
    assert isinstance(out[1], PosEx)


def test_theory_block_loose_input():
    ws = load_workspace([
        "signature S { relations: le/2; }\n"
        "theory E over S { }\n"
        "theory P over S { hinductive: forall x. (true) -> (le(x,x)) }\n"
        "theory R over S { ; positive: exists x. le(x,x);; hinductive: true -> true;\n"
        "  forall x. true -> le(x,x);; }\n"
    ])
    assert ws.theory("E").sentences == ()
    assert len(ws.theory("P").sentences) == 1
    assert [len(ts.implications) for ts in ws.theory("R").sentences] == [1, 2]
    with pytest.raises(ParseError):
        parse_sentences("", SIG_LE)


def test_theory_sentences_need_separators():
    with pytest.raises(ParseError) as exc:
        load_workspace([
            "signature S { relations: le/2; }\n"
            "theory T over S {\n  positive: exists x. le(x,x)\n  positive: true;\n}\n"
        ])
    assert (exc.value.line, exc.value.column) == (4, 3)


# ---------------------------------------------------------------------------
# classification


def test_classify_hinductive():
    f = parse_formula("hinductive: forall x y. le(x,y) -> le(y,x)", SIG_LE)
    assert classify_sentence(f) == "h-inductive"


def test_classify_huniversal():
    f = parse_formula("huniversal: ! exists x. le(x,x)", SIG_LE)
    assert classify_sentence(f) == "h-universal"


def test_classify_positive():
    f = parse_formula("positive: exists x. le(x,x)", SIG_LE)
    assert classify_sentence(f) == "positive"


def test_classify_rejects_open_formula():
    f = parse_formula("positive: le(x,y)", SIG_LE)
    with pytest.raises(FormulaError):
        classify_sentence(f)


def test_as_implications_covers_all_classes():
    h = parse_formula("hinductive: forall x. true -> le(x,x)", SIG_LE)
    u = parse_formula("huniversal: ! exists x. le(x,x)", SIG_LE)
    p = parse_formula("positive: exists x. le(x,x)", SIG_LE)
    assert len(as_implications(h)) == 1
    # h-universal phi encodes as phi -> falsum
    (iu,) = as_implications(u)
    assert isinstance(iu.conclusion.matrix, Falsum)
    # positive phi encodes as truth -> phi
    (ip,) = as_implications(p)
    assert isinstance(ip.premise.matrix, Truth)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_on_chain(chain2):
    assert eval_formula(chain2, parse_formula("positive: exists x y. le(x,y)", SIG_LE), {})
    refl = parse_formula("hinductive: forall x. true -> le(x,x)", SIG_LE)
    assert eval_formula(chain2, refl, {})
    anti = parse_formula("hinductive: forall x y. le(x,y) -> le(y,x)", SIG_LE)
    assert not eval_formula(chain2, anti, {})


def test_eval_false_existential():
    from posmt.structures import FiniteStructure

    bare = FiniteStructure(SIG_LE, ("a",), {"le": frozenset()})
    assert not eval_formula(bare, parse_formula("positive: exists x y. le(x,y)", SIG_LE), {})


def test_eval_general_negation(chain2, antichain2):
    f = parse_formula("general: exists x y. !le(x,y) & !le(y,x)", SIG_LE)
    assert eval_formula(antichain2, f, {})
    assert not eval_formula(chain2, f, {})


# ---------------------------------------------------------------------------
# hypothesis: the compiled evaluator against the tree-walking reference

SIG_MIX = Signature.make(
    relations={"P": 1, "R": 2, "T": 3}, functions={"f": 1, "g": 2}, constants=["c", "d"]
)


def mixed_structure(seed: int) -> FiniteStructure:
    rng = random.Random(seed)
    u = tuple("abc"[: rng.randint(1, 3)])
    return FiniteStructure(
        SIG_MIX, u,
        {n: frozenset(t for t in itertools.product(u, repeat=ar) if rng.random() < 0.5)
         for n, ar in SIG_MIX.relations},
        {n: {args: rng.choice(u) for args in itertools.product(u, repeat=ar)}
         for n, ar in SIG_MIX.functions},
        {c: rng.choice(u) for c in SIG_MIX.constants},
    )


leaves = st.one_of(st.sampled_from(VARS).map(Var), st.sampled_from(("c", "d")).map(Const))
terms = st.one_of(
    leaves,
    leaves.map(lambda a: App("f", (a,))),
    leaves.map(lambda a: App("f", (App("f", (a,)),))),
    st.builds(lambda a, b: App("g", (a, b)), leaves, leaves),
)
mixed_atoms = st.one_of(
    st.just(Truth()),
    st.just(Falsum()),
    st.builds(EqAtom, terms, terms),
    st.builds(lambda a: RelAtom("P", (a,)), terms),
    st.builds(lambda a, b: RelAtom("R", (a, b)), terms, terms),
    st.builds(lambda a, b, c: RelAtom("T", (a, b, c)), terms, terms, terms),
)
mixed_ands = st.lists(mixed_atoms, max_size=3).map(lambda xs: And(tuple(xs)))
mixed_qf = st.one_of(
    mixed_atoms,
    mixed_ands,
    st.lists(st.one_of(mixed_atoms, mixed_ands), max_size=3).map(lambda xs: Or(tuple(xs))),
)
# binders may repeat a name and may shadow one bound further out
binders = st.lists(st.sampled_from(VARS), max_size=2).map(tuple)
mixed_posex = st.builds(PosEx, st.one_of(st.just(()), binders), mixed_qf)
mixed_implications = st.builds(
    Implication, st.lists(st.sampled_from(VARS), max_size=3).map(tuple), mixed_posex, mixed_posex
)


def general(sub):
    return st.one_of(
        sub,
        st.builds(Not, sub),
        st.builds(Implies, sub, sub),
        st.builds(Forall, binders, sub),
        st.builds(PosEx, binders, sub),
        st.lists(sub, max_size=2).map(lambda xs: And(tuple(xs))),
        st.lists(sub, max_size=2).map(lambda xs: Or(tuple(xs))),
    )


mixed_formulas = general(general(st.one_of(
    mixed_qf, mixed_posex, mixed_implications, st.builds(Not, mixed_posex),
    st.lists(mixed_implications, min_size=1, max_size=2).map(lambda cs: And(tuple(cs))),
)))


@given(st.integers(0, 2 ** 32), mixed_formulas, st.data())
@settings(max_examples=300, deadline=None)
def test_compiled_evaluator_matches_reference(seed, f, data):
    s = mixed_structure(seed)
    elems = st.sampled_from(s.universe)
    # the outer env binds every free variable, and sometimes more
    env = data.draw(st.dictionaries(st.sampled_from(VARS), elems))
    env.update({v: data.draw(elems) for v in sorted(free_vars(f)) if v not in env})
    before = dict(env)
    assert eval_formula(s, f, env) == eval_formula_reference(s, f, env)
    assert env == before
    closed = Forall(tuple(sorted(free_vars(f))), f)
    assert eval_formula(s, closed, {}) == eval_formula_reference(s, closed, {})


# hypothesis: one normal form classifies and encodes every sentence, as the
# old classifier classified it

ONE_ELEMENT = [
    FiniteStructure(
        SIG_MIX, ("a",),
        {n: frozenset({("a",) * ar} if bit else ()) for (n, ar), bit in zip(SIG_MIX.relations, bits)},
        {n: {("a",) * ar: "a"} for n, ar in SIG_MIX.functions},
        dict.fromkeys(SIG_MIX.constants, "a"),
    )
    for bits in itertools.product((False, True), repeat=len(SIG_MIX.relations))
]


@given(st.integers(0, 2 ** 32), mixed_formulas)
@settings(max_examples=300, deadline=None)
def test_classes_and_encodings_agree_with_the_old_classifier(seed, f):
    free = tuple(sorted(free_vars(f)))
    f = Forall(free, f) if free else f
    cls = classify_sentence(f)
    assert cls == classify_sentence_reference(f)
    if cls == "outside":
        with pytest.raises(FormulaError):
            as_implications(f)
        return
    imps = as_implications(f)
    s = mixed_structure(seed)
    assert eval_formula(s, f) == all(eval_formula(s, imp) for imp in imps)
    found = {m.key() for m in find_models(SIG_MIX, ("a",), imps)}
    assert found == {m.key() for m in ONE_ELEMENT if eval_formula(m, f)}


# Names that are no Python identifiers, or that clash with the names the
# generated code uses, must reach it only as data.
AWKWARD = {"P": "s", "R": "env", "T": "lambda", "f": "U", "g": "it's\nhere", "c": "run",
           "d": "t0", "x": "v0", "y": "s", "z": "a'\"b\n"}


def awkward(f):
    """f with every symbol and variable renamed through AWKWARD."""
    if isinstance(f, (tuple, list)):
        return tuple(map(awkward, f))
    if isinstance(f, str):
        return AWKWARD[f]
    if isinstance(f, (Var, Const)):
        return type(f)(AWKWARD[f.name])
    if isinstance(f, App):
        return App(AWKWARD[f.func], awkward(f.args))
    if isinstance(f, RelAtom):
        return RelAtom(AWKWARD[f.name], awkward(f.args))
    if isinstance(f, EqAtom):
        return EqAtom(awkward(f.left), awkward(f.right))
    if isinstance(f, (Truth, Falsum)):
        return f
    fields = {And: "parts", Or: "parts", Not: "sub", Implies: "left right", PosEx: "vars matrix",
              Forall: "vars sub", Implication: "vars premise conclusion"}[type(f)]
    return type(f)(*(awkward(getattr(f, name)) for name in fields.split()))


SIG_AWKWARD = Signature.make(
    relations={AWKWARD[n]: ar for n, ar in SIG_MIX.relations},
    functions={AWKWARD[n]: ar for n, ar in SIG_MIX.functions},
    constants=[AWKWARD[c] for c in SIG_MIX.constants],
)


@given(st.integers(0, 2 ** 32), mixed_formulas, st.data())
@settings(max_examples=150, deadline=None)
def test_compiled_evaluator_takes_any_symbol_and_variable_name(seed, f, data):
    m = mixed_structure(seed)
    s = FiniteStructure(
        SIG_AWKWARD, m.universe, {AWKWARD[n]: t for n, t in m.relations.items()},
        {AWKWARD[n]: t for n, t in m.functions.items()}, {AWKWARD[c]: e for c, e in m.constants.items()})
    f = awkward(f)
    env = {v: data.draw(st.sampled_from(s.universe)) for v in sorted(free_vars(f))}
    assert eval_formula(s, f, env) == eval_formula_reference(s, f, env)


@pytest.mark.parametrize("text", [
    "hinductive: forall x x y. true -> x = y",
    "hinductive: forall x y x. le(x,y) -> le(y,x)",
    "hinductive: forall x x. le(x,x) -> false",
    "general: exists x y x. le(x,y) & !le(y,x)",
])
def test_repeated_prefix_variable_binds_its_last_occurrence(text):
    f = parse_formula(text, SIG_LE)
    for n in (1, 2, 3):
        u = tuple("abc"[:n])
        for bits in itertools.product((False, True), repeat=n * n):
            s = FiniteStructure(SIG_LE, u, {"le": frozenset(
                t for t, b in zip(itertools.product(u, repeat=2), bits) if b)})
            assert eval_formula(s, f) == eval_formula_reference(s, f), (text, s.relations)
    assert eval_formula(FiniteStructure(SIG_LE, ("a", "b"), {"le": frozenset()}),
                        Forall(("x", "x", "y"), EqAtom(Var("x"), Var("y")))) is False


def le(a: str, b: str) -> RelAtom:
    return RelAtom("le", (Var(a), Var(b)))


def test_existential_shadows_universal():
    # the inner y ranges anew; the outer y is back for the last conjunct
    f = Forall(("x", "y"), Implies(le("x", "y"), And((PosEx(("y",), le("y", "x")), le("x", "y")))))
    g = Implication(("x", "y"), PosEx((), le("x", "y")), PosEx(("y",), le("y", "x")))
    edge = FiniteStructure(SIG_LE, ("a", "b"), {"le": frozenset({("a", "b"), ("b", "b")})})
    assert not eval_formula(edge, f, {}) and not eval_formula(edge, g, {})
    assert eval_formula(edge, f, {"y": "a"}) == eval_formula_reference(edge, f, {"y": "a"})
    loop = FiniteStructure(SIG_LE, ("a",), {"le": frozenset({("a", "a")})})
    assert eval_formula(loop, f, {}) and eval_formula(loop, g, {})
    # the witness y = b of the inner exists must not leak into le(x, y)
    h = And((PosEx(("y",), le("y", "x")), le("x", "y")))
    s = FiniteStructure(SIG_LE, ("a", "b", "c"), {"le": frozenset({("a", "c"), ("b", "a")})})
    assert eval_formula(s, h, {"x": "a", "y": "c"})


def test_premise_conjunct_prunes_inner_loops():
    # le(x,y) is tested once per (x, y), before z is bound: on the empty
    # relation the z loop never runs
    tested = []

    class Counting(frozenset):
        def __contains__(self, item):
            tested.append(item)
            return super().__contains__(item)

    s = FiniteStructure(SIG_LE, ("a", "b", "c"), {"le": Counting()})
    trans = parse_formula("hinductive: forall x y z. le(x,y) & le(y,z) -> le(x,z)", SIG_LE)
    assert eval_formula(s, trans, {})
    assert len(tested) == 9


@pytest.mark.parametrize("f,env,message", [
    (PosEx(("x",), RelAtom("Q", (Var("x"),))), {}, "unknown relation symbol Q"),
    (PosEx(("x",), RelAtom("le", (Var("x"),) * 3)), {}, "arity mismatch for le"),
    (PosEx(("x",), EqAtom(App("h", (Var("x"),)), Var("x"))), {}, "unknown function symbol h"),
    (PosEx(("x",), EqAtom(App("f", (Var("x"),) * 2), Var("x"))), {}, "arity mismatch for f"),
    (PosEx(("x",), EqAtom(Var("x"), Const("e"))), {}, "unknown constant e"),
    (PosEx((), EqAtom(Var("x"), Var("y"))), {"x": "a"}, "unbound variable y"),
    (PosEx(("s",), RelAtom("lambda", (Var("s"),))), {}, "unknown relation symbol lambda"),
    (PosEx(("x",), RelAtom("it's\n", (Var("x"),))), {}, "unknown relation symbol it's\n"),
    (PosEx(("env",), EqAtom(Var("env"), Const("U"))), {}, "unknown constant U"),
    (PosEx((), EqAtom(Var("x"), Var("a'\n"))), {"x": "a"}, "unbound variable a'\n"),
])
def test_ill_formed_evaluation_raises(f, env, message):
    s = FiniteStructure(Signature.make(relations={"le": 2}, functions={"f": 1}), ("a",),
                        {"le": frozenset()}, {"f": {("a",): "a"}})
    with pytest.raises(FormulaError, match=re.escape(message)):
        eval_formula(s, f, env)
    with pytest.raises(FormulaError, match=re.escape(message)):
        eval_formula_reference(s, f, env)
