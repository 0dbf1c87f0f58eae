from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt.errors import FormulaError, ParseError
from posmt.formulas import (
    And, EqAtom, Falsum, HInductiveSentence, HUniversalSentence, Implication,
    Or, PosEx, RelAtom, Truth, Var, as_implications, classify_sentence,
    eval_formula, pp_formula,
)
from posmt.parser import parse_formula, parse_sentences
from posmt.textio import load_workspace

from conftest import SIG_LE


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
    s = HInductiveSentence((Implication(names, prem, conc),))
    assert parse_formula(pp_formula(s), SIG_LE) == s


@given(posexes)
@settings(max_examples=100)
def test_parse_print_round_trip_huniversal(p):
    s = HUniversalSentence(p)
    assert parse_formula(pp_formula(s), SIG_LE) == s


# hypothesis: a theory block reads the same sentences as parse_formula

closed_posexes = matrices.map(lambda m: PosEx(VARS, m))
sentences = st.one_of(
    closed_posexes,
    closed_posexes.map(HUniversalSentence),
    st.lists(
        st.builds(Implication, st.just(VARS), posexes, posexes), min_size=1, max_size=3
    ).map(lambda cs: HInductiveSentence(tuple(cs))),
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
    assert isinstance(out[0], HInductiveSentence)
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
    assert [len(ts.implications()) for ts in ws.theory("R").sentences] == [1, 2]
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
