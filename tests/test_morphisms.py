from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt.amalgamation import random_structure
from posmt.errors import StructureError
from posmt.morphisms import (
    Morphism, MorphismKind, classify_morphism, enumerate_homs, hom_exists,
    identity, is_embedding, is_homomorphism, is_immersion, is_strong_immersion,
    retraction, search_homs,
)
from posmt.structures import FiniteStructure, Signature, enumerate_structures

from conftest import SIG_F, SIG_LE
from oracles import ImmersionOracle, strong_immersion_reference


def test_identity_is_strong_immersion(chain2):
    m = identity(chain2)
    assert classify_morphism(m) == MorphismKind.STRONG_IMMERSION


def test_collapse_is_hom_not_embedding(chain2, point):
    m = Morphism(chain2, point, {"a": "a", "b": "a"})
    assert is_homomorphism(m)
    assert not is_embedding(m)
    assert classify_morphism(m) == MorphismKind.HOM


def test_inclusion_point_chain_is_immersion_not_strong(chain2, point):
    m = Morphism(point, chain2, {"a": "a"})
    assert is_immersion(m)
    r = retraction(m)
    assert r is not None and r.map["a"] == "a"
    strong, witness = is_strong_immersion(m)
    assert not strong
    assert witness is not None


def test_non_hom_rejected(chain2, antichain2):
    m = Morphism(chain2, antichain2, {"a": "a", "b": "b"})
    assert not is_homomorphism(m)
    with pytest.raises(StructureError):
        classify_morphism(m)


def test_hom_enumeration_complete_vs_naive():
    structs = list(enumerate_structures(SIG_LE, 2))
    for a in structs:
        for b in structs:
            naive = 0
            for values in itertools.product(b.universe, repeat=len(a.universe)):
                m = Morphism(a, b, dict(zip(a.universe, values)))
                if is_homomorphism(m):
                    naive += 1
            assert len(enumerate_homs(a, b)) == naive


def test_enumerate_homs_sorted_and_kind_filtered(chain2):
    homs = enumerate_homs(chain2, chain2)
    assert [tuple(h.map.items()) for h in homs] == sorted(
        tuple(h.map.items()) for h in homs
    )
    embeddings = enumerate_homs(chain2, chain2, kind=MorphismKind.EMBEDDING)
    assert all(is_embedding(h) for h in embeddings)
    assert len(embeddings) < len(homs)


def test_hom_exists(chain2, antichain2, point):
    assert hom_exists(chain2, point)
    assert hom_exists(antichain2, chain2)
    assert hom_exists(chain2, antichain2)  # collapse onto one loop


def test_composition_preserves_kinds(chain2, point):
    inc = Morphism(point, chain2, {"a": "a"})
    col = Morphism(chain2, point, {"a": "a", "b": "a"})
    assert is_homomorphism(col.compose(inc))
    # immersion o immersion
    assert is_immersion(identity(chain2).compose(inc))


def test_kind_chain_on_small_corpus():
    for sig in (SIG_LE, SIG_F):
        for a in enumerate_structures(sig, 2):
            for b in enumerate_structures(sig, 2):
                for mp in search_homs(a, b):
                    m = Morphism(a, b, mp)
                    kind = classify_morphism(m)
                    if kind >= MorphismKind.EMBEDDING:
                        assert is_homomorphism(m)
                    if kind >= MorphismKind.IMMERSION:
                        assert is_embedding(m)
                    if kind >= MorphismKind.STRONG_IMMERSION:
                        assert is_immersion(m)


def test_immersion_oracle_equivalence_size_2():
    # full size-3 equivalence is acceptance criterion 4; keep a fast slice here
    oracle = ImmersionOracle(SIG_LE, size=2)
    structs = oracle.corpus
    for a in structs:
        for b in structs:
            for mp in search_homs(a, b):
                m = Morphism(a, b, mp)
                assert is_immersion(m) == oracle.is_immersion(m), m.map


def test_strong_immersion_certificate_reverifies(chain2, point):
    m = Morphism(point, chain2, {"a": "a"})
    strong, witness = is_strong_immersion(m, k=2)
    assert not strong
    # the witness names an implication true in the source, false in the target
    assert witness


# ---------------------------------------------------------------------------
# hypothesis: closed-form strong immersion against the brute-force reference

DIFF_SIGS = (
    Signature.make(relations={"p": 1, "e": 2}),
    Signature.make(relations={"t": 3}),
    Signature.make(functions={"f": 1}, constants=["c"]),
    Signature.make(relations={"e": 2}, functions={"g": 2}),
    Signature.make(relations={"p": 1}, functions={"f": 1}, constants=["c"]),
)


@st.composite
def maps_with_bound(draw):
    """A random source of size <= 3 and a map into a target of size <= 4
    that holds every image fact plus random extra tuples; injective maps are
    drawn half the time, so bijections that add tuples are frequent.
    Colliding function images make some maps non-homomorphisms."""
    sig = draw(st.sampled_from(DIFF_SIGS))
    rng = draw(st.randoms(use_true_random=False))
    a = random_structure(rng, sig, 3)
    size_b = max(1, a.size() + draw(st.integers(-1, 1)))
    universe_b = tuple(f"u{i}" for i in range(size_b))
    if size_b >= a.size() and draw(st.booleans()):
        images = rng.sample(universe_b, a.size())
    else:
        images = [rng.choice(universe_b) for _ in a.universe]
    mp = dict(zip(a.universe, images))
    p_extra = draw(st.sampled_from([0.0, 0.1, 0.3]))
    relations = {}
    for name, arity in sig.relations:
        table = {tuple(mp[e] for e in tup) for tup in a.rel(name)}
        table |= {
            tup for tup in itertools.product(universe_b, repeat=arity) if rng.random() < p_extra
        }
        relations[name] = frozenset(table)
    functions = {}
    for name, arity in sig.functions:
        forced = {}
        for args, val in a.functions[name].items():
            forced.setdefault(tuple(mp[e] for e in args), mp[val])
        functions[name] = {
            args: forced.get(args) or rng.choice(universe_b)
            for args in itertools.product(universe_b, repeat=arity)
        }
    constants = {c: mp[a.const(c)] for c in sig.constants}
    b = FiniteStructure(sig, universe_b, relations, functions, constants)
    return Morphism(a, b, mp), draw(st.sampled_from([None, 1, 2, 3, 4]))


@settings(max_examples=300, deadline=None)
@given(maps_with_bound())
def test_strong_immersion_matches_reference(case):
    m, k = case
    assert is_strong_immersion(m, k)[0] == strong_immersion_reference(m, k), (m.map, k)
