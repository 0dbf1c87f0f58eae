from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt import morphisms
from posmt.errors import BudgetExceeded, StructureError
from posmt.harness import random_structure
from posmt.morphisms import (
    Morphism, MorphismKind, classify_morphism, enumerate_homs, is_homomorphism,
    is_strong_immersion, retraction, search_homs,
)
from posmt.structures import FiniteStructure, Signature, enumerate_structures

from conftest import SIG_F, SIG_LE
from oracles import (
    ImmersionOracle, classify_morphism_reference, enumerate_homs_reference,
    search_homs_reference, strong_immersion_reference,
)


def test_identity_is_strong_immersion(chain2):
    m = Morphism(chain2, chain2, {"a": "a", "b": "b"})
    assert classify_morphism(m) == MorphismKind.STRONG_IMMERSION


def test_collapse_is_hom_not_embedding(chain2, point):
    m = Morphism(chain2, point, {"a": "a", "b": "a"})
    assert is_homomorphism(m)
    assert classify_morphism(m, MorphismKind.EMBEDDING) < MorphismKind.EMBEDDING
    assert classify_morphism(m) == MorphismKind.HOM


def test_inclusion_point_chain_is_immersion_not_strong(chain2, point):
    m = Morphism(point, chain2, {"a": "a"})
    assert classify_morphism(m, MorphismKind.IMMERSION) >= MorphismKind.IMMERSION
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


def test_map_keys_outside_the_source_are_rejected(chain2, point):
    # a stray key's image once counted toward surjectivity, so this
    # inclusion of a point into a chain read as a strong immersion
    with pytest.raises(StructureError, match="zz"):
        Morphism(point, chain2, {"a": "a", "zz": "b"})
    assert classify_morphism(Morphism(point, chain2, {"a": "a"})) == MorphismKind.IMMERSION


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
    assert all(classify_morphism(h, MorphismKind.EMBEDDING) >= MorphismKind.EMBEDDING for h in embeddings)
    assert len(embeddings) < len(homs)


def test_hom_exists(chain2, antichain2, point):
    assert next(search_homs(chain2, point), None) is not None
    assert next(search_homs(antichain2, chain2), None) is not None
    assert next(search_homs(chain2, antichain2), None) is not None  # collapse onto one loop


def test_composition_preserves_kinds(chain2, point):
    inc = Morphism(point, chain2, {"a": "a"})
    col = Morphism(chain2, point, {"a": "a", "b": "a"})
    # col o inc and id o inc, composed by hand
    assert is_homomorphism(Morphism(point, point, {"a": col(inc("a"))}))
    # immersion o immersion
    composed = Morphism(point, chain2, {"a": inc("a")})
    assert classify_morphism(composed, MorphismKind.IMMERSION) >= MorphismKind.IMMERSION


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
                        assert classify_morphism(m, MorphismKind.EMBEDDING) >= MorphismKind.EMBEDDING
                    if kind >= MorphismKind.STRONG_IMMERSION:
                        assert classify_morphism(m, MorphismKind.IMMERSION) >= MorphismKind.IMMERSION


def test_immersion_oracle_equivalence_size_2():
    # full size-3 equivalence is acceptance criterion 4; keep a fast slice here
    oracle = ImmersionOracle(SIG_LE, size=2)
    structs = oracle.corpus
    for a in structs:
        for b in structs:
            for mp in search_homs(a, b):
                m = Morphism(a, b, mp)
                immersion = classify_morphism(m, MorphismKind.IMMERSION) >= MorphismKind.IMMERSION
                assert immersion == oracle.is_immersion(m), m.map


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DIFF_SIGS), st.randoms(use_true_random=False))
def test_forbidden_targets_drop_exactly_the_maps_that_use_them(sig, rng):
    # elements outside `required` (constants included) may not land in
    # `forbidden`; the maps left come in the unrestricted search's order
    a, b = random_structure(rng, sig, 3), random_structure(rng, sig, 3)
    required = {e: rng.choice(b.universe) for e in a.universe if rng.random() < 0.3}
    forbidden = {e for e in b.universe if rng.random() < 0.4}
    expected = [h for h in search_homs(a, b, required)
                if all(h[e] not in forbidden for e in a.universe if e not in required)]
    assert list(search_homs(a, b, required, forbidden=forbidden)) == expected
    assert [m.map_key() for m in enumerate_homs(a, b, required, forbidden=forbidden)] == sorted(
        tuple((e, h[e]) for e in a.universe) for h in expected)


@settings(max_examples=300, deadline=None)
@given(maps_with_bound())
def test_strong_immersion_matches_reference(case):
    m, k = case
    assert is_strong_immersion(m, k)[0] == strong_immersion_reference(m, k), (m.map, k)


# ---------------------------------------------------------------------------
# hypothesis: the one kind decision against the kind-by-kind chain at bound k


@settings(max_examples=300, deadline=None)
@given(maps_with_bound())
def test_kinds_match_reference_at_every_bound(case):
    m, _ = case
    a, b = m.source, m.target
    hom = is_homomorphism(m)
    if not hom:
        for need in MorphismKind:
            with pytest.raises(StructureError):
                classify_morphism(m, need)
    else:
        # decided only as far as asked: exact below `need`, `need` at or above
        assert [classify_morphism(m, need) for need in MorphismKind] == [
            min(classify_morphism(m), need) for need in MorphismKind]
    got = {kind: [h.map_key() for h in enumerate_homs(a, b, kind=kind)] for kind in MorphismKind}
    for k in (None, 1, 2, 3):
        if hom:
            assert classify_morphism(m) == classify_morphism_reference(m, k), (m.map, k)
        for kind in MorphismKind:
            assert got[kind] == [h.map_key() for h in enumerate_homs_reference(a, b, kind=kind, k=k)]


def _least_cap(search) -> int:
    """The least node cap under which `search(cap)` does not run out."""
    cap = 1
    while True:
        try:
            search(cap)
            return cap
        except BudgetExceeded:
            cap += 1


SIG_MIXED = Signature.make(relations={"R": 2}, functions={"f": 1}, constants=["c"])


@settings(max_examples=300, deadline=None)
@given(
    sig=st.sampled_from(DIFF_SIGS + (SIG_MIXED,)),
    pinned=st.floats(0, 0.5),
    barred=st.floats(0, 0.5),
    injective=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_search_kernel_matches_the_recursive_reference(sig, pinned, barred, injective, rng):
    # the same maps in the same order, and out of nodes at the same cap
    a, b = random_structure(rng, sig, 3), random_structure(rng, sig, 3)
    required = {e: rng.choice(b.universe) for e in a.universe if rng.random() < pinned}
    forbidden = {e for e in b.universe if rng.random() < barred}
    args = (a, b, required)
    options = {"forbidden": forbidden, "injective": injective}
    cap = _least_cap(lambda cap: list(search_homs_reference(*args, node_cap=cap, **options)))
    expected = list(search_homs_reference(*args, **options))
    assert _least_cap(lambda cap: list(search_homs(*args, node_cap=cap, **options))) == cap
    got = list(search_homs(*args, **options))
    assert got == expected
    assert [list(h) for h in got] == [list(a.universe)] * len(got)


@settings(max_examples=200, deadline=None)
@given(
    sig=st.sampled_from([SIG_LE, SIG_F, SIG_MIXED]),
    kind=st.sampled_from(list(MorphismKind)),
    pinned=st.floats(0, 0.5),
    rng=st.randoms(use_true_random=False),
)
def test_injective_search_lists_the_reference_maps_within_its_node_cap(sig, kind, pinned, rng):
    # from kind e up only injective maps are searched, and kind s needs
    # equal sizes: the same maps in the same order, in no more nodes
    a, b = random_structure(rng, sig, 3), random_structure(rng, sig, 3)
    required = {e: rng.choice(b.universe) for e in a.universe if rng.random() < pinned}
    cap = _least_cap(lambda cap: enumerate_homs_reference(a, b, required, kind, node_cap=cap))
    expected = [m.map_key() for m in enumerate_homs_reference(a, b, required, kind)]
    assert [m.map_key() for m in enumerate_homs(a, b, required, kind, node_cap=cap)] == expected


def test_strong_immersions_between_sizes_that_differ_are_not_searched(monkeypatch, point, chain2):
    calls = []
    monkeypatch.setattr(morphisms, "search_homs", lambda *a, **k: calls.append(a) or iter(()))
    assert enumerate_homs(point, chain2, kind=MorphismKind.STRONG_IMMERSION) == []
    assert calls == []


def test_classify_morphism_checks_for_a_homomorphism_once(monkeypatch, point, chain2):
    calls = []
    real = morphisms.is_homomorphism
    monkeypatch.setattr(morphisms, "is_homomorphism", lambda m: calls.append(m) or real(m))
    inclusion = Morphism(point, chain2, {"a": "a"})
    assert classify_morphism(inclusion) == MorphismKind.IMMERSION
    assert calls == [inclusion]
