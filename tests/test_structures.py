from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt.errors import SignatureError, StructureError
from posmt.finder import models_up_to_size
from posmt.harness import random_structure
from posmt.structures import (
    FiniteStructure, Orbits, Signature, disjoint_rename, element_names,
    enumerate_structures,
)
from posmt.theories import Budget, Theory, joint_consistency_bounded, models

from conftest import SIG_F, SIG_LE, make_theory
from oracles import (
    canonical_key_reference, class_key, enumerate_structures_reference,
    first_in_cell_order_reference, least_reference, models_up_to_size_reference, orbit_images_reference,
    read_code,
)


def test_signature_rejects_duplicate_symbols():
    with pytest.raises(SignatureError):
        Signature.make(relations={"s": 1}, constants=["s"])


def test_signature_rejects_nullary_function():
    with pytest.raises(SignatureError):
        Signature.make(functions={"c": 0})


def test_empty_universe_rejected():
    with pytest.raises(StructureError):
        FiniteStructure(SIG_LE, ())


def test_stray_tuple_rejected():
    with pytest.raises(StructureError):
        FiniteStructure(SIG_LE, ("a",), {"le": frozenset({("a", "b")})})


def test_partial_function_rejected():
    with pytest.raises(StructureError):
        FiniteStructure(SIG_F, ("a", "b"), functions={"f": {("a",): "a"}})


def test_missing_constant_rejected():
    sig = Signature.make(constants=["e"])
    with pytest.raises(StructureError):
        FiniteStructure(sig, ("a",))


def _counts_by_size(structures):
    sizes = collections.Counter(s.size() for s in structures)
    return [sizes[n] for n in sorted(sizes)]


def test_enumeration_counts_up_to_iso():
    # iso classes per size, OEIS A000595 (binary relations) and A001372
    # (mappings of a set into itself)
    assert _counts_by_size(enumerate_structures(SIG_LE, 4)) == [2, 10, 104, 3044]
    assert _counts_by_size(enumerate_structures(SIG_F, 4)) == [1, 3, 7, 19]


def test_poset_counts_match_oeis(t_pos):
    # A000112: posets up to isomorphism; each size past 1 is listed by
    # extending the posets one point smaller
    assert _counts_by_size(models(t_pos, Budget(n=6))) == [1, 2, 5, 16, 63, 318]


def test_enumeration_raw_counts():
    raw = list(enumerate_structures_reference(SIG_LE, 2, up_to_iso=False))
    assert len(raw) == 2 + 16


def test_sizes_past_element_name_pool_rejected():
    # 12 default element names: size 13 must not silently repeat size 12
    sig = Signature.make(constants=["c"])
    with pytest.raises(StructureError):
        list(enumerate_structures(sig, 14))
    with pytest.raises(StructureError):
        models_up_to_size(sig, (), 13)
    with pytest.raises(StructureError):
        joint_consistency_bounded([Theory.make(sig, [])], Budget(N=13))
    with pytest.raises(StructureError):
        random_structure(random.Random(0), sig, 13)


def test_canonical_key_iso_invariant(chain2):
    renamed = FiniteStructure(
        SIG_LE, ("x", "y"), {"le": frozenset({("y", "y"), ("y", "x"), ("x", "x")})}
    )
    assert chain2.canonical_key() == renamed.canonical_key()


def test_canonical_key_distinguishes(chain2, antichain2):
    assert chain2.canonical_key() != antichain2.canonical_key()


def test_disjoint_rename(chain2):
    ra, rb = disjoint_rename(chain2, chain2)
    assert not (set(ra.universe) & set(rb.universe))
    assert ra.canonical_key() == rb.canonical_key() == chain2.canonical_key()


def _raw_total(sig: Signature, max_size: int) -> int:
    return sum(
        2 ** sum(n ** a for _, a in sig.relations)
        * n ** (sum(n ** a for _, a in sig.functions) + len(sig.constants))
        for n in range(1, max_size + 1)
    )


@st.composite
def enumeration_cases(draw):
    """A small signature and a size bound <= 6 with at most 5 * 10**4
    labelled structures."""
    relations = draw(st.lists(st.integers(1, 3), max_size=2))
    functions = draw(st.lists(st.integers(1, 2), max_size=2))
    sig = Signature.make(
        relations={f"r{i}": a for i, a in enumerate(relations)},
        functions={f"f{i}": a for i, a in enumerate(functions)},
        constants=[f"c{i}" for i in range(draw(st.integers(0, 2)))],
    )
    largest = 1
    while largest < 6 and _raw_total(sig, largest + 1) <= 5 * 10 ** 4:
        largest += 1
    return sig, draw(st.integers(1, largest))


@settings(max_examples=30, deadline=None)
@given(enumeration_cases())
def test_enumeration_matches_class_key_reference(case):
    # all structures are the empty theory's models, in the model lists'
    # order, and each size holds the classes the class-key reference finds
    # (a canonical key starts with the size)
    sig, max_size = case
    got = list(enumerate_structures(sig, max_size))
    assert [s.key() for s in got] == [s.key() for s in models_up_to_size_reference(sig, (), max_size)]
    assert {s.canonical_key() for s in got} == {
        s.canonical_key() for s in enumerate_structures_reference(sig, max_size)}


def test_permutation_tables_built_only_for_sizes_with_models(monkeypatch):
    # every model has one element, so no size from 2 to 9 may build the
    # lanes of its n! element permutations; every size starts unbuilt
    Orbits.of.cache_clear()
    theory = make_theory(SIG_LE, "hinductive: forall x y. true -> x = y;")
    real, lengths = itertools.permutations, []

    def counting(iterable, r=None):
        for p in real(iterable, r):
            lengths.append(len(p))
            yield p

    monkeypatch.setattr(itertools, "permutations", counting)
    found = models_up_to_size(SIG_LE, theory.implications(), 9)
    assert [m.rel("le") for m in found] == [frozenset(), frozenset({("a", "a")})]
    assert lengths and max(lengths) == 1


def test_enumeration_deterministic():
    first = [s.key() for s in enumerate_structures(SIG_LE, 2)]
    second = [s.key() for s in enumerate_structures(SIG_LE, 2)]
    assert first == second


def _directed_cycles(*lengths):
    edges, start = set(), 0
    for length in lengths:
        for i in range(length):
            edges.add((f"v{start + i}", f"v{start + (i + 1) % length}"))
        start += length
    return FiniteStructure(SIG_LE, tuple(f"v{i}" for i in range(start)), {"le": frozenset(edges)})


def test_class_key_separates_what_refinement_cannot():
    # every element of a union of directed cycles keeps one colour, so the
    # key rests on the least encoding alone
    c6, two_c3 = _directed_cycles(6), _directed_cycles(3, 3)
    assert class_key(c6) != class_key(two_c3)
    shuffled = c6.rename({f"v{i}": f"w{(5 * i + 2) % 6}" for i in range(6)})
    assert class_key(c6) == class_key(shuffled)
    assert c6.canonical_key() == shuffled.canonical_key() != two_c3.canonical_key()


# ---------------------------------------------------------------------------
# hypothesis: the class_key oracle against the brute-force least
# relabelling

KEY_SIGS = (  # (signature, largest size)
    (Signature.make(relations={"p": 1, "e": 2}), 5),
    (Signature.make(relations={"t": 3}), 5),
    (Signature.make(functions={"f": 1}, constants=["c"]), 3),
    (Signature.make(relations={"e": 2}, functions={"g": 2}), 3),
    (Signature.make(relations={"p": 1}, functions={"f": 1}, constants=["c", "d"]), 3),
)


def _relabel(rng: random.Random, s: FiniteStructure) -> FiniteStructure:
    """s renamed by a random bijection, its universe listed in the new
    names' order, so element positions move too."""
    names = [f"x{i}" for i in range(s.size())]
    rng.shuffle(names)
    r = s.rename(dict(zip(s.universe, names)))
    return FiniteStructure(r.signature, tuple(sorted(names)), r.relations, r.functions, r.constants)


def _perturb(rng: random.Random, s: FiniteStructure) -> FiniteStructure:
    """s with one relation tuple toggled, one function entry or one
    constant redrawn (possibly to its old value)."""
    sig, universe = s.signature, s.universe
    relations = {name: s.rel(name) for name, _ in sig.relations}
    functions = {name: dict(s.functions[name]) for name, _ in sig.functions}
    constants = dict(s.constants)
    symbol, arity = rng.choice(sig.relations + sig.functions + tuple((c, 0) for c in sig.constants))
    if symbol in relations:
        relations[symbol] = relations[symbol] ^ {tuple(rng.choice(universe) for _ in range(arity))}
    elif symbol in functions:
        functions[symbol][rng.choice(sorted(functions[symbol]))] = rng.choice(universe)
    else:
        constants[symbol] = rng.choice(universe)
    return FiniteStructure(sig, universe, relations, functions, constants)


@st.composite
def structure_pairs(draw):
    """A structure s and a relabelled copy t, perturbed half of the time.

    Half of the structures are circulant: a fact's truth depends only on
    the differences of its elements mod n (a function value is its first
    argument plus a function of those differences), so rotation is an
    automorphism and refinement leaves large cells.  Densities 0 and 1 and
    small sizes make symmetric structures common too."""
    sig, max_size = draw(st.sampled_from(KEY_SIGS))
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, max_size))
    universe = element_names(n)
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    if draw(st.booleans()):
        choices = {}

        def draw_for(symbol, args, domain):
            shape = (symbol,) + tuple((a - args[0]) % n for a in args[1:])
            if shape not in choices:
                choices[shape] = domain()
            return choices[shape]
    else:
        def draw_for(symbol, args, domain):
            return domain()
    indices = range(n)
    relations = {
        name: frozenset(
            tuple(universe[i] for i in t)
            for t in itertools.product(indices, repeat=arity)
            if draw_for(name, t, lambda: rng.random() < density)
        )
        for name, arity in sig.relations
    }
    functions = {
        name: {
            tuple(universe[i] for i in t):
                universe[(t[0] + draw_for(name, t, lambda: rng.randrange(n))) % n]
            for t in itertools.product(indices, repeat=arity)
        }
        for name, arity in sig.functions
    }
    constants = {c: rng.choice(universe) for c in sig.constants}
    s = FiniteStructure(sig, universe, relations, functions, constants)
    t = _perturb(rng, s) if draw(st.booleans()) else s
    return s, _relabel(rng, t), rng


@settings(max_examples=200, deadline=None)
@given(structure_pairs())
def test_class_key_relabelling_invariant(case):
    s, _, rng = case
    assert class_key(s) == class_key(_relabel(rng, s))


@settings(max_examples=300, deadline=None)
@given(structure_pairs())
def test_class_key_matches_canonical_key(case):
    s, t, _ = case
    assert (class_key(s) == class_key(t)) == (s.canonical_key() == t.canonical_key())


@settings(max_examples=300, deadline=None)
@given(structure_pairs())
def test_canonical_key_orders_as_reference(case):
    # the least image of a code must order every pair as the least
    # relabelling's sorted tuples did, so the model lists keep their order
    s, t, _ = case
    got = (s.canonical_key(), t.canonical_key())
    ref = (canonical_key_reference(s), canonical_key_reference(t))
    assert (got[0] < got[1], got[0] == got[1], got[1] < got[0]) == (
        ref[0] < ref[1], ref[0] == ref[1], ref[1] < ref[0])


@pytest.mark.parametrize("sig, n", [
    (Signature.make(relations={"p": 1, "e": 2}), 2),
    (Signature.make(relations={"p": 1}, functions={"f": 1, "g": 2}, constants=["c"]), 2),
])
def test_orbit_codes_round_trip_through_builder(sig, n):
    orbits = Orbits(sig, n)
    build = orbits.builder(element_names(n))
    assert [orbits.pack(build(orbits.values(c))) for c in range(orbits.count)] == list(range(orbits.count))


@settings(max_examples=100, deadline=None)
@given(enumeration_cases(), st.randoms(use_true_random=False))
def test_orbit_codes_compare_and_round_trip_as_their_values(case, rng):
    # `least` reads the least field of a lane sum; it must be the least
    # reading of the code's images, as the reference's pairwise comparison
    # of codes (which, over any set of codes, picks the least reading) finds
    sig, n = case
    orbits = Orbits(sig, n)
    codes = [rng.randrange(orbits.count) for _ in range(rng.randint(1, 8))]
    assert least_reference(orbits, codes) == min(read_code(orbits, c) for c in codes)
    for code in codes:
        images = orbit_images_reference(orbits, code)
        assert orbits.least(code) == min(read_code(orbits, c) for c in images)
    assert [orbits.code(orbits.values(c)) for c in codes] == codes


@st.composite
def orbit_cases(draw, relations_only=False):
    """A signature of relations of arity 1-3, unary and binary functions and
    constants (relations only if asked), a size of 1-5 at which no symbol
    has more than 75 cells, and a code."""
    relations = draw(st.lists(st.integers(1, 3), max_size=2))
    functions = [] if relations_only else draw(st.lists(st.integers(1, 2), max_size=2))
    sig = Signature.make(
        relations={f"r{i}": a for i, a in enumerate(relations)},
        functions={f"f{i}": a for i, a in enumerate(functions)},
        constants=[f"c{i}" for i in range(0 if relations_only else draw(st.integers(0, 2)))],
    )
    n = draw(st.integers(1, 5).filter(lambda n: n ** max(relations + functions, default=0) <= 75))
    orbits = Orbits.of(sig, n)
    return orbits, draw(st.integers(0, orbits.count - 1))


@settings(max_examples=200, deadline=None)
@given(orbit_cases())
def test_orbit_lanes_match_the_per_permutation_reference(case):
    # the lane sums give every image in permutation order, the least image
    # and (for relation-only codes, as the least image as an int) the first
    # in cell order, as one permutation at a time does; wide relations
    # exercise fields past 8 bytes; `orbit` gives both from one lane sum
    orbits, code = case
    images = orbit_images_reference(orbits, code)
    assert orbits.orbit(code)[0] == images
    assert orbits.least(code) == least_reference(orbits, images)
    assert orbits.orbit(code) == (images, least_reference(orbits, images))
    if orbits.digits == 0:
        assert min(orbits.orbit(code)[0]) == first_in_cell_order_reference(orbits, images)


@settings(max_examples=200, deadline=None)
@given(orbit_cases(relations_only=True), st.data())
def test_relation_only_codes_order_as_their_cell_values(case, data):
    # cell 0 is the most significant bit, so ints order as the finder's
    # search meets the cell values (cell 0 first, false before true)
    orbits, a = case
    b = data.draw(st.integers(0, orbits.count - 1))
    assert (a < b) == (orbits.values(a) < orbits.values(b))
    assert (a == b) == (orbits.values(a) == orbits.values(b))


def test_signature_arities_computed_once():
    sig = Signature.make(relations={"r": 2}, functions={"f": 1})
    assert sig.relation_arities is sig.relation_arities
    assert sig.function_arities is sig.function_arities
    assert sig.relation_arities == {"r": 2}
    other = Signature.make(relations={"r": 2}, functions={"f": 1})
    assert sig == other and hash(sig) == hash(other)


def test_structure_key_built_once_per_instance():
    sig = Signature.make(relations={"r": 2}, functions={"f": 1}, constants=["c"])
    parts = (("a", "b"), {"r": frozenset({("b", "a"), ("a", "a")})}, {"f": {("b",): "a", ("a",): "b"}},
             {"c": "b"})
    s, twin = FiniteStructure(sig, *parts), FiniteStructure(sig, *parts)
    # r's cells (a,a), (b,a) are cells 0 and 2 of four, cell 0 the most
    # significant bit; the digits f(a), f(b), c read 1, 0, 1
    expected = (("a", "b"), 0b1010 * 2 ** 3 + 0b101)
    assert s.key() == expected and s.key() is s.key()
    # equality and hashing see the same key whether or not it was built yet
    assert s == twin and twin == s and hash(s) == hash(twin) == hash(expected)
    other = FiniteStructure(sig, *parts[:3], {"c": "a"})
    assert s != other and other.key() is other.key()
