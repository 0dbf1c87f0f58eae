from __future__ import annotations

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt.amalgamation import random_structure
from posmt.errors import BudgetExceeded, SignatureError, StructureError
from posmt.finder import models_up_to_size
from posmt.structures import (
    FiniteStructure, Signature, are_isomorphic, disjoint_rename,
    element_names, enumerate_structures, generated_substructure,
    induced_substructure,
)
from posmt.theories import Budget, Theory, joint_consistency_bounded, models

from conftest import SIG_F, SIG_LE


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
    assert _counts_by_size(enumerate_structures(SIG_LE, 3)) == [2, 10, 104]
    assert _counts_by_size(enumerate_structures(SIG_F, 4)) == [1, 3, 7, 19]


def test_poset_counts_match_oeis(t_pos):
    # A000112: posets up to isomorphism
    assert _counts_by_size(models(t_pos, Budget(n=5))) == [1, 2, 5, 16, 63]


def test_enumeration_raw_counts():
    raw = list(enumerate_structures(SIG_LE, 2, up_to_iso=False))
    assert len(raw) == 2 + 16


def test_sizes_past_element_name_pool_rejected():
    # 12 default element names: size 13 must not silently repeat size 12
    sig = Signature.make(constants=["c"])
    with pytest.raises(StructureError):
        list(enumerate_structures(sig, 14, up_to_iso=False))
    with pytest.raises(StructureError):
        models_up_to_size(sig, (), 13)
    with pytest.raises(StructureError):
        joint_consistency_bounded([Theory.make(sig, [])], Budget(N=13))
    with pytest.raises(StructureError):
        random_structure(random.Random(0), sig, 13)


def test_enumeration_cap():
    with pytest.raises(BudgetExceeded):
        list(enumerate_structures(SIG_LE, 3, cap=5))


def test_canonical_key_iso_invariant(chain2):
    renamed = FiniteStructure(
        SIG_LE, ("x", "y"), {"le": frozenset({("y", "y"), ("y", "x"), ("x", "x")})}
    )
    assert chain2.canonical_key() == renamed.canonical_key()
    assert are_isomorphic(chain2, renamed)


def test_canonical_key_distinguishes(chain2, antichain2):
    assert chain2.canonical_key() != antichain2.canonical_key()
    assert not are_isomorphic(chain2, antichain2)


def test_induced_substructure(chain2):
    sub = induced_substructure(chain2, ("a",))
    assert sub.universe == ("a",)
    assert sub.rel("le") == frozenset({("a", "a")})


def test_induced_substructure_requires_closure(swap2):
    with pytest.raises(StructureError):
        induced_substructure(swap2, ("a",))


def test_generated_substructure_closes_under_functions(swap2):
    sub, inclusion = generated_substructure(swap2, ("a",))
    assert set(sub.universe) == {"a", "b"}
    assert inclusion == {"a": "a", "b": "b"}


def test_disjoint_rename(chain2):
    ra, rb = disjoint_rename(chain2, chain2)
    assert not (set(ra.universe) & set(rb.universe))
    assert are_isomorphic(ra, chain2) and are_isomorphic(rb, chain2)


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
    assert c6.class_key() != two_c3.class_key()
    shuffled = c6.rename({f"v{i}": f"w{(5 * i + 2) % 6}" for i in range(6)})
    assert c6.class_key() == shuffled.class_key()
    assert are_isomorphic(c6, shuffled) and not are_isomorphic(c6, two_c3)


# ---------------------------------------------------------------------------
# hypothesis: class_key against the brute-force least relabelling

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
    assert s.class_key() == _relabel(rng, s).class_key()


@settings(max_examples=300, deadline=None)
@given(structure_pairs())
def test_class_key_matches_canonical_key(case):
    s, t, _ = case
    assert (s.class_key() == t.class_key()) == (s.canonical_key() == t.canonical_key())


def test_signature_arities_computed_once():
    sig = Signature.make(relations={"r": 2}, functions={"f": 1})
    assert sig.relation_arities is sig.relation_arities
    assert sig.function_arities is sig.function_arities
    assert sig.relation_arities == {"r": 2}
    other = Signature.make(relations={"r": 2}, functions={"f": 1})
    assert sig == other and hash(sig) == hash(other)
