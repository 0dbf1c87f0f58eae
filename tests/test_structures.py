from __future__ import annotations

import random

import pytest

from posmt.amalgamation import random_structure
from posmt.errors import BudgetExceeded, SignatureError, StructureError
from posmt.finder import models_up_to_size
from posmt.structures import (
    FiniteStructure, Signature, are_isomorphic, disjoint_rename,
    enumerate_structures, generated_substructure, induced_substructure,
)
from posmt.theories import Budget, Theory, joint_consistency_bounded

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


def test_enumeration_counts_up_to_iso():
    # binary relations on 1 element: 2; on 2 elements: 10 iso classes
    assert len(list(enumerate_structures(SIG_LE, 1))) == 2
    assert len(list(enumerate_structures(SIG_LE, 2))) == 12
    # unary functions: 1 + 3 + 7 iso classes on sizes 1..3
    assert len(list(enumerate_structures(SIG_F, 3))) == 11


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
