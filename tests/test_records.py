"""`posmt.records` against the stdlib `dataclasses` it stands in for.

Every record class in `src/posmt` is checked on a sample instance against
a dataclass twin with the same fields and flags: `repr`, `hash` (which
orders sets and dicts), `==`, and frozen-ness.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

from posmt.amalgamation import (
    AmalgamationProblem, AmalgamationSolution, BasisReport, parse_kinds,
)
from posmt.corpus import BoundedImplication, CQSentence
from posmt.errors import FormulaError, SignatureError
from posmt.formulas import (
    And, App, Const, EqAtom, Exists, Falsum, Forall, GAnd, GOr, HInductiveSentence,
    HUniversalSentence, Implication, Implies, Not, Or, PosEx, RelAtom, Truth, Var,
)
from posmt.morphisms import Morphism, MorphismKind
from posmt.parser import Token
from posmt.records import FrozenInstanceError, field, record, replace
from posmt.structures import FiniteStructure, Signature
from posmt.textio import RawProblem, Workspace
from posmt.theories import Budget, DiagramSet, Verdict

from conftest import POSET_AXIOMS, SIG_LE, make_theory

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "posmt"

# the record classes declared with eq=False (they define their own == and
# hash), or not frozen, and the one field left out of == and hash
OWN_EQ = {FiniteStructure, Morphism}
MUTABLE = {RawProblem, Workspace, Token}
NOT_COMPARED = {(Verdict, "certificate")}


def _samples():
    t_pos = make_theory(SIG_LE, POSET_AXIOMS, "T_pos")
    point = FiniteStructure(SIG_LE, ("a",), {"le": frozenset({("a", "a")})})
    chain2 = FiniteStructure(SIG_LE, ("a", "b"), {"le": frozenset({("a", "a"), ("a", "b"), ("b", "b")})})
    inc = Morphism(point, chain2, {"a": "a"})
    top = Morphism(point, chain2, {"a": "b"})
    x, y = Var("x"), Var("y")
    le = RelAtom("le", (x, y))
    body = PosEx(("y",), le)
    imp = Implication(("x",), PosEx((), Truth()), body)
    yes = Verdict("yes", Budget(n=2), {"models": 3}, ("note",))
    kinds = parse_kinds("iihh")
    return [
        SIG_LE, point, inc,
        x, Const("c"), App("f", (x, Const("c"))), le, EqAtom(x, y), Falsum(), Truth(),
        And((le, Truth())), Or((le, Falsum())), body, imp, HInductiveSentence((imp,)),
        HUniversalSentence(body), Not(le), Implies(le, Falsum()), Forall(("x",), le),
        Exists(("x",), le), GAnd((le,)), GOr((le,)),
        t_pos.sentences[0], t_pos, Budget(n=4, N=5), yes,
        DiagramSet("Tk", SIG_LE, (HInductiveSentence((imp,)),), 2),
        CQSentence((("rel", "le", (0, 1)),)),
        BoundedImplication((("rel", "le", (0, 1)),), None, (0, 1)),
        AmalgamationProblem(inc, top, kinds, t_pos, True),
        AmalgamationSolution(chain2, Morphism(chain2, chain2, {"a": "a", "b": "b"}),
                             Morphism(chain2, chain2, {"a": "a", "b": "b"}),
                             (MorphismKind.HOM, MorphismKind.EMBEDDING), (("a", "a", "b"),)),
        BasisReport(point, kinds, "T_pos", ({"outcome": "yes"},), yes),
        RawProblem("glue", "point", "inc", "top", "iihh", "T_pos", True, False, {"N": 6}),
        Workspace({"S": SIG_LE}, {"point": point}),
        Token("name", "le", 3, 7),
    ]


SAMPLES = _samples()


def _record_classes():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"posmt.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and "__record_fields__" in vars(value) \
                    and value.__module__ == module.__name__:
                yield value


def _twin(cls):
    """The stdlib dataclass that `cls` would have been."""
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(compare=(cls, name) not in NOT_COMPARED))
         for name in cls.__record_fields__],
        eq=cls not in OWN_EQ, frozen=cls not in MUTABLE,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def _values(x):
    return [getattr(x, name) for name in type(x).__record_fields__]


def test_every_record_class_has_a_sample():
    classes = set(_record_classes())
    assert len(classes) == 35
    assert classes == {type(x) for x in SAMPLES}


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_record_matches_its_dataclass_twin(x):
    cls = type(x)
    twin = _twin(cls)(*_values(x))
    assert repr(x) == repr(twin)
    # instances keep a __dict__, where cached properties and keys go too
    assert list(vars(x))[:len(cls.__record_fields__)] == list(cls.__record_fields__)
    copy = cls(*_values(x))
    if cls in MUTABLE:
        assert cls.__hash__ is None and x == copy
        with pytest.raises(TypeError):
            hash(x)
        return
    if cls not in OWN_EQ:
        compared = tuple(getattr(x, name) for name in cls.__record_fields__
                         if (cls, name) not in NOT_COMPARED)
        try:
            expected = hash(compared)
        except TypeError:  # a dict field: unhashable, as the dataclass is
            for value in (x, twin):
                with pytest.raises(TypeError):
                    hash(value)
        else:
            assert hash(x) == hash(twin) == expected
        assert x == copy and not x != copy
    for name in cls.__record_fields__ or ("anything",):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
    for name in cls.__record_fields__[:1]:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _values(x) == _values(copy)


@pytest.mark.parametrize("a, b", [
    (Var("x"), Const("x")), (Falsum(), Truth()), (And(()), Or(())),
    (GAnd(()), GOr(())), (Forall(("x",), Truth()), Exists(("x",), Truth())),
], ids=lambda x: type(x).__name__)
def test_records_of_two_classes_with_equal_fields_differ(a, b):
    assert _values(a) == _values(b)
    assert a.__eq__(b) is NotImplemented
    assert a != b and b != a
    assert len({a, b}) == 2


def test_certificate_is_left_out_of_eq_and_hash():
    b = Budget(n=2)
    bare, with_certificate = Verdict("yes", b), Verdict("yes", b, {"homs": 4})
    assert bare.certificate == {} and bare.certificate is not Verdict("yes", b).certificate
    assert bare == with_certificate and hash(bare) == hash(with_certificate)
    assert bare != Verdict("yes", b, {}, ("note",))


def test_eq_false_classes_keep_their_own_eq_and_hash():
    assert FiniteStructure.__eq__.__qualname__ == "FiniteStructure.__eq__"
    assert Morphism.__hash__.__qualname__ == "Morphism.__hash__"


def test_init_binds_keywords_defaults_and_factories_as_dataclasses_do():
    assert Budget(5, k=2) == Budget(n=5, N=6, k=2) and Budget().n == 3
    assert Signature(constants=("c",)) == Signature((), (), ("c",))
    assert Workspace().signatures == {} and Workspace().signatures is not Workspace().signatures
    with pytest.raises(TypeError):
        Var()
    for args, kwargs in [((1, 2, 3, 4, 5), {}), ((5,), {"n": 5}), ((), {"m": 1})]:
        with pytest.raises(TypeError):
            Budget(*args, **kwargs)


def test_post_init_runs_on_construction_and_replace():
    with pytest.raises(FormulaError):
        HInductiveSentence(())
    with pytest.raises(SignatureError):
        Signature(relations=(("r", 1), ("r", 2)))
    b = Budget(n=2, N=3)
    assert replace(b, n=3) == Budget(n=3, N=3) and b.n == 2
    with pytest.raises(ValueError):
        replace(b, k=0)
    with pytest.raises(TypeError):
        replace(b, m=1)


def test_record_decorator_forms():
    @record
    class Plain:
        a: int
        b: list = field(default_factory=list, compare=False)

    @record(frozen=True)
    class Empty:
        pass

    assert repr(Plain(1)) == "test_record_decorator_forms.<locals>.Plain(a=1, b=[])"
    assert Plain(1, [2]) == Plain(1) and Plain.__hash__ is None
    assert repr(Empty()) == "test_record_decorator_forms.<locals>.Empty()"
    assert hash(Empty()) == hash(()) and Empty() == Empty()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    repo = SRC.parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
    # -S: no site hooks, which may import either module before posmt runs
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, posmt.cli; "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out.strip() == "[]"
