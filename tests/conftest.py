from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from posmt import finder
from posmt.parser import parse_sentences
from posmt.structures import FiniteStructure, Signature
from posmt.theories import Theory

SIG_LE = Signature.make(relations={"le": 2})
SIG_F = Signature.make(functions={"f": 1})

POSET_AXIOMS = """
hinductive: forall x. true -> le(x,x);
hinductive: forall x y z. le(x,y) & le(y,z) -> le(x,z);
hinductive: forall x y. le(x,y) & le(y,x) -> x = y;
"""


def make_theory(sig: Signature, text: str, name: str = "T") -> Theory:
    return Theory.make(sig, parse_sentences(text, sig), name)


# the models p(a) and q(a) meet in no model: jc says "no" at the first pair
# that has p true and q true apart, and they are its two bounded-pc models
T_APART = make_theory(Signature.make(relations={"p": 1, "q": 1}), "huniversal: ! exists x y. p(x) & q(y);", "T_apart")


def run_optimised(script: str, *args: str) -> subprocess.CompletedProcess:
    """`python -O -c script args` in a fresh process, with the package on its path."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", script, *args],
        cwd=repo, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.fixture(autouse=True)
def fresh_listings():
    """Every test lists its models and structures afresh: a size listed by
    an earlier test is not read from the process's listing caches."""
    finder.models_of_size.cache_clear()


@pytest.fixture(scope="session")
def t_pos() -> Theory:
    return make_theory(SIG_LE, POSET_AXIOMS, "T_pos")


@pytest.fixture(scope="session")
def point() -> FiniteStructure:
    return FiniteStructure(SIG_LE, ("a",), {"le": frozenset({("a", "a")})})


@pytest.fixture(scope="session")
def chain2() -> FiniteStructure:
    return FiniteStructure(
        SIG_LE, ("a", "b"), {"le": frozenset({("a", "a"), ("a", "b"), ("b", "b")})}
    )


@pytest.fixture(scope="session")
def antichain2() -> FiniteStructure:
    return FiniteStructure(
        SIG_LE, ("a", "b"), {"le": frozenset({("a", "a"), ("b", "b")})}
    )


@pytest.fixture(scope="session")
def loop() -> FiniteStructure:
    return FiniteStructure(SIG_F, ("a",), functions={"f": {("a",): "a"}})
