"""The randomized theorem harness: its generators and its `verify` bytes."""

from __future__ import annotations

import hashlib
import random

import pytest

from posmt.cli import main
from posmt.harness import (
    POSET_SIG, THEOREM_IDS, inflate, poset_theory, random_hom_wing, random_poset, verify_theorem,
)
from posmt.morphisms import is_homomorphism
from posmt.structures import FiniteStructure
from posmt.theories import Budget

# sha256 of the stdout of `verify --theorem T --seed 3 --instances 60 --N 6
# --json` and its exit code, one pair per theorem id.  Any change of the
# generators' draws, the instance loop or the report moves a digest.
VERIFY_DIGESTS = {
    "si-si-strong": ("a2d777653e240c1f0a921c08b06764cff4dbf4b7bf721d0cd8cc0b64cd3bc759", 0),
    "ii-hh-strong": ("65dd4acedd337203446a3a71ce183d898c4afe58c51b2293523c95e8d03abd04", 0),
    "ih-ih-strong": ("71d70d9bcc1786c4d4a3e4c9bba63d4553d72949a175c5202e89914fe0f1fd22", 0),
    "h-strong-pc": ("86cf59f0684fd6cef0adcfee91549d4865afccd5713228d8635abaaa9a32df75", 0),
    "inheritance": ("0187df2f73f38411a26d89f8eef16990173f708e2882cdeda93b15572eaf64aa", 0),
    "example-1": ("6a3d057ad93f7adda6b549d35934f049798891c2e217e835d0bfe13c9c84683a", 0),
    "example-2": ("ad1119c496b693ecabfa1f4fa8258df51d9ff8adbaf0e25ae532f5d0fd4fc821", 0),
    "example-3": ("9b78b52897a8f6f197c8e7475805bbb605f3b2bc79f8af263978544b1b9e77a8", 0),
    "example-4": ("29923175093579980110d3d5db50eac1c64251bfa58e097d0164b0cfe5a6c4f2", 0),
    "example-5": ("c2db6dee2038d54c1702948c0a6afc7a034193f4cec797436237ddeaec35aff6", 0),
    "example-6": ("6dad486ebd0e38aa980c21f7631f50ce4eb065d036f31dc0988ec70d69fdeee9", 0),
    "example-7": ("c522b26f3052d6a7bef1d0dfedf4fdb428181119422babf36dd04859e36a6e1f", 0),
}


def test_every_theorem_is_pinned():
    assert tuple(VERIFY_DIGESTS) == THEOREM_IDS


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_bytes_are_pinned(capsys, theorem):
    code = main(["verify", "--theorem", theorem, "--seed", "3", "--instances", "60", "--N", "6", "--json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == VERIFY_DIGESTS[theorem]


def test_random_poset_is_model():
    t = poset_theory()
    rng = random.Random(3)
    for _ in range(10):
        s = random_poset(rng, 4)
        from posmt.theories import is_model
        assert is_model(s, t)


def test_a_poset_always_has_a_hom_wing_into_a_poset():
    # a constant map is a homomorphism between posets, so the poset
    # theorems' draws never miss a wing, one-point targets included
    rng = random.Random(7)
    point = FiniteStructure(POSET_SIG, ("a",), {"le": frozenset({("a", "a")})})
    sizes = set()
    for _ in range(300):
        source = point if rng.random() < 0.3 else random_poset(rng, 4)
        target = random_poset(rng, 4)
        sizes.add(target.size())
        wing = random_hom_wing(rng, source, target)
        assert wing is not None and is_homomorphism(wing)
    assert sizes == {1, 2, 3, 4}


def test_inflate_is_immersion():
    rng = random.Random(5)
    s = random_poset(rng, 3)
    m = inflate(rng, s, extra=2)
    from posmt.morphisms import is_immersion
    assert m.source.key() == s.key()
    assert is_immersion(m)


def test_verify_theorem_small():
    report = verify_theorem("si-si-strong", seed=11, b=Budget(N=8), instances=4)
    assert report["instances"] == 4
    assert report["rate"] == 1.0
    assert report["red_flags"] == []


def test_verify_theorem_ids_known():
    with pytest.raises(ValueError):
        verify_theorem("no-such-theorem", seed=0, b=Budget(), instances=1)
    assert "ii-hh-strong" in THEOREM_IDS
