"""The randomized theorem harness: its generators and its `verify` bytes."""

from __future__ import annotations

import hashlib
import operator
import random

import pytest

from oracles import (
    disjoint_poset_extension_reference, inflate_reference, iso_copy_reference,
    random_hom_wing_reference, random_poset_reference, random_structure_reference,
)
from posmt import harness
from posmt.cli import main
from posmt.harness import (
    POSET_SIG, THEOREM_IDS, disjoint_poset_extension, inflate, iso_copy, poset_theory,
    random_hom_wing, random_poset, random_structure, verify_theorem,
)
from posmt.morphisms import Morphism, is_homomorphism
from posmt.structures import FiniteStructure, Orbits, Signature
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


MIXED_SIG = Signature.make(relations={"p": 1, "le": 2}, functions={"f": 1}, constants=["c"])

INTERNED = {
    "random_structure": random_structure, "random_poset": random_poset, "inflate": inflate,
    "disjoint_poset_extension": disjoint_poset_extension, "iso_copy": iso_copy,
    "random_hom_wing": random_hom_wing,
}
REFERENCE = {
    "random_structure": random_structure_reference, "random_poset": random_poset_reference,
    "inflate": inflate_reference, "disjoint_poset_extension": disjoint_poset_extension_reference,
    "iso_copy": iso_copy_reference, "random_hom_wing": random_hom_wing_reference,
}


def hom_wings(g, rng, a, wing):
    """Eight hom wings a -> wing, one after another: into a poset on up to 6
    points there are often more than 20 homomorphisms to choose from."""
    return tuple(g["random_hom_wing"](rng, a, wing) for _ in range(8))


# one draw per generator, its base (and wing) drawn by the same family of
# generators; each takes the generators and the signature of its random
# structures
DRAWS = {
    "random_structure": lambda g, rng, sig: g["random_structure"](rng, sig, 3),
    "random_poset": lambda g, rng, sig: g["random_poset"](rng, 4),
    "inflate": lambda g, rng, sig: g["inflate"](rng, g["random_structure"](rng, sig, 3), rng.randint(1, 2)),
    "disjoint_poset_extension": lambda g, rng, sig: g["disjoint_poset_extension"](rng, g["random_poset"](rng, 3), 2),
    "iso_copy": lambda g, rng, sig: g["iso_copy"](g["random_structure"](rng, sig, 3)),
    "random_hom_wing": lambda g, rng, sig: g["random_hom_wing"](
        rng, g["random_structure"](rng, sig, 3), g["random_structure"](rng, sig, 3)),
    "poset_hom_wings": lambda g, rng, sig: hom_wings(g, rng, g["random_poset"](rng, 3), g["random_poset"](rng, 6)),
}


def labelled(drawn):
    """A drawn structure or wing as labelled data: keys and the map."""
    if isinstance(drawn, tuple):
        return tuple(map(labelled, drawn))
    if isinstance(drawn, Morphism):
        return drawn.source.key(), drawn.target.key(), dict(drawn.map)
    return drawn if drawn is None else drawn.key()


@pytest.mark.parametrize("sig", [POSET_SIG, MIXED_SIG], ids=["poset-sig", "mixed-sig"])
@pytest.mark.parametrize("name", DRAWS)
def test_interned_draws_match_the_reference_generators(name, sig):
    # each generator reads the RNG call for call as the generator that
    # built every draw afresh, gives the same labelled structures and maps,
    # and gives the identical object when the same draw repeats
    draw, misses = DRAWS[name], 0
    for seed in range(60):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        drawn = draw(INTERNED, rng, sig)
        expected = draw(REFERENCE, reference_rng, sig)
        assert rng.getstate() == reference_rng.getstate()
        assert labelled(drawn) == labelled(expected)
        repeated = draw(INTERNED, random.Random(seed), sig)
        assert all(map(operator.is_, repeated, drawn)) if isinstance(drawn, tuple) else repeated is drawn
        misses += drawn is None
    assert misses < 60


def clear_harness_caches():
    for build in (harness._structure, harness._poset, harness._inflate, harness._disjoint_extension,
                  harness.iso_copy, harness._hom_wings):
        build.cache_clear()


def test_h_strong_pc_packs_each_labelled_structure_once(monkeypatch):
    # 200 instances draw 600 structures, the point and two random posets
    # each, and packed all 600 when each draw was built afresh; there are
    # 10 labelled posets up to 3 points among them, each built and packed
    # once.  The point is built at import and outlives the cache clear, so
    # it is keyed before counting; a drawn one-point poset is then built anew
    clear_harness_caches()
    harness._POINT.key()
    real, packed = Orbits.pack, []

    def pack(self, s):
        code = real(self, s)
        packed.append((s.universe, code))
        return code
    monkeypatch.setattr(Orbits, "pack", pack)
    verify_theorem("h-strong-pc", seed=0, b=Budget(N=8), instances=200)
    assert len(packed) == len(set(packed)) == 10
