from __future__ import annotations

from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posmt import corpus
from posmt.errors import BudgetExceeded
from posmt.structures import Signature
from posmt.textio import load_workspace
from posmt.theories import Budget, kaiser_hull_bounded

from conftest import SIG_F, SIG_LE
from oracles import cq_corpus_reference, implication_corpus_reference

REPO = Path(__file__).resolve().parents[1]


def _workspace_signatures():
    sigs = []
    for path in sorted((REPO / "data").glob("*.posmt")) + sorted((REPO / "perfbench" / "data").glob("*.posmt")):
        ws = load_workspace([path.read_text(encoding="utf-8")])
        sigs.extend(ws.signatures.values())
    return sigs


def _shape(sig: Signature):
    return (
        tuple(a for _, a in sorted(sig.relations)),
        tuple(a for _, a in sorted(sig.functions)),
        len(sig.constants),
    )


def _renamed(entries, src: Signature, dst: Signature):
    """Corpus entries over `src` with each symbol replaced by the symbol of
    `dst` of the same kind and rank by name.  Such a renaming keeps the order
    of atom codes, so it maps the corpora of `src` onto those of `dst`."""
    names = dict(zip(sorted(n for n, _ in src.relations), sorted(n for n, _ in dst.relations)))
    names.update(zip(sorted(n for n, _ in src.functions), sorted(n for n, _ in dst.functions)))
    names.update(zip(sorted(src.constants), sorted(dst.constants)))

    def arg(a):
        return ("c", names[a[1]]) if a[0] == "c" else a

    def code(c):
        if c[0] == "eq":
            return ("eq", arg(c[1]), arg(c[2]))
        return (c[0], names[c[1]], tuple(arg(a) for a in c[2])) + tuple(arg(a) for a in c[3:])

    def codes(cs):
        return None if cs is None else tuple(code(c) for c in cs)

    return tuple(
        corpus.CQSentence(codes(e.codes)) if isinstance(e, corpus.CQSentence)
        else corpus.BoundedImplication(codes(e.premise), codes(e.conclusion), e.free)
        for e in entries
    )


# Signatures grouped by shape: the first of each group is checked against
# the reference (~3 s at k = 3), the others against its renamed corpora.
SHAPES = {}
for _sig in _workspace_signatures() + [SIG_LE, SIG_F]:
    SHAPES.setdefault(_shape(_sig), []).append(_sig)


@pytest.mark.parametrize("sigs", list(SHAPES.values()), ids=lambda sigs: str(_shape(sigs[0])))
def test_corpora_equal_reference(sigs):
    first = sigs[0]
    for k in (1, 2, 3):
        cqs, imps = corpus.cq_corpus(first, k), corpus.implication_corpus(first, k)
        assert cqs == cq_corpus_reference(first, k)
        assert imps == implication_corpus_reference(first, k)
        for sig in sigs[1:]:
            assert corpus.cq_corpus(sig, k) == _renamed(cqs, first, sig)
            assert corpus.implication_corpus(sig, k) == _renamed(imps, first, sig)


# ---------------------------------------------------------------------------
# hypothesis: orbit-walk corpora against the per-candidate canonicaliser

# the reference spends ~60 us per candidate at k = 3; larger corpora below
# the cap are left to the fixed signatures above
REFERENCE_LIMIT = 4_000


@st.composite
def signatures(draw):
    relations = {f"r{i}": draw(st.integers(1, 3)) for i in range(draw(st.integers(0, 2)))}
    # functions are drawn less often: they make the largest pools
    functions = {}
    if draw(st.integers(0, 3)) == 0:
        functions["f"] = 1
    if draw(st.integers(0, 3)) == 0:
        functions["g"] = 2
    constants = ["c"] if draw(st.booleans()) else []
    return Signature.make(relations, functions, constants)


@settings(max_examples=40, deadline=None)
@given(signatures(), st.integers(1, 3))
def test_corpora_match_reference_on_random_signatures(sig, k):
    atoms = len(corpus.atom_pool(sig, k).atoms)
    if sum(comb(atoms, r) for r in (1, 2, 3)) <= REFERENCE_LIMIT:
        assert corpus.cq_corpus(sig, k) == cq_corpus_reference(sig, k)
    subsets = 1 + atoms + comb(atoms, 2)
    candidates = subsets ** 2 * 2 ** k
    if candidates > corpus.CORPUS_CAP:
        with pytest.raises(BudgetExceeded):
            corpus.implication_corpus(sig, k)
        with pytest.raises(BudgetExceeded):
            implication_corpus_reference(sig, k)
    elif candidates <= REFERENCE_LIMIT:
        assert corpus.implication_corpus(sig, k) == implication_corpus_reference(sig, k)


def test_each_corpus_built_once_per_hull(t_pos):
    # the hull's fragments and the corpus listing share one cache entry
    corpus.cq_corpus.cache_clear()
    corpus.implication_corpus.cache_clear()
    kaiser_hull_bounded(t_pos, Budget(k=2))
    assert corpus.cq_corpus.cache_info().misses == 1
    assert corpus.implication_corpus.cache_info().misses == 1
