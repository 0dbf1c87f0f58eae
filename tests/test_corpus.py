from __future__ import annotations

import itertools
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posmt import corpus
from posmt.errors import BudgetExceeded
from posmt.formulas import And
from posmt.parser import parse_formula
from posmt.structures import FiniteStructure, Signature, element_names
from posmt.textio import load_workspace
from posmt.theories import Budget, jc_characterization_report, kaiser_hull_bounded

from conftest import SIG_F, SIG_LE, T_APART, make_theory
from oracles import (
    corpus_evaluator_reference, cq_corpus_reference, implication_corpus_reference, pp_formula,
)

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
    # the hull's fragments and its printed rows share one integer table, and
    # the hull builds no implication records
    corpus.cq_corpus.cache_clear()
    corpus.implication_table.cache_clear()
    corpus.implication_corpus.cache_clear()
    kaiser_hull_bounded(t_pos, Budget(k=2))
    assert corpus.cq_corpus.cache_info().misses == 1
    assert corpus.implication_table.cache_info().misses == 1
    assert corpus.implication_corpus.cache_info().misses == 0


def _counting_ti_masks(monkeypatch):
    """The structures whose T_i* mask is computed from here on."""
    real = corpus.CorpusEvaluator.ti_mask
    evaluated = []

    def counting(ev):
        evaluated.append(ev.structure)
        return real(ev)

    monkeypatch.setattr(corpus.CorpusEvaluator, "ti_mask", counting)
    return evaluated


def test_report_lists_no_implication_corpus(monkeypatch):
    # with two bounded-pc models, p(a) and q(a), report compares T_i* masks
    # over the integer table: it builds no implication records and computes
    # each model's mask once
    evaluated = _counting_ti_masks(monkeypatch)
    corpus.implication_corpus.cache_clear()
    rep = jc_characterization_report(T_APART, Budget(N=4))
    assert not any(rep["conditions"].values())
    assert corpus.implication_corpus.cache_info().misses == 0
    assert evaluated and len(evaluated) == len(set(evaluated))


def test_report_with_one_pc_model_computes_no_ti_mask(t_pos, monkeypatch):
    # the one-point poset is the one bounded-pc poset: the hull is its T_i*,
    # which it attains, so conditions 4 and 5 hold with no mask and no table
    evaluated = _counting_ti_masks(monkeypatch)
    corpus.implication_table.cache_clear()
    rep = jc_characterization_report(t_pos, Budget(N=4))
    assert all(rep["conditions"].values())
    assert evaluated == [] and corpus.implication_table.cache_info().misses == 0


def test_implication_corpus_cap_advises_lowering_k():
    # the atom caps are constants, so lowering k is the only advice a caller can act on
    with pytest.raises(BudgetExceeded) as exc:
        corpus.implication_corpus(SIG_LE, 5)
    assert str(exc.value) == (
        f"implication corpus over {SIG_LE} at k=5 would exceed {corpus.CORPUS_CAP} candidates; lower k"
    )


def test_equal_entries_hash_equal():
    # an entry hashes by its value: a rebuilt equal entry hashes equal
    imps = corpus.implication_corpus(SIG_LE, 2)
    fragment = frozenset(imps)
    for b in imps:
        twin = corpus.BoundedImplication(
            tuple(list(b.premise)), None if b.conclusion is None else tuple(list(b.conclusion)), tuple(list(b.free))
        )
        assert twin is not b and twin == b and hash(twin) == hash(b)
        assert twin in fragment


# ---------------------------------------------------------------------------
# hypothesis: the printed hull rows against the tree printer

# the tree printer builds a tree per row, so k is lowered until the
# implication corpus has at most this many candidates
RENDER_LIMIT = 20_000


def _candidates(sig: Signature, k: int) -> int:
    atoms = len(corpus.atom_pool(sig, k).atoms)
    return (1 + atoms + comb(atoms, 2)) ** 2 * 2 ** k


@st.composite
def signatures_at_k(draw):
    sig, k = draw(signatures()), draw(st.integers(1, 2))
    if k > 1 and _candidates(sig, k) > RENDER_LIMIT:
        k = 1
    assume(_candidates(sig, k) <= RENDER_LIMIT)
    return sig, k


@settings(max_examples=30, deadline=None)
@given(signatures_at_k())
@example((Signature.make({"r0": 2}, {"f": 1, "g": 2}, ["c"]), 1))
@example((SIG_F, 2))
def test_hull_rows_print_as_their_trees(case):
    # a theory without models keeps every corpus entry in its hull and its
    # T_u(T), so every row of the integer table and every CQ is printed
    sig, k = case
    pool = corpus.atom_pool(sig, k)
    hull, tu = kaiser_hull_bounded(make_theory(sig, "hinductive: forall x. true -> false;"), Budget(n=1, k=k))
    assert hull == tuple(
        pp_formula(And((imp.to_implication(pool),))) for imp in corpus.implication_corpus(sig, k))
    assert tu == tuple(pp_formula(c.negation(pool)) for c in corpus.cq_corpus(sig, k))


# ---------------------------------------------------------------------------
# hypothesis: printed sentences parse back to their trees, also when a
# constant has the name a pool variable would otherwise get

# each hull row is parsed, so k is lowered until there are at most this many
PARSE_LIMIT = 2_000


@st.composite
def signatures_with_variable_named_constants(draw):
    constants = draw(st.lists(st.sampled_from(["v0", "v1", "v1_", "c"]), min_size=1, max_size=2, unique=True))
    functions = draw(st.sampled_from([{}, {"f": 1}]))
    sig = Signature.make({"r": draw(st.integers(1, 2))}, functions, constants)
    k = draw(st.integers(1, 2))
    if k > 1 and _candidates(sig, k) > PARSE_LIMIT:
        k = 1
    assume(_candidates(sig, k) <= PARSE_LIMIT)
    return sig, k


@settings(max_examples=15, deadline=None)
@given(signatures_with_variable_named_constants())
@example((Signature.make({"r": 1}, {}, ["v1"]), 2))
@example((Signature.make({"r": 1}, {"f": 1}, ["v0"]), 1))
def test_printed_sentences_parse_back_to_their_trees(case):
    sig, k = case
    pool = corpus.atom_pool(sig, k)
    for c in corpus.cq_corpus(sig, k):
        assert parse_formula(corpus.cq_text(pool, c.codes), sig) == c.negation(pool)
    entries = corpus.implication_corpus(sig, k)
    texts = corpus.hull_texts(sig, k, (1 << len(entries)) - 1)
    assert len(texts) == len(entries)
    for text, entry in zip(texts, entries):
        assert parse_formula(text, sig) == And((entry.to_implication(pool),)), text


# ---------------------------------------------------------------------------
# hypothesis: columnar evaluator against the row-wise reference

# the row-wise reference spends some microseconds per entry, so k is lowered
# until the implication corpus has at most this many candidates
EVALUATOR_LIMIT = 10_000


@st.composite
def structures_at_k(draw):
    relations = {f"r{i}": draw(st.integers(1, 3)) for i in range(draw(st.integers(1, 2)))}
    functions = {"f": 1} if draw(st.booleans()) else {}
    constants = ["c"] if draw(st.booleans()) else []
    sig = Signature.make(relations, functions, constants)
    universe = element_names(draw(st.integers(1, 4)))
    elems = st.sampled_from(universe)
    s = FiniteStructure(
        sig, universe,
        relations={
            name: draw(st.frozensets(st.sampled_from(list(itertools.product(universe, repeat=arity)))))
            for name, arity in sig.relations
        },
        functions={name: {(a,): draw(elems) for a in universe} for name, _ in sig.functions},
        constants={name: draw(elems) for name in sig.constants},
    )
    k = draw(st.integers(1, 3))
    while k > 1:
        atoms = len(corpus.atom_pool(sig, k).atoms)
        if (1 + atoms + comb(atoms, 2)) ** 2 * 2 ** k <= EVALUATOR_LIMIT:
            break
        k -= 1
    return s, k


@settings(max_examples=30, deadline=None)
@given(structures_at_k())
def test_evaluator_matches_rowwise_reference(case):
    s, k = case
    sig = s.signature
    ev, ref = corpus.evaluator(sig, k, s), corpus_evaluator_reference(sig, k, s)
    cqs, imps = corpus.cq_corpus(sig, k), corpus.implication_corpus(sig, k)
    cq_truth = [ref.cq_true(c) for c in cqs]
    impl_truth = [ref.impl_true(b) for b in imps]
    assert [ev.cq_true(c) for c in cqs] == cq_truth
    assert [ev.impl_true(b) for b in imps] == impl_truth
    mask = ev.ti_mask()
    assert [mask >> i & 1 == 1 for i in range(len(imps))] == impl_truth and mask >> len(imps) == 0
    assert corpus.diag_plus_star(s, k) == tuple(itertools.compress(cqs, cq_truth))
    assert corpus.tu_star(s, k) == tuple(c for c, t in zip(cqs, cq_truth) if not t)
    assert corpus.ti_star(s, k) == tuple(itertools.compress(imps, impl_truth))
