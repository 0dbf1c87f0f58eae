"""Bounded reasoning about finite h-inductive theories.

All notions here are explicitly bounded relaxations: every verdict records
its budget and a "yes" never claims the unbounded property.  Model search
delegates to the DFS finder; diagram fragments delegate to the bounded
sentence corpora.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from . import corpus
from .errors import FormulaError, SignatureError, StructureError
from .formulas import (
    App, Const, EqAtom, Formula, HInductiveSentence, HUniversalSentence,
    Implication, PosEx, RelAtom, as_implications, compile_formula, free_vars,
)
from .finder import find_models, models_up_to_size
from .morphisms import Morphism, is_immersion, search_homs
from .records import field, record, replace
from .structures import FiniteStructure, Signature, UnionFind, disjoint_rename, element_names


@record(frozen=True)
class TaggedSentence:
    """A sentence of a theory tagged with the implications it encodes as,
    made once by `Theory.make`.  `check` evaluates the sentence itself, so
    `is_model` does not rest on the encoding."""
    sentence: Formula
    implications: Tuple[Implication, ...]

    @cached_property
    def check(self) -> Callable[[FiniteStructure, Dict[str, str]], bool]:
        return compile_formula(self.sentence)


def _joined(encodings: Iterable[Tuple[Implication, ...]]) -> Tuple[Implication, ...]:
    """Sentences' implications, one after the other: the one way a set of
    sentences reaches the model finder."""
    return tuple(itertools.chain.from_iterable(encodings))


@record(frozen=True)
class Theory:
    signature: Signature
    sentences: Tuple[TaggedSentence, ...]
    name: str = "T"

    @staticmethod
    def make(signature: Signature, sentences: Sequence[Formula], name: str = "T") -> "Theory":
        """The theory of `sentences`.  A sentence belongs in it iff it is
        closed and encodes as implications (`as_implications`)."""
        encoded = []
        for i, s in enumerate(sentences, 1):
            free = free_vars(s)
            if free:
                raise FormulaError(f"theory {name!r}: sentence {i} has a free variable {min(free)}")
            try:
                encoded.append(TaggedSentence(s, as_implications(s)))
            except FormulaError:
                raise FormulaError(f"theory {name!r}: sentence {i} is not h-inductive") from None
        return Theory(signature, tuple(encoded), name)

    def implications(self) -> Tuple[Implication, ...]:
        return _joined(ts.implications for ts in self.sentences)


@record(frozen=True)
class Budget:
    n: int = 3          # model-size bound
    N: int = 6          # continuation-size bound
    k: int = 3          # cq-size bound (variables)
    node_cap: int = 10 ** 6

    def __post_init__(self):
        if min(self.n, self.N, self.k, self.node_cap) <= 0:
            raise ValueError("budget fields must be positive")

    def as_dict(self) -> Dict[str, int]:
        return {"n": self.n, "N": self.N, "k": self.k, "node_cap": self.node_cap}


@record(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    budget: Budget
    certificate: Dict = field(default_factory=dict, compare=False)
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in ("yes", "no", "unknown"):
            raise ValueError(f"unknown verdict status {self.status!r}")

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"


def yes(b: Budget, certificate: Optional[Dict] = None, notes: Tuple[str, ...] = ()) -> Verdict:
    return Verdict("yes", b, certificate or {}, notes)


def no(b: Budget, certificate: Optional[Dict] = None, notes: Tuple[str, ...] = ()) -> Verdict:
    return Verdict("no", b, certificate or {}, notes)


def unknown(b: Budget, certificate: Optional[Dict] = None, notes: Tuple[str, ...] = ()) -> Verdict:
    return Verdict("unknown", b, certificate or {}, notes)


@record(frozen=True)
class DiagramSet:
    kind: str  # Diag | Diag+ | Diag+* | Tu | Ti | Tu* | Ti* | Tu(A|B) | Ti(A|B) | Tk | Tu(T)
    signature: Signature
    sentences: Tuple[Formula, ...]
    bound: Optional[int] = None

    def implications(self) -> Tuple[Implication, ...]:
        return _joined(map(as_implications, self.sentences))


# ---------------------------------------------------------------------------
# Models


def models(t: Theory, b: Budget) -> List[FiniteStructure]:
    """All models of t with universe size <= b.n, up to isomorphism,
    deterministic order."""
    return models_up_to_size(t.signature, t.implications(), b.n, node_cap=b.node_cap)


def is_model(s: FiniteStructure, t: Theory) -> bool:
    return all(ts.check(s, {}) for ts in t.sentences)


# ---------------------------------------------------------------------------
# Language expansion and diagrams


def constant_name_for(element: str) -> str:
    return f"c_{element}"


def expand_with_constants(
    a: FiniteStructure, elements: Optional[Sequence[str]] = None
) -> Tuple[Signature, FiniteStructure]:
    """L(A): adjoin one fresh constant per element of a (or per element of
    `elements`), re-interpreting a so each new constant names its element.
    Colliding names are suffixed with primes encoded as underscores."""
    base = a.signature
    elems = tuple(elements) if elements is not None else a.universe
    for e in elems:
        if e not in a.universe:
            raise StructureError(f"element {e!r} not in the universe")
    names = {}
    taken = {n for n, _ in base.relations} | {n for n, _ in base.functions} | set(base.constants)
    for e in elems:
        name = constant_name_for(e)
        while name in taken:
            name += "_"
        taken.add(name)
        names[e] = name
    sig2 = base.with_constants([names[e] for e in elems])
    consts = dict(a.constants)
    consts.update({names[e]: e for e in elems})
    a2 = FiniteStructure(sig2, a.universe, a.relations, a.functions, consts)
    return sig2, a2


def _atomic_sentences(a: FiniteStructure, expanded: FiniteStructure) -> Tuple[List[Formula], List[Formula]]:
    """Ground atomic L(A)-sentences (true, false) over the named elements."""
    name: Dict[str, str] = {}
    for c, e in expanded.constants.items():
        if c not in a.signature.constants:
            name[e] = c
    true_atoms: List[Formula] = []
    false_atoms: List[Formula] = []
    for rel, arity in a.signature.relations:
        table = a.rel(rel)
        for tup in itertools.product(a.universe, repeat=arity):
            atom = RelAtom(rel, tuple(Const(name[e]) for e in tup))
            (true_atoms if tup in table else false_atoms).append(atom)
    for f, arity in a.signature.functions:
        for args in itertools.product(a.universe, repeat=arity):
            val = a.func(f, args)
            lhs = App(f, tuple(Const(name[e]) for e in args))
            for e in a.universe:
                atom = EqAtom(lhs, Const(name[e]))
                (true_atoms if e == val else false_atoms).append(atom)
    for c in a.signature.constants:
        val = a.const(c)
        for e in a.universe:
            atom = EqAtom(Const(c), Const(name[e]))
            (true_atoms if e == val else false_atoms).append(atom)
    for e1, e2 in itertools.combinations(a.universe, 2):
        false_atoms.append(EqAtom(Const(name[e1]), Const(name[e2])))
    return true_atoms, false_atoms


def diagram(
    a: FiniteStructure, kind: str, b: Budget, subset: Optional[Sequence[str]] = None
) -> DiagramSet:
    """Diagram and bounded theory fragments of a finite structure.

    Diag / Diag+ are exact ground diagrams over L(A).  Diag+*, Tu*, Ti* are
    bounded fragments over the base language; Tu / Ti over L(A); the
    relative kinds Tu(A|B) / Ti(A|B) adjoin constants only for `subset`.
    """
    if kind in ("Diag", "Diag+"):
        sig2, a2 = expand_with_constants(a)
        true_atoms, false_atoms = _atomic_sentences(a, a2)
        if kind == "Diag+":
            return DiagramSet("Diag+", sig2, tuple(true_atoms))
        negs: List[Formula] = [HUniversalSentence(PosEx((), f)) for f in false_atoms]
        return DiagramSet("Diag", sig2, tuple(true_atoms) + tuple(negs))
    # the unstarred kinds are the starred fragments of an expansion
    if kind in ("Tu", "Ti"):
        a = expand_with_constants(a)[1]
    elif kind in ("Tu(A|B)", "Ti(A|B)"):
        if subset is None:
            raise ValueError("relative diagram kinds require a subset")
        a = expand_with_constants(a, elements=subset)[1]
    elif kind not in ("Diag+*", "Tu*", "Ti*"):
        raise ValueError(f"unknown diagram kind {kind!r}")
    pool = corpus.atom_pool(a.signature, b.k)
    if kind == "Diag+*":
        sents = tuple(c.to_posex(pool) for c in corpus.diag_plus_star(a, b.k))
    elif kind.startswith("Tu"):
        sents = tuple(c.negation(pool) for c in corpus.tu_star(a, b.k))
    else:
        sents = tuple(HInductiveSentence((imp.to_implication(pool),)) for imp in corpus.ti_star(a, b.k))
    return DiagramSet(kind, a.signature, sents, b.k)


# ---------------------------------------------------------------------------
# Joint consistency


def _merge_signatures(sigs: Sequence[Signature]) -> Signature:
    rels: Dict[str, int] = {}
    funcs: Dict[str, int] = {}
    consts: List[str] = []
    for sig in sigs:
        for name, ar in sig.relations:
            if rels.setdefault(name, ar) != ar:
                raise SignatureError(f"arity clash for relation {name}")
        for name, ar in sig.functions:
            if funcs.setdefault(name, ar) != ar:
                raise SignatureError(f"arity clash for function {name}")
        for c in sig.constants:
            if c not in consts:
                consts.append(c)
    return Signature.make(relations=rels, functions=funcs, constants=consts)


def _ground_refutation(sig: Signature, implications: Sequence[Implication]) -> Optional[Dict]:
    """Congruence closure over ground constant facts: detect an atomic clash
    between unconditional positive facts and ground h-universal constraints.
    Returns a refutation certificate or None (inconclusive)."""

    def ground_const(t) -> Optional[str]:
        return t.name if isinstance(t, Const) else None

    uf = UnionFind(sig.constants)
    find, union = uf.find, uf.union
    facts: Set[Tuple[str, Tuple[str, ...]]] = set()
    forbidden: List[Tuple] = []  # ("rel", name, consts) or ("eq", c1, c2)
    for imp in implications:
        trivial_premise = not imp.vars and not imp.premise.vars and _is_truth(imp.premise)
        if trivial_premise and not imp.conclusion.vars:
            for atom in _conj_atoms(imp.conclusion.matrix):
                if isinstance(atom, EqAtom):
                    c1, c2 = ground_const(atom.left), ground_const(atom.right)
                    if c1 and c2:
                        union(c1, c2)
                elif isinstance(atom, RelAtom):
                    cs = tuple(ground_const(t) for t in atom.args)
                    if all(cs):
                        facts.add((atom.name, cs))
        if _is_falsum_conclusion(imp) and not imp.vars and not imp.premise.vars:
            atoms = _conj_atoms(imp.premise.matrix)
            if len(atoms) == 1:
                atom = atoms[0]
                if isinstance(atom, EqAtom):
                    c1, c2 = ground_const(atom.left), ground_const(atom.right)
                    if c1 and c2:
                        forbidden.append(("eq", c1, c2))
                elif isinstance(atom, RelAtom):
                    cs = tuple(ground_const(t) for t in atom.args)
                    if all(cs):
                        forbidden.append(("rel", atom.name, cs))
    closed = {(name, tuple(find(c) for c in cs)) for name, cs in facts}
    for item in forbidden:
        if item[0] == "eq":
            if find(item[1]) == find(item[2]):
                return {"clash": f"{item[1]} = {item[2]} is both asserted and forbidden"}
        else:
            _, name, cs = item
            if (name, tuple(find(c) for c in cs)) in closed:
                args = ", ".join(cs)
                return {"clash": f"{name}({args}) is both asserted and forbidden"}
    return None


def _is_truth(p: PosEx) -> bool:
    from .formulas import Truth
    return isinstance(p.matrix, Truth) and not p.vars


def _is_falsum_conclusion(imp: Implication) -> bool:
    from .formulas import Falsum
    return isinstance(imp.conclusion.matrix, Falsum)


def _conj_atoms(matrix) -> List:
    from .formulas import And
    if isinstance(matrix, And):
        out = []
        for p in matrix.parts:
            out.extend(_conj_atoms(p))
        return out
    return [matrix]


def joint_consistency_bounded(sets: Sequence[Union[DiagramSet, Theory]], b: Budget) -> Verdict:
    """Search for a model of size <= N realizing the union of the given
    sentence sets (after constant-union of their signatures).  "no" is
    reported only when the exhaustive search completed and a ground atomic
    refutation confirms it; otherwise "unknown"."""
    sig = _merge_signatures([s.signature for s in sets])
    implications = _joined(s.implications() for s in sets)
    names = element_names(b.N)
    for size in range(1, b.N + 1):
        for m in find_models(sig, names[:size], implications, node_cap=b.node_cap):
            return yes(b, {"model": m})
    refutation = _ground_refutation(sig, implications)
    if refutation is not None:
        return no(b, refutation)
    return unknown(b, notes=("no model up to size N; no ground refutation found",))


def pair_diagrams(
    a: FiniteStructure, bst: FiniteStructure, kind: str, b: Budget
) -> Tuple[DiagramSet, DiagramSet]:
    """Diagrams of two structures with their naming constants kept apart
    (the L(A u B) convention: one fresh constant per element of each)."""
    ra, rb = disjoint_rename(a, bst)
    return diagram(ra, kind, b), diagram(rb, kind, b)


# ---------------------------------------------------------------------------
# pc models


def is_pc_within(m: FiniteStructure, t: Theory, b: Budget) -> Verdict:
    """Bounded pc check: every hom from m into a model of t of size <= n
    must be an immersion.  Counterexamples carry the offending hom."""
    if not is_model(m, t):
        raise StructureError("structure is not a model of the theory")
    return _pc_within(m, models(t, b), b)


def _pc_within(m: FiniteStructure, candidates: Sequence[FiniteStructure], b: Budget) -> Verdict:
    """`is_pc_within` over the listed models `candidates` of t."""
    checked_models = 0
    checked_homs = 0
    for other in candidates:
        checked_models += 1
        for hmap in search_homs(m, other, node_cap=b.node_cap):
            checked_homs += 1
            mor = Morphism(m, other, hmap)
            if not is_immersion(mor):
                return no(b, {"target": other, "hom": hmap})
    return yes(b, {"models_checked": checked_models, "homs_checked": checked_homs})


def bounded_pc_models(t: Theory, b: Budget) -> List[FiniteStructure]:
    """Models of t (size <= n, up to iso) that are pc within the bound."""
    return _pc_models(models(t, b), b)


def _pc_models(ms: Sequence[FiniteStructure], b: Budget) -> List[FiniteStructure]:
    """The members of `ms`, the listed models of a theory, that are pc
    within the bound: each one checked against the same list."""
    return [m for m in ms if _pc_within(m, ms, b).is_yes]


# ---------------------------------------------------------------------------
# Joint continuation / T-completeness


def _common_continuation(
    a: FiniteStructure, bst: FiniteStructure, candidates: Sequence[FiniteStructure], node_cap: int
) -> Optional[Tuple[FiniteStructure, Dict[str, str], Dict[str, str]]]:
    for d in candidates:
        fa = None
        for h in search_homs(a, d, node_cap=node_cap):
            fa = h
            break
        if fa is None:
            continue
        for h in search_homs(bst, d, node_cap=node_cap):
            return d, fa, h
    return None


def _continuation_verdict(
    b: Budget, pairs: Sequence[Tuple], candidates: Sequence[FiniteStructure]
) -> Verdict:
    """yes iff every pair has a common continuation among `candidates`, the
    models of t of size <= N; no with the first pair, in order, that has none."""
    for a, bst in pairs:
        if _common_continuation(a, bst, candidates, b.node_cap) is None:
            return no(b, {"pair": (a, bst)}, notes=("no common continuation of size <= N",))
    return yes(b, {"pairs_checked": len(pairs)})


def is_jc_bounded(t: Theory, b: Budget) -> Verdict:
    """yes iff every pair of models of size <= n has a common continuation
    that is a model of t of size <= N."""
    pairs = list(itertools.combinations_with_replacement(models(t, b), 2))
    return _continuation_verdict(b, pairs, models(t, replace(b, n=b.N)))


def is_T_complete_pair(t1: Theory, t2: Theory, t: Theory, b: Budget) -> Verdict:
    """yes iff every model of t1 and every model of t2 (sizes <= n) have a
    common continuation modelling t with size <= N."""
    if not (t1.signature == t2.signature == t.signature):
        raise SignatureError("T-completeness requires a shared signature")
    pairs = list(itertools.product(models(t1, b), models(t2, b)))
    return _continuation_verdict(b, pairs, models(t, replace(b, n=b.N)))


# ---------------------------------------------------------------------------
# Bounded theory fragments: sets of corpus entries, or for T_i* masks over
# the implication corpus (`corpus.CorpusEvaluator.ti_mask`)


def tu_star_set(a: FiniteStructure, k: int) -> FrozenSet:
    return frozenset(corpus.tu_star(a, k))


def ti_star_set(a: FiniteStructure, k: int) -> FrozenSet:
    return frozenset(corpus.ti_star(a, k))


def tu_of_theory_set(t: Theory, b: Budget) -> FrozenSet:
    """Bounded T_u(T): CQ sentences refuted by every model of size <= n.
    This overapproximates true h-universal consequence (documented)."""
    return _tu_of_models(t, models(t, b), b)


def _tu_of_models(t: Theory, ms: Sequence[FiniteStructure], b: Budget) -> FrozenSet:
    """`tu_of_theory_set` over the listed models `ms` of t."""
    out: Optional[FrozenSet] = None
    for m in ms:
        s = tu_star_set(m, b.k)
        out = s if out is None else (out & s)
        if not out:
            break
    if out is None:  # inconsistent at bound: all sentences are consequences
        return frozenset(corpus.cq_corpus(t.signature, b.k))
    return out


def kaiser_hull_set(t: Theory, b: Budget) -> FrozenSet:
    """Bounded Kaiser hull: corpus implications true in every bounded-pc
    model of t."""
    hull = _hull_of_pc_models(t, bounded_pc_models(t, b), b)
    return frozenset(corpus.compress(corpus.implication_corpus(t.signature, b.k), hull))


def _ti_mask(m: FiniteStructure, k: int) -> int:
    """T_i*(m) as a mask over `corpus.implication_corpus(m.signature, k)`."""
    return corpus.evaluator(m.signature, k, m).ti_mask()


def _hull_of_pc_models(t: Theory, pcs: Sequence[FiniteStructure], b: Budget,
                       ti: Callable[[FiniteStructure, int], int] = _ti_mask) -> int:
    """`kaiser_hull_set` over the listed bounded-pc models `pcs` of t, as a
    mask over the implication corpus: all ones when there are none."""
    out = (1 << len(corpus.implication_table(t.signature, b.k)[2])) - 1
    for m in pcs:
        out &= ti(m, b.k)
    return out


def kaiser_hull_bounded(t: Theory, b: Budget) -> Tuple[DiagramSet, DiagramSet]:
    """The bounded Kaiser hull T_k(T) (h-inductive sentences of size <= k
    true in every bounded-pc model), together with the bounded T_u(T)."""
    pool = corpus.atom_pool(t.signature, b.k)
    ms = models(t, b)
    hull_mask = _hull_of_pc_models(t, _pc_models(ms, b), b)
    tu_set = _tu_of_models(t, ms, b)
    hull = tuple(
        HInductiveSentence((imp.to_implication(pool),))
        for imp in corpus.compress(corpus.implication_corpus(t.signature, b.k), hull_mask)
    )
    tu = tuple(
        c.negation(pool) for c in corpus.cq_corpus(t.signature, b.k) if c in tu_set
    )
    return (
        DiagramSet("Tk", t.signature, hull, b.k),
        DiagramSet("Tu(T)", t.signature, tu, b.k),
    )


# ---------------------------------------------------------------------------
# JC characterization, extremality, companionship


def jc_characterization_report(t: Theory, b: Budget) -> Dict:
    """Evaluate the five bounded conditions of the JC characterization and
    report agreement with is_jc_bounded.  The conditions are equivalent in
    the unbounded theory; at finite bounds they may disagree, which the
    report records rather than hides."""
    ms_n = models(t, b)
    ms_big = models(t, replace(b, n=b.N))
    cqs = corpus.cq_corpus(t.signature, b.k)

    def realized(structures: Sequence[FiniteStructure]) -> Dict:
        evs = [corpus.evaluator(t.signature, b.k, m) for m in structures]
        sat: Dict = {}
        for c in cqs:
            who = frozenset(i for i, ev in enumerate(evs) if ev.cq_true(c))
            if who:
                sat[c] = who
        return sat

    # (1) prime disjunction over models of size <= n
    sat_n = realized(ms_n)
    cond1 = all(
        s1 & s2 for s1, s2 in itertools.combinations(sat_n.values(), 2)
    ) if len(sat_n) > 1 else True
    # (2) pairwise consistency of positive extensions, at bound N
    sat_big = realized(ms_big)
    cond2 = all(
        s1 & s2 for s1, s2 in itertools.combinations(sat_big.values(), 2)
    ) if len(sat_big) > 1 else True
    # (3) some model attains the bounded T_u(T)
    tu_t = _tu_of_models(t, ms_n, b)
    cond3 = any(tu_star_set(m, b.k) == tu_t for m in ms_n) if ms_n else True
    # (4) some model attains the bounded Kaiser hull
    pcs = _pc_models(ms_n, b)
    ti = lru_cache(maxsize=None)(_ti_mask)  # each model's mask once
    hull = _hull_of_pc_models(t, pcs, b, ti)
    cond4 = any(ti(m, b.k) == hull for m in ms_n) if ms_n else True
    # (5) bounded-pc models share T_u*
    tu_sets = {tu_star_set(m, b.k) for m in pcs}
    cond5 = len(tu_sets) <= 1
    jc = _continuation_verdict(b, list(itertools.combinations_with_replacement(ms_n, 2)), ms_big)
    conditions = {"cond1": cond1, "cond2": cond2, "cond3": cond3, "cond4": cond4, "cond5": cond5}
    return {
        "conditions": conditions,
        "is_jc": jc.status,
        "agreement": {name: (value == jc.is_yes) for name, value in conditions.items()},
        "budget": b.as_dict(),
    }


def companion_check_bounded(t1: Theory, t2: Theory, b: Budget) -> Verdict:
    """yes iff t1 and t2 have the same bounded-pc models (up to iso)."""
    if t1.signature != t2.signature:
        raise SignatureError("companionship requires a shared signature")
    pc1 = {m.canonical_key(): m for m in bounded_pc_models(t1, b)}
    pc2 = {m.canonical_key(): m for m in bounded_pc_models(t2, b)}
    if set(pc1) == set(pc2):
        return yes(b, {"pc_models": len(pc1)})
    only1 = [pc1[key] for key in sorted(set(pc1) - set(pc2))]
    only2 = [pc2[key] for key in sorted(set(pc2) - set(pc1))]
    return no(b, {"only_first": only1, "only_second": only2})


def theory_from_diagram(ds: DiagramSet, name: str = "T") -> Theory:
    """Wrap a diagram fragment as a theory (for companionship instances)."""
    return Theory.make(ds.signature, list(ds.sentences), name)
