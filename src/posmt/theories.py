"""Bounded reasoning about finite h-inductive theories.

All notions here are explicitly bounded relaxations: every verdict records
its budget and a "yes" never claims the unbounded property.  Model search
delegates to the DFS finder, which lists each size once in a process
(`finder.models_of_size`), so verdicts that read the same models share one
listing.  The continuation verdicts, the pc check and the characterization
report read them a size at a time (`_sizes`) and stop at the size that
settles their answer.  Diagram fragments delegate to the bounded sentence
corpora.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import corpus
from .errors import FormulaError, SignatureError, StructureError
from .formulas import (
    TRUE_POSEX, And, App, Const, EqAtom, Falsum, Formula, Implication,
    Not, PosEx, RelAtom, as_implications, compile_formula, free_vars,
)
from .finder import find_models, models_by_size, models_up_to_size
from .morphisms import Morphism, MorphismKind, classify_morphism, search_homs
from .records import field, record
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
    # Diag | Diag+ | Diag+* | Tu | Ti | Tu* | Ti* | Tu(A|B) | Ti(A|B); the bounded
    # Kaiser hull and T_u(T) are printed strings (`kaiser_hull_bounded`)
    kind: str
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


def _sizes(t: Theory, b: Budget, top: int) -> Iterator[Tuple[FiniteStructure, ...]]:
    """The models of t on 1, 2, ..., top elements, in `models` order, one
    size at a time: a size is listed when it is first read."""
    return models_by_size(t.signature, t.implications(), top, b.node_cap)


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
        negs: List[Formula] = [Not(PosEx((), f)) for f in false_atoms]
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
        sents = tuple(And((imp.to_implication(pool),)) for imp in corpus.ti_star(a, b.k))
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
    Returns a refutation certificate or None (inconclusive).  Only
    implications without variables count: one with premise `true` asserts
    the ground atoms of its conclusion's conjunction, and one with a falsum
    conclusion (`exists x. false` too) over exactly one ground atom denies
    that atom."""
    uf = UnionFind(sig.constants)
    facts: List[Tuple[str, Tuple[str, ...]]] = []
    denials: List[Tuple] = []  # (atom, its constants)
    for imp in implications:
        if imp.vars or imp.premise.vars:
            continue
        asserted = imp.premise == TRUE_POSEX and not imp.conclusion.vars
        if not asserted and not isinstance(imp.conclusion.matrix, Falsum):
            continue
        atoms, parts = [], [imp.conclusion.matrix if asserted else imp.premise.matrix]
        while parts:
            part = parts.pop()
            if isinstance(part, And):
                parts.extend(part.parts)
            else:
                atoms.append(part)
        ground = [(atom, names) for atom in atoms if (names := _constants(atom)) is not None]
        if asserted:
            for atom, names in ground:
                if isinstance(atom, EqAtom):
                    uf.union(*names)
                else:
                    facts.append((atom.name, names))
        elif len(atoms) == 1 and ground:
            denials.append(ground[0])
    find = uf.find
    closed = {(name, tuple(map(find, names))) for name, names in facts}
    for atom, names in denials:
        if isinstance(atom, EqAtom):
            if find(names[0]) == find(names[1]):
                return {"clash": f"{names[0]} = {names[1]} is both asserted and forbidden"}
        elif (atom.name, tuple(map(find, names))) in closed:
            return {"clash": f"{atom.name}({', '.join(names)}) is both asserted and forbidden"}
    return None


def _constants(atom) -> Optional[Tuple[str, ...]]:
    """The constant names of an EqAtom's two sides or a RelAtom's arguments
    when all of them are constants, else None."""
    if isinstance(atom, EqAtom):
        terms = (atom.left, atom.right)
    elif isinstance(atom, RelAtom):
        terms = atom.args
    else:
        return None
    return tuple(t.name for t in terms) if all(isinstance(t, Const) for t in terms) else None


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
    must be an immersion.  Counterexamples carry the offending hom.  The
    models are read a size at a time, so a "no" lists no size past its
    counterexample's; a "yes" reads every size up to n."""
    if m.signature != t.signature:
        raise SignatureError(f"theory {t.name!r} is not over the structure's signature")
    if not is_model(m, t):
        raise StructureError("structure is not a model of the theory")
    checked_models = 0
    checked_homs = 0
    for other in itertools.chain.from_iterable(_sizes(t, b, b.n)):
        checked_models += 1
        for hmap in search_homs(m, other, node_cap=b.node_cap):
            checked_homs += 1
            # exact: a hom with a retraction is an embedding, so the
            # embedding test turns away only homs that have no retraction
            if classify_morphism(Morphism(m, other, hmap), MorphismKind.IMMERSION) < MorphismKind.IMMERSION:
                return no(b, {"target": other, "hom": hmap})
    return yes(b, {"models_checked": checked_models, "homs_checked": checked_homs})


def bounded_pc_models(t: Theory, b: Budget) -> List[FiniteStructure]:
    """Models of t (size <= n, up to iso) that are pc within the bound."""
    return [m for m in models(t, b) if is_pc_within(m, t, b).is_yes]


# ---------------------------------------------------------------------------
# Joint continuation / T-completeness


def _continuation_verdict(t: Theory, b: Budget, pairs: Sequence[Tuple]) -> Verdict:
    """yes iff every pair has a common continuation among the models of t of
    size <= N; no with the first pair, in order, that has none.  The models
    are listed a size at a time, as the pairs read them, so "yes" comes at
    the first size that serves every pair.  The first hom from a structure
    into each model is searched once, when a pair first asks for it."""
    candidates: List[FiniteStructure] = []
    sizes = _sizes(t, b, b.N)
    first: Dict[FiniteStructure, list] = {}  # per structure and model: a hom, None, or False if not searched

    def listed() -> Iterator[int]:  # the indices of the models, each size listed when first read
        i = 0
        while True:
            while i == len(candidates):
                ms = next(sizes, None)
                if ms is None:
                    return
                candidates.extend(ms)
            yield i
            i += 1

    def hom(s: FiniteStructure, row: list, i: int) -> Optional[Dict[str, str]]:
        if i >= len(row):
            row.extend([False] * (len(candidates) - len(row)))
        if row[i] is False:
            row[i] = next(search_homs(s, candidates[i], node_cap=b.node_cap), None)
        return row[i]

    for a, bst in pairs:
        ra, rb = (first.setdefault(s, []) for s in (a, bst))
        if not any(hom(a, ra, i) is not None and hom(bst, rb, i) is not None for i in listed()):
            return no(b, {"pair": (a, bst)}, notes=("no common continuation of size <= N",))
    return yes(b, {"pairs_checked": len(pairs)})


def is_jc_bounded(t: Theory, b: Budget) -> Verdict:
    """yes iff every pair of models of size <= n has a common continuation
    that is a model of t of size <= N."""
    return _continuation_verdict(t, b, list(itertools.combinations_with_replacement(models(t, b), 2)))


def is_T_complete_pair(t1: Theory, t2: Theory, t: Theory, b: Budget) -> Verdict:
    """yes iff every model of t1 and every model of t2 (sizes <= n) have a
    common continuation modelling t with size <= N."""
    if not (t1.signature == t2.signature == t.signature):
        raise SignatureError("T-completeness requires a shared signature")
    return _continuation_verdict(t, b, list(itertools.product(models(t1, b), models(t2, b))))


# ---------------------------------------------------------------------------
# Bounded theory fragments: sets of corpus entries, or for T_i* masks over
# the implication corpus (`corpus.CorpusEvaluator.ti_mask`)


def tu_star_set(a: FiniteStructure, k: int) -> FrozenSet:
    return frozenset(corpus.tu_star(a, k))


def _tu_of_models(t: Theory, ms: Sequence[FiniteStructure], b: Budget) -> FrozenSet:
    """Bounded T_u(T) over the listed models `ms` of t: CQ sentences refuted
    by every one of them.  Over the models of size <= n this
    overapproximates true h-universal consequence (documented)."""
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
    hull = _hull_of_pc_models(t, (_ti_mask(m, b.k) for m in bounded_pc_models(t, b)), b)
    return frozenset(corpus.compress(corpus.implication_corpus(t.signature, b.k), hull))


def _ti_mask(m: FiniteStructure, k: int) -> int:
    """T_i*(m) as a mask over `corpus.implication_corpus(m.signature, k)`."""
    return corpus.evaluator(m.signature, k, m).ti_mask()


def _hull_of_pc_models(t: Theory, masks: Iterable[int], b: Budget) -> int:
    """`kaiser_hull_set` over the T_i* masks (`_ti_mask`) of the listed
    bounded-pc models of t, as a mask over the implication corpus: all ones
    when there are none."""
    out = (1 << len(corpus.implication_table(t.signature, b.k)[2])) - 1
    for mask in masks:
        out &= mask
    return out


def kaiser_hull_bounded(t: Theory, b: Budget) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The bounded Kaiser hull T_k(T) (h-inductive sentences of size <= k
    true in every bounded-pc model), together with the bounded T_u(T),
    each sentence printed as the parser reads it (`corpus.hull_texts`,
    `corpus.cq_text`)."""
    pool = corpus.atom_pool(t.signature, b.k)
    hull_mask = _hull_of_pc_models(t, (_ti_mask(m, b.k) for m in bounded_pc_models(t, b)), b)
    tu_set = _tu_of_models(t, models(t, b), b)
    hull = corpus.hull_texts(t.signature, b.k, hull_mask)
    tu = tuple(corpus.cq_text(pool, c.codes) for c in corpus.cq_corpus(t.signature, b.k) if c in tu_set)
    return hull, tu


# ---------------------------------------------------------------------------
# JC characterization, extremality, companionship


def jc_characterization_report(t: Theory, b: Budget) -> Dict:
    """Evaluate the five bounded conditions of the JC characterization and
    report agreement with is_jc_bounded.  The conditions are equivalent in
    the unbounded theory; at finite bounds they may disagree, which the
    report records rather than hides.  The models of size <= N are read a
    size at a time, up to the first that decides condition 2."""
    ms_n = models(t, b)
    cqs = corpus.cq_corpus(t.signature, b.k)

    def realized_sets_meet(sizes: Iterable[Sequence[FiniteStructure]]) -> bool:
        """The sets of models realizing each CQ, over the models listed a
        size at a time, meet pairwise.  A model satisfying every CQ lies in
        each set, so reading stops there with True."""
        evs: List[corpus.CorpusEvaluator] = []
        for ms in sizes:
            new = [corpus.evaluator(t.signature, b.k, m) for m in ms]
            if any(all(map(ev.cq_true, cqs)) for ev in new):
                return True
            evs += new
        sat = [who for who in (frozenset(i for i, ev in enumerate(evs) if ev.cq_true(c)) for c in cqs) if who]
        return all(s1 & s2 for s1, s2 in itertools.combinations(sat, 2))

    # (1) prime disjunction over models of size <= n
    cond1 = realized_sets_meet([ms_n])
    # (2) pairwise consistency of positive extensions, at bound N
    cond2 = realized_sets_meet(_sizes(t, b, b.N))
    # (3) some model attains the bounded T_u(T)
    tu_t = _tu_of_models(t, ms_n, b)
    cond3 = any(tu_star_set(m, b.k) == tu_t for m in ms_n) if ms_n else True
    pcs = bounded_pc_models(t, b)
    if len(pcs) == 1:
        # (4) and (5) hold: the hull is the one bounded-pc model's T_i*,
        # which that model attains, and it has one T_u*
        cond4 = cond5 = True
    else:
        # (4) some model attains the bounded Kaiser hull
        ti = {m: _ti_mask(m, b.k) for m in pcs}  # each model's mask once
        hull = _hull_of_pc_models(t, ti.values(), b)
        cond4 = not ms_n or hull in ti.values() or any(
            _ti_mask(m, b.k) == hull for m in ms_n if m not in ti)
        # (5) bounded-pc models share T_u*
        cond5 = len({tu_star_set(m, b.k) for m in pcs}) <= 1
    jc = _continuation_verdict(t, b, list(itertools.combinations_with_replacement(ms_n, 2)))
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
    # theories with the same implications have the same models, so the same list
    pc2 = pc1 if t2.implications() == t1.implications() else {
        m.canonical_key(): m for m in bounded_pc_models(t2, b)}
    if set(pc1) == set(pc2):
        return yes(b, {"pc_models": len(pc1)})
    only1 = [pc1[key] for key in sorted(set(pc1) - set(pc2))]
    only2 = [pc2[key] for key in sorted(set(pc2) - set(pc1))]
    return no(b, {"only_first": only1, "only_second": only2})


def theory_from_diagram(ds: DiagramSet, name: str = "T") -> Theory:
    """Wrap a diagram fragment as a theory (for companionship instances)."""
    return Theory.make(ds.signature, list(ds.sentences), name)
