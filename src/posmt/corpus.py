"""Bounded corpora of positive and h-inductive sentences.

A corpus is parameterized by a variable pool v0..v(k-1) (a name that a
constant has gets "_" appended, as `AtomPool` says) and an atom-count
cap per side; CQ size is measured in variables, and the atom cap keeps the
corpora finite at desk scale.  Each corpus lists the least member of each
orbit under variable permutations.  Sides and free sets are numbered in
corpus order, each permutation is a table of the numbers of the images,
and a candidate is kept when no permutation lowers its premise, none fixing
the premise lowers its conclusion and none fixing both lowers its free set:
a walk down a stabilizer chain that emits each corpus in order.

The implication corpus is kept as one integer table per (signature, k):
each entry's premise rank, conclusion rank (-1 for falsum) and free-set
rank.  The records of `implication_corpus` are built from it only when a
caller lists entries.  Entries are printed straight from atom codes, in
the concrete syntax the parser reads, with no formula tree: `hull_texts`
prints each (side, free set) of the table once and joins the two strings
of each row, and `cq_text` prints a CQ's h-universal negation.

Satisfaction is columnar: one int bitset per pool atom over the n^k total
assignments of the pool.  A CQ holds when the AND of its atoms' bitsets is
nonzero; an implication holds when its premise, projected onto the free
variables, lies inside its projected conclusion.  A structure's bounded
h-inductive fragment is one int over the table, bit i set when entry i
holds (`CorpusEvaluator.ti_mask`), so hulls are ANDs and comparisons are
int equality.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .formulas import (
    FALSE_POSEX, And, App, Atom, Const, EqAtom, Implication, Not, PosEx,
    RelAtom, Truth, Var,
)
from .errors import BudgetExceeded
from .records import record
from .structures import FiniteStructure, Signature

# Atom codes: ("rel", name, argcodes) | ("feq", name, argcodes, rescode)
#           | ("eq", code, code)   with arg code ("v", i) or ("c", name)
AtomCode = Tuple

DEFAULT_MAX_ATOMS_CQ = 3
DEFAULT_MAX_ATOMS_IMPL = 2
CORPUS_CAP = 2_000_000


class AtomPool:
    """All flat atoms over the variable pool of size k (plus constants)."""

    def __init__(self, sig: Signature, k: int):
        self.sig = sig
        self.k = k
        # variable i is named v<i>, with "_" appended while a constant has that name
        self.names: List[str] = []
        for i in range(k):
            name = f"v{i}"
            while name in sig.constants:
                name += "_"
            self.names.append(name)
        args: List[Tuple] = [("v", i) for i in range(k)]
        args += [("c", c) for c in sig.constants]
        atoms = [
            ("rel", name, tup) for name, arity in sig.relations for tup in itertools.product(args, repeat=arity)
        ]
        atoms += [
            ("feq", name, tup, res)
            for name, arity in sig.functions for tup in itertools.product(args, repeat=arity) for res in args
        ]
        pairs = itertools.combinations(args, 2)  # those with a variable, oriented as permute_atom does
        atoms += [("eq",) + tuple(sorted(p)) for p in pairs if "v" in (p[0][0], p[1][0])]
        self.atoms: Tuple[AtomCode, ...] = tuple(sorted(atoms))
        self.index: Dict[AtomCode, int] = {a: i for i, a in enumerate(self.atoms)}
        self.texts: Dict[AtomCode, str] = {a: self._atom_text(a) for a in self.atoms}

    @cached_property
    def asts(self) -> Dict[AtomCode, Atom]:
        """Each atom's tree, shared by every sentence built over the pool."""
        return {a: self.atom_ast(a) for a in self.atoms}

    # -- permutation action -----------------------------------------------

    def permute_atom(self, code: AtomCode, perm: Sequence[int]) -> AtomCode:
        def pa(arg):
            return ("v", perm[arg[1]]) if arg[0] == "v" else arg

        if code[0] == "eq":
            return ("eq",) + tuple(sorted((pa(code[1]), pa(code[2]))))
        return code[:2] + (tuple(pa(a) for a in code[2]),) + tuple(pa(a) for a in code[3:])

    def _term(self, arg) -> "Var | Const":
        return Var(self.names[arg[1]]) if arg[0] == "v" else Const(arg[1])

    def _arg_text(self, arg) -> str:
        return self.names[arg[1]] if arg[0] == "v" else arg[1]

    def _atom_text(self, code: AtomCode) -> str:
        """An atom as the parser reads it: `r(v0, c)`, `f(v0) = v1` or `v0 = c`."""
        if code[0] == "eq":
            return f"{self._arg_text(code[1])} = {self._arg_text(code[2])}"
        app = f"{code[1]}({', '.join(map(self._arg_text, code[2]))})"
        return app if code[0] == "rel" else f"{app} = {self._arg_text(code[3])}"

    def atom_ast(self, code: AtomCode) -> Atom:
        if code[0] == "rel":
            return RelAtom(code[1], tuple(self._term(a) for a in code[2]))
        if code[0] == "feq":
            return EqAtom(App(code[1], tuple(self._term(a) for a in code[2])), self._term(code[3]))
        return EqAtom(self._term(code[1]), self._term(code[2]))


def _args(code: AtomCode) -> Tuple:
    """The argument codes of an atom, a function atom's result last."""
    return code[1:] if code[0] == "eq" else code[2] + code[3:]


def _bound(pool: AtomPool, codes: Tuple[AtomCode, ...], free: Sequence[int]) -> List[str]:
    """The names of the variables of `codes` outside `free`, in order."""
    return [pool.names[i] for i in sorted({a[1] for c in codes for a in _args(c) if a[0] == "v"}.difference(free))]


def _side_text(pool: AtomPool, codes: Tuple[AtomCode, ...], free: Sequence[int] = ()) -> str:
    """The conjunction of `codes` closed existentially over its variables
    outside `free` (`_posex`), printed as the parser reads it:
    `exists v.. . atom & atom`, `atom` or `true`."""
    bound = _bound(pool, codes, free)
    matrix = " & ".join(map(pool.texts.__getitem__, codes)) or "true"
    return f"exists {' '.join(bound)}. {matrix}" if bound else matrix


def cq_text(pool: AtomPool, codes: Tuple[AtomCode, ...]) -> str:
    """The h-universal negation of the CQ over `codes`, as the parser reads
    it: `huniversal: ! side`."""
    return "huniversal: ! " + _side_text(pool, codes)


def _posex(pool: AtomPool, codes: Tuple[AtomCode, ...], free: Sequence[int] = ()) -> PosEx:
    """The conjunction of `codes` closed existentially over its variables
    outside `free`."""
    atoms = tuple(pool.asts[c] for c in codes)
    matrix = Truth() if not atoms else (atoms[0] if len(atoms) == 1 else And(atoms))
    return PosEx(tuple(_bound(pool, codes, free)), matrix)


@record(frozen=True)
class CQSentence:
    """Existential closure of a conjunction of pool atoms."""

    codes: Tuple[AtomCode, ...]

    def to_posex(self, pool: AtomPool) -> PosEx:
        return _posex(pool, self.codes)

    def negation(self, pool: AtomPool) -> Not:
        return Not(self.to_posex(pool))


@record(frozen=True)
class BoundedImplication:
    """forall F (exists rest premise -> exists rest conclusion).

    conclusion None encodes falsum, i.e. the h-universal negation of the
    premise (such entries carry no free variables)."""

    premise: Tuple[AtomCode, ...]
    conclusion: Optional[Tuple[AtomCode, ...]]
    free: Tuple[int, ...]

    def to_implication(self, pool: AtomPool) -> Implication:
        concl = FALSE_POSEX if self.conclusion is None else _posex(pool, self.conclusion, self.free)
        names = tuple(pool.names[i] for i in sorted(self.free))
        return Implication(names, _posex(pool, self.premise, self.free), concl)


def _subsets(n: int, most: int) -> List[Tuple[int, ...]]:
    """The subsets of range(n) with at most `most` members, by size."""
    return [c for r in range(most + 1) for c in itertools.combinations(range(n), r)]


def _image_ranks(sets: Sequence[Tuple[int, ...]], maps: Sequence[Sequence[int]]) -> List[List[int]]:
    """Per map (a list giving each member's image), the rank of each set's
    image, where `sets` are sorted tuples listed in rank order and closed
    under every map.  A set is keyed by its bits, the sum of 1 << member."""
    rank = {sum(1 << i for i in s): r for r, s in enumerate(sets)}
    images = [[1 << i for i in m] for m in maps]
    return [[rank[sum(map(bits.__getitem__, s))] for s in sets] for bits in images]


def _atom_maps(pool: AtomPool) -> List[List[int]]:
    """Per variable permutation, identity first: the pool index of each atom's image."""
    return [[pool.index[pool.permute_atom(c, p)] for c in pool.atoms] for p in itertools.permutations(range(pool.k))]


def _least(tables: Sequence[Sequence[int]]) -> Callable[[Tuple[int, ...]], List[Tuple[int, Tuple[int, ...]]]]:
    """A function from a group (a tuple of indices into `tables`) to the
    ranks that no member of the group lowers, each with its stabilizer in
    the group, in rank order.  Groups are met again, so answers are kept."""

    @lru_cache(maxsize=None)
    def least(group: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
        out = []
        for r in range(len(tables[0])):
            stab = []
            for g in group:
                image = tables[g][r]
                if image < r:
                    break
                if image == r:
                    stab.append(g)
            else:
                out.append((r, tuple(stab)))
        return out

    return least


@lru_cache(maxsize=64)
def cq_corpus(sig: Signature, k: int) -> Tuple[CQSentence, ...]:
    """All CQ sentences with <= k variables and <= DEFAULT_MAX_ATOMS_CQ
    atoms, one per renaming class, ordered by size and then by codes.
    Includes the empty conjunction only implicitly (it is trivially true
    everywhere) -- entries are nonempty."""
    pool = atom_pool(sig, k)
    sides = _subsets(len(pool.atoms), DEFAULT_MAX_ATOMS_CQ)  # in corpus order
    maps = _atom_maps(pool)
    least = _least(_image_ranks(sides, maps))(tuple(range(len(maps))))
    return tuple(CQSentence(tuple(pool.atoms[i] for i in sides[r])) for r, _ in least[1:])  # [0]: the empty side


@lru_cache(maxsize=64)
def implication_table(
    sig: Signature, k: int
) -> Tuple[List[Tuple[AtomCode, ...]], List[Tuple[int, ...]], Tuple[Tuple[int, int, int], ...]]:
    """The implication corpus by ranks: the side codes and the free sets in
    rank order, and per entry (premise rank, conclusion rank or -1 for
    falsum, free-set rank)."""
    pool = atom_pool(sig, k)
    sides = sorted(_subsets(len(pool.atoms), DEFAULT_MAX_ATOMS_IMPL))
    frees = sorted(_subsets(k, k))  # frees[0] == ()
    if len(sides) ** 2 * len(frees) > CORPUS_CAP:
        raise BudgetExceeded(
            f"implication corpus over {sig} at k={k} would exceed "
            f"{CORPUS_CAP} candidates; lower k"
        )
    perms = list(itertools.permutations(range(k)))
    least_side = _least(_image_ranks(sides, _atom_maps(pool)))
    least_free = _least(_image_ranks(frees, perms))
    rows: List[Tuple[int, int, int]] = []
    for p, fix_p in least_side(tuple(range(len(perms)))):
        for q, fix_pq in least_side(fix_p):
            if q != p:  # p == q: tautology
                rows.extend((p, q, f) for f, _ in least_free(fix_pq))
        if p:  # h-universal entries: premise -> falsum, necessarily with no free vars
            rows.append((p, -1, 0))
    return [tuple(pool.atoms[i] for i in s) for s in sides], frees, tuple(rows)


@lru_cache(maxsize=64)
def implication_corpus(sig: Signature, k: int) -> Tuple[BoundedImplication, ...]:
    """All bounded h-inductive sentences forall F (exists P -> exists Q) with
    <= k pool variables and <= DEFAULT_MAX_ATOMS_IMPL atoms per side, one
    per renaming class, ordered by premise, then conclusion (falsum last),
    then free set."""
    codes, frees, rows = implication_table(sig, k)
    return tuple(BoundedImplication(codes[p], codes[q] if q >= 0 else None, frees[f]) for p, q, f in rows)


def compress(entries: Sequence, mask: int) -> Tuple:
    """The entries whose bit is set in `mask` (bit i for entry i), in order."""
    return tuple(itertools.compress(entries, map("1".__eq__, reversed(bin(mask)))))


def hull_texts(sig: Signature, k: int, mask: int) -> Tuple[str, ...]:
    """The rows of `implication_table` whose bit is set in `mask`, in order,
    each printed as the parser reads it: `hinductive: forall F. (P) -> (Q)`,
    with `false` for a falsum conclusion.  Each (side, free set) is printed
    once and each row joins two of those strings."""
    pool = atom_pool(sig, k)
    codes, frees, rows = implication_table(sig, k)
    heads = [f"hinductive: forall {' '.join(pool.names[i] for i in f)}. (" if f else "hinductive: (" for f in frees]

    @lru_cache(maxsize=None)
    def side(r: int, f: int) -> str:
        return "false" if r < 0 else _side_text(pool, codes[r], frees[f])

    return tuple(f"{heads[f]}{side(p, f)}) -> ({side(q, f)})" for p, q, f in compress(rows, mask))


@lru_cache(maxsize=64)
def atom_pool(sig: Signature, k: int) -> AtomPool:
    return AtomPool(sig, k)


class CorpusEvaluator:
    """Satisfaction of corpus entries over one structure.

    Bit j of a bitset stands for the j-th total assignment of the pool in
    `itertools.product(universe, repeat=k)` order: variable i is digit i of
    j in base n, most significant first."""

    def __init__(self, pool: AtomPool, structure: FiniteStructure):
        self.pool = pool
        self.structure = structure
        n, k = structure.size(), pool.k
        self.full = full = (1 << n ** k) - 1
        self.strides = [n ** (k - 1 - i) for i in range(k)]
        # digit[i][a]: the assignments giving variable i the a-th element
        self.digit = []
        for s in self.strides:
            period = full // ((1 << n * s) - 1)  # one bit every n*s
            self.digit.append([period * (((1 << s) - 1) << (a * s)) for a in range(n)])
        elem = {e: a for a, e in enumerate(structure.universe)}
        rows = {name: [tuple(elem[e] for e in t) for t in structure.rel(name)] for name, _ in pool.sig.relations}
        for name, _ in pool.sig.functions:
            rows[name] = [tuple(elem[e] for e in args + (value,)) for args, value in structure.functions[name].items()]

        def column(arg) -> List[int]:
            """Per element, the assignments giving the argument that element."""
            if arg[0] == "v":
                return self.digit[arg[1]]
            c = elem[structure.const(arg[1])]
            return [full if a == c else 0 for a in range(n)]

        self.bits: Dict[AtomCode, int] = {}
        for code in pool.atoms:
            cols = [column(a) for a in _args(code)]
            bits = 0
            for row in rows[code[1]] if code[0] != "eq" else [(a, a) for a in range(n)]:
                x = full
                for col, a in zip(cols, row):
                    x &= col[a]
                bits |= x
            self.bits[code] = bits

    def _conj(self, codes: Tuple[AtomCode, ...]) -> int:
        """The assignments satisfying every atom of `codes`."""
        bits = self.full
        for c in codes:
            bits &= self.bits[c]
        return bits

    def _project(self, bits: int, free: Tuple[int, ...]) -> int:
        """`bits` projected onto the variables `free`: each other variable
        is quantified out and set to digit 0."""
        for i, s in enumerate(self.strides):
            if bits and i not in free:
                zero, out = self.digit[i][0], 0
                for a in range(len(self.digit[i])):
                    out |= (bits >> (a * s)) & zero
                bits = out
        return bits

    def cq_true(self, cq: CQSentence) -> bool:
        return self._conj(cq.codes) != 0

    def impl_true(self, imp: BoundedImplication) -> bool:
        p = self._project(self._conj(imp.premise), imp.free)
        if not p:
            return True
        if imp.conclusion is None:
            return False
        return not p & ~self._project(self._conj(imp.conclusion), imp.free)

    def ti_mask(self) -> int:
        """The entries of `implication_corpus` that hold, bit i for entry i."""
        codes, frees, rows = implication_table(self.pool.sig, self.pool.k)
        nf = len(frees)
        projected = []  # side r onto free set f at r * nf + f
        for c in codes:
            bits = self._conj(c)
            projected.extend(self._project(bits, free) for free in frees)
        holds = bytearray(b"0") * len(rows)
        for i, (p, q, f) in enumerate(rows):
            premise = projected[p * nf + f]
            if not premise or q >= 0 and not premise & ~projected[q * nf + f]:
                holds[i] = 49  # "1"
        return int(b"0" + holds[::-1], 2)


def evaluator(sig: Signature, k: int, structure: FiniteStructure) -> CorpusEvaluator:
    return CorpusEvaluator(atom_pool(sig, k), structure)


# -- corpus-relative theory fragments ---------------------------------------


def diag_plus_star(s: FiniteStructure, k: int) -> Tuple[CQSentence, ...]:
    """Positive sentences (over the base language) of CQ-size <= k true in s."""
    return tuple(filter(evaluator(s.signature, k, s).cq_true, cq_corpus(s.signature, k)))


def tu_star(s: FiniteStructure, k: int) -> Tuple[CQSentence, ...]:
    """The h-universal fragment, listed by the positive sentences REFUTED by
    s (their negations are the h-universal sentences true in s)."""
    return tuple(itertools.filterfalse(evaluator(s.signature, k, s).cq_true, cq_corpus(s.signature, k)))


def ti_star(s: FiniteStructure, k: int) -> Tuple[BoundedImplication, ...]:
    """Bounded h-inductive sentences (base language) true in s."""
    return compress(implication_corpus(s.signature, k), evaluator(s.signature, k, s).ti_mask())
