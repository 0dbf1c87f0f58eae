"""Answer one posmt CLI question with spans around the public entry points
of every module, recorded from outside the package.

    python3 perfbench/traced.py TRACE_JSON SPANS_FILE ARGV...

Prints exactly what `posmt ARGV...` prints and exits with its code.  Each
span holds a name, start, end and parent; spans stay in memory and are
written to SPANS_FILE when the question ends (four little-endian arrays:
int32 name ids, int32 parent indices, float64 starts, float64 ends, lengths
in TRACE_JSON).  TRACE_JSON also gets per-name aggregates: calls, inclusive
seconds `s` (outermost spans of the name), `self_s` (minus the time in
directly nested wrapped spans) and `yielded`, plus a few counters.

Generators are timed per resumption, because callers interleave them.
"""

from __future__ import annotations

import array
import collections
import functools
import json
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.ids: dict = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.nested = array.array("b")  # 1 when an open ancestor has the same name
        self.stack: list = []
        self.active: list = []  # open spans per name id
        self.calls: list = []
        self.yielded: list = []
        self.counters: collections.Counter = collections.Counter()

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
            self.calls.append(0)
            self.yielded.append(0)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.nested.append(1 if self.active[nid] else 0)
        self.active[nid] += 1
        self.stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.active[self.name[i]] -= 1

    def resumptions(self, nid: int, it):
        try:
            while True:
                i = self.open(nid)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                self.yielded[nid] += 1
                p = self.parent[i]
                if p >= 0:
                    self.counters[f"{self.names[nid]}.yielded_to.{self.names[self.name[p]]}"] += 1
                yield value
        finally:
            it.close()

    def wrap(self, name: str, fn, gen: bool = False, inside: str = None, hook=None):
        """Span-recording stand-in for fn.  With `inside`, spans are only
        recorded while a span of that name is open; `hook(args, kwargs,
        result)` runs after each plain call."""
        nid = self.name_id(name)
        guard = self.name_id(inside) if inside else None
        if gen:
            def wrapper(*args, **kwargs):
                if guard is not None and not self.active[guard]:
                    return fn(*args, **kwargs)
                self.calls[nid] += 1
                return self.resumptions(nid, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if guard is not None and not self.active[guard]:
                    return fn(*args, **kwargs)
                self.calls[nid] += 1
                i = self.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(i)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def aggregate(self) -> dict:
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            if not self.nested[i]:
                incl[nid] += dur[i]
            self_s[nid] += dur[i] - child[i]
        return {
            name: {"calls": self.calls[nid], "s": incl[nid], "self_s": self_s[nid],
                   "yielded": self.yielded[nid]}
            for nid, name in enumerate(self.names)
        }

    def write_spans(self, path: str) -> dict:
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                if sys.byteorder != "little":
                    arr = array.array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
        return {"count": len(self.name), "arrays": ["name:int32", "parent:int32",
                                                    "start:float64", "end:float64"]}


# Public entry points per module: (module, attribute, is generator).
TARGETS = [
    ("structures", "enumerate_structures", True),
    ("finder", "find_models", True),
    ("finder", "models_up_to_size", False),
    ("theories", "models", False),
    ("theories", "kaiser_hull_set", False),
    ("theories", "is_pc_within", False),
    ("theories", "is_model", False),
    ("corpus", "cq_corpus", False),
    ("corpus", "implication_corpus", False),
    ("corpus", "evaluator", False),
    ("morphisms", "search_homs", True),
    ("morphisms", "retraction", False),
    ("morphisms", "is_strong_immersion", False),
    ("morphisms", "classify_morphism", False),
    ("morphisms", "enumerate_homs", False),
    ("amalgamation", "solve_amalgamation", False),
    ("amalgamation", "_solve_quotient", False),
    ("textio", "load_workspace", False),
    ("cli", "main", False),
]

METHODS = [
    ("structures", "FiniteStructure", "canonical_key", "structures.canonical_key"),
    ("corpus", "CorpusEvaluator", "__init__", "corpus.CorpusEvaluator.build"),
    ("corpus", "CorpusEvaluator", "impl_true", "corpus.impl_true"),
    ("corpus", "CorpusEvaluator", "cq_true", "corpus.cq_true"),
]

# The amalgamation solver's phases, timed through the names the
# amalgamation module imports, while solve_amalgamation runs.
PHASES = {
    "find_models": "amalgamation.quotient",
    "enumerate_structures": "amalgamation.enumeration",
    "models": "amalgamation.enumeration",
    "enumerate_homs": "amalgamation.enumeration",
    "classify_morphism": "amalgamation.certify",
    "is_model": "amalgamation.certify",
}


def install(tr: Tracer):
    """Wrap every target in its module and in every loaded posmt module that
    imported it by name.  Returns the posmt modules and the targets that do
    not exist (their metrics read 0)."""
    import posmt.cli  # noqa: F401  (imports every layer)

    mods = {name[len("posmt."):]: m for name, m in sys.modules.items()
            if name.startswith("posmt.")}
    missing = []
    seen_models = set()

    def models_hook(args, kwargs, result):
        t, b = args[0], args[1] if len(args) > 1 else kwargs["b"]
        up_to_iso = args[2] if len(args) > 2 else kwargs.get("up_to_iso", True)
        key = (t, b.n, b.node_cap, up_to_iso)
        if key in seen_models:
            tr.counters["theories.models.repeats"] += 1
        seen_models.add(key)

    def count(counter, test):
        def hook(args, kwargs, result):
            if test(result):
                tr.counters[counter] += 1
        return hook

    hooks = {
        "models": models_hook,
        "models_up_to_size": lambda a, k, r: tr.counters.update(
            {"finder.models_up_to_size.returned": len(r)}),
        "solve_amalgamation": count("amalgamation.solve_amalgamation.yes",
                                    lambda r: not hasattr(r, "status")),
        "_solve_quotient": count("amalgamation._solve_quotient.hits", lambda r: r is not None),
    }
    for mod, attr, gen in TARGETS:
        orig = getattr(mods.get(mod), attr, None)
        if orig is None:
            missing.append(f"{mod}.{attr}")
            continue
        wrapped = tr.wrap(f"{mod}.{attr}", orig, gen=gen, hook=hooks.get(attr))
        for other_name, other in mods.items():
            if vars(other).get(attr) is not orig:
                continue
            binding = wrapped
            if other_name == "amalgamation" and attr in PHASES:
                binding = tr.wrap(PHASES[attr], wrapped, gen=gen,
                                  inside="amalgamation.solve_amalgamation")
            setattr(other, attr, binding)
    for mod, cls_name, attr, name in METHODS:
        cls = getattr(mods.get(mod), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, tr.wrap(name, vars(cls)[attr]))
    return mods, missing


def main(argv) -> int:
    trace_json, spans_file, cli_argv = argv[0], argv[1], argv[2:]
    tr = Tracer()
    mods, missing = install(tr)
    implication_corpus = getattr(mods["corpus"], "implication_corpus", None)
    cache_info = getattr(getattr(implication_corpus, "__wrapped__", None), "cache_info", None)
    code = 0
    try:
        code = mods["cli"].main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        if cache_info is not None:
            tr.counters["corpus.implication_corpus.misses"] = cache_info().misses
        record = {"argv": cli_argv, "exit": code, "missing": missing, "spans": tr.aggregate(),
                  "counters": dict(tr.counters), "names": tr.names,
                  "span_file": tr.write_spans(spans_file)}
        with open(trace_json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
