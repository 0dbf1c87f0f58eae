"""Shared pieces of the posmt benchmark: workloads, question processes,
correctness checks and the per-layer metrics computed from traces.

Every question is a real `posmt` CLI call with `--json`, run in a fresh
interpreter against the checkout's own `src/` tree, one at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
YARDSTICK = HERE / "yardstick.py"

# Reported times are scaled to a machine on which yardstick.py takes this
# long (see README.md, "Noise").
YARDSTICK_REF_S = 0.1

# Console-script equivalent of the `posmt` entry point (posmt.cli:main).
UNTRACED = ["-c", "import sys\nfrom posmt.cli import main\nsys.exit(main())"]

# Verify theorem ids of the amalgam workload: every id except example-1,
# which is the enumeration-heavy question of iso-enum.
AMALGAM_THEOREMS = (
    "si-si-strong", "ii-hh-strong", "ih-ih-strong", "h-strong-pc", "inheritance",
    "example-2", "example-3", "example-4", "example-5", "example-6", "example-7",
)


def _q(qid: str, argv: List[str], check: Optional[str] = None) -> Dict:
    return {"id": qid, "argv": argv, "seeded": "{seed}" in argv, "check": check}


def _verify(theorem: str, instances: int) -> Dict:
    return _q(f"verify-{theorem}",
              ["verify", "--theorem", theorem, "--instances", str(instances),
               "--N", "8", "--seed", "{seed}"], check="no_red_flags")


WORKLOADS: Dict[str, Dict] = {
    "iso-enum": {
        "files": ["posets.posmt", "unary.posmt"],
        "questions": [
            _q("models-T_pos-n5", ["models", "{data}/posets.posmt", "--theory", "T_pos", "--n", "5"],
               check="poset_counts"),
            _q("models-T_fix-n5", ["models", "{data}/unary.posmt", "--theory", "T_fix", "--n", "5"]),
            _verify("example-1", 25),
        ],
    },
    "theory-fragments": {
        "files": ["posets.posmt"],
        "questions": [
            _q("hull-T_pos-k2", ["hull", "{data}/posets.posmt", "--theory", "T_pos", "--k", "2"]),
            _q("report-T_pos-N4", ["report", "{data}/posets.posmt", "--theory", "T_pos", "--N", "4"]),
        ],
    },
    "amalgam": {
        "files": ["posets.posmt"],
        "questions": [_verify(t, 200) for t in AMALGAM_THEOREMS] + [
            _q("basis-point-hhhh", ["basis", "{data}/posets.posmt", "--structure", "point",
                                    "--kinds", "hhhh", "--theory", "T_pos"]),
            _q("basis-chain2-hhhh", ["basis", "{data}/posets.posmt", "--structure", "chain2",
                                     "--kinds", "hhhh", "--theory", "T_pos"]),
            _q("amalgamate-glue_chains", ["amalgamate", "{data}/posets.posmt",
                                          "--problem", "glue_chains"]),
        ],
    },
}

# Unlabelled posets on 1..5 points (OEIS A000112).
POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def require_checkout() -> None:
    if not (SRC / "posmt" / "cli.py").is_file():
        raise BenchError(f"no posmt sources at {SRC}; run from a checkout of the repository")
    for name in ("posets.posmt", "unary.posmt"):
        if not (DATA / name).is_file():
            raise BenchError(f"missing frozen input {DATA / name}")


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("POSMT_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    # Outputs do not depend on the hash seed; fixing it removes one source
    # of run-to-run timing noise (set iteration order).
    env["PYTHONHASHSEED"] = "0"
    return env


def question_argv(q: Dict, seed: int) -> List[str]:
    return [a.replace("{data}", str(DATA)).replace("{seed}", str(seed)) for a in q["argv"]] + ["--json"]


def reference_key(q: Dict, seed: int) -> str:
    return f"{q['id']}@{seed}" if q["seeded"] else q["id"]


def run_process(argv: List[str], timeout: float) -> Dict:
    """Run one process to completion, timing it and reading its max RSS.

    The child is reaped with os.wait4 so its own rusage is available; a
    timer kills it once `timeout` seconds have passed.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path, err_path = tmp / f"stdout.{os.getpid()}", tmp / f"stderr.{os.getpid()}"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    res = {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "timed_out": expired.is_set(),
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes()[-2000:].decode("utf-8", "replace"),
    }
    out_path.unlink()
    err_path.unlink()
    return res


def yardstick() -> float:
    """Seconds the fixed yardstick work takes in a fresh process right now."""
    res = run_process([str(YARDSTICK)], 60.0)
    if res["exit"] != 0:
        raise BenchError(f"yardstick failed: {res['stderr']}")
    return float(res["stdout"])


def load_reference() -> Dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)["answers"]


def check_answer(q: Dict, seed: int, res: Dict, reference: Dict) -> Optional[str]:
    """None when the answer is correct, else the reason it failed."""
    if res["timed_out"]:
        return "timed out"
    code = res["exit"]
    if code < 0 or code not in (0, 1, 4):
        return f"exit code {code}"
    try:
        report = json.loads(res["stdout"])
    except ValueError:
        return "stdout is not JSON"
    if report.get("schema") != "posmt-report/1":
        return "missing posmt-report/1 schema"
    ref = reference.get(reference_key(q, seed))
    if ref is not None:
        if code != ref["exit"]:
            return f"exit code {code}, reference {ref['exit']}"
        if hashlib.sha256(res["stdout"]).hexdigest() != ref["sha256"]:
            return "stdout differs from reference"
    elif code not in (0, 4):
        return f"exit code {code} for an unrecorded seed"
    if q["check"] == "poset_counts":
        sizes: Dict[int, int] = {}
        for m in report.get("models", []):
            n = len(m["structure"]["universe"])
            sizes[n] = sizes.get(n, 0) + 1
        if sizes != POSET_COUNTS or report.get("count") != 87:
            return f"poset class counts {sorted(sizes.items())} differ from OEIS A000112"
    if q["check"] == "no_red_flags" and report.get("red_flags") != []:
        return "verify reported red flags"
    return None


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_metadata() -> Dict:
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass.  Each traced question writes the
# per-name aggregates of its spans (see traced.py); a workload's numbers are
# sums over its questions, and ratios are taken of the summed parts.

PER_LAYER = [
    # (metric, unit, better)
    ("structures.canonical_key.calls", "count", "lower"),
    ("structures.canonical_key.s", "s", "lower"),
    ("structures.enumerate_structures.yielded", "count", "lower"),
    ("structures.enumerate_structures.self_s", "s", "lower"),
    ("finder.find_models.calls", "count", "lower"),
    ("finder.find_models.yielded", "count", "lower"),
    ("finder.find_models.self_s", "s", "lower"),
    ("finder.models_up_to_size.self_s", "s", "lower"),
    ("finder.models_up_to_size.kept_frac", "ratio", "higher"),
    ("theories.models.calls", "count", "lower"),
    ("theories.models.repeat_frac", "ratio", "lower"),
    ("theories.models.s", "s", "lower"),
    ("theories.kaiser_hull_set.calls", "count", "lower"),
    ("theories.is_pc_within.calls", "count", "lower"),
    ("theories.is_pc_within.self_s", "s", "lower"),
    ("theories.is_model.calls", "count", "lower"),
    ("theories.is_model.s", "s", "lower"),
    ("corpus.cq_corpus.s", "s", "lower"),
    ("corpus.implication_corpus.s", "s", "lower"),
    ("corpus.implication_corpus.misses", "count", "lower"),
    ("corpus.evaluator.calls", "count", "lower"),
    ("corpus.evaluator.hit_frac", "ratio", "higher"),
    ("corpus.CorpusEvaluator.build_s", "s", "lower"),
    ("corpus.impl_true.calls", "count", "lower"),
    ("corpus.impl_true.s", "s", "lower"),
    ("corpus.cq_true.s", "s", "lower"),
    ("morphisms.search_homs.calls", "count", "lower"),
    ("morphisms.search_homs.yielded", "count", "lower"),
    ("morphisms.search_homs.self_s", "s", "lower"),
    ("morphisms.retraction.calls", "count", "lower"),
    ("morphisms.retraction.self_s", "s", "lower"),
    ("morphisms.is_strong_immersion.calls", "count", "lower"),
    ("morphisms.is_strong_immersion.self_s", "s", "lower"),
    ("morphisms.classify_morphism.self_s", "s", "lower"),
    ("amalgamation.solve_amalgamation.calls", "count", "lower"),
    ("amalgamation.solve_amalgamation.s", "s", "lower"),
    ("amalgamation.solve_amalgamation.yes_frac", "ratio", "higher"),
    ("amalgamation.quotient.s", "s", "lower"),
    ("amalgamation.quotient.completions", "count", "lower"),
    ("amalgamation.quotient.hit_frac", "ratio", "higher"),
    ("amalgamation.enumeration.s", "s", "lower"),
    ("amalgamation.certify.s", "s", "lower"),
    ("textio.load_workspace.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.covered_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def merge_traces(traces: List[Dict]) -> Dict:
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for tr in traces:
        for name, agg in tr["spans"].items():
            into = spans.setdefault(name, {})
            for field, value in agg.items():
                into[field] = into.get(field, 0) + value
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: Dict, overhead_frac: float) -> Dict[str, float]:
    spans, counters = merged["spans"], merged["counters"]

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    values: Dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        if field in ("calls", "s", "self_s", "yielded"):
            values[metric] = get(name, field)
    values["corpus.CorpusEvaluator.build_s"] = get("corpus.CorpusEvaluator.build", "s")
    values["amalgamation.quotient.completions"] = get("amalgamation.quotient", "yielded")
    values["corpus.implication_corpus.misses"] = counters.get("corpus.implication_corpus.misses", 0)
    values["finder.models_up_to_size.kept_frac"] = _ratio(
        counters.get("finder.models_up_to_size.returned", 0),
        counters.get("finder.find_models.yielded_to.finder.models_up_to_size", 0))
    values["theories.models.repeat_frac"] = _ratio(
        counters.get("theories.models.repeats", 0), get("theories.models", "calls"))
    evaluator_calls = get("corpus.evaluator", "calls")
    values["corpus.evaluator.hit_frac"] = (
        1.0 - _ratio(get("corpus.CorpusEvaluator.build", "calls"), evaluator_calls)
        if evaluator_calls else 0.0)
    values["amalgamation.solve_amalgamation.yes_frac"] = _ratio(
        counters.get("amalgamation.solve_amalgamation.yes", 0),
        get("amalgamation.solve_amalgamation", "calls"))
    values["amalgamation.quotient.hit_frac"] = _ratio(
        counters.get("amalgamation._solve_quotient.hits", 0),
        get("amalgamation._solve_quotient", "calls"))
    values["trace.covered_frac"] = _ratio(
        get("cli.main", "s") - get("cli.main", "self_s"), get("cli.main", "s"))
    values["trace.overhead_frac"] = overhead_frac
    return values
