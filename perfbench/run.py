"""posmt benchmark: answer a workload's fixed CLI questions, each in a
fresh `posmt` process, as one closed-loop client (one question at a time).

    python3 perfbench/run.py --workload iso-enum --seed 0 --seconds 25 --trace 0

With --trace 0 it measures end-to-end metrics: set-up (`posmt check` on the
workload's files, repeated), then whole passes over the questions for
--seconds (at least one pass), reporting medians over passes.  Times are
scaled to a reference machine speed read by yardstick.py around every
process (see README.md, "Noise and the speed yardstick").  With
--trace 1 it runs one untraced and one traced pass and reports per-layer
metrics from the traced one.  Every answer is checked against the recorded
reference (exit code and a digest of the --json stdout) and against
independent facts; a wrong, crashed or timed-out answer counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record (metadata, every question's wall time) goes to
.bench_out/results/; `python3 perfbench/report.py` prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List

import posmtbench as pb

SETUP_REPS = 9
QUESTION_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # the whole run must end well inside 180 s


class Run:
    def __init__(self, workload: str, seed: int, reference: Dict, read_speed: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.spec = pb.WORKLOADS[workload]
        self.reference = reference
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: List[Dict] = []
        self.read_speed = read_speed
        self.yardstick_s: List[float] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t0)

    def yardstick(self) -> float:
        """Current yardstick time; the reference time when speed is not read."""
        if not self.read_speed or self.remaining() < 1.0:
            return pb.YARDSTICK_REF_S
        self.yardstick_s.append(pb.yardstick())
        return self.yardstick_s[-1]

    def timed(self, items, run_one):
        """Run each item between two yardstick readings.  Returns the results,
        each with `scaled_s`: its wall time at the reference speed, taking the
        machine's speed as the mean of the readings on either side."""
        results = []
        before = self.yardstick()
        for item in items:
            res = run_one(item)
            after = self.yardstick()
            res["scaled_s"] = res["wall_s"] * pb.YARDSTICK_REF_S / ((before + after) / 2)
            results.append(res)
            before = after
        return results

    def ask(self, q: Dict, traced: bool = False, tag: str = "") -> Dict:
        """Run one question; returns its process result plus `error`."""
        self.attempted += 1
        argv = pb.question_argv(q, self.seed)
        if traced:
            tdir = pb.OUT / "trace" / self.workload
            tdir.mkdir(parents=True, exist_ok=True)
            trace_json = tdir / f"{q['id']}.json"
            trace_json.unlink(missing_ok=True)
            argv = [str(pb.HERE / "traced.py"), str(trace_json),
                    str(tdir / f"{q['id']}.spans")] + argv
        else:
            argv = pb.UNTRACED + argv
        timeout = min(QUESTION_TIMEOUT_S, self.remaining())
        if timeout <= 1.0:
            res = {"wall_s": 0.0, "rss_mb": 0.0, "exit": -1, "timed_out": True,
                   "stdout": b"", "stderr": "not started: run deadline reached"}
        else:
            res = pb.run_process(argv, timeout)
        res["error"] = pb.check_answer(q, self.seed, res, self.reference)
        if traced and res["error"] is None:
            with open(trace_json, "r", encoding="utf-8") as fh:
                res["trace"] = json.load(fh)
        if res["error"] is not None:
            self.failures.append({"question": q["id"], "pass": tag, "error": res["error"],
                                  "exit": res["exit"], "stderr": res["stderr"][-500:]})
        return res

    def one_pass(self, traced: bool = False, tag: str = "") -> Dict:
        questions = self.spec["questions"]
        results = self.timed(questions, lambda q: self.ask(q, traced, tag))
        raw = [r["wall_s"] for r in results]
        scaled = [r["scaled_s"] for r in results]
        return {
            "results": results,
            "wall_s": sum(scaled),
            "geomean_s": pb.geomean([max(w, 1e-6) for w in scaled]),
            "raw_wall_s": sum(raw),
            "raw_geomean_s": pb.geomean([max(w, 1e-6) for w in raw]),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "question_wall_s": {q["id"]: r["wall_s"] for q, r in zip(questions, results)},
        }

    def setup_times(self) -> Dict[str, List[float]]:
        argv = pb.UNTRACED + ["check"] + [str(pb.DATA / f) for f in self.spec["files"]]
        pb.run_process(argv, QUESTION_TIMEOUT_S)  # warm-up: writes bytecode caches

        def check(_):
            self.attempted += 1
            res = pb.run_process(argv, QUESTION_TIMEOUT_S)
            if res["exit"] != 0 or res["timed_out"]:
                self.failures.append({"question": "check", "pass": "setup",
                                      "error": f"exit code {res['exit']}",
                                      "exit": res["exit"], "stderr": res["stderr"][-500:]})
            return res

        results = self.timed(range(SETUP_REPS), check)
        return {"scaled": [r["scaled_s"] for r in results], "raw": [r["wall_s"] for r in results]}


def summarize(values: List[float]) -> Dict:
    return {"median": statistics.median(values), "quartiles": pb.quartiles(values),
            "samples": len(values)}


def measure(run: Run, seconds: int) -> Dict:
    setup = run.setup_times()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run.one_pass(tag=f"pass{len(passes)}"))
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / len(passes)
        if elapsed + mean_pass > seconds or run.remaining() < 2 * mean_pass:
            break
    stats = {
        "wall_s": summarize([p["wall_s"] for p in passes]),
        "geomean_s": summarize([p["geomean_s"] for p in passes]),
        "setup_s": summarize(setup["scaled"]),
        "peak_rss_mb": summarize([p["peak_rss_mb"] for p in passes]),
    }
    units = {"wall_s": "s", "geomean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "metrics": {k: {"value": v["median"], "unit": units[k]} for k, v in stats.items()},
        "stats": stats,
        "raw_stats": {
            "wall_s": summarize([p["raw_wall_s"] for p in passes]),
            "geomean_s": summarize([p["raw_geomean_s"] for p in passes]),
            "setup_s": summarize(setup["raw"]),
        },
        "yardstick_s": run.yardstick_s,
        "passes": [{"wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"],
                    "question_wall_s": p["question_wall_s"],
                    "question_exit": {q["id"]: r["exit"] for q, r in
                                      zip(run.spec["questions"], p["results"])}}
                   for p in passes],
    }


def trace(run: Run) -> Dict:
    plain = run.one_pass(tag="untraced")
    traced = run.one_pass(traced=True, tag="traced")
    traces = []
    for q, a, b in zip(run.spec["questions"], plain["results"], traced["results"]):
        if (a["exit"], a["stdout"]) != (b["exit"], b["stdout"]):
            run.failures.append({"question": q["id"], "pass": "traced",
                                 "error": "traced output differs from untraced",
                                 "exit": b["exit"], "stderr": b["stderr"][-500:]})
        if "trace" in b:
            traces.append(b["trace"])
    overhead = traced["wall_s"] / plain["wall_s"] - 1.0
    merged = pb.merge_traces(traces)
    values = pb.layer_metrics(merged, overhead)
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in pb.PER_LAYER},
        "untraced_question_wall_s": plain["question_wall_s"],
        "traced_question_wall_s": traced["question_wall_s"],
        "question_traces": {q["id"]: {k: b["trace"][k] for k in ("spans", "counters", "missing")}
                            for q, b in zip(run.spec["questions"], traced["results"]) if "trace" in b},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(pb.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        pb.require_checkout()
        reference = pb.load_reference()
    except (pb.BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, reference, read_speed=not args.trace)
    load_before = os.getloadavg()
    body = trace(run) if args.trace else measure(run, args.seconds)
    load_after = os.getloadavg()
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len({(f["question"], f["pass"]) for f in run.failures}),
        "metrics": body.pop("metrics"),
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=run.failures, run_s=time.perf_counter() - run.t0,
                  loadavg_before=load_before, loadavg_after=load_after,
                  failed_frac=result["failed"] / result["attempted"],
                  **pb.run_metadata(), **body)
    rdir = pb.OUT / "results"
    rdir.mkdir(parents=True, exist_ok=True)
    with open(rdir / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for f in run.failures:
        print(f"FAILED {f['question']} ({f['pass']}): {f['error']}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
