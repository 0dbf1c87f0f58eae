"""Print every end-to-end and per-layer metric of the benchmark by name,
with its unit, from the latest result records in .bench_out/results/.

    python3 perfbench/report.py                  # print the latest records
    python3 perfbench/report.py --run --seed 0   # run every workload, traced and not, then print

Also prints each record's metadata, sample counts and per-question wall
times, so one slow question is visible.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import posmtbench as pb


def show(record: dict) -> None:
    mode = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} · {mode} · seed {record['seed']} · "
          f"{'correct' if record['correct'] else 'INCORRECT'} "
          f"({record['failed']} failed of {record['attempted']} attempted, "
          f"failed_frac {record['failed_frac']:.4f})")
    print(f"   sha {record['git_sha'][:12]} · python {record['python']} · "
          f"{record['cpu_model']} · nproc {record['nproc']} · load "
          f"{record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    stats = record.get("stats", {})
    raw = record.get("raw_stats", {})
    for name, m in record["metrics"].items():
        extra = ""
        if name in stats:
            s = stats[name]
            extra = (f"  (median of {s['samples']}, quartiles "
                     f"{s['quartiles'][0]:.4g}..{s['quartiles'][2]:.4g}")
            extra += f"; unscaled {raw[name]['median']:.4g})" if name in raw else ")"
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']:<6}{extra}")
    if record["trace"]:
        times = {"untraced": record["untraced_question_wall_s"],
                 "traced": record["traced_question_wall_s"]}
    else:
        times = {f"pass {i}": p["question_wall_s"] for i, p in enumerate(record["passes"])}
    for label, per_q in times.items():
        cells = ", ".join(f"{q} {t:.2f}s" for q, t in per_q.items())
        print(f"   {label}: {cells}")
    for f in record["failures"]:
        print(f"   FAILED {f['question']} ({f['pass']}): {f['error']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--run", action="store_true", help="run every workload first")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    if args.run:
        for workload in pb.WORKLOADS:
            for trace in (0, 1):
                subprocess.run([sys.executable, str(pb.HERE / "run.py"), "--workload", workload,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(trace)], check=True, stdout=subprocess.DEVNULL)
    found = False
    for workload in pb.WORKLOADS:
        for trace in (0, 1):
            path = pb.OUT / "results" / f"{workload}.trace{trace}.json"
            if path.is_file():
                with open(path, "r", encoding="utf-8") as fh:
                    show(json.load(fh))
                found = True
    if not found:
        print("no result records yet; run perfbench/run.py or pass --run", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
