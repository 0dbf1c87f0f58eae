"""Record the reference answers the benchmark checks against: each
question's exit code and the SHA-256 of its --json stdout.

    python3 perfbench/record_reference.py --seeds 0-20

Seeded questions (`verify`) get one entry per seed; the others one entry.
Run it only at a commit whose answers are trusted; every recorded answer
must also pass the independent checks (OEIS A000112 poset counts, no red
flags), or nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import posmtbench as pb


def parse_seeds(spec: str):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-20", help="e.g. 0-20 or 0,7,20")
    args = ap.parse_args()
    pb.require_checkout()
    seeds = parse_seeds(args.seeds)
    answers = {}
    for workload, spec in pb.WORKLOADS.items():
        for q in spec["questions"]:
            for seed in (seeds if q["seeded"] else seeds[:1]):
                res = pb.run_process(pb.UNTRACED + pb.question_argv(q, seed), 300.0)
                error = pb.check_answer(q, seed, res, {})
                if error is not None:
                    print(f"{workload} {q['id']} seed {seed}: {error}\n{res['stderr']}", file=sys.stderr)
                    return 1
                answers[pb.reference_key(q, seed)] = {
                    "exit": res["exit"], "sha256": hashlib.sha256(res["stdout"]).hexdigest()}
                print(f"{workload} {pb.reference_key(q, seed)} exit {res['exit']} "
                      f"{res['wall_s']:.2f}s", flush=True)
    with open(pb.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commit": pb.run_metadata()["git_sha"], "seeds": seeds, "answers": answers},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
