#!/usr/bin/env python3
"""Sweep the amalgamation-theorem harness over every registered statement.

Each statement is exercised on randomly generated instances; a row reports
how many instances were witnessed by a verified apex and lists any red
flags (exhaustive misses below the bound, which would deserve a close look).

    python3 scripts/run_harness.py --instances 25 --seed 7 --N 8
"""

from __future__ import annotations

import argparse
import json

from posmt.harness import THEOREM_IDS, verify_theorem
from posmt.theories import Budget


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=25)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=3, help="max generated wing core size")
    ap.add_argument("--N", type=int, default=8, help="max apex size")
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--theorem", action="append", choices=THEOREM_IDS,
                    help="restrict to the named statement(s)")
    args = ap.parse_args()

    b = Budget(n=args.n, N=args.N)
    reports = []
    for theorem in args.theorem or THEOREM_IDS:
        rep = verify_theorem(theorem, seed=args.seed, b=b, instances=args.instances)
        reports.append(rep)
        if not args.json:
            flags = len(rep["red_flags"])
            print(f"{theorem:<16} witnessed {rep['witnessed']:>3}/{rep['instances']:<3} "
                  f"rate={rep['rate']:.2f}  red_flags={flags}")
    if args.json:
        print(json.dumps(reports, indent=2, default=str))
    return 0 if all(not r["red_flags"] for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
