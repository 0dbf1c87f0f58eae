"""Fixed pure-Python work with posmt's profile, used to read the machine's
current speed: brute-force least relabellings of every digraph on three
points (frozensets, sorted tuples, dict inserts), then scattered reads over
150,000 small tuples.  Runs in a fresh process like a question and prints
the seconds the work took.

    python3 perfbench/yardstick.py
"""

import itertools
import time


def work() -> int:
    n = 3
    cells = list(itertools.product(range(n), repeat=2))
    classes = {}
    for mask in range(1 << len(cells)):
        rel = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        best = None
        for perm in itertools.permutations(range(n)):
            enc = (n, tuple(sorted((perm[a], perm[b]) for a, b in rel)))
            if best is None or enc < best:
                best = enc
        classes.setdefault(best, []).append({"rel": rel, "mask": mask})
    table = [tuple(range(i % 7, i % 7 + 5)) for i in range(150000)]
    acc = 0
    for i in range(0, len(table), 3):
        acc += table[(i * 7919) % len(table)][2]
    return len(classes) + acc


if __name__ == "__main__":
    t0 = time.perf_counter()
    work()
    print(time.perf_counter() - t0)
