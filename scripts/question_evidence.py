#!/usr/bin/env python3
"""Desk-scale evidence sweeps for the two open questions.

q1: does the two-part fiber count (r-1)*(mu-r) persist for gaps r >= 5?
q2: for a stable target, is the bottom of the fiber the parts-shifted
    candidate (add 2 to every part after the first, pad with ones)?

Both read fibers from dinv, whose cost follows the fiber sizes, so the
default sweep runs to n = 30 in a few seconds.

Usage:
  python3 scripts/question_evidence.py q1 [--max-n 30]
  python3 scripts/question_evidence.py q2 [--max-n 30]
"""

import argparse

from nilcomm.dinverse import explore_q1, explore_q2
from nilcomm.partitions import enumerate_partitions, is_stable


def run_q1(max_n: int) -> int:
    bad = 0
    for n in range(3, max_n + 1):
        for r in range(5, n):
            # fiber lives over (mu, mu - r) with total n = 2 mu - r
            if (n + r) % 2:
                continue
            mu = (n + r) // 2
            if mu - r < 1:
                continue
            rep = explore_q1(mu, r)
            verdict = "matches" if rep.matches else "DIFFERS"
            print(f"mu={mu:<3} r={r:<2} n={rep.n:<3} |fiber|={rep.size:<4} "
                  f"conjectured {rep.conjectured:<4} {verdict}")
            bad += not rep.matches
    print("all counts match" if not bad else f"{bad} deviations found")
    return 1 if bad else 0


def run_q2(max_n: int) -> int:
    bad = 0
    for n in range(1, max_n + 1):
        for mu in enumerate_partitions(n):
            if not is_stable(mu) or mu.t < 2:
                continue
            rep = explore_q2(mu)
            verdict = "holds" if rep.holds else "FAILS"
            print(f"mu={str(mu):<16} candidate={str(rep.conjectured):<20} "
                  f"min_rank={rep.min_rank:<3} {verdict}")
            bad += not rep.holds
    print("conjecture holds on the sweep" if not bad else f"{bad} failures")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("question", choices=["q1", "q2"])
    ap.add_argument("--max-n", type=int, default=30)
    args = ap.parse_args()
    if args.question == "q1":
        return run_q1(args.max_n)
    return run_q2(args.max_n)


if __name__ == "__main__":
    raise SystemExit(main())
