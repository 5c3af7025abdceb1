#!/usr/bin/env python3
"""Census of inverse images: for each stable image of each n, the fiber size,
plus which closed-form family would have produced it.

Usage: python3 scripts/fiber_census.py --max-n 14
"""

import argparse
from collections import Counter

from nilcomm.dinverse import dmap_all
from nilcomm.partitions import count_partitions, partition_rank


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12)
    args = ap.parse_args()

    for n in range(1, args.max_n + 1):
        fibers = dmap_all(n)
        sizes = Counter(len(v) for v in fibers.values())
        print(f"n={n}: {count_partitions(n)} partitions, {len(fibers)} stable images")
        for mu in sorted(fibers, reverse=True):
            fiber = fibers[mu]
            ranks = sorted(partition_rank(p) for p in fiber)
            tag = ""
            if mu.t == 1:
                tag = "  (full column family)"
            elif mu.t == 2:
                tag = f"  (two-part, gap {mu[0] - mu[1]})"
            print(f"  {str(mu):<18} |fiber| = {len(fiber):<3} ranks {ranks[0]}..{ranks[-1]}{tag}")
        print(f"  size histogram: {dict(sorted(sizes.items()))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
