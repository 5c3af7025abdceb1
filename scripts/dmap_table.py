#!/usr/bin/env python3
"""Print the full image table of the generic-type map for one n.

Usage: python3 scripts/dmap_table.py 12 [--json]
"""

import argparse
import json
import sys

from nilcomm.dinverse import dmap
from nilcomm.partitions import enumerate_partitions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("n", type=int)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("n must be positive")

    table = {lam: dmap(lam) for lam in enumerate_partitions(args.n)}
    if args.json:
        doc = {
            "n": args.n,
            "entries": [
                {"lambda": list(lam), "d": list(d)}
                for lam, d in table.items()
            ],
        }
        json.dump(doc, sys.stdout, indent=2)
        print()
        return 0

    width = max(len(str(lam)) for lam in table)
    for lam, d in table.items():
        mark = "*" if d == lam else " "
        print(f"{str(lam):<{width}} {mark} -> {d}")
    print(f"\n{len(table)} partitions (* = fixed point)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
