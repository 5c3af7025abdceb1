"""Reference answers for the benchmark, computed without the library.

D is computed by the recursion conjectured by Oblak: with u the maximal
window value of lam and a window lam_i..lam_(i+r) attaining it,
D(lam) = (u) joined with D(lam'), where lam' lowers every part before the
window by 2, drops the window, and keeps the parts after it.  Fibers,
dominance, covers and stability are re-derived here too, so a defect in
the library cannot also hide in the reference it is checked against.
`Reference.check_against` compares the recursion with the library's own
invariants at set-up.
"""

from __future__ import annotations

from functools import lru_cache


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as nonincreasing tuples, (n) first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if max_part is None else max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def index_window(lam: tuple) -> tuple[int, int, int]:
    """(u, i, j): the largest 2i + lam_i + ... + lam_(j-1) over windows with
    lam_i - lam_(j-1) <= 1 and, for i > 0, lam_(i-1) >= 2; the first window
    that attains it."""
    best = (0, 0, 0)
    for i in range(len(lam)):
        if i and lam[i - 1] < 2:
            continue
        acc = 2 * i
        for j in range(i, len(lam)):
            if lam[i] - lam[j] > 1:
                break
            acc += lam[j]
            if acc > best[0]:
                best = (acc, i, j + 1)
    return best


@lru_cache(maxsize=None)
def dmap(lam: tuple) -> tuple:
    """Generic commuting Jordan type of lam, by the recursion."""
    if not lam:
        return ()
    u, i, j = index_window(lam)
    rest = [p - 2 for p in lam[:i]] + list(lam[j:])
    rest = tuple(sorted((p for p in rest if p > 0), reverse=True))
    return tuple(sorted((u,) + dmap(rest), reverse=True))


def cover(lam: tuple) -> int:
    """Fewest groups of consecutive parts, each with max - min <= 1."""
    groups, head = 1, lam[0]
    for p in lam[1:]:
        if p < head - 1:
            groups, head = groups + 1, p
    return groups


def is_stable(lam: tuple) -> bool:
    return all(a - b >= 2 for a, b in zip(lam, lam[1:]))


def dominated(p: tuple, q: tuple) -> bool:
    """p <= q in dominance order (equal totals assumed)."""
    a = b = 0
    for k in range(max(len(p), len(q))):
        a += p[k] if k < len(p) else 0
        b += q[k] if k < len(q) else 0
        if a > b:
            return False
    return True


def is_partition_of(p, n: int) -> bool:
    return (isinstance(p, tuple) and len(p) > 0 and sum(p) == n
            and all(isinstance(x, int) and x >= 1 for x in p)
            and all(a >= b for a, b in zip(p, p[1:])))


class Reference:
    """D on every partition of every n in `sizes`, with its fibers."""

    def __init__(self, sizes):
        self.parts = {n: tuple(partitions(n)) for n in sorted(set(sizes))}
        self.stable = {n: [p for p in lams if is_stable(p)]
                       for n, lams in self.parts.items()}
        self.fibers: dict[tuple, set] = {}
        for lams in self.parts.values():
            for lam in lams:
                self.fibers.setdefault(dmap(lam), set()).add(lam)

    def fiber(self, mu: tuple) -> set:
        return self.fibers.get(mu, set())

    def ambiguous(self, lam: tuple) -> bool:
        """True when lam is not stable and some stable partition other than
        D(lam), with the same first part and part count, dominates D(lam):
        the first-part and part-count facts alone then do not single out
        D(lam) among the types a sampler can certify."""
        d = dmap(lam)
        return not is_stable(lam) and any(
            c != d and c[0] == d[0] and len(c) == len(d) and dominated(d, c)
            for c in self.stable[sum(lam)])

    def check_against(self, lib_index, lib_cover, lib_stable) -> list[str]:
        """Mismatches between the recursion and the library's invariants:
        first part, part count, D(D) = D, and stable partitions as the fixed
        points."""
        bad = []
        for lams in self.parts.values():
            for lam in lams:
                d = dmap(lam)
                if d[0] != lib_index(lam):
                    bad.append(f"{lam}: first part {d[0]} vs index {lib_index(lam)}")
                if len(d) != lib_cover(lam) or len(d) != cover(lam):
                    bad.append(f"{lam}: {len(d)} parts vs cover {lib_cover(lam)}")
                if dmap(d) != d:
                    bad.append(f"{lam}: D(D) = {dmap(d)} != D = {d}")
                if (d == lam) != bool(lib_stable(lam)) or not is_stable(d):
                    bad.append(f"{lam}: fixed point {d == lam} vs stable {lib_stable(lam)}")
        return bad
