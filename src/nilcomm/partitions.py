"""Integer partitions: parsing, conjugation, dominance, almost-rectangular structure.

A partition is a nonincreasing tuple of positive integers.  The functions here
are the combinatorial substrate for everything else: almost-rectangular
decompositions control the number of parts of the generic commuting type, and
dominance is the orbit-closure order on nilpotent conjugacy classes.
"""

from __future__ import annotations

import operator
import re
from typing import Iterator


class Partition(tuple):
    """Nonincreasing tuple of positive integers.

    Instances are plain tuples (hashable, comparable with tuple literals);
    input is sorted into canonical order rather than rejected, and a part
    that is not an int (a float, str or Fraction) raises TypeError.  A
    Partition passed in is returned as it is.
    """

    __slots__ = ()

    def __new__(cls, parts):
        if type(parts) is cls:
            return parts
        ps = tuple(sorted(map(operator.index, parts), reverse=True))
        if not ps:
            raise ValueError("partition needs at least one part")
        if ps[-1] < 1:
            raise ValueError(f"parts must be positive, got {ps}")
        return super().__new__(cls, ps)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def t(self) -> int:
        return len(self)

    def __str__(self) -> str:
        return "(" + render(self) + ")"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse(text: str) -> Partition:
    """Parse `a,b,c` or `a^e,b^f` (exponents expand the part).

    Surrounding parentheses and whitespace are tolerated so rendered output
    round-trips.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError("empty partition")
    parts: list[int] = []
    for tok in s.split(","):
        m = _TOKEN.match(tok.strip())
        if not m:
            raise ValueError(f"bad partition token {tok!r}")
        v = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if v < 1:
            raise ValueError(f"parts must be positive, got {v}")
        if e < 1:
            raise ValueError(f"exponent must be positive, got {e}")
        parts.extend([v] * e)
    return Partition(parts)


def render(p) -> str:
    """Canonical text form: exponent notation once a part repeats 3+ times."""
    out: list[str] = []
    i = 0
    ps = Partition(p)
    while i < len(ps):
        j = i
        while j < len(ps) and ps[j] == ps[i]:
            j += 1
        count = j - i
        if count >= 3:
            out.append(f"{ps[i]}^{count}")
        else:
            out.extend(str(ps[i]) for _ in range(count))
        i = j
    return ",".join(out)


def conjugate(p) -> Partition:
    """Column lengths of the Ferrers diagram."""
    ps = Partition(p)
    return Partition(sum(1 for x in ps if x >= i) for i in range(1, ps[0] + 1))


def dominance_leq(p, q) -> bool:
    """True iff every prefix sum of p is at most the matching prefix sum of q.

    Missing parts count as zero.  Only defined for equal totals.
    """
    ps, qs = Partition(p), Partition(q)
    if sum(ps) != sum(qs):
        raise ValueError(f"dominance needs equal totals: {sum(ps)} vs {sum(qs)}")
    a = b = 0
    for i in range(max(len(ps), len(qs))):
        a += ps[i] if i < len(ps) else 0
        b += qs[i] if i < len(qs) else 0
        if a > b:
            return False
    return True


def almost_rect(n: int, t: int) -> Partition:
    """P(n, t): the unique t-part partition of n with max - min <= 1."""
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    q, r = divmod(n, t)
    return Partition([q + 1] * r + [q] * (t - r))


def two_column(n: int, a: int) -> Partition:
    """(2^a, 1^(n-2a)): the Jordan type of a square-zero n x n matrix of rank a."""
    if not 0 <= a <= n // 2:
        raise ValueError(f"need 0 <= a <= n // 2, got a={a}, n={n}")
    return Partition([2] * a + [1] * (n - 2 * a))


def is_almost_rectangular(p) -> bool:
    ps = Partition(p)
    return ps[0] - ps[-1] <= 1


def min_ar_cover(p) -> int:
    """Smallest r such that the parts split into r almost-rectangular groups.

    Greedy on the sorted parts: start a new group whenever the current part
    drops below the group's first part minus 1.  Tests check this against a
    brute-force splitting search.
    """
    ps = Partition(p)
    groups = 1
    head = ps[0]
    for x in ps[1:]:
        if x < head - 1:
            groups += 1
            head = x
    return groups


def partition_rank(p) -> int:
    """Total minus number of parts (the rank n - t)."""
    ps = Partition(p)
    return sum(ps) - len(ps)


def is_stable(p) -> bool:
    """True iff consecutive parts differ by at least 2 (one part counts)."""
    ps = Partition(p)
    return all(ps[i] - ps[i + 1] >= 2 for i in range(len(ps) - 1))


def _parts_iter(n: int, max_part: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _parts_iter(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order: (n) first, (1^n) last."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for ps in _parts_iter(n, n):
        yield Partition(ps)


def count_partitions(n: int) -> int:
    """p(n) by the bounded-part recurrence."""
    if n < 0:
        raise ValueError("negative n")
    # table[m] = number of partitions of m with parts <= k, built up over k
    table = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            table[m] += table[m - k]
    return table[n]
