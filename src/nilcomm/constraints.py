"""Necessary conditions on pairs of Jordan types of commuting nilpotent matrices.

Each rule is a partial obstruction: `forbidden` means the two types can never
be the Jordan forms of commuting nilpotent matrices, with the firing rules
recorded as reasons.  `unknown` asserts nothing; these are necessary
conditions only, and no completeness is claimed.

The rules sit in one table, `RULES`.  A rule reads one type as the host and
the other as its partner and yields one detail string per firing.  The
relation is symmetric, so `compatible_filter` applies each rule in both
orders, (lam, mu) then (mu, lam), before it moves to the next rule; the
reasons come out in that rule-major order, and a repeated reason once.
"""

from __future__ import annotations

from typing import NamedTuple

from nilcomm.partitions import Partition, is_almost_rectangular

FORBIDDEN = "forbidden"
UNKNOWN = "unknown"


class Reason(NamedTuple):
    rule: str
    detail: str


class PairVerdict(NamedTuple):
    lam: Partition
    mu: Partition
    reasons: tuple

    @property
    def verdict(self) -> str:
        return FORBIDDEN if self.reasons else UNKNOWN


def _ind1(a, b, n):
    """Many parts force a square-zero partner.

    If the partner has s parts with 2 s >= 2 n - (last part of the host),
    its rank is at most half the smallest host block, every centralizer
    block then has square zero, and a first part above 2 is impossible.
    """
    if 2 * b.t >= 2 * n - a[-1] and b[0] > 2:
        yield f"{b.t} parts with smallest host block {a[-1]} force first part <= 2"


def _ind2(a, b, n):
    """Two-block host (l1, l2) with a partner of s > l1 parts bounds the
    partner's first part by ceil(l2 / (s - l1))."""
    if a.t == 2 and b.t > a[0]:
        bound = -(-a[1] // (b.t - a[0]))
        if b[0] > bound:
            yield f"{b.t} parts bound the first part by {bound}"


def _nilorder(a, b, n):
    """Equal two-block host (m, m): the partner is (n) or has first part <= m + 1."""
    if a.t == 2 and a[0] == a[1] and b != (n,) and b[0] > a[0] + 1:
        yield f"first part {b[0]} exceeds {a[0] + 1} and is not ({n})"


def _two_part(a, b, n):
    """Two distinct two-part types commute only in the balanced exceptional
    pair: (n/2, n/2) with (n/2 + 1, n/2 - 1), n even."""
    h = n // 2
    if a.t == b.t == 2 and a != b and (n % 2 or {a, b} != {(h, h), (h + 1, h - 1)}):
        yield "distinct two-part types outside the balanced pair"


def _thm3(a, b, n):
    """For n >= 4, a host forbids (n) unless almost rectangular, and an
    almost-rectangular host with a block of size >= 3 forbids (n-1, 1).

    This also covers the full cycle (n) pairing only with almost-rectangular
    types: every type with n <= 3 is almost rectangular.

    With suite 1 it proves the paper's main theorem: for n >= 4, N_B meets
    every nilpotent orbit iff B^2 = 0.  Suite 1 certifies a square-zero
    partner of every rank on every host, and a host with a part >= 3 forbids
    (n), or (n-1, 1) when it is almost rectangular.  At n = 3, J, J^2 and 0
    put the host (3) in all three orbits."""
    if n < 4:
        return
    if b == (n,) and not is_almost_rectangular(a):
        yield f"({n}) needs an almost-rectangular partner"
    if b == (n - 1, 1) and is_almost_rectangular(a) and a[0] >= 3:
        yield f"({n - 1},1) is impossible beside a square cube host"


RULES = (("ind1", _ind1), ("ind2", _ind2), ("nilorder", _nilorder),
         ("two_part", _two_part), ("thm3", _thm3))


def compatible_filter(lam, mu) -> PairVerdict:
    """Every rule of RULES, each in both orders: `forbidden` iff one fires."""
    lam, mu = Partition(lam), Partition(mu)
    n = lam.n
    if mu.n != n:
        raise ValueError(f"sizes differ: {n} vs {mu.n}")
    reasons = dict.fromkeys(
        Reason(name, detail)
        for name, rule in RULES
        for a, b in ((lam, mu), (mu, lam))
        for detail in rule(a, b, n))
    return PairVerdict(lam, mu, tuple(reasons))
