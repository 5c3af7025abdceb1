"""The generic commuting type map D and its inverse images.

D is computed by Oblak's recursion, checked against sampling in tests: the
first part of D(p) is an explicit maximum over windows of parts
(dmap_index), the window that attains it is removed, and the rest recurses.
The number of parts of D(p) is the minimal almost-rectangular cover of p,
which every result is checked against.  Fibers invert the recursion one
part at a time.  Brute-force fibers, their oracle, come from `dmap_all`,
which maps every partition of n; the closed-form fibers of staircase
images, two-part images with gap 2..4 and the image (n-1, 1) are checked
against them (suites 6 and 7, and the tests), and `dinv` uses none of
them; the two open question explorers sit on top.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from nilcomm.partitions import (
    Partition,
    almost_rect,
    count_partitions,
    enumerate_partitions,
    is_stable,
    min_ar_cover,
    partition_rank,
)


def _index_window(ps: tuple) -> tuple[int, int, int]:
    """(u, i, j): the largest 2i + ps_i + ... + ps_(j-1) over windows with
    ps_i - ps_(j-1) <= 1 and, for i > 0, ps_(i-1) >= 2, and the first window
    ps_i..ps_(j-1) that attains it (indices from 0).  Only a run of equal
    parts can start it (one step back within a run adds ps_(i-1) - 2 >= 0),
    and it ends with the next run if that run is one lower, else its own."""
    best, i = (0, 0, 0), 0
    runs = [(v, len(list(g))) for v, g in groupby(ps)] + [(0, 0)]
    for (v, c), (w, d) in zip(runs, runs[1:]):
        u, j = 2 * i + v * c, i + c
        if w == v - 1:
            u, j = u + w * d, j + d
        if u > best[0]:
            best = (u, i, j)
        i += c
    return best


def dmap_index(lam) -> int:
    """First part of the generic commuting type.

    Maximum of 2(i-1) + lam_i + ... + lam_(i+r) over windows with
    lam_i - lam_(i+r) <= 1, requiring lam_(i-1) >= 2 when i > 1.
    """
    return _index_window(Partition(lam))[0]


def dmap(lam) -> Partition:
    """Generic commuting type of lam, by Oblak's recursion.

    With u = dmap_index(lam) attained first on the window lam_i..lam_(i+r),
    D(lam) = (u) joined with D(lam'), where lam' lowers every part before
    the window by 2 (dropping parts that reach zero), drops the window and
    keeps the parts after it.  Oblak stated the recursion; Basili and
    Iarrobino-Khatami-Van Steirteghem-Zhao are reported to have proved it.
    The first part (u) and the part count (the minimal almost-rectangular
    cover) are checked against their own formulas; a mismatch is a bug.
    """
    lam = Partition(lam)
    parts = []
    rest = tuple(lam)
    while rest:
        u, i, j = _index_window(rest)
        parts.append(u)
        rest = tuple(sorted([p - 2 for p in rest[:i] if p > 2] + list(rest[j:]),
                            reverse=True))
    d = Partition(parts)
    cover = min_ar_cover(lam)
    if d[0] != parts[0] or d.t != cover:
        raise RuntimeError(
            f"recursion gave {tuple(d)} for {tuple(lam)}: first part {d[0]} vs "
            f"{parts[0]}, parts {d.t} vs {cover}; bug"
        )
    return d


def dmap_all(n: int) -> dict:
    """{D(lam): {lam, ...}}, every image of a partition of n with its fiber,
    built on each call: only brute-force checks use it, never dinv."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fibers: dict[Partition, set] = {}
    for lam in enumerate_partitions(n):
        fibers.setdefault(dmap(lam), set()).add(lam)
    if sum(map(len, fibers.values())) != count_partitions(n):
        raise RuntimeError(f"table at n={n} is incomplete")
    return fibers


def dinv(mu) -> set:
    """{lam : D(lam) = mu}, inverting D(lam) = (u) joined with D(lam'): the
    fiber of mu is lifted from that of mu[1:], from the last part up, so its
    cost follows the fiber sizes, not p(n)."""
    fiber = {()}
    for u in reversed(Partition(mu)):
        fiber = {lam for nu in fiber for lam in _lift(nu, u)}
    return {Partition(lam) for lam in fiber}


def _lift(nu: tuple, u: int):
    """Each lam with first best window (u, h, h + k) and remainder nu: nu's
    first h parts raised by 2, almost_rect(m, k) with m = u - 2h, then the
    rest of nu.  No part 2 precedes a best window (a window of 1s after a run
    of 2s ties with the window from the 2s, which comes first), so dmap drops
    no part of lam.  The window's first part ceil(m/k) falls as k grows; it
    is at most the part before it and at least the part after it plus 2 (a
    best window takes every later part within 1 of its first)."""
    for h in range(min(len(nu), (u - 1) // 2) + 1):
        head, tail, m = tuple(p + 2 for p in nu[:h]), nu[h:], u - 2 * h
        low, high = (tail[0] + 2 if tail else 1), (head[-1] if head else m)
        for k in range(1, m + 1):
            top = -(-m // k)
            if top < low:
                break
            if top <= high:
                lam = head + almost_rect(m, k) + tail
                if _index_window(lam) == (u, h, h + k):
                    yield lam


def _glue(head: tuple, m: int) -> list:
    """head extended by each almost-rectangular tail of m, kept when the
    concatenation is a partition whose first and last parts differ by >= 2.
    Every closed-form fiber below is a union of these."""
    out = []
    for t in range(1, m + 1):
        tail = tuple(almost_rect(m, t))
        if head and head[-1] < tail[0]:
            continue
        cand = head + tail
        if cand[0] - cand[-1] >= 2:
            out.append(Partition(cand))
    return out


def _glue_heads(n: int, heads) -> set:
    """Union of _glue(P(a, s), n - a) over the (a, s) in heads: the head is
    the almost-rectangular partition of a into s parts."""
    return {lam for a, s in heads for lam in _glue(tuple(almost_rect(a, s)), n - a)}


def dinv_diff2(mu: int, k: int) -> set:
    """Fiber of the gap-2 staircase (mu, mu-2, ..., mu-2k): freeze the first
    k steps and let the final step spread over every almost-rectangular shape."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if mu - 2 * k < 1:
        raise ValueError(f"staircase from {mu} cannot take {k} steps")
    return set(_glue(tuple(mu - 2 * i for i in range(k)), mu - 2 * k))


def dinv_two_part(mu: int, r: int) -> set:
    """Fiber of (mu, mu-r) for 2 <= r <= 4: the partitions of n = 2mu - r of
    `lemma1_structure`'s shape whose head P(a, s), s <= r/2, sums to a = mu
    or a = mu - r + 2s.  r = 2 gives the heads (mu); r = 3 (mu) and (mu - 1);
    r = 4 (mu), (mu - 2) and P(mu, 2).

    The rule stops at r = 4 because from r = 5 on it yields non-members:
    the head P(6, 2) = (3, 3) and the tail (2, 1) give (3, 3, 2, 1), which
    has the (7, 2) rule's shape but D((3, 3, 2, 1)) = (8, 1).  Those gaps
    have no closed form here; `explore_q1` tests their counts."""
    if not 2 <= r <= 4:
        raise ValueError("r must be in 2..4")
    if mu - r < 1:
        raise ValueError("mu - r must be >= 1")
    return _glue_heads(2 * mu - r, ((a, s) for s in range(1, r // 2 + 1)
                                    for a in (mu, mu - r + 2 * s)))


def dinv_n11(n: int) -> set:
    """Fiber of (n-1, 1): almost-rectangular body over a single 1, or a 3
    over an almost-rectangular body ending in 1."""
    if n < 4:
        raise ValueError("n must be >= 4")
    return _glue_heads(n, ((n - 1, t) for t in range(1, n))) | set(_glue((3,), n - 3))


class Q1Report(NamedTuple):
    """Observed fiber size of (mu, mu-r) against the conjectured count."""

    mu: int
    r: int
    n: int
    fiber: tuple
    size: int
    conjectured: int
    matches: bool


def explore_q1(mu: int, r: int) -> Q1Report:
    """Does |fiber of (mu, mu-r)| = (r-1)(mu-r) hold beyond gap 4?  Data only."""
    if r < 5:
        raise ValueError("r must be >= 5")
    if mu - r < 1:
        raise ValueError("mu - r must be >= 1")
    fiber = tuple(sorted(dinv((mu, mu - r)), reverse=True))
    conjectured = (r - 1) * (mu - r)
    return Q1Report(mu, r, 2 * mu - r, fiber, len(fiber), conjectured,
                    len(fiber) == conjectured)


class Q2Report(NamedTuple):
    """Rank-minimal fiber elements of a stable image vs the conjectured one."""

    mu: Partition
    conjectured: Partition
    min_rank: int
    minimal: tuple
    in_fiber: bool
    holds: bool


def explore_q2(mu) -> Q2Report:
    """Is the conjectured partition the unique rank-minimal fiber element
    of a stable image?  Data only.

    The conjectured partition raises mu's later parts by 2 and appends
    mu_1 - 2(s - 1) ones, s the number of parts.  Consecutive parts of a
    stable mu differ by at least 2, so mu_1 >= 1 + 2(s - 1): at least one 1."""
    mu = Partition(mu)
    if not is_stable(mu):
        raise ValueError(f"{tuple(mu)} is not stable")
    ones = mu[0] - 2 * (mu.t - 1)
    conjectured = Partition(tuple(p + 2 for p in mu[1:]) + (1,) * ones)
    fiber = dinv(mu)
    min_rank = min(partition_rank(lam) for lam in fiber)
    minimal = tuple(sorted(
        (lam for lam in fiber if partition_rank(lam) == min_rank), reverse=True))
    return Q2Report(mu, conjectured, min_rank, minimal,
                    conjectured in fiber, minimal == (conjectured,))


def lemma1_structure(mu: int, r: int) -> set:
    """Partitions of 2*mu - r built from two almost-rectangular segments,
    the first of at most floor(r/2) parts, with first and last parts at
    least 2 apart: `_glue` with every head P(a, s), s <= r/2.  Every element
    of the fiber of (mu, mu-r) has this shape."""
    if not 2 <= r < mu:
        raise ValueError("need 2 <= r < mu")
    n = 2 * mu - r
    return _glue_heads(n, ((a, s) for s in range(1, r // 2 + 1) for a in range(s, n)))
