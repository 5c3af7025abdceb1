"""Centralizer of a nilpotent Jordan matrix and the generic commuting type.

The centralizer of the block-diagonal nilpotent J decomposes into rectangular
blocks, one per pair of Jordan blocks, each constant along diagonals with the
lower-left triangle forced to zero.  One generator per admissible diagonal
gives a basis of dimension sum(min(p_i, p_j)).

The map D sends a partition p to the Jordan type of a generic nilpotent
element commuting with J_p.  It is computed by Oblak's recursion, checked
against sampling in tests: the first part of D(p) is an explicit maximum
over windows of parts (dmap_index), the window that attains it is removed,
and the rest recurses.  The number of parts of D(p) is the minimal
almost-rectangular cover of p, which every result is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from nilcomm._rng import Stream, derive
from nilcomm.partitions import Partition, min_ar_cover
from nilcomm.exactla import (
    ExactMatrix,
    NotNilpotentError,
    _jordan_type_rows,
    build_jordan,
    jordan_type,
)


# generator descriptor: (block row i, block col j, diagonal offset, length,
# row origin, col origin); entries are ones at (row0 + r, col0 + offset + r)
Gen = tuple


def _generators(lam: Partition) -> tuple[Gen, ...]:
    offs = []
    off = 0
    for p in lam:
        offs.append(off)
        off += p
    gens = []
    for i, p in enumerate(lam):
        for j, q in enumerate(lam):
            m = min(p, q)
            for k in range(q - m, q):
                gens.append((i, j, k, min(p, q - k), offs[i], offs[j]))
    return tuple(gens)


@dataclass(frozen=True)
class CommutantBasis:
    lam: Partition
    gens: tuple
    dim: int

    @cached_property
    def basis(self) -> list[ExactMatrix]:
        """Dense generators, each checked to commute with the Jordan matrix."""
        n = self.lam.n
        b = build_jordan(self.lam)
        out = []
        for (_, _, k, length, r0, c0) in self.gens:
            rows = [[0] * n for _ in range(n)]
            for r in range(length):
                rows[r0 + r][c0 + k + r] = 1
            e = ExactMatrix(rows)
            if e @ b != b @ e:
                raise RuntimeError(f"generator fails to commute for {tuple(self.lam)}")
            out.append(e)
        return out


def commutant_basis(lam) -> CommutantBasis:
    """Structural basis of the commuting algebra of the Jordan matrix of lam."""
    lam = Partition(lam)
    gens = _generators(lam)
    expected = sum(min(p, q) for p in lam for q in lam)
    if len(gens) != expected:
        raise RuntimeError(
            f"basis size {len(gens)} disagrees with the min-sum formula {expected}"
        )
    return CommutantBasis(lam, gens, len(gens))


# bounded above the hosts any suite, test or benchmark draws from
@lru_cache(maxsize=2048)
def _cached_gens(lam: tuple) -> tuple:
    return _generators(Partition(lam))


def _draw_rows(lam: tuple, stream: Stream, bound: int) -> list:
    """Random integer coefficients on the generators, strictly upper triangular
    on the leading diagonals inside each group of equal parts (this forces the
    image in the semisimple quotient, hence the whole element, to be nilpotent).
    """
    n = sum(lam)
    rows = [[0] * n for _ in range(n)]
    for (i, j, k, length, r0, c0) in _cached_gens(lam):
        if lam[i] == lam[j] and k == 0:
            coef = stream.randint(-bound, bound) if i < j else 0
        else:
            coef = stream.randint(-bound, bound)
        if coef:
            for r in range(length):
                rows[r0 + r][c0 + k + r] += coef
    return rows


def sample_jordan(lam, seed: int, coeff_bound: int = 10) -> tuple:
    """Jordan type of one random nilpotent commuting element (no dense object kept)."""
    rows = _draw_rows(tuple(lam), Stream(seed), coeff_bound)
    return _jordan_type_rows(rows)


@dataclass(frozen=True)
class CommutantSample:
    lam: Partition
    matrix: ExactMatrix
    jordan: Partition
    seed: int
    coeff_bound: int

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "jordan": list(self.jordan),
            "seed": self.seed,
            "coeff_bound": self.coeff_bound,
        }


def sample_nilpotent_commuting(lam, seed: int, coeff_bound: int = 10) -> CommutantSample:
    """Verified random nilpotent element commuting with the Jordan matrix of lam.

    The draw scheme makes non-nilpotent output impossible, but the contract is
    exact verification, so nilpotency and commutation are both checked; a
    failed check signals a bug, not bad luck, and raises with the seed.
    """
    lam = Partition(lam)
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    b = build_jordan(lam)
    rows = _draw_rows(tuple(lam), Stream(derive(seed, 1, 0)), coeff_bound)
    m = ExactMatrix(rows)
    if m @ b != b @ m:
        raise RuntimeError(f"sample fails commutation for {tuple(lam)} (seed {seed}); bug")
    try:
        jt = jordan_type(m)
    except NotNilpotentError as exc:
        raise RuntimeError(
            f"non-nilpotent sample for {tuple(lam)} (seed {seed}); bug") from exc
    return CommutantSample(lam, m, jt, seed, coeff_bound)


def _index_window(ps: tuple) -> tuple[int, int, int]:
    """(u, i, j): the largest 2i + ps_i + ... + ps_(j-1) over windows with
    ps_i - ps_(j-1) <= 1 and, for i > 0, ps_(i-1) >= 2, and the first window
    ps_i..ps_(j-1) that attains it (indices from 0)."""
    t = len(ps)
    best = (0, 0, 0)
    for i in range(t):
        if i > 0 and ps[i - 1] < 2:
            continue
        acc = 2 * i
        for j in range(i, t):
            if ps[i] - ps[j] > 1:
                break
            acc += ps[j]
            if acc > best[0]:
                best = (acc, i, j + 1)
    return best


def dmap_index(lam) -> int:
    """First part of the generic commuting type.

    Maximum of 2(i-1) + lam_i + ... + lam_(i+r) over windows with
    lam_i - lam_(i+r) <= 1, requiring lam_(i-1) >= 2 when i > 1.
    """
    return _index_window(tuple(lam))[0]


@dataclass(frozen=True)
class DMapResult:
    lam: Partition
    d: Partition
    method: str
    index_check: bool
    parts_check: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "d": list(self.d),
            "method": self.method,
            "checks": {"index": self.index_check, "parts": self.parts_check},
        }


def dmap(lam) -> DMapResult:
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
    index_check = d[0] == parts[0]
    parts_check = d.t == cover
    if not (index_check and parts_check):
        raise RuntimeError(
            f"recursion gave {tuple(d)} for {tuple(lam)}: first part {d[0]} vs "
            f"{parts[0]}, parts {d.t} vs {cover}; bug"
        )
    return DMapResult(lam, d, "recursion", index_check, parts_check)
