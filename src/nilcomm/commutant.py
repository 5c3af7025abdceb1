"""Seeded sampling in the centralizer of a nilpotent Jordan matrix.

Random nilpotent elements drawn on its basis, `exactla._generators`, have
Jordan types dominated by the generic commuting type D(p).  D itself is
computed by Oblak's recursion in `dinverse`.  Both samplers draw from the
seed they are given, and `generic_witness` is one fixed draw, certified,
whose type reaches D(p).
"""

from __future__ import annotations

from functools import lru_cache

from nilcomm._rng import Stream
# perfbench/run.py imports dmap_index from this module
from nilcomm.dinverse import dmap_index  # noqa: F401
from nilcomm.partitions import Partition
from nilcomm.exactla import ExactMatrix, Witness, _generators, _jordan_type_rows, certify


@lru_cache(maxsize=None)
def _pair_table(size: int) -> tuple:
    """table[r][c] is the pair (r, c), for r, c < size.  `_plan` asks for
    powers of two, so the plans of all hosts share a few tables' tuples
    instead of holding one new tuple per cell each."""
    return tuple(tuple((r, c) for c in range(size)) for r in range(size))


# bounded above the hosts any suite, test or benchmark draws from
@lru_cache(maxsize=2048)
def _plan(lam: tuple) -> tuple:
    """(pos, cells): pos[v] is the place of basis vector v in `_draw`'s order;
    cells holds each drawn generator's cells there as (row, col) pairs from
    `_pair_table`.  Leading diagonals between equal parts are drawn only for
    i < j.

    Every cell is checked once, when the host's plan is built, to lie above
    the diagonal (RuntimeError naming the host otherwise), so a cached plan
    certifies that every draw from it is strictly upper triangular."""
    lam = Partition(lam)
    n = lam.n
    keys = [(r - p, p, i) for i, p in enumerate(lam) for r in range(p)]
    pos = [0] * n
    for place, v in enumerate(sorted(range(n), key=keys.__getitem__)):
        pos[v] = place
    pairs = _pair_table(1 << n.bit_length())
    cells = tuple(
        tuple(pairs[pos[r0 + r]][pos[c0 + k + r]] for r in range(length))
        for (i, j, k, length, r0, c0) in _generators(lam)
        if k or lam[i] != lam[j] or i < j)
    if not all(r < c for gen in cells for r, c in gen):
        raise RuntimeError(
            f"plan for host {tuple(lam)} has a cell on or below the diagonal; bug")
    return tuple(pos), cells


def _draw(lam: tuple, coefs) -> tuple:
    """(rows, nz) of the element with coefs[i] on the i-th drawn generator of
    `_plan(lam)`: its dense rows, and each row's (col, coef) nonzero list,
    written in the same pass (a list's order is the generators').

    The basis is in the nilpotency order: by distance to the block end
    descending, then block size ascending, then block index ascending.  A
    generator moves a vector no closer to the end of the target block than to
    the end of its own, equally close only into a larger block or, between
    equal parts, on a leading diagonal, drawn only for i < j.  So every draw
    is strictly upper triangular, hence nilpotent; `_plan` checks this once
    per host, on the cells, which are the only places written here."""
    n = sum(lam)
    cells = _plan(lam)[1]
    rows = [[0] * n for _ in range(n)]
    nz = [[] for _ in range(n)]
    for gen, coef in zip(cells, coefs):
        if coef:
            for r, c in gen:
                rows[r][c] = coef
                nz[r].append((c, coef))
    return rows, nz


def _coefs(lam: tuple, seed: int, bound: int) -> list:
    """Seed's coefficients in [-bound, bound], one per drawn generator of `_plan(lam)`."""
    if bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    return Stream(seed).ints(-bound, bound, len(_plan(lam)[1]))


def sample_jordan(lam, seed: int, coeff_bound: int = 10) -> tuple:
    """Jordan type of one random nilpotent commuting element, in `_draw`'s
    order; its plan certified the draw's shape, so the kernel may consume it."""
    return _jordan_type_rows(*_draw(tuple(lam), _coefs(tuple(lam), seed, coeff_bound)))


def _witness(lam: Partition, coefs, seed: int | None = None) -> Witness:
    """The draw with coefs in the standard basis, certified on host lam."""
    rows, pos = _draw(lam, coefs)[0], _plan(lam)[0]
    return certify(ExactMatrix([[rows[p][q] for q in pos] for p in pos]), lam, seed=seed)


def sample_nilpotent_commuting(lam, seed: int, coeff_bound: int = 10) -> Witness:
    """Verified random nilpotent element commuting with the Jordan matrix of
    lam, in the standard basis: a Witness on host lam with its type `jordan`,
    the draw `sample_jordan(lam, seed, coeff_bound)` types.

    The draw scheme makes non-nilpotent output impossible, but the contract is
    exact verification, so the sample is certified (`exactla.certify`); a
    failed check signals a bug, not bad luck, and raises with the seed.
    """
    lam = Partition(lam)
    return _witness(lam, _coefs(lam, seed, coeff_bound), seed)


def generic_witness(lam) -> Witness:
    """The draw with coefficient i + 1 on the i-th drawn generator, certified
    on host lam: its type is `dmap(lam)` for every lam with n <= 20."""
    lam = Partition(lam)
    return _witness(lam, range(1, len(_plan(lam)[1]) + 1))
