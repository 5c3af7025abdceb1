"""Centralizer of a nilpotent Jordan matrix and seeded sampling inside it.

The centralizer of the block-diagonal nilpotent J decomposes into rectangular
blocks, one per pair of Jordan blocks, each constant along diagonals with the
lower-left triangle forced to zero.  One generator per admissible diagonal
gives a basis of dimension sum(min(p_i, p_j)).

Random nilpotent elements drawn on that basis have Jordan types dominated by
the generic commuting type D(p).  D itself is computed by Oblak's recursion
in `dinverse`.
"""

from __future__ import annotations

from functools import lru_cache

from nilcomm._rng import Stream, derive
# perfbench/run.py imports dmap_index from this module
from nilcomm.dinverse import dmap_index  # noqa: F401
from nilcomm.partitions import Partition
from nilcomm.exactla import ExactMatrix, Witness, _jordan_type_rows, certify


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


def _draw(lam: tuple, stream: Stream, bound: int) -> tuple:
    """(rows, nz) of a random element, coefficients in [-bound, bound] on the
    drawn generators: its dense rows, and each row's (col, coef) nonzero
    list, written in the same pass (a list's order is the generators').

    The basis is in the nilpotency order: by distance to the block end
    descending, then block size ascending, then block index ascending.  A
    generator moves a vector no closer to the end of the target block than to
    the end of its own, equally close only into a larger block or, between
    equal parts, on a leading diagonal, drawn only for i < j.  So every draw
    is strictly upper triangular, hence nilpotent; `_plan` checks this once
    per host, on the cells, which are the only places written here."""
    if bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    n = sum(lam)
    cells = _plan(lam)[1]
    rows = [[0] * n for _ in range(n)]
    nz = [[] for _ in range(n)]
    for gen, coef in zip(cells, stream.ints(-bound, bound, len(cells))):
        if coef:
            for r, c in gen:
                rows[r][c] = coef
                nz[r].append((c, coef))
    return rows, nz


def sample_jordan(lam, seed: int, coeff_bound: int = 10) -> tuple:
    """Jordan type of one random nilpotent commuting element, in `_draw`'s
    order; its plan certified the draw's shape, so the kernel may consume it."""
    return _jordan_type_rows(*_draw(tuple(lam), Stream(seed), coeff_bound))


def sample_nilpotent_commuting(lam, seed: int, coeff_bound: int = 10) -> Witness:
    """Verified random nilpotent element commuting with the Jordan matrix of
    lam, in the standard basis: a Witness on host lam with its type `jordan`.

    The draw scheme makes non-nilpotent output impossible, but the contract is
    exact verification, so the sample is certified (`exactla.certify`); a
    failed check signals a bug, not bad luck, and raises with the seed.
    """
    lam = Partition(lam)
    rows, pos = _draw(lam, Stream(derive(seed, 1, 0)), coeff_bound)[0], _plan(lam)[0]
    return certify(ExactMatrix([[rows[p][q] for q in pos] for p in pos]), lam, seed=seed)
