"""Exact dense linear algebra over the rationals.

Rank via fraction-free elimination on integer rows, and Jordan types of
nilpotent matrices from the ranks of successive powers.  There is no
Fraction elimination, RREF or change of basis: every witness in the library is
written down in closed form and only typed here, by `certify`: the one check
that a witness commutes with its host's Jordan matrix and has the type it
should, which returns it as a `Witness` carrying that host and type.  No
floating point enters this module; nullity differences of one decide Jordan
types, so there is no tolerance anywhere.

A Jordan type is read off the rank sequence of the powers.  A sequence that
reaches 0 certifies nilpotency, and a repeated nonzero rank certifies the
opposite.  A strictly upper triangular matrix is nilpotent with no
arithmetic, so its sequence stops at the first rank drop of one, after which
the ranks follow.  Every sampled centralizer element is drawn in that shape,
which `commutant._plan` certifies once per host; a sampled draw hands its
nonzero lists and rows over to `_jordan_type_rows`, which skips the pattern
test and consumes the rows.  Every other matrix is tested on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from nilcomm.partitions import Partition, almost_rect


class NotNilpotentError(ValueError):
    """Raised when a Jordan type is requested for a non-nilpotent matrix."""


def _checked_int(seqs: Sequence[Sequence]) -> bool:
    """Raise TypeError unless every entry of the sequences is an int or a
    Fraction, subclasses included and bool never; return whether every
    entry's type is exactly int.  The check reads only the set of entry
    types, built in one pass; if that set holds a refused type, the entries
    are walked again in order to name the first refused one."""
    types = set(map(type, chain.from_iterable(seqs)))
    for t in types - {int, Fraction}:
        if t is bool or not issubclass(t, (int, Fraction)):
            bad = next(x for x in chain.from_iterable(seqs)
                       if type(x) is bool or not isinstance(x, (int, Fraction)))
            raise TypeError(f"entries must be int or Fraction, got {type(bad).__name__}")
    return types == {int}


class ExactMatrix:
    """Immutable dense matrix with int/Fraction entries.

    Entries are checked once per matrix by the set of their types
    (`_checked_int`).  `_int` True means every entry's type is exactly int;
    False promises nothing.  `_trusted` builds a matrix from rows whose
    entries and shape are already known to be valid, as `@` and
    `twoblock.tb_to_matrix` do.
    """

    __slots__ = ("rows", "cols", "_rows", "_int")

    def __init__(self, rows: Iterable[Sequence]):
        data = tuple(map(tuple, rows))
        is_int = _checked_int(data)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise ValueError("ragged rows")
        self._set(data, is_int)

    @classmethod
    def _trusted(cls, data: tuple, is_int: bool) -> "ExactMatrix":
        """Matrix on a nonempty tuple of equal-length tuples whose entries are
        int or Fraction, with no check; is_int as for `_int`."""
        m = object.__new__(cls)
        m._set(data, is_int)
        return m

    def _set(self, data: tuple, is_int: bool) -> None:
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))
        object.__setattr__(self, "_int", is_int)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which checks again
        return ExactMatrix, (self._rows,)

    def __getitem__(self, rc):
        r, c = rc
        return self._rows[r][c]

    def row_data(self) -> tuple:
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        # products and sums of int and Fraction entries are int or Fraction
        prod = _mul(map(enumerate, self._rows), _nonzeros(other._rows), other.cols)
        return ExactMatrix._trusted(tuple(map(tuple, prod)), self._int and other._int)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        """Submatrix with rows [r0, r1) and columns [c0, c1)."""
        return ExactMatrix(r[c0:c1] for r in self._rows[r0:r1])

    def dump(self) -> str:
        """Dimensions line, then rows of space-separated rationals."""
        lines = [f"{self.rows} {self.cols}"]
        for r in self._rows:
            lines.append(" ".join(str(Fraction(x)) for x in r))
        return "\n".join(lines)

    def __repr__(self):
        return f"<{type(self).__name__} {self.rows}x{self.cols}>"


def _nonzeros(rows) -> list:
    """The (column, value) pairs of each row's nonzero entries."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in rows]


def _mul(a, b_nz, w: int) -> list:
    """Product of A and a w-column matrix given by its `_nonzeros` lists, as
    lists.  A's rows are (j, a[i][j]) pairs, zeros allowed: dense rows under
    `map(enumerate, rows)`, or A's own `_nonzeros` lists.  Each nonzero
    a[i][j] times the nonzero entries of row j."""
    out = []
    for ra in a:
        acc = [0] * w
        for j, x in ra:
            if x:
                for c, v in b_nz[j]:
                    acc[c] += x * v
        out.append(acc)
    return out


def build_jordan(p) -> ExactMatrix:
    """Block-diagonal nilpotent matrix with block sizes given by the partition:
    a one at (r, r + 1) unless row r is a block's last."""
    ps = tuple(p)
    ends, n = set(accumulate(ps)), sum(ps)  # ends: one past each block's last row
    return ExactMatrix([[int(c == r + 1 not in ends) for c in range(n)] for r in range(n)])


def _generators(lam) -> tuple:
    """The centralizer of J_lam decomposes into rectangular blocks, one per
    pair of Jordan blocks, each constant along diagonals with the lower-left
    triangle zero: one generator per admissible diagonal, sum(min(p_i, p_j))
    in all.  Each is (block row i, block col j, diagonal offset k, length, row
    origin r0, col origin c0), ones at (r0 + r, c0 + k + r) for r < length:
    the one map from a generator to its cells, read by `commutant._plan` and `_layout`."""
    offs = [0, *accumulate(lam)]
    gens = []
    for i, p in enumerate(lam):
        for j, q in enumerate(lam):
            m = min(p, q)
            for k in range(q - m, q):
                gens.append((i, j, k, min(p, q - k), offs[i], offs[j]))
    return tuple(gens)


# bounded above the hosts any suite, test or benchmark realizes
@lru_cache(maxsize=2048)
def _layout(lam: tuple) -> tuple:
    """(index, rows): index maps each generator's key (i, j, k) to its place
    in `_generators(lam)`; rows has one itemgetter per dense row over the
    coefficients in that order and a zero, for the cells no generator has."""
    gens, n = _generators(lam), sum(lam)
    cells = [[len(gens)] * n for _ in range(n)]
    for g, (i, j, k, length, r0, c0) in enumerate(gens):
        for r in range(length):
            cells[r0 + r][c0 + k + r] = g
    # an itemgetter of one index returns no tuple; at n = 1 generator 0 is the cell
    rows = tuple(itemgetter(*cols) if n > 1 else itemgetter(slice(1)) for cols in cells)
    return {gen[:3]: g for g, gen in enumerate(gens)}, rows


def _realize(lam, coef: dict) -> ExactMatrix:
    """The checked matrix of sum coef[i, j, k] times generator (i, j, k) of the
    nonincreasing host lam; a key that is no generator's raises KeyError."""
    index, rows = _layout(lam)
    v = [0] * (len(index) + 1)
    for key, value in coef.items():
        v[index[key]] = value
    return ExactMatrix([row(v) for row in rows])


def _int_rank(rows: list) -> int:
    """Rank of a list-of-lists of ints, destructively, by fraction-free
    elimination.

    The pivot is the first row at or below the pivot row's place with a
    nonzero in the column, and it takes that place.  Each row below it with
    a nonzero c in the column becomes `(p // g) * row - (c // g) * pivot_row`,
    where p is the pivot and g = gcd(p, c); a row with a zero there is not
    touched.  An update adds a multiple of the pivot row to a nonzero
    multiple of the row, so it keeps the row space, and the rank is exact
    with no division to prove exact.

    The price is entry growth: Bareiss elimination keeps every entry a
    minor of the input, while here a row's entries grow with each update it
    takes.  The gcd keeps that growth down: a dense 14 x 14 product of rank
    12 ends with entries of up to 466 bits, against 12 945 without it and
    89 under Bareiss.  The powers of sampled and constructed elements that
    the library ranks are sparse, and there this kernel is faster.  On
    dense products of random +-9 factors it is slower than Bareiss: by
    under 10 % up to n = 24, about 1.7x at n = 40 and 3x at n = 60.
    """
    nr = len(rows)
    if nr == 0:
        return 0
    nc = len(rows[0])
    pr = 0
    for pc in range(nc):
        if pr >= nr:
            break
        piv = -1
        for r in range(pr, nr):
            if rows[r][pc]:
                piv = r
                break
        if piv < 0:
            continue
        # the row at pr takes the pivot row's place; the pivot row is not
        # needed after this step
        prow = rows[piv]
        rows[piv] = rows[pr]
        p = prow[pc]
        for r in range(pr + 1, nr):
            row = rows[r]
            coef = row[pc]
            if coef:
                g = gcd(p, coef)
                a, b = p // g, coef // g
                for c in range(pc + 1, nc):
                    row[c] = a * row[c] - b * prow[c]
                row[pc] = 0
        pr += 1
    return pr


def _int_rows(m: ExactMatrix) -> list:
    """Copy rows as ints, every row scaled by the lcm of all denominators:
    one global scale keeps the rank of every power, so it serves both `rank`
    and `jordan_type`."""
    data = m.row_data()
    if m._int or not any(isinstance(x, Fraction) for r in data for x in r):
        return [list(r) for r in data]
    mult = lcm(*(x.denominator for r in data for x in r))
    return [[int(x * mult) for x in r] for r in data]


def rank(m: ExactMatrix) -> int:
    return _int_rank(_int_rows(m))


def jordan_type(a: ExactMatrix) -> Partition:
    """Jordan type of a nilpotent matrix from nullities of its powers.

    Refuses non-nilpotent input: the rank sequence of powers is strictly
    decreasing until zero for nilpotents, so its first repeat at a nonzero
    value is a certificate of failure (see `_jordan_type_rows`).  A Witness
    returns its `jordan`, which `certify` computed on the same immutable rows.
    """
    if type(a) is Witness:
        return a.jordan
    if a.rows != a.cols:
        raise ValueError("jordan_type needs a square matrix")
    return Partition(_jordan_type_rows(_int_rows(a)))


class Witness(ExactMatrix):
    """A matrix that `certify` checked to commute with `build_jordan(host)`
    and to have the Jordan type `jordan`.  Only `certify` makes one, so
    `Witness(rows)` raises TypeError.  It equals and hashes like the plain
    matrix of its rows; its products and blocks are plain matrices."""

    __slots__ = ("host", "jordan")

    def __init__(self, *args, **kwargs):
        raise TypeError("a Witness is made only by exactla.certify")

    def __reduce__(self):
        # a loaded witness is certified again
        return certify, (ExactMatrix(self._rows), self.host, self.jordan)


def certify(m: ExactMatrix, host, expect=None, *, seed: int | None = None) -> Witness:
    """m as a Witness on host: checked to commute with `build_jordan(host)`
    (`_commutes`, no product), with its type, which must equal expect if given.

    Every witness and sample is nilpotent and commuting by construction, so
    any failure, a wrong size or a non-nilpotent m included, is a bug: it
    raises RuntimeError naming the host, and the seed when one is given.
    """
    host = Partition(host)
    where = f"host {tuple(host)}" + ("" if seed is None else f", seed {seed}")
    if (m.rows, m.cols) != (host.n, host.n):
        raise RuntimeError(f"witness for {where} is {m.rows}x{m.cols}, not "
                           f"{host.n}x{host.n}; bug")
    if not _commutes(m._rows, host):
        raise RuntimeError(f"witness for {where} does not commute with its Jordan matrix; bug")
    try:
        jt = jordan_type(m)
    except NotNilpotentError as exc:
        raise RuntimeError(f"witness for {where}: {exc}; bug") from exc
    if expect is not None and jt != tuple(expect):
        raise RuntimeError(
            f"witness for {where} has type {tuple(jt)}, expected {tuple(expect)}; bug")
    w = Witness._trusted(m._rows, m._int)  # shares m's rows
    object.__setattr__(w, "host", host)
    object.__setattr__(w, "jordan", jt)
    return w


def _commutes(rows: tuple, host: Partition) -> bool:
    """rows @ J == J @ rows for J = `build_jordan(host)`, with no product:
    row r of rows @ J is row r shifted one place right inside each block
    (one itemgetter over the row and a zero), and row r of J @ rows is row
    r + 1, or zero on a block's last row."""
    n = host.n
    if n == 1:  # J is zero
        return True
    ends = set(accumulate(host))  # one past each block's last row
    shift = itemgetter(*[c - 1 if c and c not in ends else n for c in range(n)])
    return all(shift(row + (0,)) == (rows[r + 1] if r + 1 not in ends else (0,) * n)
               for r, row in enumerate(rows))


def _jordan_type_rows(rows0, a_nz=None):
    """Jordan type from raw integer rows; fast path for samplers.

    Ranks r_k of the powers A^k are taken until they reach 0, which
    certifies that A is nilpotent, or repeat a nonzero value, which
    certifies that it is not.  A strictly upper triangular A is nilpotent
    already, so there the ranks stop at the first k at which they drop by
    exactly one: drops never grow (Frobenius rank inequality), so the next
    r_k powers have ranks r_k - 1, ..., 0.

    a_nz holds A's (col, value) nonzero lists, one per row in any order
    within a row.  A caller that hands them over vouches that A is strictly
    upper triangular, as `commutant.sample_jordan` does for draws whose
    cells `commutant._plan` certified, and gives up rows0: A is ranked in
    place.  Without a_nz the lists are built here by `_nonzeros`, the
    pattern is tested on them, and rows0 is left as it is.  A^2 is built
    from the lists alone, and each later power as A^(k-1) A.
    """
    n = len(rows0)
    if a_nz is None:
        a_nz = _nonzeros(rows0)
        triangular = all(c > i for i, nz in enumerate(a_nz) for c, _ in nz)
        rows0 = [list(row) for row in rows0]
    else:
        triangular = True
    ranks = [n]  # ranks[k] = rank of A^k
    r = _int_rank(rows0)
    power = None  # A^k from k = 2 on
    while True:
        if r == ranks[-1]:
            raise NotNilpotentError(
                f"matrix is not nilpotent: rank stabilizes at {r} from power {len(ranks)}"
            )
        if r == 0 or (triangular and ranks[-1] - r == 1):
            ranks.extend(range(r, -1, -1))
            break
        ranks.append(r)
        power = _mul(a_nz if power is None else map(enumerate, power), a_nz, n)
        r = _int_rank([list(row) for row in power])
    # rank drops are the column lengths of the Jordan type's diagram
    drops = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))] + [0]
    parts: list[int] = []
    for size in range(len(drops) - 1, 0, -1):
        parts.extend([size] * (drops[size - 1] - drops[size]))
    return tuple(parts)


def is_ut_toeplitz(m: ExactMatrix) -> bool:
    """Entry (i, j) depends on j - i only and vanishes for j < i."""
    data = m.row_data()
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            if j < i:
                if x != 0:
                    return False
            elif i > 0 and j > 0:
                if x != data[i - 1][j - 1]:
                    return False
    return True


def toeplitz_product_rank_check(c: ExactMatrix, d: ExactMatrix) -> bool:
    """rank(c d) = max(rank c + rank d - r, 0) for upper-triangular Toeplitz factors."""
    if c.cols != d.rows:
        raise ValueError("inner dimensions differ")
    if not (is_ut_toeplitz(c) and is_ut_toeplitz(d)):
        raise ValueError("inputs must be upper-triangular Toeplitz")
    r = c.cols
    return rank(c @ d) == max(rank(c) + rank(d) - r, 0)


def jordan_power_type(m: int, k: int) -> Partition:
    """Jordan type of the k-th power of a single nilpotent block of size m."""
    if k >= m:
        return Partition([1] * m)
    return almost_rect(m, k)
