"""Slow reference implementations the fast code is validated against."""

from fractions import Fraction
from functools import lru_cache

from nilcomm.commutant import _generators
from nilcomm.exactla import ExactMatrix, build_jordan, rank
from nilcomm.partitions import Partition, conjugate, enumerate_partitions
from nilcomm.twoblock import antidiagonal_block_rank_formulas


def is_ar_block(parts) -> bool:
    return max(parts) - min(parts) <= 1


def segment_min_ar(parts: tuple) -> int:
    """Minimal contiguous segmentation of a nonincreasing tuple into blocks
    whose parts differ by at most 1 (dynamic program, no greedy shortcut)."""
    m = len(parts)
    best = [0] + [m + 1] * m
    for i in range(1, m + 1):
        for j in range(i):
            if parts[j] - parts[i - 1] <= 1:
                best[i] = min(best[i], best[j] + 1)
    return best[m]


@lru_cache(maxsize=None)
def setpart_min_ar(parts: tuple) -> int:
    """Exact minimum over all multiset partitions into near-equal blocks.

    Exponential; keep len(parts) <= 8.  Exists to certify that cutting the
    sorted sequence contiguously loses nothing.
    """
    m = len(parts)
    if m == 0:
        return 0
    full = (1 << m) - 1

    @lru_cache(maxsize=None)
    def go(mask: int) -> int:
        if mask == 0:
            return 0
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        best = m
        # enumerate subsets of rest to join with the lowest live element
        sub = rest
        while True:
            block = sub | (1 << low)
            vals = [parts[i] for i in range(m) if block >> i & 1]
            if is_ar_block(vals):
                best = min(best, 1 + go(mask & ~block))
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best

    out = go(full)
    go.cache_clear()
    return out


def kron_commutant_nullity(lam) -> int:
    """dim of the full centralizer of J_lam via the n^2 x n^2 linear system."""
    j = build_jordan(lam)
    n = j.rows
    rows = []
    for r in range(n):
        for c in range(n):
            coef = [Fraction(0)] * (n * n)
            for k in range(n):
                coef[k * n + c] += j[r, k]
                coef[r * n + k] -= j[k, c]
            rows.append(coef)
    return n * n - rank(ExactMatrix(rows))


def centralizer_dim_formula(lam) -> int:
    return sum(c * c for c in conjugate(lam))


@lru_cache(maxsize=None)
def euler_partition_count(n: int) -> int:
    """Partition counting via the pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * euler_partition_count(n - g1)
        if g2 <= n:
            total += sign * euler_partition_count(n - g2)
        k += 1
    return total


def gauss_rank(m: ExactMatrix) -> int:
    """Plain fraction Gaussian elimination, independent of the library path:
    each pivot row clears the nonzero entries below it, one nonzero of the
    pivot row at a time."""
    a = [list(map(Fraction, row)) for row in m.row_data()]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        nz = [(j, y) for j, y in enumerate(a[r]) if y != 0]
        for row in a[r + 1:]:
            if row[c] != 0:
                f = row[c] / a[r][c]
                for j, y in nz:
                    row[j] -= f * y
        r += 1
        if r == rows:
            break
    return r


def unitriangular_inverse(m: ExactMatrix) -> ExactMatrix:
    """Inverse of a unit upper- or lower-triangular matrix by back
    substitution: row r of the inverse of upper U is e_r minus the sum of
    U[r][k] times row k over k > r.  Lower input goes through its transpose."""
    u = m.row_data()
    n = len(u)
    if any(u[r][c] for r in range(n) for c in range(r)):
        inv_t = unitriangular_inverse(ExactMatrix(zip(*u)))
        return ExactMatrix(zip(*inv_t.row_data()))
    assert all(u[r][r] == 1 for r in range(n)), "not unit triangular"
    inv = [[int(r == c) for c in range(n)] for r in range(n)]
    for r in range(n - 2, -1, -1):
        for k in range(r + 1, n):
            if u[r][k]:
                inv[r] = [x - u[r][k] * y for x, y in zip(inv[r], inv[k])]
    return ExactMatrix(inv)


def naive_product(a, b) -> list:
    """Triple-loop product of two row sequences: entry (i, j) sums
    a[i][t] * b[t][j] over the t where a[i][t] is nonzero, listed once per
    row; zero entries of b are multiplied like any other."""
    out = []
    for row in a:
        nz = [t for t, x in enumerate(row) if x]
        out.append([sum(row[t] * b[t][j] for t in nz) for j in range(len(b[0]))])
    return out


def jordan_type_by_nullities(m: ExactMatrix) -> Partition:
    """Jordan type from the nullity of every power of m until the zero power,
    by naive products and gauss_rank, with no early stop.  Raises ValueError
    when the n-th power is not zero."""
    n = m.rows
    nulls = [0]
    acc = m.row_data()
    while nulls[-1] < n:
        if len(nulls) > n:
            raise ValueError("matrix is not nilpotent")
        nulls.append(n - gauss_rank(ExactMatrix(acc)))
        acc = naive_product(acc, m.row_data())
    return conjugate([b - a for a, b in zip(nulls, nulls[1:])])


def antidiagonal_type_by_ranks(l1: int, l2: int, j: int, l: int) -> Partition:
    """Jordan type of K_j + L_l from the rank of every power until the zero
    power, each the sum of its four block ranks from
    `antidiagonal_block_rank_formulas` (odd powers sit on the block
    antidiagonal, even powers on the block diagonal, so the blocks never
    share rows or columns).  The type is the conjugate of the rank drops."""
    ranks = [l1 + l2]
    m = 1
    while ranks[-1] > 0:
        ranks.append(sum(antidiagonal_block_rank_formulas(l1, l2, j, l, m).values()))
        m += 1
    return conjugate([a - b for a, b in zip(ranks, ranks[1:])])


def index_window_scan(ps: tuple) -> tuple:
    """(u, i, j) of dinverse._index_window by scanning every window: for each
    start i with ps_(i-1) >= 2 (or i = 0), every end j while
    ps_i - ps_(j-1) <= 1; the first strict maximum of 2i + sum wins."""
    best = (0, 0, 0)
    for i in range(len(ps)):
        if i > 0 and ps[i - 1] < 2:
            continue
        acc = 2 * i
        for j in range(i, len(ps)):
            if ps[i] - ps[j] > 1:
                break
            acc += ps[j]
            if acc > best[0]:
                best = (acc, i, j + 1)
    return best


def lemma1_structure(mu: int, r: int) -> set:
    """`dinverse.lemma1_structure` by enumerating every partition of
    2*mu - r and keeping those that split, after s <= r/2 parts, into two
    almost-rectangular segments, with first and last parts >= 2 apart."""
    out = set()
    for lam in enumerate_partitions(2 * mu - r):
        ps = tuple(lam)
        if ps[0] - ps[-1] < 2:
            continue
        if any(ps[0] - ps[s - 1] <= 1 and ps[s] - ps[-1] <= 1
               for s in range(1, min(r // 2, len(ps) - 1) + 1)):
            out.add(lam)
    return out


def assert_trusted_matrix(m):
    """A matrix built without the entry check (`ExactMatrix._trusted`) is the
    matrix the checked constructor builds from its rows, and its `_int` flag
    promises only what is true: every entry is exactly an int."""
    checked = ExactMatrix(m.row_data())
    assert m == checked and (m.rows, m.cols) == (checked.rows, checked.cols)
    assert all(type(x) in (int, Fraction) for row in m.row_data() for x in row)
    if m._int:
        assert all(type(x) is int for row in m.row_data() for x in row)


def stream_ints(state: int, lo: int, hi: int, k: int) -> tuple:
    """(values, end state) of `Stream(state).ints(lo, hi, k)` for a span of
    1 to 2^64, one splitmix64 step at a time: a rejected output starts one
    pass more, over as many steps as values are still missing."""
    mask, span = (1 << 64) - 1, hi - lo + 1
    limit = (1 << 64) - ((1 << 64) % span)
    s = state & mask
    out = []
    while len(out) < k:
        for _ in range(k - len(out)):
            s = (s + 0x9E3779B97F4A7C15) & mask
            z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            z ^= z >> 31
            if z < limit:
                out.append(lo + z % span)
    return out, s


def draw_rows_standard(lam: tuple, stream, bound: int) -> list:
    """A sampled centralizer element in the standard basis, one randint per
    generator in `_generators` order: the leading diagonals between equal
    parts are drawn for i < j and left zero (no draw) for i >= j.  `stream`
    may be any object with randint(lo, hi), random.Random included."""
    n = sum(lam)
    rows = [[0] * n for _ in range(n)]
    for (i, j, k, length, r0, c0) in _generators(Partition(lam)):
        if lam[i] == lam[j] and k == 0:
            coef = stream.randint(-bound, bound) if i < j else 0
        else:
            coef = stream.randint(-bound, bound)
        if coef:
            for r in range(length):
                rows[r0 + r][c0 + k + r] += coef
    return rows
