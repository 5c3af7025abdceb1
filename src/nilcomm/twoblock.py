"""Structured algebra of matrices commuting with a two-block nilpotent Jordan matrix.

For block sizes l1 >= l2 the commuting algebra is spanned by four families:

  M_i  power i of the top-block shift (M_0 is the identity on the top block),
  N_i  power i of the bottom-block shift (N_0 the identity on the bottom),
  K_k  ones at 0-indexed positions (r, l1 + k + r),        r < l2 - k,
  L_l  ones at 0-indexed positions (l1 + r, l1 - l2 + l + r), r < l2 - l.

The only nonzero products are

  M_i M_j = M_{i+j}    M_i K_j = K_{i+j}    K_i L_j = M_{l1-l2+i+j}
  K_i N_j = K_{i+j}    L_i M_j = L_{i+j}    L_i K_j = N_{l1-l2+i+j}
  N_i L_j = L_{i+j}    N_i N_j = N_{i+j}

with M_j = 0 for j >= l1 and K_j = L_j = N_j = 0 for j >= l2.  That is the
algebra End_R(V) of V = R/t^l1 + R/t^l2, R = k[t]: with g = l1 - l2, the
element (a, b, c, d) acts on (u, w) in V as the 2x2 polynomial matrix
[[a, t^g b], [c, d]], and takes the block generators g1 = (1, 0) and
g2 = (0, 1) to (a, c) and (t^g b, d).  Working with coefficient vectors
instead of dense matrices makes products, orders and ranks of these elements
nearly free.  Every construction below is a fixed element written down in
closed form (none draws random numbers) and returned as the `exactla.Witness`
that `exactla.certify` makes of its dense realization, typed once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from nilcomm.partitions import Partition, almost_rect, two_column
from nilcomm.exactla import ExactMatrix, Witness, _checked_int, _nonzeros, build_jordan, certify


@dataclass(frozen=True)
class TwoBlockElement:
    """Coefficient vector in the M/K/L/N span for block sizes (l1, l2).

    a[i] multiplies M_i (i < l1); b[i], c[i], d[i] multiply K_i, L_i, N_i
    (i < l2).  a[0] and d[0] scale the two block identities, so an element
    is in nilpotent form only when both vanish (and, for equal blocks,
    when b[0]*c[0] = 0 as well).  Coefficients must be int or Fraction;
    `_int` is True when all are exactly int, as for `ExactMatrix._int`.
    """

    l1: int
    l2: int
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    _int: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.l1 >= self.l2 >= 1):
            raise ValueError(f"need l1 >= l2 >= 1, got ({self.l1}, {self.l2})")
        if len(self.a) != self.l1 or any(
            len(v) != self.l2 for v in (self.b, self.c, self.d)
        ):
            raise ValueError("coefficient vectors have wrong length")
        if not type(self.a) is type(self.b) is type(self.c) is type(self.d) is tuple:
            for name in ("a", "b", "c", "d"):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "_int", _checked_int((self.a, self.b, self.c, self.d)))

    @property
    def n(self) -> int:
        return self.l1 + self.l2

    def is_nilpotent_form(self) -> bool:
        if self.a[0] != 0 or self.d[0] != 0:
            return False
        if self.l1 == self.l2 and self.b[0] * self.c[0] != 0:
            return False
        return True

    def leading_indices(self) -> tuple[int, int, int, int]:
        """(alpha, beta, gamma, delta): first nonzero index per family.

        Sentinels l1 (for a) and l2 (for b, c, d) when a family is zero.
        """
        out = [self.l1, self.l2, self.l2, self.l2]
        for f, vec in enumerate((self.a, self.b, self.c, self.d)):
            for i, x in enumerate(vec):  # a plain loop: no generator per family
                if x:
                    out[f] = i
                    break
        return tuple(out)

    def render(self) -> str:
        toks = []
        for name, vec in (("M", self.a), ("K", self.b), ("L", self.c), ("N", self.d)):
            for i, x in enumerate(vec):
                if x:
                    toks.append(f"{name}[{i}]={Fraction(x)}")
        return " ".join(toks) if toks else "0"


def tb_element(l1: int, l2: int, terms) -> TwoBlockElement:
    """Sum of coef times the basis element (family, i) over (family, i, coef)
    terms, family in 'M', 'K', 'L', 'N'; an index outside 0 <= i < l1 (M)
    or 0 <= i < l2 (K, L, N) raises ValueError.  Each coef is checked first,
    as the constructor checks it: a sum would turn a bool into an int."""
    terms = tuple(terms)
    _checked_int([[coef for _, _, coef in terms]])
    vecs = {"M": [0] * l1, "K": [0] * l2, "L": [0] * l2, "N": [0] * l2}
    for family, i, coef in terms:
        if family not in vecs:
            raise ValueError(f"unknown family {family!r}")
        if not 0 <= i < len(vecs[family]):
            raise ValueError(f"{family}_{i} is outside 0..{len(vecs[family]) - 1}")
        vecs[family][i] += coef
    return TwoBlockElement(l1, l2, *map(tuple, vecs.values()))


def tb_mul(x: TwoBlockElement, y: TwoBlockElement) -> TwoBlockElement:
    """The product table in the module docstring: x applied to y's two
    columns y g1 = (y.a, y.c) and y g2 = (t^g y.b, y.d)."""
    if (x.l1, x.l2) != (y.l1, y.l2):
        raise ValueError("block size mismatch")
    gap = x.l1 - x.l2
    x_nz = _nonzeros((x.a, x.b, x.c, x.d))
    a, c = _step(x.l1, x.l2, x_nz, y.a, y.c)
    top, d = _step(x.l1, x.l2, x_nz, (0,) * gap + y.b, y.d)
    return TwoBlockElement(x.l1, x.l2, tuple(a), tuple(top[gap:]), tuple(c), tuple(d))


def _step(l1: int, l2: int, x_nz, u, w) -> tuple:
    """x (u, w) = (a u + t^g b w mod t^l1, c u + d w mod t^l2), as lists, for
    x given by the `_nonzeros` lists of its (a, b, c, d).  They are in
    increasing index order, so each inner loop stops at its first index past
    the truncation."""
    gap = l1 - l2
    top = [0] * l1
    bottom = [0] * l2
    xa, xb, xc, xd = x_nz
    for j, v in enumerate(u):
        if v:
            for i, s in xa:  # a u
                if i + j >= l1:
                    break
                top[i + j] += s * v
            for i, s in xc:  # c u
                if i + j >= l2:
                    break
                bottom[i + j] += s * v
    for j, v in enumerate(w):
        if v:
            for i, s in xb:  # t^g b w
                if gap + i + j >= l1:
                    break
                top[gap + i + j] += s * v
            for i, s in xd:  # d w
                if i + j >= l2:
                    break
                bottom[i + j] += s * v
    return top, bottom


def tb_pow_order(x: TwoBlockElement) -> int:
    """Smallest k >= 1 with x^k = 0, or raises if x is not nilpotent-form.

    x is R-linear and V = R g1 + R g2, so x^k = 0 exactly when x^k g1 = 0
    and x^k g2 = 0: the order is the longer of the two generator orbits.
    When c[0] != 0, c is a unit mod t^l2 and g2 = c^-1 (x g1 - a g1) lies in
    R g1 + R x g1, so g1's orbit decides alone; likewise g2's when l1 = l2
    and b[0] != 0.  A nilpotent x has x^n = 0, so an orbit still nonzero
    after n + 1 steps raises RuntimeError: a bug.
    """
    if not x.is_nilpotent_form():
        raise ValueError("order is only computed for nilpotent-form elements")
    l1, l2 = x.l1, x.l2
    x_nz = _nonzeros((x.a, x.b, x.c, x.d))
    orbits = [(x.a, x.c), ((0,) * (l1 - l2) + x.b, x.d)]  # x g1, x g2
    if x.c[0]:
        del orbits[1]
    elif l1 == l2 and x.b[0]:
        del orbits[0]
    order = 1
    for u, w in orbits:
        k = 1
        while any(u) or any(w):
            if k > x.n + 1:
                raise RuntimeError("power order exceeded n + 1; bug")
            u, w = _step(l1, l2, x_nz, u, w)
            k += 1
        order = max(order, k)
    return order


def tb_to_matrix(x: TwoBlockElement) -> ExactMatrix:
    """Dense realization; commutes with the two-block Jordan matrix exactly.

    Entry types were checked by x's constructor, on n coefficients, not n^2 entries.
    """
    return ExactMatrix._trusted(_dense_rows(x), x._int)


def _dense_rows(x: TwoBlockElement) -> tuple:
    """x's dense rows, each the join of two windows of the coefficient tuples
    padded by l1 - 1 zeros in front (so index s = l1 - 1 holds each constant
    term).  With g = l1 - l2:

      top row r     a[s-r : s-r+l1] + b[s-r : s-r+l2]   (M_i at (r, r+i),
                                                          K_k at (r, l1+k+r))
      bottom row r  c[s-g-r : s-g-r+l1] + d[s-r : s-r+l2] (L_l at (l1+r, g+l+r),
                                                          N_i at (l1+r, l1+r+i))
    """
    l1, l2 = x.l1, x.l2
    pad = (0,) * (l1 - 1)
    a, b, c, d = pad + x.a, pad + x.b, pad + x.c, pad + x.d
    s = l1 - 1
    t = l2 - 1  # s - g
    return tuple([a[s - r:s - r + l1] + b[s - r:s - r + l2] for r in range(l1)]
                 + [c[t - r:t - r + l1] + d[s - r:s - r + l2] for r in range(l2)])


def _place(rows: list, x: TwoBlockElement, o1: int, o2: int) -> None:
    """Write x's dense rows into rows: its top block on the rows and columns
    from o1, its bottom block on those from o2."""
    l1, l2 = x.l1, x.l2
    for r, dense in enumerate(_dense_rows(x)):
        row = rows[o1 + r] if r < l1 else rows[o2 + r - l1]
        row[o1:o1 + l1] = dense[:l1]
        row[o2:o2 + l2] = dense[l1:]


def tb_rank(x: TwoBlockElement) -> int:
    """Rank of the dense realization, from the Fitting ideal of x's cokernel.

    The cokernel R^2 / (X R^2 + diag(t^l1, t^l2) R^2) of x's matrix X (see
    the module docstring) is killed by t^l1, so its dimension n - rank is the
    t-adic valuation v of the gcd of the 2x2 minors of [X | diag(t^l1,
    t^l2)]: ad - t^g bc, t^l2 a, t^l1 b, t^l1 c, t^l1 d and t^n.  Hence

      rank = n - min(v(ad - t^g bc), l2 + v(a), l1 + v(b), l1 + v(c),
                     l1 + v(d), n),

    with v(ad - t^g bc) found one coefficient at a time, up to the minimum
    of the other terms.  Any coefficients, nilpotent form or not.
    """
    l1, l2 = x.l1, x.l2
    gap = l1 - l2
    a, b, c, d = x.a, x.b, x.c, x.d
    # sentinels l1 (a) and l2 (b, c, d) for a zero family keep the bound <= n
    alpha, beta, gamma, delta = x.leading_indices()
    bound = min(l2 + alpha, l1 + min(beta, gamma, delta))
    for k in range(min(alpha + delta, gap + beta + gamma), bound):
        coef = 0
        for i in range(max(alpha, k - l2 + 1), min(l1 - 1, k - delta) + 1):
            coef += a[i] * d[k - i]
        h = k - gap  # t^g bc contributes b[j] c[h - j]
        for j in range(max(beta, h - l2 + 1), min(l2 - 1, h - gamma) + 1):
            coef -= b[j] * c[h - j]
        if coef:
            return x.n - k
    return x.n - bound


def tb_rank_bound(x: TwoBlockElement) -> int:
    """Upper bound max(n - alpha - delta, 2 l2 - beta - gamma) on the dense rank."""
    alpha, beta, gamma, delta = x.leading_indices()
    return max(x.n - alpha - delta, 2 * x.l2 - beta - gamma)


def antidiagonal(l1: int, l2: int, j: int, l: int, bcoef, ccoef):
    """Element bcoef*K_j + ccoef*L_l with its predicted Jordan type.

    Returns (element, predicted type, case) where case is 'a', 'b' or 'c'.
    The type is the closed form of one of three shape families.  With
    w = l1 - l2 + j + l, the family is decided by where multiples of w fall
    (each window admits at most one k):

      a: some k with l2 <= k w < l1
         -> ((2k+1)^(l1-kw), (2k)^(w+l2-l1), (2k-1)^(kw-l2))
      b: some k with l2 - l <= k w < l2 - j and the b shape is not P(n, w)
         -> ((2k+2)^(l2-kw-j), (2k+1)^(w+j-l), (2k)^(kw+l-l2))
      c: otherwise P(n, w), the almost-rectangular type.

    Zero exponents are dropped, and none is negative inside its window: in
    a, l1 - kw > 0, w + l2 - l1 = j + l >= 0 and kw - l2 >= 0; in b,
    l2 - kw - j > 0, w + j - l = l1 - l2 + 2j >= 0 and kw + l - l2 >= 0.
    The tests derive the same type from the block ranks of every power
    (`antidiagonal_block_rank_formulas`) for each input with n <= 40.
    """
    if not (l1 >= l2 >= 1):
        raise ValueError(f"need l1 >= l2 >= 1, got ({l1}, {l2})")
    if not (0 <= j <= l < l2):
        raise ValueError(f"need 0 <= j <= l < l2, got j={j}, l={l}, l2={l2}")
    if bcoef == 0 or ccoef == 0:
        raise ValueError("coefficients must be nonzero")
    if l1 == l2 and j + l == 0:
        raise ValueError("equal blocks need j + l >= 1 for a nilpotent element")
    x = tb_element(l1, l2, [("K", j, bcoef), ("L", l, ccoef)])
    w = l1 - l2 + j + l
    k = -(-l2 // w)  # smallest k with k w >= l2
    if k * w < l1:
        return x, Partition([2 * k + 1] * (l1 - k * w) + [2 * k] * (w + l2 - l1)
                            + [2 * k - 1] * (k * w - l2)), "a"
    k = -(-(l2 - l) // w)  # smallest k with k w >= l2 - l
    pred = almost_rect(l1 + l2, w)
    if k * w < l2 - j:
        shape = Partition([2 * k + 2] * (l2 - k * w - j) + [2 * k + 1] * (w + j - l)
                          + [2 * k] * (k * w + l - l2))
        if shape != pred:
            return x, shape, "b"
    return x, pred, "c"


def antidiagonal_block_rank_formulas(l1: int, l2: int, j: int, l: int, m: int) -> dict:
    """Predicted block ranks of the m-th power of K_j + L_l.

    Keys '11', '12', '21', '22' give the rank of each block of the power;
    odd powers live on the antidiagonal, even powers on the diagonal.
    """
    w = l1 - l2 + j + l
    if m % 2 == 0:
        h = m // 2
        return {
            "11": max(l1 - h * w, 0),
            "22": max(l2 - h * w, 0),
            "12": 0,
            "21": 0,
        }
    h = (m + 1) // 2
    return {
        "11": 0,
        "22": 0,
        "12": max(l1 + l - h * w, 0),
        "21": max(l1 + j - h * w, 0),
    }


def construct_lemma_odd(l1: int, l2: int, a: int) -> Witness:
    """Square-zero element of rank a commuting with the two-block Jordan
    matrix: `construct_squarezero_partner`'s two-block case.

    Valid for 0 <= a <= floor((l1+l2)/2).  Powers of the individual blocks
    cover every rank except the corner where both sizes are odd and
    a = (l1+l2)/2; that corner needs a genuinely off-diagonal element.
    """
    l1, l2 = operator.index(l1), operator.index(l2)
    if not (l1 >= l2 >= 1):
        raise ValueError(f"need l1 >= l2 >= 1, got ({l1}, {l2})")
    return construct_squarezero_partner((l1, l2), a)


def _odd_pair(l1: int, l2: int) -> TwoBlockElement:
    """Square-zero element of rank (l1 + l2) / 2 for odd l1 >= l2: K_0 for
    equal blocks; otherwise both blocks shifted halfway, with the corners
    coupled so that the square cancels through the K L product."""
    if l1 == l2:
        return tb_element(l1, l2, [("K", 0, 1)])
    k1, k2 = (l1 - 1) // 2, (l2 - 1) // 2
    terms = [("M", k1, 1), ("K", k2, 1), ("L", k2, -1)]
    terms += [("N", k2 + 1, 1)] * (k2 + 1 < l2)
    return tb_element(l1, l2, terms)


def construct_squarezero_partner(mu, a: int) -> Witness:
    """Square-zero matrix of rank a commuting with the Jordan matrix of mu.

    A power of block p has rank at most p // 2 with square zero, and these
    halves sum to floor(n/2) less one per pair of odd parts.  So each part,
    in host order, takes up to p // 2 of the rank as J_p^(p - take), and
    only the rank beyond the halves couples odd parts, paired in order:
    each coupled pair adds one, its `_odd_pair` element of rank (p + q) / 2
    replacing the two halves.  Everything is written straight into the
    host-sized rows, and the whole matrix is verified once.
    """
    mu = Partition(mu)
    a = operator.index(a)
    n = mu.n
    if not 0 <= a <= n // 2:
        raise ValueError(f"rank {a} out of range for n={n}")
    offsets = [0, *accumulate(mu)]
    rows = [[0] * n for _ in range(n)]
    remaining = a
    for p, o in zip(mu, offsets):
        take = min(remaining, p // 2)
        remaining -= take
        for r in range(take):  # J_p^(p - take): ones on one shifted diagonal
            rows[o + r][o + p - take + r] = 1
    odd = [i for i, p in enumerate(mu) if p % 2]
    for i, j in list(zip(odd[0::2], odd[1::2]))[:remaining]:
        _place(rows, _odd_pair(mu[i], mu[j]), offsets[i], offsets[j])
        remaining -= 1
    if remaining:
        raise RuntimeError(f"rank {remaining} of {a} left unplaced on {tuple(mu)}; bug")
    return certify(ExactMatrix(rows), mu, two_column(n, a))


def construct_lemma_eq2(lam: int, seed: int = 0) -> Witness:
    """Element M_1 + N_1 + K_0 = J_(lam,lam) + K_0 of type (lam+1, lam-1),
    which commutes with the equal-block Jordan matrix; verified densely.

    `seed` is ignored: the element is fixed.  The argument stays because
    perfbench's `twoblock_draws` workload still passes one.
    """
    if lam < 2:
        raise ValueError(f"need block size >= 2, got {lam}")
    x = tb_element(lam, lam, [("M", 1, 1), ("N", 1, 1), ("K", 0, 1)])
    return certify(tb_to_matrix(x), (lam, lam), (lam + 1, lam - 1))


def maxrank_partners(l1: int, l2: int) -> tuple[Witness, ...]:
    """Witnesses of the Jordan types of maximal-rank elements commuting with
    the two-block host, each type its witness's `jordan`.

    Gap <= 1 gives the full-cycle type (n); gap exactly 2 gives the host type
    and then its balanced neighbor; gap >= 3 gives only the host type.  The
    gap-2 neighbor (m, m), with m = l2 + 1, is (m-1) M_1 - K_0 + L_0 +
    (m+1) N_1 (no N_1 when m = 2): m times J_(m,m) written in a Jordan chain
    basis of `construct_lemma_eq2(m)`'s element.
    """
    if not (l1 >= l2 >= 1):
        raise ValueError(f"need l1 >= l2 >= 1, got ({l1}, {l2})")
    host, gap = (l1, l2), l1 - l2
    if gap <= 1:
        terms = [("K", 0, 1)] + [("L", 1 - gap, 1)] * (1 - gap < l2)
        out = [certify(tb_to_matrix(tb_element(l1, l2, terms)), host, (l1 + l2,))]
    else:
        out = [certify(build_jordan(host), host, host)]
    if gap == 2:
        m = l2 + 1
        terms = [("M", 1, m - 1), ("K", 0, -1), ("L", 0, 1)] + [("N", 1, m + 1)] * (m > 2)
        out.append(certify(tb_to_matrix(tb_element(l1, l2, terms)), host, (m, m)))
    return tuple(out)
