import hashlib
import itertools
import logging
import math
from fractions import Fraction

import pytest

from nilcomm import twoblock
from nilcomm._rng import Stream, derive
from nilcomm.exactla import build_jordan, jordan_type, rank
from nilcomm.partitions import Partition, almost_rect, enumerate_partitions
from nilcomm.twoblock import (
    TwoBlockElement,
    antidiagonal,
    antidiagonal_block_rank_formulas,
    construct_lemma_eq2,
    construct_lemma_odd,
    construct_squarezero_partner,
    maxrank_partners,
    tb_add,
    tb_mul,
    tb_pow_order,
    tb_rank_bound,
    tb_to_matrix,
    tb_unit,
)

from . import oracles


def tb_zero(l1, l2):
    return TwoBlockElement(l1, l2, (0,) * l1, (0,) * l2, (0,) * l2, (0,) * l2)


def random_element(l1, l2, rng, zero_chance=3):
    """Element with coefficient vectors drawn from a seeded stream."""
    def vec(length):
        out = []
        for _ in range(length):
            if rng.randint(0, zero_chance) == 0:
                out.append(Fraction(0))
            else:
                out.append(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        return tuple(out)

    a = vec(l1)
    b = vec(l2)
    c = vec(l2)
    d = vec(l2)
    # keep it nilpotent: kill the degree-zero scalar parts
    a = (Fraction(0),) + a[1:] if a else a
    d = (Fraction(0),) + d[1:] if d else d
    if l1 == l2 and b and c:
        b = (Fraction(0),) + b[1:]
    return TwoBlockElement(l1, l2, a, b, c, d)


def int_element(l1, l2, rng):
    """Suite-5 draw: integer coefficients in [-10, 10], nilpotent form
    (a[0] = d[0] = 0, and b[0] c[0] = 0 on equal blocks)."""
    def vec(length):
        return [rng.randint(-10, 10) for _ in range(length)]

    a, b, c, d = vec(l1), vec(l2), vec(l2), vec(l2)
    a[0] = d[0] = 0
    if l1 == l2:
        (b if rng.randint(0, 1) else c)[0] = 0
    return TwoBlockElement(l1, l2, tuple(a), tuple(b), tuple(c), tuple(d))


def edge_element(l1, l2, rng):
    """Zero-heavy integer element in nilpotent form whose products with
    itself sit at the truncation bounds.  Nonzeros: the last two indices of
    each family (never a[0] or d[0]); b[i], c[j] with i + j = l2 - 1 or l2,
    so K_i L_j = M_(gap+i+j) lands on M's last index l1 - 1 or just past it;
    and c[i], b[j] with i + j = l2 - 1 - gap or l2 - gap, so L_i K_j =
    N_(gap+i+j) lands on N's last index l2 - 1 or just past it."""
    gap = l1 - l2
    a, b, c, d = [0] * l1, [0] * l2, [0] * l2, [0] * l2
    for vec in (a, b, c, d):
        for i in range(max(len(vec) - 2, 0), len(vec)):
            if rng.randint(0, 2):
                vec[i] = rng.nonzero(9)
    for left, right, edge in ((b, c, l2 - 1), (c, b, l2 - 1 - gap)):
        s = edge + rng.randint(0, 1)
        lo, hi = max(0, s - l2 + 1), min(s, l2 - 1)
        if lo <= hi:
            i = rng.randint(lo, hi)
            left[i], right[s - i] = rng.nonzero(9), rng.nonzero(9)
    a[0] = d[0] = 0
    if l1 == l2:
        (b if rng.randint(0, 1) else c)[0] = 0
    return TwoBlockElement(l1, l2, tuple(a), tuple(b), tuple(c), tuple(d))


def shapes(l1_max):
    return [(l1, l2) for l1 in range(1, l1_max + 1) for l2 in range(1, l1 + 1)]


def shapes_up_to_n(n_max):
    return [(l1, l2) for l1, l2 in shapes(n_max - 1) if l1 + l2 <= n_max]


def cleared(x):
    """Dense realization of x scaled by the lcm s of its denominators, as
    integer rows, and s."""
    rows = tb_to_matrix(x).row_data()
    s = math.lcm(*(v.denominator for row in rows for v in row))
    return [[int(v * s) for v in row] for row in rows], s


def dense_product(x, y):
    """Oracle: s and the triple-loop product of the dense realizations scaled
    by s.  The product is bilinear, so the loop runs on the integer copies of
    x and y cleared of denominators, with s the product of their scales."""
    (a, sa), (b, sb) = cleared(x), cleared(y)
    return sa * sb, oracles.naive_product(a, b)


def scaled_product(x, y, s):
    """tb_mul(x, y) in dense form, every entry times s."""
    return [[v * s for v in row] for row in tb_to_matrix(tb_mul(x, y)).row_data()]


def dense_order(x):
    """Oracle: smallest k with x^k = 0, powering the dense matrix by triple
    loops (on its integer copy: a nonzero scale leaves the order unchanged)."""
    dense, _ = cleared(x)
    acc, order = dense, 1
    while any(any(row) for row in acc):
        acc = oracles.naive_product(acc, dense)
        order += 1
    return order


def test_units_match_dense_positions():
    for l1, l2 in shapes(5):
        for fam, bound in (("M", l1), ("K", l2), ("L", l2), ("N", l2)):
            for i in range(bound):
                m = tb_to_matrix(tb_unit(l1, l2, fam, i, Fraction(7, 2)))
                entries = {
                    (r, c)
                    for r in range(m.rows)
                    for c in range(m.cols)
                    if m[r, c] != 0
                }
                for r, c in entries:
                    assert m[r, c] == Fraction(7, 2)
                if fam == "M":
                    assert entries == {(r, r + i) for r in range(l1 - i)}
                elif fam == "K":
                    assert entries == {(r, l1 + i + r) for r in range(l2 - i)}
                elif fam == "L":
                    assert entries == {(l1 + r, l1 - l2 + i + r) for r in range(l2 - i)}
                else:
                    assert entries == {(l1 + r, l1 + r + i) for r in range(l2 - i)}


def test_every_element_commutes_with_host():
    rng = Stream(derive(99, 1))
    for l1, l2 in shapes(6):
        j = build_jordan(Partition([l1, l2]))
        for _ in range(20):
            x = tb_to_matrix(random_element(l1, l2, rng))
            assert x @ j == j @ x


def test_mul_is_the_dense_product():
    rng = Stream(derive(7, 2))
    # Fraction draws with zeros on small shapes, then integer draws at
    # suite-5 scale on every two-block shape with n <= 16
    for l1, l2 in shapes(6):
        for _ in range(120):
            x = random_element(l1, l2, rng)
            y = random_element(l1, l2, rng)
            s, want = dense_product(x, y)
            assert scaled_product(x, y, s) == want, (x, y)
    for l1, l2 in shapes_up_to_n(16):
        for _ in range(8):
            x, y = int_element(l1, l2, rng), int_element(l1, l2, rng)
            s, want = dense_product(x, y)
            assert s == 1 and scaled_product(x, y, s) == want, (x, y)
    # zero-heavy elements whose index sums meet every truncation bound
    for l1, l2 in shapes_up_to_n(16):
        for _ in range(4):
            x, y = edge_element(l1, l2, rng), edge_element(l1, l2, rng)
            for u, v in ((x, x), (x, y), (y, x)):
                s, want = dense_product(u, v)
                assert s == 1 and scaled_product(u, v, s) == want, (u, v)


def test_add_zero_scale():
    rng = Stream(derive(7, 3))
    for l1, l2 in [(4, 3), (5, 5), (6, 2)]:
        z = tb_zero(l1, l2)
        assert tb_to_matrix(z).is_zero()
        x = random_element(l1, l2, rng)
        y = random_element(l1, l2, rng)
        assert tb_to_matrix(tb_add(x, y)) == tb_to_matrix(x) + tb_to_matrix(y)
        assert tb_add(x, z) == x


def test_pow_order_matches_dense():
    rng = Stream(derive(7, 4))
    for l1, l2 in shapes(6):
        for _ in range(25):
            x = random_element(l1, l2, rng)
            assert tb_pow_order(x) == dense_order(x), x
    for l1, l2 in shapes_up_to_n(16):
        for _ in range(5):
            x = int_element(l1, l2, rng)
            assert tb_pow_order(x) == dense_order(x), x
        for _ in range(3):
            x = edge_element(l1, l2, rng)
            assert tb_pow_order(x) == dense_order(x), x


def test_pow_order_refuses():
    # identity on the top block, a[0] != 0: not in nilpotent form
    with pytest.raises(ValueError, match="nilpotent-form"):
        tb_pow_order(tb_unit(4, 2, "M", 0))
    # equal blocks with b[0] c[0] != 0
    with pytest.raises(ValueError, match="nilpotent-form"):
        tb_pow_order(tb_add(tb_unit(3, 3, "K", 0), tb_unit(3, 3, "L", 0)))
    # M_1 on a block of 5 has order 5: powers 1..4 are nonzero
    x = tb_unit(5, 2, "M", 1)
    assert tb_pow_order(x) == tb_pow_order(x, cap=4) == 5
    with pytest.raises(RuntimeError, match="exceeded cap"):
        tb_pow_order(x, cap=3)


def test_rank_bound_dominates_dense_rank():
    rng = Stream(derive(7, 5))
    for l1, l2 in shapes(6):
        for _ in range(40):
            x = random_element(l1, l2, rng)
            assert rank(tb_to_matrix(x)) <= tb_rank_bound(x)


def test_rank_bound_examples():
    x = tb_add(tb_unit(4, 3, "M", 1, 1), tb_unit(4, 3, "N", 1, 1))
    assert tb_rank_bound(x) == 5 == rank(tb_to_matrix(x))
    y = tb_add(tb_unit(4, 4, "K", 0, 1), tb_unit(4, 4, "L", 0, 1))
    assert tb_rank_bound(y) == 8
    assert rank(tb_to_matrix(y)) <= 8
    assert tb_rank_bound(tb_zero(5, 2)) == 0


def test_antidiagonal_worked_cases():
    x, pred, case = antidiagonal(5, 3, 0, 1, 1, 1)
    assert (case, tuple(pred)) == ("a", (3, 3, 2))
    x, pred, case = antidiagonal(9, 8, 0, 4, 1, 1)
    assert (case, tuple(pred)) == ("b", (4, 4, 4, 3, 2))
    x, pred, case = antidiagonal(6, 5, 0, 2, 1, 1)
    assert (case, tuple(pred)) == ("c", (4, 4, 3))
    assert pred == almost_rect(11, 3)
    # window below the classical one still lands on the middle family
    x, pred, case = antidiagonal(7, 5, 0, 2, 1, 1)
    assert (case, tuple(pred)) == ("b", (4, 3, 3, 2))


def test_antidiagonal_rejects_bad_input():
    with pytest.raises(ValueError):
        antidiagonal(3, 4, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        antidiagonal(4, 3, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        antidiagonal(4, 3, 0, 3, 1, 1)
    with pytest.raises(ValueError):
        antidiagonal(4, 3, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        antidiagonal(4, 4, 0, 0, 1, 1)


def test_antidiagonal_prediction_is_dense_type():
    rng = Stream(derive(11, 6))
    for n in range(2, 11):
        for l1 in range((n + 1) // 2, n):
            l2 = n - l1
            for j in range(l2):
                for l in range(j, l2):
                    if l1 == l2 and j + l == 0:
                        continue
                    bc = Fraction(rng.nonzero(6))
                    cc = Fraction(rng.nonzero(6))
                    x, pred, case = antidiagonal(l1, l2, j, l, bc, cc)
                    assert jordan_type(tb_to_matrix(x)) == pred
                    assert case in "abc"


def test_block_rank_formulas_against_dense():
    rng = Stream(derive(11, 7))
    for l1, l2, j, l in [(5, 3, 0, 1), (6, 5, 0, 2), (7, 5, 0, 2), (4, 4, 1, 2), (6, 2, 0, 0)]:
        x, _, _ = antidiagonal(l1, l2, j, l, 1, 1)
        dense = tb_to_matrix(x)
        acc = dense
        m = 1
        while not acc.is_zero():
            f = antidiagonal_block_rank_formulas(l1, l2, j, l, m)
            n = l1 + l2
            blocks = {
                "11": acc.block(0, l1, 0, l1),
                "12": acc.block(0, l1, l1, n),
                "21": acc.block(l1, n, 0, l1),
                "22": acc.block(l1, n, l1, n),
            }
            for key, sub in blocks.items():
                assert rank(sub) == f[key]
            acc = acc @ dense
            m += 1


def test_lemma_odd_exhaustive():
    for n in range(2, 13):
        for l1 in range((n + 1) // 2, n):
            l2 = n - l1
            if l2 < 1:
                continue
            j = build_jordan(Partition([l1, l2]))
            for a in range(n // 2 + 1):
                m = construct_lemma_odd(l1, l2, a)
                assert m @ j == j @ m
                assert (m @ m).is_zero()
                assert rank(m) == a
                if a:
                    assert jordan_type(m) == Partition([2] * a + [1] * (n - 2 * a))
            with pytest.raises(ValueError):
                construct_lemma_odd(l1, l2, n // 2 + 1)


def test_squarezero_partner_spot_checks():
    for mu, a in [((3, 1), 2), ((3, 3, 3), 4), ((7,), 3), ((4, 2, 1), 3), ((5, 5, 1, 1), 6)]:
        p = Partition(mu)
        m = construct_squarezero_partner(p, a)
        j = build_jordan(p)
        assert m @ j == j @ m
        assert (m @ m).is_zero()
        assert rank(m) == a
    assert construct_squarezero_partner(Partition([4]), 0).is_zero()
    with pytest.raises(ValueError):
        construct_squarezero_partner(Partition([3, 1]), 3)


def test_lemma_eq2_types():
    for lam in range(2, 9):
        m = construct_lemma_eq2(lam, seed=5)
        j = build_jordan(Partition([lam, lam]))
        assert m @ j == j @ m
        assert jordan_type(m) == (lam + 1, lam - 1)
    with pytest.raises(ValueError):
        construct_lemma_eq2(1)


def test_lemma_eq2_logs_each_redraw(monkeypatch, caplog):
    # the first draw is reported degenerate, so exactly one redraw happens;
    # each draw is typed once, by the witness check
    calls = []

    def degenerate_once(m):
        calls.append(m)
        return Partition([3, 3]) if len(calls) == 1 else jordan_type(m)

    monkeypatch.setattr(twoblock, "jordan_type", degenerate_once)
    with caplog.at_level(logging.DEBUG, logger="nilcomm"):
        m = construct_lemma_eq2(3, seed=11)
    assert len(calls) == 2 and m == calls[1] != calls[0]
    assert jordan_type(m) == (4, 2)
    [rec] = caplog.records
    assert rec.name == "nilcomm" and rec.levelno == logging.DEBUG
    assert rec.getMessage() == ("construct_lemma_eq2(3): attempt 0 (seed 11) has "
                                "type (3, 3), not (4, 2); redrawing")
    # nothing reaches the default WARNING level
    caplog.clear()
    calls.clear()
    with caplog.at_level(logging.WARNING):
        construct_lemma_eq2(3, seed=11)
    assert len(calls) == 2 and caplog.records == []


def test_witnesses_are_typed_once(monkeypatch):
    # hosts with one and two odd pairs, every rank: the pairs' elements are
    # written into the host matrix unverified, and the whole is typed once
    calls = []

    def counting(m):
        calls.append(m)
        return jordan_type(m)

    monkeypatch.setattr(twoblock, "jordan_type", counting)
    for mu in [(3, 1), (5, 3, 2, 1), (7, 5, 3, 3, 1), (4, 3, 3, 2, 1)]:
        p = Partition(mu)
        for a in range(p.n // 2 + 1):
            calls.clear()
            m = construct_squarezero_partner(p, a)
            assert calls == [m], (mu, a)
    for l1, l2, a in [(5, 3, 4), (5, 3, 2), (4, 4, 4), (6, 2, 3), (3, 3, 0)]:
        calls.clear()
        m = construct_lemma_odd(l1, l2, a)
        assert calls == [m], (l1, l2, a)


# SHA-256 of the witnesses below, recorded at commit 32f066b, before odd
# pairs and block powers were built as coefficient vectors
GOLDEN_WITNESSES = "ac390531a449b91dc5555a3827daf865882756005e67810ad66cbdcaa4dfcda2"


def test_witnesses_match_golden_digest():
    h = hashlib.sha256()

    def feed(m):
        h.update(m.dump().encode())
        h.update(b"\n")

    for n in range(1, 11):
        for mu in enumerate_partitions(n):
            for a in range(n // 2 + 1):
                feed(construct_squarezero_partner(mu, a))
    for n in range(2, 17):
        for l1 in range((n + 1) // 2, n):
            for a in range(n // 2 + 1):
                feed(construct_lemma_odd(l1, n - l1, a))
    for m in range(2, 9):
        feed(construct_lemma_eq2(m, 0))
    for l1, l2 in [(5, 4), (6, 4), (7, 3)]:
        for shape, w in maxrank_partners(l1, l2).items():
            h.update(str(tuple(shape)).encode())
            feed(w)
    assert h.hexdigest() == GOLDEN_WITNESSES


def test_maxrank_partners_cases():
    got = maxrank_partners(5, 4)
    assert set(got) == {Partition([9])}
    got = maxrank_partners(6, 4)
    assert set(got) == {Partition([6, 4]), Partition([5, 5])}
    got = maxrank_partners(7, 3)
    assert set(got) == {Partition([7, 3])}
    for (l1, l2) in [(5, 4), (6, 4), (7, 3), (3, 3), (4, 2)]:
        j = build_jordan(Partition([l1, l2]))
        for shape, wit in maxrank_partners(l1, l2).items():
            assert wit @ j == j @ wit
            assert jordan_type(wit) == shape
            # maximal rank: n-1 when the gap is small enough to merge, n-2 otherwise
            assert rank(wit) == l1 + l2 - shape.t
            assert shape.t == (1 if l1 - l2 <= 1 else 2)
