import copy
import hashlib
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilcomm import exactla, twoblock, verify
from nilcomm._rng import Stream, derive
from nilcomm.commutant import sample_nilpotent_commuting
from nilcomm.exactla import ExactMatrix, Witness, build_jordan, jordan_type, rank
from nilcomm.partitions import (Partition, almost_rect, conjugate, enumerate_partitions,
                                two_column)
from nilcomm.twoblock import (
    TwoBlockElement,
    antidiagonal,
    antidiagonal_block_rank_formulas,
    construct_conjugate_partner,
    construct_lemma_eq2,
    construct_lemma_odd,
    construct_squarezero_partner,
    maxrank_partners,
    tb_element,
    tb_mul,
    tb_pow_order,
    tb_rank,
    tb_rank_bound,
    tb_to_matrix,
)

from . import oracles


def tb_zero(l1, l2):
    return TwoBlockElement(l1, l2, (0,) * l1, (0,) * l2, (0,) * l2, (0,) * l2)


def terms(x):
    """x as tb_element's (family, index, coefficient) terms."""
    return [(f, i, v) for f, vec in zip("MKLN", (x.a, x.b, x.c, x.d))
            for i, v in enumerate(vec)]


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
                m = tb_to_matrix(tb_element(l1, l2, [(fam, i, Fraction(7, 2))]))
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


def test_element_refuses_indices_outside_a_family():
    # a negative index would wrap around: M_-4 on (4, 2) to M_0, K_-1 to K_1
    for family, i in (("M", -4), ("M", 4), ("K", -1), ("L", 2), ("N", -2)):
        with pytest.raises(ValueError, match=f"{family}_{i} is outside"):
            tb_element(4, 2, [(family, i, 1)])
    with pytest.raises(ValueError, match="unknown family"):
        tb_element(4, 2, [("P", 0, 1)])
    assert tb_element(4, 2, [("M", 3, 1), ("K", 1, 2)]).render() == "M[3]=1 K[1]=2"


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
        sums = [[p + q for p, q in zip(r, s)] for r, s in
                zip(tb_to_matrix(x).row_data(), tb_to_matrix(y).row_data())]
        # tb_element sums its terms, repeated basis elements included
        assert tb_to_matrix(tb_element(l1, l2, terms(x) + terms(y))) == ExactMatrix(sums)
        assert tb_element(l1, l2, terms(x)) == x
        assert tb_element(l1, l2, []) == z


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


def test_pow_order_refuses(monkeypatch):
    # identity on the top block, a[0] != 0: not in nilpotent form
    with pytest.raises(ValueError, match="nilpotent-form"):
        tb_pow_order(tb_element(4, 2, [("M", 0, 1)]))
    # equal blocks with b[0] c[0] != 0
    with pytest.raises(ValueError, match="nilpotent-form"):
        tb_pow_order(tb_element(3, 3, [("K", 0, 1), ("L", 0, 1)]))
    # a step that never reaches zero trips the guard after n + 1 steps, on
    # each generator orbit: g1's alone (c[0] != 0), g2's alone (equal blocks
    # with b[0] != 0), and both when c[0] = 0
    steps = []

    def never_zero(l1, l2, x_nz, u, w):
        steps.append(w)
        assert len(steps) < 100, "no guard"
        return [1] * l1, [1] * l2

    monkeypatch.setattr(twoblock, "_step", never_zero)
    for x in (tb_element(4, 2, [("M", 1, 1), ("L", 0, 1)]),
              tb_element(4, 4, [("K", 0, 1), ("N", 1, 1)]),
              tb_element(6, 2, [("M", 1, 1), ("L", 1, 1)])):
        steps.clear()
        with pytest.raises(RuntimeError, match=r"exceeded n \+ 1; bug"):
            tb_pow_order(x)
        assert len(steps) == x.n + 1, x


def orbit_case(x):
    """Which generator orbits decide x's order in `tb_pow_order`."""
    if x.c[0]:
        return "g1"
    if x.l1 == x.l2 and x.b[0]:
        return "g2"
    return "both"


def test_pow_order_on_each_orbit_case():
    # every (l1, l2) with gap 0, 1, 2 or more and n <= 12: suite-5 draws,
    # then the same draws with c[0] cleared (both orbits) and, on equal
    # blocks, with b[0] set (g2 alone); zero-heavy and Fraction draws too
    rng = Stream(derive(7, 8))
    seen = set()
    for l1, l2 in shapes_up_to_n(12):
        for _ in range(6):
            x = int_element(l1, l2, rng)
            variants = [x, random_element(l1, l2, rng, zero_chance=1),
                        edge_element(l1, l2, rng)]
            c0 = TwoBlockElement(l1, l2, x.a, x.b, (0,) + x.c[1:], x.d)
            variants.append(c0)
            if l1 == l2:
                variants.append(TwoBlockElement(l1, l2, x.a, (rng.nonzero(9),) + x.b[1:],
                                                (0,) + x.c[1:], x.d))
            for y in variants:
                assert tb_pow_order(y) == dense_order(y), y
                seen.add((min(l1 - l2, 2), orbit_case(y)))
    assert seen == {(g, case) for g in (0, 1, 2) for case in ("g1", "both")} | {(0, "g2")}


def test_gathered_rows_match_the_slice_realization():
    # tb_to_matrix gathers each row by the getters `exactla._layout` builds
    # for (l1, l2) from `_generators`; the slicing oracle joins two windows
    # per row.  Every shape with n <= 40, with int and with Fraction
    # coefficients, zeros included; Fraction(0) coefficients compare equal
    # to the int zeros between the generators' cells
    rng = Stream(derive(7, 12))
    for l1, l2 in shapes_up_to_n(40):
        for x in (int_element(l1, l2, rng), random_element(l1, l2, rng)):
            m = tb_to_matrix(x)
            assert m.row_data() == oracles.slice_dense_rows(x), (l1, l2)
            assert all(type(row) is tuple and len(row) == l1 + l2 for row in m.row_data())
            if l1 + l2 <= 12:
                oracles.assert_trusted_matrix(m)
    assert exactla._layout((3, 2)) is exactla._layout(Partition((2, 3)))
    x = TwoBlockElement(3, 2, (Fraction(0), 1, 2), (Fraction(0), 3), (4, 0), (0, 5))
    assert not tb_to_matrix(x)._int
    oracles.assert_trusted_matrix(tb_to_matrix(x))


def test_int_flag_of_realizations_and_products():
    rng = Stream(derive(7, 10))
    for l1, l2 in shapes(5):
        ints = [int_element(l1, l2, rng) for _ in range(3)]
        fracs = [random_element(l1, l2, rng) for _ in range(3)]
        for x in ints:
            assert tb_to_matrix(x)._int
        mats = [tb_to_matrix(x) for x in ints + fracs]
        for m in mats:
            oracles.assert_trusted_matrix(m)
        for p, q in itertools.product(mats[:2] + mats[3:5], repeat=2):
            oracles.assert_trusted_matrix(p @ q)


def test_bool_and_float_coefficients_raise():
    # the constructor checks, so tb_rank and tb_pow_order never see a float
    for bad in (True, False, 0.5, 0.0):
        with pytest.raises(TypeError, match="entries must be int or Fraction"):
            TwoBlockElement(3, 2, (0, bad, 1), (1, 2), (3, 4), (0, 1))
    for bad in (0.5, 0.0):  # tb_element checks each coefficient before it sums
        with pytest.raises(TypeError, match="entries must be int or Fraction"):
            tb_element(3, 2, [("M", 2, 1), ("K", 0, bad)])
    # 0.1 + 0.2 != 0.3, so with floats this element would have rank 2
    with pytest.raises(TypeError, match="got float"):
        TwoBlockElement(2, 2, (0, 1), (0, 1), (0, 0.3), (0, 0.1 + 0.2))
    x = TwoBlockElement(2, 2, (0, 1), (0, 1), (0, Fraction(3, 10)), (0, Fraction(3, 10)))
    assert tb_rank(x) == rank(tb_to_matrix(x)) == 1
    assert not x._int and TwoBlockElement(2, 2, (0, 1), (0, 1), (0, 3), (0, 3))._int


def test_three_entry_paths_accept_and_refuse_the_same_entries():
    # ExactMatrix, TwoBlockElement and tb_element all call exactla._checked_int
    def paths(v):
        return (lambda: ExactMatrix([[0, v, 0, 0]] + [[0] * 4] * 3),
                lambda: TwoBlockElement(2, 2, (0, v), (0, 0), (0, 0), (0, 0)),
                lambda: tb_element(2, 2, [("M", 1, v)]))

    for bad, name in ((True, "bool"), (0.5, "float"), ("1", "str"), (None, "NoneType")):
        for make in paths(bad):
            with pytest.raises(TypeError, match=f"^entries must be int or Fraction, got {name}$"):
                make()

    # of two refused entries, the first one in reading order is named
    for first, second, name in (("1", 0.5, "str"), (0.5, "1", "float")):
        for make in (lambda: ExactMatrix([[0, first, second, 0]] + [[0] * 4] * 3),
                     lambda: TwoBlockElement(2, 2, (first, second), (0, 0), (0, 0), (0, 0)),
                     lambda: tb_element(2, 2, [("M", 0, first), ("M", 1, second)])):
            with pytest.raises(TypeError, match=f"got {name}$"):
                make()

    class Count(int):
        pass

    class Rational(Fraction):
        pass

    for good in (Count(2), Rational(2, 3)):
        m, x, y = (make() for make in paths(good))
        assert x == y and tb_to_matrix(x) == tb_to_matrix(y) == m
        assert rank(m) == tb_rank(x) == tb_rank(y) == 1


def test_list_coefficients_become_tuples():
    x = TwoBlockElement(3, 2, [0, 1, 2], [3, 4], [5, 6], [0, 7])
    y = TwoBlockElement(3, 2, (0, 1, 2), (3, 4), (5, 6), (0, 7))
    assert all(type(v) is tuple for v in (x.a, x.b, x.c, x.d))
    assert x == y and hash(x) == hash(y)
    assert tb_to_matrix(x) == tb_to_matrix(y)
    assert tb_pow_order(x) == tb_pow_order(y) == dense_order(y)
    assert tb_rank(x) == rank(tb_to_matrix(y))


def test_element_is_immutable_and_compares_by_its_fields():
    x = TwoBlockElement(3, 2, (0, 1, Fraction(1, 2)), (3, 4), (5, 6), (0, 7))
    assert repr(x) == ("TwoBlockElement(l1=3, l2=2, a=(0, 1, Fraction(1, 2)), "
                       "b=(3, 4), c=(5, 6), d=(0, 7))")
    for name in ("a", "l1", "_int", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, (0, 0, 0))
    with pytest.raises(AttributeError, match="immutable"):
        del x.a
    assert not hasattr(x, "__dict__")
    y = TwoBlockElement(3, 2, (0, 1, Fraction(1, 2)), (3, 4), (5, 6), (0, 8))
    assert x != y and hash(x) != hash(y) and len({x, y, tb_element(3, 2, terms(x))}) == 2
    assert x != (3, 2, x.a, x.b, x.c, x.d)
    # pickle and copy rebuild through the constructor
    for got in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(got) is TwoBlockElement and got == x and hash(got) == hash(x)
        assert got._int is x._int is False
    for args, message in (((2, 3, (0, 0), (0,) * 3, (0,) * 3, (0,) * 3), "need l1 >= l2 >= 1"),
                          ((2, 0, (0, 0), (), (), ()), "need l1 >= l2 >= 1"),
                          ((3, 2, (0, 0), (0, 0), (0, 0), (0, 0)), "wrong length"),
                          ((3, 2, (0, 0, 0), (0, 0), (0,), (0, 0)), "wrong length")):
        with pytest.raises(ValueError, match=message):
            TwoBlockElement(*args)


def test_rank_is_the_dense_rank():
    # every (l1, l2) with n <= 12: suite-5 draws, zero-heavy edge elements,
    # Fraction elements with zeros, and elements outside nilpotent form
    rng = Stream(derive(7, 11))
    for l1, l2 in shapes_up_to_n(12):
        for _ in range(12):
            free = TwoBlockElement(l1, l2, *(
                tuple(rng.randint(-2, 2) for _ in range(k)) for k in (l1, l2, l2, l2)))
            for x in (int_element(l1, l2, rng), edge_element(l1, l2, rng),
                      random_element(l1, l2, rng), free):
                assert tb_rank(x) == rank(tb_to_matrix(x)), x


@given(st.data())
def test_rank_formula_on_drawn_coefficients(data):
    l2 = data.draw(st.integers(min_value=1, max_value=6))
    l1 = data.draw(st.integers(min_value=l2, max_value=12 - l2))
    entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))
    vecs = [tuple(data.draw(st.lists(entry, min_size=k, max_size=k)))
            for k in (l1, l2, l2, l2)]
    x = TwoBlockElement(l1, l2, *vecs)
    assert tb_rank(x) == rank(tb_to_matrix(x))


# SHA-256 of suite 5's rank-(n - 2) draws and their orders at a tenth of its
# scale (1 000 draws per host, seed 0), recorded at commit 9fb4254, where the
# filter was the dense rank; 15 902 of the 25 000 draws are kept
SUITE5_KEPT = "eceb49a5d6baab8edd14820875f15db50fcef594b36526261b1aeb623678f9c4"


def test_suite5_keeps_the_same_draws_and_orders():
    h = hashlib.sha256()
    kept = 0
    for l1 in range(1, 10):
        for l2 in range(1, min(l1, 10 - l1) + 1):
            for x, order in verify.two_part_draws(l1, l2, 1000, 0):
                kept += 1
                h.update(repr((l1, l2, x.a, x.b, x.c, x.d, order)).encode())
    assert (kept, h.hexdigest()) == (15902, SUITE5_KEPT)


def test_rank_bound_dominates_dense_rank():
    rng = Stream(derive(7, 5))
    for l1, l2 in shapes(6):
        for _ in range(40):
            x = random_element(l1, l2, rng)
            assert rank(tb_to_matrix(x)) <= tb_rank_bound(x)


def test_rank_bound_examples():
    x = tb_element(4, 3, [("M", 1, 1), ("N", 1, 1)])
    assert tb_rank_bound(x) == 5 == rank(tb_to_matrix(x))
    y = tb_element(4, 4, [("K", 0, 1), ("L", 0, 1)])
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


def test_antidiagonal_type_matches_the_rank_recurrence():
    # every admissible (l1, l2, j, l) with n <= 40: the closed form of each
    # family against the type the block ranks of every power give; the case
    # counts are those of the library that checked the two on every call
    cases = {"a": 0, "b": 0, "c": 0}
    for n in range(2, 41):
        for l2 in range(1, n // 2 + 1):
            l1 = n - l2
            for l in range(l2):
                for j in range(l + 1):
                    if l1 == l2 and j + l == 0:
                        continue
                    _, pred, case = antidiagonal(l1, l2, j, l, 1, 1)
                    expect = oracles.antidiagonal_type_by_ranks(l1, l2, j, l)
                    assert pred == expect, (l1, l2, j, l, case)
                    cases[case] += 1
    assert cases == {"a": 6144, "b": 1054, "c": 8952}  # 16 150 inputs


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


def test_lemma_odd_is_the_two_block_squarezero_partner():
    for n in range(2, 17):
        for l1 in range((n + 1) // 2, n):
            for a in range(n // 2 + 1):
                assert construct_lemma_odd(l1, n - l1, a) == \
                    construct_squarezero_partner((l1, n - l1), a), (l1, n - l1, a)


def test_squarezero_partner_couples_odd_pairs_only_beyond_the_halves():
    # block powers give each part p up to p // 2; every unit of rank beyond
    # those halves couples one pair of odd blocks, and no other pair is coupled
    for n in range(1, 11):
        for mu in enumerate_partitions(n):
            block = [i for i, p in enumerate(mu) for _ in range(p)]
            odd = [i for i, p in enumerate(mu) if p % 2]
            halves = sum(p // 2 for p in mu)
            for a in range(n // 2 + 1):
                m = construct_squarezero_partner(mu, a)
                linked = {frozenset((block[r], block[c]))
                          for r in range(n) for c in range(n)
                          if m[r, c] != 0 and block[r] != block[c]}
                coupled = sum(frozenset(pair) in linked
                              for pair in itertools.combinations(odd, 2))
                assert coupled == len(linked) == max(0, a - halves), (tuple(mu), a)


def test_constructions_refuse_a_non_integer_rank_or_block():
    with pytest.raises(TypeError, match="'float'"):
        construct_squarezero_partner((3, 1), 1.0)
    with pytest.raises(TypeError, match="'float'"):
        construct_lemma_odd(3, 1, 1.5)
    with pytest.raises(TypeError, match="'float'"):
        construct_lemma_odd(3.0, 1, 1)
    # tb_element reads its sizes and indices as the constructions read theirs;
    # a float failed later, in a list product or an index, named or not
    for call, args in ((tb_element, (3.0, 2, [])), (construct_lemma_eq2, (3.0,)),
                       (antidiagonal, (3.0, 2, 0, 1, 1, 1)),
                       (tb_element, (3, 2, [("K", 1.0, 1)])),
                       (antidiagonal, (3, 2, 0.0, 1, 1, 1))):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted"):
            call(*args)
    # bools pass as ints, as Partition reads its parts
    assert construct_lemma_odd(True, True, True) == construct_lemma_odd(1, 1, 1)


def test_element_refuses_a_non_integer_block_size():
    # read with operator.index as the constructions read theirs, so a float
    # fails when the element is built, not later in tb_rank or tb_to_matrix
    for l1, l2 in ((3.0, 2), (3, 2.0), (Fraction(3), 2)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            TwoBlockElement(l1, l2, (0, 1, 2), (3, 4), (5, 6), (0, 7))
    x = TwoBlockElement(True, True, (0,), (1,), (0,), (0,))
    assert (x.l1, x.l2) == (1, 1) and type(x.l1) is type(x.l2) is int


def equal_block_partner(m):
    """J_(m,m) + K_0 as dense rows, written without the coefficient algebra:
    ones on both blocks' superdiagonals and at (r, m + r)."""
    rows = [[0] * (2 * m) for _ in range(2 * m)]
    for r in range(2 * m - 1):
        if r != m - 1:
            rows[r][r + 1] = 1
    for r in range(m):
        rows[r][m + r] = 1
    return ExactMatrix(rows)


def test_conjugate_partner_is_the_grid_element():
    # every host with n <= 12 (suite 11's conjugate pairs): a Witness on the
    # host of the conjugate type, which commutes with the host's Jordan
    # matrix by the product oracle; for n <= 8 the nullity oracle types it
    for lam in (p for n in range(1, 13) for p in enumerate_partitions(n)):
        w = construct_conjugate_partner(lam)
        assert type(w) is Witness and (w.host, w.jordan) == (lam, conjugate(lam))
        j = build_jordan(lam).row_data()
        assert oracles.naive_product(w.row_data(), j) == \
            oracles.naive_product(j, w.row_data()), lam
        if lam.n <= 8:
            assert oracles.jordan_type_by_nullities(ExactMatrix(w.row_data())) == \
                conjugate(lam), lam
    # a box moves down its column: (2, 1) has x e_1 = e_2, and (1, 1) x e_0 = e_1
    assert construct_conjugate_partner((2, 1)).row_data() == ((0, 0, 0), (0, 0, 0), (0, 1, 0))
    assert construct_conjugate_partner((1, 1)).row_data() == ((0, 0), (1, 0))


def test_lemma_eq2_types():
    for m in range(2, 41):
        want = equal_block_partner(m)
        j = build_jordan(Partition([m, m]))
        assert want @ j == j @ want
        assert jordan_type(want) == (m + 1, m - 1), m
        if m <= 6:
            assert oracles.jordan_type_by_nullities(want) == (m + 1, m - 1), m
        for seed in (0, 1, 7):
            assert construct_lemma_eq2(m, seed) == want, (m, seed)
    with pytest.raises(ValueError):
        construct_lemma_eq2(1)


def test_gap2_partner_has_the_balanced_type():
    for m in range(2, 41):
        got = maxrank_partners(m + 1, m - 1)
        assert [g.jordan for g in got] == [Partition([m + 1, m - 1]), Partition([m, m])], m
        w = got[1]
        j = build_jordan(Partition([m + 1, m - 1]))
        assert w @ j == j @ w
        assert jordan_type(w) == (m, m), m
        if m <= 6:
            assert oracles.jordan_type_by_nullities(w) == (m, m), m


def test_witnesses_are_typed_once(monkeypatch):
    # hosts with one and two odd pairs, every rank: the pairs' elements are
    # written into the host matrix unverified, and the whole is typed once.
    # Each construction returns the Witness that certify made: its host, and
    # as its type the one type the kernel computed
    calls, typed = [], []

    def counting(m):
        calls.append(m)
        typed.append(jordan_type(m))
        return typed[-1]

    def certified(w, host, jt):
        return (type(w) is Witness and w.host == host and w.jordan == jt
                and w.jordan is typed[calls.index(w)])

    monkeypatch.setattr(exactla, "jordan_type", counting)
    for mu in [(3, 1), (5, 3, 2, 1), (7, 5, 3, 3, 1), (4, 3, 3, 2, 1)]:
        p = Partition(mu)
        for a in range(p.n // 2 + 1):
            del calls[:], typed[:]
            m = construct_squarezero_partner(p, a)
            assert calls == [m], (mu, a)
            assert certified(m, p, two_column(p.n, a)), (mu, a)
    for l1, l2, a in [(5, 3, 4), (5, 3, 2), (4, 4, 4), (6, 2, 3), (3, 3, 0)]:
        del calls[:], typed[:]
        m = construct_lemma_odd(l1, l2, a)
        assert calls == [m], (l1, l2, a)
        assert certified(m, (l1, l2), two_column(l1 + l2, a)), (l1, l2, a)
    for m in range(2, 6):
        del calls[:], typed[:]
        w = construct_lemma_eq2(m)
        assert calls == [w], m
        assert certified(w, (m, m), (m + 1, m - 1)), m
    for l1, l2 in [(5, 4), (6, 4), (7, 3), (3, 1)]:
        del calls[:], typed[:]
        got = maxrank_partners(l1, l2)
        assert calls == list(got), (l1, l2)
        assert all(certified(w, (l1, l2), w.jordan) for w in got), (l1, l2)
    for lam in [(3, 1), (4, 2, 2), (5, 3, 1)]:
        for seed in range(3):
            del calls[:], typed[:]
            s = sample_nilpotent_commuting(lam, seed)
            assert calls == [s], (lam, seed)
            assert certified(s, lam, typed[0]), (lam, seed)


# SHA-256 of the square-zero and lemma-odd witnesses below, recorded on the
# code of commit 94e201a
GOLDEN_SQUAREZERO_WITNESSES = "4ed7c11b56e8cdebbe9f6d69c2dbab44cdad6aca533013e0ee9c612c50fe28ad"
# SHA-256 of the equal-block and maximal-rank witnesses below, in closed form
GOLDEN_TWO_BLOCK_WITNESSES = "bcc5e93ce05e2aa499f9472974b4f3b12174107df2de315a52bab496bf495b34"


def witness_digest(matrices) -> str:
    h = hashlib.sha256()
    for m in matrices:
        if isinstance(m, Partition):
            h.update(str(tuple(m)).encode())
        else:
            h.update(m.dump().encode())
            h.update(b"\n")
    return h.hexdigest()


def test_witnesses_match_golden_digest():
    def squarezero():
        for n in range(1, 11):
            for mu in enumerate_partitions(n):
                for a in range(n // 2 + 1):
                    yield construct_squarezero_partner(mu, a)
        for n in range(2, 17):
            for l1 in range((n + 1) // 2, n):
                for a in range(n // 2 + 1):
                    yield construct_lemma_odd(l1, n - l1, a)

    def two_block():
        for m in range(2, 9):
            yield construct_lemma_eq2(m)
        for l1, l2 in [(5, 4), (6, 4), (7, 3)]:
            for w in maxrank_partners(l1, l2):
                yield w.jordan
                yield w

    assert (witness_digest(squarezero()), witness_digest(two_block())) == (
        GOLDEN_SQUAREZERO_WITNESSES, GOLDEN_TWO_BLOCK_WITNESSES)


def test_maxrank_partners_cases():
    got = maxrank_partners(5, 4)
    assert {w.jordan for w in got} == {Partition([9])}
    got = maxrank_partners(6, 4)
    assert {w.jordan for w in got} == {Partition([6, 4]), Partition([5, 5])}
    got = maxrank_partners(7, 3)
    assert {w.jordan for w in got} == {Partition([7, 3])}
    # the smallest host: K_0 alone, as L_1 does not exist for l2 = 1
    (w,) = maxrank_partners(1, 1)
    assert (w.jordan, w) == (Partition([2]), ExactMatrix([[0, 1], [0, 0]]))
    for (l1, l2) in [(5, 4), (6, 4), (7, 3), (3, 3), (4, 2), (1, 1), (2, 1)]:
        j = build_jordan(Partition([l1, l2]))
        for wit in maxrank_partners(l1, l2):
            shape = wit.jordan
            assert wit @ j == j @ wit
            assert jordan_type(wit) == shape
            # maximal rank: n-1 when the gap is small enough to merge, n-2 otherwise
            assert rank(wit) == l1 + l2 - shape.t
            assert shape.t == (1 if l1 - l2 <= 1 else 2)
