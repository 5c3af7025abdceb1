import copy
import enum
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilcomm import exactla, twoblock
from nilcomm.exactla import (
    ExactMatrix,
    Witness,
    _int_rank,
    _jordan_type_rows,
    NotNilpotentError,
    build_jordan,
    certify,
    is_ut_toeplitz,
    jordan_power_type,
    jordan_type,
    rank,
    toeplitz_product_rank_check,
)
from nilcomm.commutant import _draw, sample_jordan, sample_nilpotent_commuting
from nilcomm._rng import Stream
from nilcomm.partitions import Partition

from .conftest import partitions_up_to
from . import oracles

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def square(side_max=5):
    return st.integers(min_value=1, max_value=side_max).flatmap(
        lambda n: st.lists(
            st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(ExactMatrix)


small_ints = st.integers(min_value=-6, max_value=6)
# rows of plain ints and rows mixing ints with Fractions, so that both the
# all-int and the Fraction elimination paths are drawn
mixed_rows = st.lists(st.one_of(
    st.lists(small_ints, min_size=4, max_size=4),
    st.lists(st.one_of(small_ints, fracs), min_size=4, max_size=4),
), min_size=1, max_size=5).map(ExactMatrix)


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


class Rational(Fraction):
    pass


def test_entry_validation():
    with pytest.raises(TypeError):
        ExactMatrix([[0.5]])
    with pytest.raises(TypeError):
        ExactMatrix([[True]])
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ExactMatrix([])
    # a bad entry is refused wherever it sits: last in an all-int matrix, or
    # among Fractions, and before the shape is checked
    for bad, name in ((True, "bool"), (0.5, "float"), ("1", "str"), (None, "NoneType")):
        msg = f"entries must be int or Fraction, got {name}$"
        for rows in ([[1, 2], [3, bad]], [[Fraction(1, 2), bad], [Fraction(3), 4]],
                     [[1, 2], [bad]]):
            with pytest.raises(TypeError, match=msg):
                ExactMatrix(rows)
    # subclasses of int and Fraction are entries too
    host = [[0, 1, 2, 1], [0, 0, 1, 2], [0, 0, 0, 1], [0, 0, 0, 0]]
    for wrap in (Small, Rational):
        m = ExactMatrix([[wrap(x) for x in row] for row in host])
        assert not m._int
        assert rank(m) == oracles.gauss_rank(m) == 3
        assert jordan_type(m) == oracles.jordan_type_by_nullities(m) == (4,)
    halves = ExactMatrix([[Rational(1, 2), 1], [Small.ONE, 2]])
    assert rank(halves) == oracles.gauss_rank(halves) == 1


def test_int_flag_follows_entry_types():
    a = ExactMatrix([[1, 2, 0], [0, 3, 4]])
    b = ExactMatrix([[2, 0], [1, 1], [0, 5]])
    frac = ExactMatrix([[Fraction(1, 2), 0], [0, 1], [1, 1]])
    all_int = [a, a @ b, b @ a, a.block(0, 2, 1, 3), frac.block(1, 3, 0, 2)]
    with_fractions = [frac, a @ frac]
    assert all(m._int for m in all_int)
    assert not any(m._int for m in with_fractions)
    # one Fraction anywhere, even in the last row, clears the flag
    assert ExactMatrix([[1, 2], [3, 4], [5, 6]])._int
    assert not ExactMatrix([[1, 2], [3, 4], [5, Fraction(1, 2)]])._int
    # integer-valued Fractions stay on the Fraction path and keep their rank
    twos = ExactMatrix([[Fraction(4, 2), 2], [1, Fraction(3, 3)]])
    assert not twos._int
    assert rank(twos) == oracles.gauss_rank(twos) == 1
    assert twos == ExactMatrix([[2, 2], [1, 1]])


def test_jordan_round_trip():
    for p in partitions_up_to(9):
        j = build_jordan(p)
        assert j.rows == j.cols == p.n
        assert jordan_type(j) == p


def test_jordan_block_and_power_types():
    for m in range(1, 8):
        b = build_jordan((m,))
        assert rank(b) == m - 1
        acc = b
        for k in range(1, m + 1):
            assert jordan_power_type(m, k) == jordan_type(acc)
            acc = acc @ b
    # J_m^k has type P(m, k) for k <= m
    assert jordan_power_type(7, 3) == (3, 2, 2)
    assert jordan_power_type(6, 6) == (1,) * 6


@given(st.one_of(square(), mixed_rows))
def test_rank_matches_plain_gauss(m):
    r = rank(m)
    assert r == oracles.gauss_rank(m)
    assert r == rank(ExactMatrix(zip(*m.row_data())))


@given(square(4), square(4))
def test_product_rank_bound(a, b):
    if a.cols != b.rows:
        return
    assert rank(a @ b) <= min(rank(a), rank(b))


def test_equal_int_and_fraction_matrices_hash_equal():
    m = ExactMatrix([[1, -2, 0], [0, 3, 4]])
    f = ExactMatrix([[Fraction(x) for x in row] for row in m.row_data()])
    assert m == f and hash(m) == hash(f)
    assert len({m, f, ExactMatrix([[Fraction(2, 2), Fraction(-4, 2), 0],
                                   [0, 3, 4]])}) == 1
    assert m != ExactMatrix([[2, -4, 0], [0, 6, 8]])


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        jordan_type(ExactMatrix([[int(r == c) for c in range(4)] for r in range(4)]))
    with pytest.raises(NotNilpotentError):
        jordan_type(ExactMatrix([[0, 1], [1, 0]]))
    # J_3 + (1), ranks 4, 3, 2, 1, 1: past a unit drop at k = 1, the rank
    # sequence goes on and repeats
    with pytest.raises(NotNilpotentError, match="rank stabilizes at 1 from power 4"):
        jordan_type(ExactMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0],
                                 [0, 0, 0, 1]]))
    # J_4 + J_2 + (1), ranks 7, 5, 3, 2, 1, 1: a unit drop at k = 3 first
    rows = [list(row) + [0] for row in build_jordan((4, 2)).row_data()]
    with pytest.raises(NotNilpotentError, match="rank stabilizes at 1 from power 5"):
        jordan_type(ExactMatrix(rows + [[0] * 6 + [1]]))


def test_certify_types_witnesses_and_raises_on_bugs():
    host = Partition((3, 1))
    j = build_jordan(host)
    assert certify(j @ j, host).jordan == (2, 1, 1)
    half = ExactMatrix([[Fraction(x, 2) for x in row] for row in j.row_data()])
    assert certify(half, host, (3, 1)).jordan == (3, 1)
    # nilpotent, but E_30 does not commute with J_(3,1)
    e30 = ExactMatrix([[int((r, c) == (3, 0)) for c in range(4)] for r in range(4)])
    with pytest.raises(RuntimeError, match=r"host \(3, 1\) does not commute"):
        certify(e30, host)
    # commutes, but is not nilpotent
    ident = ExactMatrix([[int(r == c) for c in range(4)] for r in range(4)])
    with pytest.raises(RuntimeError, match=r"host \(3, 1\), seed 5: matrix is not nilpotent"):
        certify(ident, host, seed=5)
    with pytest.raises(RuntimeError, match=r"has type \(3, 1\), expected \(2, 2\)"):
        certify(j, host, (2, 2))


def test_only_certify_makes_a_witness():
    with pytest.raises(TypeError, match="only by exactla.certify"):
        Witness([[0, 1], [0, 0]])
    host = Partition((3, 1))
    j = build_jordan(host)
    w = certify(j, (1, 3), (3, 1))
    assert type(w) is Witness and repr(w) == "<Witness 4x4>"
    assert (w.host, w.jordan) == (host, (3, 1)) and type(w.host) is Partition
    assert w.row_data() is j.row_data()  # the certified matrix's rows, shared
    # equal and hashed as the plain matrix of its rows, either way round
    plain = ExactMatrix(w.row_data())
    assert w == plain and plain == w and hash(w) == hash(plain)
    assert {plain: 1}[w] == 1
    # certification does not carry through products or blocks
    for m in (w @ w, w @ j, j @ w, w.block(0, 3, 0, 3)):
        assert type(m) is ExactMatrix
    assert w @ w == j @ j
    with pytest.raises(AttributeError, match="immutable"):
        w.jordan = Partition((4,))


ROUND_TRIPS = (lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy)


def test_matrices_and_witnesses_survive_pickle_and_copy():
    m = ExactMatrix([[0, Fraction(1, 2)], [0, 0]])
    for trip in ROUND_TRIPS:
        got = trip(m)
        assert type(got) is ExactMatrix and got.row_data() == m.row_data()
        assert (got.rows, got.cols, got._int) == (2, 2, False)
        for w in (certify(m, (2,)), twoblock.construct_lemma_eq2(3)):
            got = trip(w)
            assert type(got) is Witness and got.row_data() == w.row_data()
            assert (got.host, got.jordan, got._int) == (w.host, w.jordan, w._int)
            assert type(got.host) is type(got.jordan) is Partition


def test_a_loaded_witness_is_certified_again():
    w = twoblock.construct_lemma_eq2(3)
    make, (rows, host, jordan) = w.__reduce__()
    assert make(rows, host, jordan) == w
    altered = [list(row) for row in rows.row_data()]
    for r in range(3):  # drop K_0: J_(3,3) commutes, but has type (3, 3)
        altered[r][3 + r] = 0
    with pytest.raises(RuntimeError, match=r"has type \(3, 3\), expected \(4, 2\)"):
        make(ExactMatrix(altered), host, jordan)
    with pytest.raises(RuntimeError, match="does not commute"):
        make(ExactMatrix(rows.row_data()[::-1]), host, jordan)


def test_jordan_type_matches_nullity_oracle():
    hosts = [(p, seed) for p in partitions_up_to(10) for seed in range(3)]
    hosts += [
        (Partition(p), seed)
        for p in ([7, 4, 3, 2], [4, 4, 4, 4], [9, 5, 3, 2, 1], [6, 6, 5, 3])
        for seed in range(2)
    ]
    for lam, seed in hosts:
        m = ExactMatrix(oracles.draw_rows_standard(tuple(lam), Stream(seed), 10))
        want = oracles.jordan_type_by_nullities(m)
        assert jordan_type(m) == want, (lam, seed)
        third = ExactMatrix([[Fraction(x, 3) for x in row] for row in m.row_data()])
        assert jordan_type(third) == want, (lam, seed)
        assert sample_jordan(lam, seed) == want, (lam, seed)
    for lam in partitions_up_to(10):
        assert oracles.jordan_type_by_nullities(build_jordan(lam)) == lam


@given(st.data())
def test_product_matches_triple_loop(data):
    entry = st.one_of(st.integers(min_value=-4, max_value=4), fracs)

    def matrix(h, w):
        rows = data.draw(st.lists(
            st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h))
        zero_rows = data.draw(st.sets(st.integers(min_value=0, max_value=h - 1)))
        zero_cols = data.draw(st.sets(st.integers(min_value=0, max_value=w - 1)))
        return ExactMatrix(
            [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
             for i, row in enumerate(rows)]
        )

    p, q, r = (data.draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    a, b = matrix(p, q), matrix(q, r)
    prod = a @ b
    assert prod == ExactMatrix(oracles.naive_product(a.row_data(), b.row_data()))
    oracles.assert_trusted_matrix(prod)


def test_product_int_flag_is_both_factors_int():
    ints = ExactMatrix([[1, 2], [0, 3]])
    halves = ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    # a Fraction factor clears the flag even where every product entry is int
    zero_frac = ExactMatrix([[Fraction(0), 0], [0, 0]])
    for a, b, flag in ((ints, ints, True), (ints, halves, False),
                       (halves, ints, False), (ints, zero_frac, False)):
        prod = a @ b
        assert prod._int is flag
        oracles.assert_trusted_matrix(prod)


def test_jordan_type_invariant_under_conjugation():
    j = build_jordan(Partition([4, 2, 1]))
    n = j.rows
    # unipotent upper-triangular change of basis
    p_rows = [
        [1 if c == r else (r + 2 * c) % 3 - 1 if c > r else 0 for c in range(n)]
        for r in range(n)
    ]
    p = ExactMatrix(p_rows)
    p_inv = oracles.unitriangular_inverse(p)
    assert p @ p_inv == ExactMatrix(
        [[int(r == c) for c in range(n)] for r in range(n)])
    conj = p_inv @ j @ p
    assert jordan_type(conj) == (4, 2, 1)


def test_ut_toeplitz_predicate():
    assert is_ut_toeplitz(build_jordan((4,)))
    assert is_ut_toeplitz(ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert is_ut_toeplitz(ExactMatrix([[0] * 5, [0] * 5]))
    low = ExactMatrix([[0, 0], [1, 0]])
    assert not is_ut_toeplitz(low)
    bent = ExactMatrix([[1, 2], [0, 3]])
    assert not is_ut_toeplitz(bent)


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(fracs, min_size=6, max_size=6),
    st.lists(fracs, min_size=6, max_size=6),
)
def test_toeplitz_product_rank_identity(r, xs, ys):
    def ut_toeplitz(vals):
        return ExactMatrix(
            [[vals[c - r] if c >= r else 0 for c in range(len(vals))] for r in range(len(vals))]
        )

    c = ut_toeplitz(xs[:r])
    d = ut_toeplitz(ys[:r])
    assert is_ut_toeplitz(c) and is_ut_toeplitz(d)
    assert toeplitz_product_rank_check(c, d)
    assert rank(c @ d) == max(rank(c) + rank(d) - r, 0)


def assert_int_rank_is_gauss_rank(matrices):
    for rows in matrices:
        want = oracles.gauss_rank(ExactMatrix(rows))
        assert _int_rank([list(row) for row in rows]) == want, rows


def nonzero_powers(rows):
    """A, A^2, ... by the triple-loop oracle, up to the last nonzero power."""
    out = []
    acc = rows
    while any(map(any, acc)):
        out.append(acc)
        acc = oracles.naive_product(acc, rows)
    return out


def test_int_rank_on_centralizer_powers():
    # every power of sampled centralizer elements: sparse and near echelon
    # form, the shape that leaves most rows untouched at most steps
    hosts = [(tuple(lam), seed) for lam in partitions_up_to(9) for seed in (1, 2)]
    hosts += [(lam, 3) for lam in ((5, 4, 2, 1), (4, 4, 4), (6, 3, 3),
                                   (7, 5, 3, 1), (4, 4, 4, 4), (6, 6, 2, 2))]
    for lam, seed in hosts:
        # the oracle draws by randint(lo, hi), which random.Random has too
        rows = oracles.draw_rows_standard(lam, random.Random(seed), 10)
        assert_int_rank_is_gauss_rank(nonzero_powers(rows))


def test_int_rank_on_zero_heavy_matrices():
    # at most a third of the entries nonzero, some rows sums of two others:
    # rows whose pivot-column entries stay zero are left untouched for
    # several steps
    rng = random.Random(7)
    matrices = []
    for _ in range(600):
        h, w = rng.randint(1, 10), rng.randint(1, 12)
        density = rng.choice((0.1, 0.2, 0.33))
        rows = [[rng.choice((-3, -2, -1, 1, 2, 5)) if rng.random() < density else 0
                 for _ in range(w)] for _ in range(h)]
        for _ in range(rng.randint(0, h // 2)):
            i, j, k = (rng.randrange(h) for _ in range(3))
            rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
        matrices.append(rows)
    assert_int_rank_is_gauss_rank(matrices)


def dense_product(rng, n):
    """n x (n - 2) times (n - 2) x n, entries of both factors in [-9, 9]:
    dense, of rank at most n - 2."""
    a = [[rng.randint(-9, 9) for _ in range(n - 2)] for _ in range(n)]
    b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 2)]
    return oracles.naive_product(a, b)


def test_int_rank_on_rank_deficient_products():
    rng = random.Random(11)
    matrices = [dense_product(rng, n) for n in range(3, 13) for _ in range(6)]
    matrices += [dense_product(rng, n) for n in (16, 20) for _ in range(2)]
    assert_int_rank_is_gauss_rank(matrices)


def test_int_rank_divides_the_multipliers_by_their_gcd():
    # dense rows take an update at every step; with each update's two
    # multipliers divided by their gcd the entries of this product end at
    # 466 bits (89 under Bareiss elimination), and without it at 12 945
    rows = dense_product(random.Random(14), 14)
    assert oracles.gauss_rank(ExactMatrix(rows)) == 12
    assert _int_rank(rows) == 12
    assert max(abs(x).bit_length() for row in rows for x in row) < 1000


def test_int_rank_leaves_rows_untouched_for_several_steps():
    # input row k is named r_k
    rows = [
        [-2, 2, -2, 3, -2],  # r_0: step-1 pivot
        # r_1: updated at step 1 with multipliers (-1, 1), as gcd(-2, 2) = 2;
        # then the step-2 pivot
        [2, 0, 0, -2, 1],
        # r_2: zero in columns 0 and 1, untouched through steps 1 and 2,
        # then the step-3 pivot
        [0, 0, 3, 1, -2],
        # r_3: untouched at step 1, updated at step 2 to [0, 0, 0, -1, 1],
        # untouched at step 3, then the step-4 pivot
        [0, -1, 1, 0, 0],
        # r_4: updated at step 1 to [0, 0, 4, -3, 2], untouched at step 2,
        # updated at steps 3 and 4, then the step-5 pivot
        [1, -1, -1, 0, 0],
    ]
    assert oracles.gauss_rank(ExactMatrix(rows)) == 5
    assert _int_rank([list(row) for row in rows]) == 5


def test_int_rank_with_a_pivot_row_with_nothing_below_it():
    # input row k is named r_k
    rows = [
        [3, 0, -2, 1],  # r_0: step-1 pivot
        # r_1: untouched at step 1, then the step-2 pivot with nothing below
        # it in column 1, so step 2 touches no row
        [0, 1, 2, 2],
        # r_2: untouched through steps 1 and 2, then the step-3 pivot
        [0, 0, -2, 0],
        # r_3: updated at step 1 to [0, 0, -1, -1] and at step 3 to
        # [0, 0, 0, 2], the step-4 pivot
        [-2, 0, 1, -1],
    ]
    assert oracles.gauss_rank(ExactMatrix(rows)) == 4
    assert _int_rank([list(row) for row in rows]) == 4


def test_sampler_draws_have_acyclic_patterns():
    # `_draw` writes every draw in the order its docstring proves strictly
    # upper triangular, so every sampled Jordan type stops at its first
    # rank drop of one
    for lam in partitions_up_to(12):
        for seed in range(3):
            rows = _draw(tuple(lam), Stream(seed), 10)[0]
            assert is_triangular(rows), (lam, seed)


def test_uncertified_rows_are_tested_for_the_pattern_and_kept():
    # a 3 x 3 matrix whose first rank drop is 1, 3 -> 2, but which is not
    # strictly upper triangular: handed no lists, the kernel tests the
    # pattern and ranks on to the repeat, 2 -> 1 -> 1, where the shortcut
    # would have typed it as (3); and it leaves the rows it was given as
    # they were
    rows = [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
    with pytest.raises(NotNilpotentError, match="rank stabilizes at 1 from power 3"):
        _jordan_type_rows(rows)
    assert rows == [[0, 1, 0], [0, 0, 1], [0, 0, 1]]
    j = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert _jordan_type_rows(j) == (3,) and j == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


@pytest.fixture
def rank_calls(monkeypatch):
    """The sizes of the ranks `_int_rank` takes, one per power of A that
    `_jordan_type_rows` ranks."""
    seen = []
    int_rank = exactla._int_rank
    monkeypatch.setattr(exactla, "_int_rank",
                        lambda rows: seen.append(len(rows)) or int_rank(rows))
    return seen


def unit_drop(jt) -> int:
    """The first power of a matrix of Jordan type jt whose rank is 0 or one
    less than the rank before it."""
    ranks = [sum(max(x - k, 0) for x in jt) for k in range(jt[0] + 1)]
    return next(k for k in range(1, len(ranks))
                if ranks[k] == 0 or ranks[k - 1] - ranks[k] == 1)


def is_triangular(rows) -> bool:
    return all(not any(row[:r + 1]) for r, row in enumerate(rows))


def test_cyclic_nilpotent_conjugates_rank_down_to_zero(rank_calls):
    # J_lam conjugated by a dense unimodular P = L U (unitriangular factors):
    # nilpotent with a cyclic pattern, so only a rank sequence that reaches 0
    # certifies it, A, ..., A^lam[0], often past the first unit drop
    rng = random.Random(3)
    hosts = past = 0
    for lam in partitions_up_to(8):
        if lam[0] == 1:
            continue  # J is zero
        hosts += 1
        n = lam.n
        low = ExactMatrix([[rng.choice((-2, -1, 1, 2)) if c < r else int(c == r)
                            for c in range(n)] for r in range(n)])
        up = ExactMatrix([[rng.choice((-2, -1, 1, 2)) if c > r else int(c == r)
                           for c in range(n)] for r in range(n)])
        p = low @ up
        p_inv = oracles.unitriangular_inverse(up) @ oracles.unitriangular_inverse(low)
        assert p @ p_inv == ExactMatrix(
            [[int(r == c) for c in range(n)] for r in range(n)])
        m = p_inv @ build_jordan(lam) @ p
        m = ExactMatrix([[int(x) for x in row] for row in m.row_data()])
        want = oracles.jordan_type_by_nullities(m)
        assert want == lam
        rank_calls.clear()
        assert jordan_type(m) == want, lam
        assert not is_triangular(m.row_data()), lam
        assert rank_calls == [n] * lam[0], lam
        past += lam[0] > unit_drop(lam)
    assert (hosts, past) == (58, 30)


def test_witnesses_off_the_triangle_rank_down_to_zero(rank_calls):
    # two-block constructions with a K or L term, and samples mapped back to
    # the standard basis: a permutation makes many of them strictly upper
    # triangular, but only the pattern as given stops at the first unit drop
    witnesses = []
    for l1 in range(1, 8):
        for l2 in range(1, min(l1, 10 - l1) + 1):
            for j in range(l2):
                for l in range(j, l2):
                    if l1 > l2 or j + l:
                        x, _, _ = twoblock.antidiagonal(l1, l2, j, l, 1 + j, -1 - l)
                        witnesses.append(("two-block", twoblock.tb_to_matrix(x)))
    for m in range(2, 6):
        witnesses.append(("two-block", twoblock.construct_lemma_eq2(m)))
        witnesses += [("two-block", w) for w in twoblock.maxrank_partners(m + 1, m - 1)]
    for lam in partitions_up_to(7):
        for seed in range(2):
            witnesses.append(("sample", sample_nilpotent_commuting(lam, seed)))
    counts, past = {}, {}
    for kind, m in witnesses:
        want = oracles.jordan_type_by_nullities(m)
        rank_calls.clear()
        assert jordan_type(m) == want, m.row_data()
        triangular = is_triangular(m.row_data())
        taken = unit_drop(want) if triangular else want[0]
        assert rank_calls == [m.rows] * taken, m.row_data()
        counts[kind, triangular] = counts.get((kind, triangular), 0) + 1
        past[kind] = past.get(kind, 0) + (taken > unit_drop(want))
    assert counts == {("two-block", True): 8, ("two-block", False): 99,
                      ("sample", True): 26, ("sample", False): 62}
    assert past == {"two-block": 18, "sample": 60}
