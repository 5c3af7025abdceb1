import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilcomm.partitions import (
    Partition,
    almost_rect,
    conjugate,
    count_partitions,
    dominance_leq,
    enumerate_partitions,
    is_almost_rectangular,
    is_stable,
    min_ar_cover,
    parse,
    partition_rank,
    render,
    two_column,
)

from .conftest import partitions_up_to
from . import oracles

parts_lists = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8)


def test_partition_normalizes_and_validates():
    assert Partition([1, 3, 1]) == (3, 1, 1)
    p = Partition([2, 2, 1])
    assert p.n == 5 and p.t == 3
    with pytest.raises(ValueError):
        Partition([3, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    with pytest.raises(ValueError):
        Partition([])
    # a part that is not an int is refused, not truncated or parsed
    for parts in ([2.7, 1], [1, 0.5], ["3", "1"], [Fraction(3), 1]):
        with pytest.raises(TypeError):
            Partition(parts)


@given(parts_lists)
def test_conjugate_involution(xs):
    p = Partition(xs)
    assert conjugate(conjugate(p)) == p
    assert conjugate(p).n == p.n
    # first part of the conjugate is the number of parts
    assert conjugate(p)[0] == p.t


@given(parts_lists)
def test_parse_render_roundtrip(xs):
    p = Partition(xs)
    assert parse(render(p)) == p


def test_parse_forms():
    assert parse("4,2,1") == (4, 2, 1)
    assert parse("(2^3,1^2)") == (2, 2, 2, 1, 1)
    assert parse(" 5 ") == (5,)
    with pytest.raises(ValueError):
        parse("")
    with pytest.raises(ValueError):
        parse("2,x")
    with pytest.raises(ValueError):
        parse("3^0")


def test_enumeration_reverse_lex_and_count():
    for n in range(1, 13):
        ps = list(enumerate_partitions(n))
        assert ps[0] == (n,)
        assert ps[-1] == (1,) * n
        assert ps == sorted(ps, reverse=True)
        assert len(ps) == len(set(ps)) == count_partitions(n)
        assert count_partitions(n) == oracles.euler_partition_count(n)
        assert all(p.n == n for p in ps)


ONE_ARGUMENT_HELPERS = (render, conjugate, is_almost_rectangular, min_ar_cover,
                        partition_rank, is_stable)


def test_helpers_read_their_argument_as_a_partition():
    # a reversed or shuffled copy of every partition with n <= 8 gives each
    # helper's answer on the partition itself
    rng = random.Random(8)
    for p in partitions_up_to(8):
        same_n = list(enumerate_partitions(p.n))
        for q in (p[::-1], tuple(rng.sample(p, len(p)))):
            for f in ONE_ARGUMENT_HELPERS:
                assert f(q) == f(p), (f.__name__, q)
            for r in same_n:
                assert dominance_leq(q, r) == dominance_leq(p, r), (q, r)
                assert dominance_leq(r, q) == dominance_leq(r, p), (r, q)
    assert render((1, 3, 1)) == "3,1,1" and conjugate((1, 3)) == (2, 1, 1)
    assert not dominance_leq((1, 3), (2, 2))


def test_helpers_refuse_what_partition_refuses():
    for bad in ((0, 3), (3, -1), (), (2.5, 1)):
        with pytest.raises((ValueError, TypeError)) as refused:
            Partition(bad)
        for f in ONE_ARGUMENT_HELPERS:
            with pytest.raises(refused.type):
                f(bad)
        with pytest.raises(refused.type):
            dominance_leq(bad, (3,))


def test_partition_of_a_partition_is_itself():
    p = Partition([3, 1])
    assert Partition(p) is p


def test_almost_rect_basics():
    assert almost_rect(11, 3) == (4, 4, 3)
    assert almost_rect(12, 4) == (3, 3, 3, 3)
    assert almost_rect(5, 5) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        almost_rect(3, 4)
    with pytest.raises(ValueError):
        almost_rect(3, 0)
    assert two_column(5, 2) == (2, 2, 1)
    for a in (2, -1):  # (2, 2) would be a partition of 4, and -1 gives (1^5)
        with pytest.raises(ValueError):
            two_column(3, a)


def test_almost_rect_is_the_unique_ar_shape():
    # every partition of n, enumerated and grouped by its number of parts t,
    # for n <= 25
    for n in range(1, 26):
        ar = {}
        for q in enumerate_partitions(n):
            if is_almost_rectangular(q):
                ar.setdefault(q.t, []).append(q)
        assert ar == {t: [almost_rect(n, t)] for t in range(1, n + 1)}
    # an almost-rectangular t-part partition of n is q^(t-s) (q+1)^s with
    # 0 <= s < t and qt + s = n; counting those shapes covers n, t <= 60
    for n in range(1, 61):
        for t in range(1, n + 1):
            shapes = [(q, n - q * t) for q in range(1, n // t + 1) if n - q * t < t]
            assert len(shapes) == 1
            (q, s), = shapes
            p = almost_rect(n, t)
            assert p == (q + 1,) * s + (q,) * (t - s) and is_almost_rectangular(p)


def test_dominance_is_a_partial_order():
    ps = list(enumerate_partitions(7))
    for p in ps:
        assert dominance_leq(p, p)
    for p, q in itertools.permutations(ps, 2):
        if dominance_leq(p, q) and dominance_leq(q, p):
            assert p == q
    for p, q, r in itertools.product(ps, repeat=3):
        if dominance_leq(p, q) and dominance_leq(q, r):
            assert dominance_leq(p, r)


def test_dominance_extremes_and_conjugate_antitone():
    for n in range(2, 9):
        top, bottom = Partition([n]), Partition([1] * n)
        for p in enumerate_partitions(n):
            assert dominance_leq(p, top)
            assert dominance_leq(bottom, p)
        for p, q in itertools.combinations(enumerate_partitions(n), 2):
            assert dominance_leq(p, q) == dominance_leq(conjugate(q), conjugate(p))
    with pytest.raises(ValueError):
        dominance_leq(Partition([2, 1]), Partition([4]))


def test_min_ar_cover_against_oracles():
    for p in partitions_up_to(12):
        got = min_ar_cover(p)
        assert got == oracles.segment_min_ar(tuple(p))
        if p.t <= 7:
            assert got == oracles.setpart_min_ar(tuple(p))
        assert (got == 1) == is_almost_rectangular(p)


def test_stability_is_gap_two():
    for p in partitions_up_to(12):
        gaps_ok = all(p[i] - p[i + 1] >= 2 for i in range(p.t - 1))
        assert is_stable(p) == gaps_ok
        assert partition_rank(p) == p.n - p.t

