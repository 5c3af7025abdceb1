import json
import random

import pytest

from nilcomm import dinverse
from nilcomm.cli import main
from nilcomm.dinverse import (
    dinv,
    dinv_diff2,
    dinv_n11,
    dinv_two_part,
    dmap,
    dmap_all,
    explore_q1,
    explore_q2,
    lemma1_structure,
)
from nilcomm.partitions import (
    Partition,
    count_partitions,
    dominance_leq,
    enumerate_partitions,
    is_stable,
    partition_rank,
)

from . import oracles


def P(*xs):
    return Partition(xs)


def test_table_is_complete_and_consistent():
    t = dmap_all(9)
    assert sum(map(len, t.values())) == count_partitions(9)
    for mu, fiber in t.items():
        assert all(dmap(lam) == mu for lam in fiber)


def test_fibers_partition_the_whole_set():
    for n in (6, 8, 10):
        t = dmap_all(n)
        union = set()
        for mu, f in t.items():
            assert not (union & f)
            union |= f
            assert is_stable(mu)
            assert mu in f
        assert union == set(enumerate_partitions(n))


def test_dinv_matches_table_fibers():
    for n in (7, 9):
        for mu, fiber in dmap_all(n).items():
            assert dinv(mu) == fiber
    # non-stable image has an empty fiber
    assert dinv(P(3, 2)) == set()


def test_worked_fiber():
    f = dinv(P(6, 2))
    assert f == {
        P(6, 2),
        P(6, 1, 1),
        P(4, 2, 2),
        P(4, 2, 1, 1),
        P(4, 1, 1, 1, 1),
        P(3, 3, 1, 1),
    }
    minimal = {
        p
        for p in f
        if not any(q != p and dominance_leq(q, p) for q in f)
    }
    assert minimal == {P(3, 3, 1, 1), P(4, 1, 1, 1, 1)}


def test_dinv_diff2_examples_and_brute():
    assert dinv_diff2(6, 1) == {P(6, 4), P(6, 2, 2), P(6, 2, 1, 1), P(6, 1, 1, 1, 1)}
    for mu, k in [(4, 1), (5, 1), (5, 2), (6, 2), (7, 1), (7, 3)]:
        head = tuple(mu - 2 * i for i in range(k + 1))
        target = P(*head)
        n = target.n
        table = dmap_all(n)
        assert dinv_diff2(mu, k) == table[target]
        assert len(dinv_diff2(mu, k)) == mu - 2 * k
    with pytest.raises(ValueError):
        dinv_diff2(4, 0)
    with pytest.raises(ValueError):
        dinv_diff2(4, 2)


def test_dinv_two_part_counts_and_sets():
    for r in (2, 3, 4):
        for mu in range(r + 1, 9):
            if mu - r < 1:
                continue
            got = dinv_two_part(mu, r)
            assert len(got) == (r - 1) * (mu - r)
            assert got == dmap_all(2 * mu - r)[P(mu, mu - r)]
    with pytest.raises(ValueError):
        dinv_two_part(5, 1)
    with pytest.raises(ValueError):
        dinv_two_part(5, 5)
    # gap 5 has no explicit family; explore_q1 covers it
    with pytest.raises(ValueError, match="2..4"):
        dinv_two_part(8, 5)
    # one gluing rule for r = 2..4, up to n = 60; at r = 5 it would already
    # take in (3, 3, 2, 1), whose image is (8, 1), not (7, 2)
    for r in (2, 3, 4):
        for mu in range(r + 1, (60 + r) // 2 + 1):
            assert dinv_two_part(mu, r) == dinv((mu, mu - r)), (mu, r)
    assert P(3, 3, 2, 1) in lemma1_structure(7, 5) and dmap((3, 3, 2, 1)) == (8, 1)


def test_dinv_n11_closed_form():
    for n in range(4, 13):
        assert dinv_n11(n) == dinv(P(n - 1, 1))
    assert P(3, 3, 1) in dinv_n11(7)
    assert P(6, 1) in dinv_n11(7)


def test_lemma1_structure_contains_fibers():
    for mu, r in [(5, 2), (6, 3), (7, 4), (7, 5), (8, 2)]:
        allowed = set(lemma1_structure(mu, r))
        fiber = dmap_all(2 * mu - r)[P(mu, mu - r)]
        assert fiber <= allowed
    # the gluing rule against enumerating every partition, n <= 22
    cases = 0
    for mu in range(3, 23):
        for r in range(2, mu):
            if 2 * mu - r <= 22:
                assert lemma1_structure(mu, r) == oracles.lemma1_structure(mu, r), (mu, r)
                cases += 1
    assert cases == 100


def test_minimal_rank_uniqueness():
    # (mu+2, 1^(mu+r-2)) is the unique rank-minimal element of the fiber of
    # (mu+r, mu): (mu, r) = (2, 4), (1, 2), (4, 3)
    for target in (P(6, 2), P(3, 1), P(7, 4)):
        rep = explore_q2(target)
        assert rep.holds and rep.minimal == (rep.conjectured,)
    assert rep.conjectured == P(6, 1, 1, 1, 1, 1)
    # and the claimed minimum really is in the fiber with minimal rank
    mu, r = 4, 3
    fiber = dinv(P(mu + r, mu))
    best = min(partition_rank(p) for p in fiber)
    winners = {p for p in fiber if partition_rank(p) == best}
    assert winners == {P(mu + 2, *([1] * (mu + r - 2)))}


def test_index_window_matches_the_scan():
    for n in range(1, 26):
        for lam in enumerate_partitions(n):
            assert dinverse._index_window(lam) == oracles.index_window_scan(lam)
    rng = random.Random(2011)
    for _ in range(2000):
        top = rng.randint(1, 30)
        ps = tuple(sorted((rng.randint(1, top) for _ in range(rng.randint(20, 120))),
                          reverse=True))
        assert dinverse._index_window(ps) == oracles.index_window_scan(ps)


def test_dinv_equals_the_table_on_every_partition():
    # every mu with n <= 22, the empty fibers of non-images included
    for n in range(1, 23):
        fibers = dmap_all(n)
        for mu in enumerate_partitions(n):
            assert dinv(mu) == fibers.get(mu, set()), mu


def test_dinv_holds_every_preimage():
    # lam is in dinv(dmap(lam)) for every lam with n = 23, 24, and nothing
    # else is: each image's fiber is exactly the partitions mapping to it
    for n in (23, 24):
        for mu, fiber in dmap_all(n).items():
            assert dinv(mu) == fiber, mu


def test_fiber_json_shape(capsys):
    # dinv --json writes the fiber of mu, mu among it, with its size and seed
    assert main(["dinv", "4,1", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["mu"] == [4, 1]
    assert d["size"] == len(d["fiber"])
    assert [4, 1] in d["fiber"]
    assert set(d) == {"mu", "fiber", "size", "seed"}
    assert sorted(map(tuple, d["fiber"])) == sorted(dinv(P(4, 1)))


def test_explore_q1_report():
    rep = explore_q1(7, 5)
    assert rep.size == len(rep.fiber)
    assert rep.conjectured == (5 - 1) * (7 - 5)
    assert rep.matches == (rep.size == rep.conjectured)
    assert rep.n == 2 * 7 - 5
    with pytest.raises(ValueError):
        explore_q1(7, 4)
    with pytest.raises(ValueError):
        explore_q1(5, 5)


def test_explore_q1_gap5_fibers():
    # the brute-force fibers match the stated count (r-1)(mu-r) here
    for mu in (6, 7, 8):
        rep = explore_q1(mu, 5)
        assert rep.size == rep.conjectured == 4 * (mu - 5) and rep.matches
        assert set(rep.fiber) == dmap_all(2 * mu - 5)[P(mu, mu - 5)]


def test_explore_q2_report():
    rep = explore_q2(P(4, 2))
    assert rep.holds and rep.in_fiber
    assert rep.conjectured in dinv(P(4, 2))
    assert partition_rank(rep.conjectured) == rep.min_rank
    rep = explore_q2(P(5, 3, 1))
    assert rep.holds
    with pytest.raises(ValueError):
        explore_q2(P(3, 2))
    # every stable mu leaves at least one trailing 1 in the conjectured partition
    for n in range(1, 17):
        for mu in filter(is_stable, enumerate_partitions(n)):
            c = explore_q2(mu).conjectured
            assert isinstance(c, Partition) and c.n == n and c[-1] == 1, mu
