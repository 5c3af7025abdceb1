"""Runs the twelve acceptance suites once and reports one line per criterion.

verify.run_all runs every suite at its stated scale; the construction suites
return their verified pairs, and run_all hands them to suite 11.
"""

import hashlib

import pytest

from nilcomm import commutant, exactla, verify
from nilcomm.constraints import compatible_filter
from nilcomm.partitions import enumerate_partitions, is_almost_rectangular

# criterion -> (test name, check count at run_all's scale).  The counts are
# gates: suite 1 makes one check per (shape, rank) cell, the sum of
# p(n) * (floor(n/2)+1) for n <= 10; suite 5 draws 10^4 samples on each of the
# 25 two-part shapes with n <= 10
GATES = {
    1: ("squarezero_partners", 663),
    2: ("two_column_images", 115),
    3: ("antidiagonal_types", 987),
    4: ("block_rank_formulas", 4076),
    5: ("two_part_realizability", 250351),
    6: ("staircase_fibers", 22),
    7: ("two_part_fibers", 43),
    8: ("worked_fiber", 2),
    9: ("worked_image", 1),
    10: ("idempotence_stability", 542),
    11: ("constraint_soundness", 139733),
    12: ("rank_minimal_uniqueness", 78),
}
# details that carry counts of their own
DETAILS = {3: "cases a/b/c = 417/60/510", 11: "1733 distinct verified pairs"}

# SHA-256 of the sorted (host, type) pairs that suites 1, 3 and 5 verify at
# run_all's scale, recorded at commit b07cf12, where they were appended to a
# shared witness list
WITNESS_PAIRS = "065e4afc6a0c87ce5185c225bd09a33901233288c7291f710f140ba303e8fa18"


@pytest.fixture(scope="session")
def results():
    out = verify.run_all(16, 0)
    assert len(out) == 12
    return {r.criterion: r for r in out}


def _gate(k: int, checked: int):
    def test(results):
        r = results[k]
        print(f"\n{r.line()}")
        assert r.passed, r.line()
        assert r.checked == checked
        assert DETAILS.get(k, "") in r.detail
    return test


# one test body over the table, kept under one test name per criterion so
# that each gate passes or fails on its own line
for _k, (_name, _checked) in GATES.items():
    globals()[f"test_criterion_{_k:02d}_{_name}"] = _gate(_k, _checked)


def test_witness_suites_return_their_pairs(results):
    pairs = frozenset().union(*(results[k].pairs for k in verify.WITNESS_SUITES))
    got = sorted((tuple(host), tuple(jt)) for host, jt in pairs)
    assert len(got) == 896
    assert hashlib.sha256(repr(got).encode()).hexdigest() == WITNESS_PAIRS
    assert not any(r.pairs for k, r in results.items() if k not in verify.WITNESS_SUITES)


def test_suites_type_each_witness_once(monkeypatch):
    # the constructions certify their witnesses' types; suites 1 and 5 record
    # those types and do not type a witness again
    calls = []
    kernel = exactla.jordan_type
    monkeypatch.setattr(exactla, "jordan_type", lambda m: calls.append(m) or kernel(m))
    res = verify.suite1(10)
    assert res.passed and res.checked == len(calls) == 663
    calls.clear()
    res = verify.suite5(16, 10, 100, 0)
    # the seven equal-block partners, m = 2..8; the draws are never typed densely
    assert res.passed and len(calls) == 7


def test_suite11_takes_its_conjugate_pairs_from_certified_witnesses(monkeypatch):
    # every (host, conjugate) pair suite 11 counts is a certified grid
    # witness's (host, jordan); a witness that fails its certificate fails
    # the suite instead of adding its pair
    made = []
    grid = verify.construct_conjugate_partner
    monkeypatch.setattr(verify, "construct_conjugate_partner",
                        lambda lam: made.append(grid(lam)) or made[-1])
    res = verify.suite11(1, 6, 0, pairs=frozenset())
    hosts = [lam for n in range(1, 7) for lam in enumerate_partitions(n)]
    assert [w.host for w in made] == hosts and all(type(w) is exactla.Witness for w in made)
    assert res.passed and res.checked == 1000 + 29 and "29 distinct verified pairs" in res.detail

    def refused(lam):
        if tuple(lam) == (3, 1):
            raise RuntimeError("witness for host (3, 1) does not commute; bug")
        return grid(lam)

    monkeypatch.setattr(verify, "construct_conjugate_partner", refused)
    res = verify.suite11(1, 4, 0, pairs=frozenset())
    assert not res.passed and "conjugate partner on (3, 1): witness for host (3, 1)" in res.detail


def test_suite2_certifies_the_fixed_element_and_draws_nothing(monkeypatch):
    # each two-column shape with n <= 10 is checked on `generic_witness`, a
    # certified Witness of type (n), with no draw; a witness that fails its
    # certificate fails the suite
    made = []
    fixed = verify.generic_witness
    monkeypatch.setattr(verify, "generic_witness", lambda lam: made.append(fixed(lam)) or made[-1])
    monkeypatch.setattr(commutant, "_coefs", lambda *args: pytest.fail("suite 2 drew"))
    res = verify.SUITES[2](16, 0, frozenset())
    assert res.passed and res.checked == 115 and len(made) == 35  # shapes with n <= 10
    assert all(type(w) is exactla.Witness and w.jordan == (w.host.n,) for w in made)

    def refused(lam):
        if tuple(lam) == (2, 2, 1):
            raise RuntimeError("witness for host (2, 2, 1) does not commute; bug")
        return fixed(lam)

    monkeypatch.setattr(verify, "generic_witness", refused)
    res = verify.suite2(6, 6)
    assert not res.passed and "1 failures; first: lam=(2, 2, 1): witness for host" in res.detail


@pytest.mark.parametrize("k, checked, sizes", [(6, 22, 9), (7, 43, 13), (10, 542, 0)])
def test_fiber_suites_build_each_table_once(monkeypatch, k, checked, sizes):
    # suites 6 and 7 ask several fibers of one n: each table is built once;
    # suite 10 maps each partition on its own and builds none
    built = []
    table = verify.dmap_all
    monkeypatch.setattr(verify, "dmap_all", lambda n: built.append(n) or table(n))
    res = verify.SUITES[k](16, 0, frozenset())
    assert res.passed and res.checked == checked
    assert len(built) == len(set(built)) == sizes


def test_main_theorem_square_zero_hosts_alone_meet_every_orbit(results):
    # the paper's main theorem: for n >= 4, N_B meets every nilpotent orbit
    # iff B^2 = 0
    pairs = results[1].pairs
    for n in range(4, 11):
        types = list(enumerate_partitions(n))
        for lam in types:
            if lam[0] <= 2:
                # if: suite 1 certified a partner of type lam on every host mu,
                # and commuting is symmetric
                assert all((mu, lam) in pairs for mu in types), lam
            else:
                # only if: thm3 forbids one partner of every other host
                partner = (n - 1, 1) if is_almost_rectangular(lam) else (n,)
                reasons = compatible_filter(lam, partner).reasons
                assert "thm3" in [r.rule for r in reasons], (lam, partner)
    # n = 3 is the exception: J, J^2 and 0 put the host (3) in all three orbits
    j = exactla.build_jordan((3,))
    zero = exactla.ExactMatrix([[0] * 3] * 3)
    assert [exactla.certify(m, (3,)).jordan for m in (j, j @ j, zero)] == list(
        enumerate_partitions(3))
