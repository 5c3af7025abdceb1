import hashlib
import json

import pytest

from nilcomm.cli import main

from nilcomm.dinverse import dmap
from nilcomm.constraints import (
    FORBIDDEN,
    UNKNOWN,
    PairVerdict,
    Reason,
    compatible_filter,
)
from nilcomm.partitions import Partition, conjugate, enumerate_partitions

from .conftest import partitions_up_to

# SHA-256 over (lam, mu, verdict, reasons in order) for every pair with
# n <= 10, recorded before prop_ar was folded into thm3, with the prop_ar
# reasons left out
FILTER_DIGEST_N10 = "c249d1f88d294977b12ccaaed1819ec9c22b35536158327d99e7866925039e0a"


def P(*xs):
    return Partition(xs)


def rules(lam, mu):
    return [r.rule for r in compatible_filter(lam, mu).reasons]


def test_verdict_invariants():
    # the verdict is read off the reasons, so it cannot disagree with them
    v = PairVerdict(P(2, 1), P(3), ())
    assert v.verdict == UNKNOWN and compatible_filter(P(2, 1), P(3)) == v
    v = PairVerdict(P(4, 2), P(6), (Reason("thm3", "demo"),))
    assert v.verdict == FORBIDDEN
    with pytest.raises(ValueError):
        compatible_filter(P(3), P(2, 2))


def test_prop_ar_rule():
    # a single Jordan block pairs only with near-equal-part shapes; thm3's
    # first clause says so, and no separate prop_ar reason is given
    assert compatible_filter(P(6), P(3, 3)).verdict == UNKNOWN
    assert compatible_filter(P(6), P(2, 2, 2)).verdict == UNKNOWN
    assert rules(P(6), P(4, 2)) == ["thm3"]
    assert rules(P(4, 2), P(6)) == ["thm3"]
    assert compatible_filter(P(4, 2), P(3, 3)).verdict == UNKNOWN


def test_ind1_rule():
    # many parts with a big lead part cannot sit beside a fat partner
    v = compatible_filter(P(4, 4), P(3, 1, 1, 1, 1, 1))
    assert v.verdict == FORBIDDEN
    assert "ind1" in [r.rule for r in v.reasons]
    # symmetric in the order of the pair
    assert "ind1" in rules(P(3, 1, 1, 1, 1, 1), P(4, 4))
    assert "ind1" not in rules(P(5, 1), P(2, 1, 1, 1, 1))


def test_ind2_rule():
    assert "ind2" in rules(P(4, 4), P(3, 1, 1, 1, 1, 1))
    assert "ind2" not in rules(P(4, 4), P(2, 2, 1, 1, 1, 1))
    assert "ind2" not in rules(P(3, 2), P(2, 1, 1, 1))
    # a host of three parts is outside the rule, in either order
    assert "ind2" not in rules(P(3, 2, 1), P(6))


def test_nilorder_rule():
    assert "nilorder" in rules(P(3, 3), P(5, 1))
    assert "nilorder" not in rules(P(3, 3), P(6))
    assert "nilorder" not in rules(P(3, 3), P(4, 2))
    # an unequal two-block host is outside the rule
    assert "nilorder" not in rules(P(4, 3), P(7))


def test_two_part_rule():
    assert "two_part" not in rules(P(4, 2), P(4, 2))
    assert "two_part" not in rules(P(4, 2), P(3, 3))
    assert "two_part" not in rules(P(3, 3), P(4, 2))
    assert "two_part" in rules(P(5, 1), P(4, 2))
    assert "two_part" in rules(P(4, 3), P(5, 2))
    assert "two_part" not in rules(P(4, 2), P(2, 2, 2))


def test_thm3_rule():
    assert "thm3" in rules(P(6), P(4, 2))
    assert "thm3" in rules(P(5, 1), P(3, 3))
    assert "thm3" not in rules(P(5, 1), P(2, 2, 2))
    assert "thm3" not in rules(P(6), P(3, 3))
    # below n = 4 neither clause applies: J and J^2 commute
    assert "thm3" not in rules(P(2, 1), P(3))


def test_filter_merges_reasons():
    v = compatible_filter(P(6, 2), P(4, 4))
    assert v.verdict == FORBIDDEN
    names = {r.rule for r in v.reasons}
    assert "nilorder" in names and "two_part" in names


def test_filter_matches_parent_digest():
    h = hashlib.sha256()
    count = 0
    for n in range(1, 11):
        parts = list(enumerate_partitions(n))
        for lam in parts:
            for mu in parts:
                v = compatible_filter(lam, mu)
                reasons = tuple((r.rule, r.detail) for r in v.reasons)
                h.update(repr((tuple(lam), tuple(mu), v.verdict, reasons)).encode()
                         + b"\n")
                count += 1
                w = compatible_filter(mu, lam)
                assert w.verdict == v.verdict, (lam, mu)
                assert set(w.reasons) == set(v.reasons), (lam, mu)
    assert count == 3582
    assert h.hexdigest() == FILTER_DIGEST_N10


def test_filter_accepts_conjugate_pairs():
    # a commuting pair with these two types always exists
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert compatible_filter(lam, conjugate(lam)).verdict == UNKNOWN


def test_filter_accepts_image_pairs():
    for lam in partitions_up_to(10):
        assert compatible_filter(lam, dmap(lam)).verdict == UNKNOWN
        assert compatible_filter(dmap(lam), lam).verdict == UNKNOWN


def test_filter_accepts_identical_pairs():
    for lam in partitions_up_to(10):
        assert compatible_filter(lam, lam).verdict == UNKNOWN


def test_filter_size_mismatch():
    with pytest.raises(ValueError):
        compatible_filter(P(3, 1), P(3, 2))


def test_reason_json(capsys):
    # the CLI writes each reason of a verdict as {rule, detail}, in order
    assert main(["check", "pair", "6,2", "4,4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == [6, 2] and doc["verdict"] == "forbidden"
    assert all(set(r) == {"rule", "detail"} for r in doc["reasons"])
    want = compatible_filter(P(6, 2), P(4, 4)).reasons
    assert [Reason(**r) for r in doc["reasons"]] == list(want)
