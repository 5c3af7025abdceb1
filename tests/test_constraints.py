import pytest

from nilcomm.dinverse import dmap
from nilcomm.constraints import (
    FORBIDDEN,
    UNKNOWN,
    PairVerdict,
    Reason,
    check_ind1,
    check_ind2,
    check_nilorder,
    check_prop_ar,
    check_thm3,
    check_two_part_pairs,
    compatible_filter,
)
from nilcomm.partitions import Partition, conjugate, enumerate_partitions

from .conftest import partitions_up_to


def P(*xs):
    return Partition(xs)


def test_verdict_invariants():
    with pytest.raises(ValueError):
        PairVerdict(P(2, 1), P(2, 1), FORBIDDEN, ())
    v = PairVerdict(P(2, 1), P(3), UNKNOWN)
    assert v.reasons == ()
    d = v.to_json_dict()
    assert d["verdict"] == "unknown"
    with pytest.raises(ValueError):
        check_prop_ar(P(3), P(2, 2))


def test_prop_ar_rule():
    # a single Jordan block pairs only with near-equal-part shapes
    assert check_prop_ar(P(6), P(3, 3)).verdict == UNKNOWN
    assert check_prop_ar(P(6), P(2, 2, 2)).verdict == UNKNOWN
    assert check_prop_ar(P(6), P(4, 2)).verdict == FORBIDDEN
    assert check_prop_ar(P(4, 2), P(6)).verdict == FORBIDDEN
    assert check_prop_ar(P(4, 2), P(3, 3)).verdict == UNKNOWN


def test_ind1_rule():
    # many parts with a big lead part cannot sit beside a fat partner
    v = check_ind1(P(4, 4), P(3, 1, 1, 1, 1, 1))
    assert v.verdict == FORBIDDEN
    assert any(r.rule == "ind1" for r in v.reasons)
    # symmetric in the order of the pair
    assert check_ind1(P(3, 1, 1, 1, 1, 1), P(4, 4)).verdict == FORBIDDEN
    assert check_ind1(P(5, 1), P(2, 1, 1, 1, 1)).verdict == UNKNOWN


def test_ind2_rule():
    v = check_ind2(P(4, 4), P(3, 1, 1, 1, 1, 1))
    assert v.verdict == FORBIDDEN
    assert check_ind2(P(4, 4), P(2, 2, 1, 1, 1, 1)).verdict == UNKNOWN
    assert check_ind2(P(3, 2), P(2, 1, 1, 1)).verdict == UNKNOWN
    with pytest.raises(ValueError):
        check_ind2(P(3, 2, 1), P(6))


def test_nilorder_rule():
    assert check_nilorder(P(3, 3), P(5, 1)).verdict == FORBIDDEN
    assert check_nilorder(P(3, 3), P(6)).verdict == UNKNOWN
    assert check_nilorder(P(3, 3), P(4, 2)).verdict == UNKNOWN
    with pytest.raises(ValueError):
        check_nilorder(P(4, 3), P(7))


def test_two_part_rule():
    assert check_two_part_pairs(P(4, 2), P(4, 2)).verdict == UNKNOWN
    assert check_two_part_pairs(P(4, 2), P(3, 3)).verdict == UNKNOWN
    assert check_two_part_pairs(P(3, 3), P(4, 2)).verdict == UNKNOWN
    assert check_two_part_pairs(P(5, 1), P(4, 2)).verdict == FORBIDDEN
    assert check_two_part_pairs(P(4, 3), P(5, 2)).verdict == FORBIDDEN
    with pytest.raises(ValueError):
        check_two_part_pairs(P(4, 2), P(2, 2, 2))


def test_thm3_rule():
    assert check_thm3(P(6), P(4, 2)).verdict == FORBIDDEN
    assert check_thm3(P(5, 1), P(3, 3)).verdict == FORBIDDEN
    assert check_thm3(P(5, 1), P(2, 2, 2)).verdict == UNKNOWN
    assert check_thm3(P(6), P(3, 3)).verdict == UNKNOWN
    with pytest.raises(ValueError):
        check_thm3(P(2, 1), P(3))


def test_filter_merges_reasons():
    v = compatible_filter(P(6, 2), P(4, 4))
    assert v.verdict == FORBIDDEN
    rules = {r.rule for r in v.reasons}
    assert "nilorder" in rules and "two_part" in rules
    j = v.to_json_dict()
    assert j["lambda"] == [6, 2] and j["verdict"] == "forbidden"
    assert len(j["reasons"]) == len(v.reasons)


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


def test_reason_json():
    r = Reason("ind1", "demo")
    assert r.to_json_dict() == {"rule": "ind1", "detail": "demo"}
