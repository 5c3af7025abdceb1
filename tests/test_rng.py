"""Golden values of the seeded stream: printed seeds must stay replayable, so
any rewrite of `_rng` has to reproduce these outputs exactly."""

import pytest

from nilcomm._rng import Stream, derive


def test_next64_is_splitmix64():
    # the reference splitmix64 sequence for seed 0
    s = Stream(0)
    assert [s.next64() for _ in range(4)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_derived_stream_draws_are_pinned():
    seed = derive(1, 2, 3)
    assert seed == 0x0EE3BB459E9E297B
    s = Stream(seed)
    assert [s.randint(-10, 10) for _ in range(8)] == [2, 7, 3, -5, 0, -3, -8, 0]
    assert [s.nonzero(100) for _ in range(6)] == [95, -44, 25, -32, -62, -58]


def test_derive_is_pinned():
    assert derive(7, 5, 3, 2) == 0xCC1A6EDD8D29F1F0


def test_ints_equals_randint_calls():
    # spans 1, 2 and 21, and 2^63 + 1, where about half the raw values are
    # rejected, so the batch redraws within one call
    for lo, hi in ((3, 3), (0, 1), (-10, 10), (0, 1 << 63)):
        for k in (0, 1, 2, 7, 60):
            batch, single = Stream(derive(5, hi - lo, k)), Stream(derive(5, hi - lo, k))
            assert batch.ints(lo, hi, k) == [single.randint(lo, hi) for _ in range(k)]
            assert batch.next64() == single.next64()


def test_ints_refuses_an_empty_range():
    for k in (0, 3):
        with pytest.raises(ValueError, match="empty range"):
            Stream(0).ints(1, 0, k)
