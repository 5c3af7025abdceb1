"""Golden values of the seeded stream: printed seeds must stay replayable, so
any rewrite of `_rng` has to reproduce these outputs exactly."""

import random

import pytest

from nilcomm._rng import Stream, derive

from . import oracles


def test_next64_is_splitmix64():
    # the reference splitmix64 sequence for seed 0: with a span of 2^64 no
    # value is rejected, so ints returns the raw outputs
    assert Stream(0).ints(0, 2**64 - 1, 4) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_derived_stream_draws_are_pinned():
    seed = derive(1, 2, 3)
    assert seed == 0x0EE3BB459E9E297B
    s = Stream(seed)
    assert [s.randint(-10, 10) for _ in range(8)] == [2, 7, 3, -5, 0, -3, -8, 0]
    assert [s.nonzero(100) for _ in range(6)] == [95, -44, 25, -32, -62, -58]
    # a span of 2^63 + 1, where 7 of the first 19 raw outputs are rejected
    assert Stream(seed).ints(0, 1 << 63, 12) == [
        0x30AAAF5AC74BDE19, 0x425C74DD6D870837, 0x27CFBC273D0071CF,
        0x721ECF4652971CFC, 0x7B551EFADF85055E, 0x3CBF8F61582502EF,
        0x5CBDC628361F9C60, 0x667D58587E58EBDA, 0x4828BBA077D91844,
        0x3E5A48927D0884D9, 0x1BEBB186CDB47E54, 0x62F7085C6604FA8E]


def test_derive_is_pinned():
    assert derive(7, 5, 3, 2) == 0xCC1A6EDD8D29F1F0


def test_ints_equals_randint_calls():
    # spans 1, 2 and 21, and 2^63 + 1, where about half the raw values are
    # rejected, so the batch redraws within one call
    for lo, hi in ((3, 3), (0, 1), (-10, 10), (0, 1 << 63)):
        for k in (0, 1, 2, 7, 60):
            batch, single = Stream(derive(5, hi - lo, k)), Stream(derive(5, hi - lo, k))
            assert batch.ints(lo, hi, k) == [single.randint(lo, hi) for _ in range(k)]
            assert batch.ints(0, 2**64 - 1, 1) == single.ints(0, 2**64 - 1, 1)


def test_batched_ints_match_the_scalar_loop():
    # spans 1 and 2^64, spans just above 2^63 (about half of all outputs
    # rejected), small and arbitrary ones; k on both sides of one batch
    rng = random.Random(24)
    spans = (1, 2, 21, (1 << 63) + 1, (1 << 63) + 12345, 1 << 64)
    cases = [(k, span) for k in (0, 1, 63, 64, 65, 200) for span in spans for _ in range(20)]
    while len(cases) < 2300:
        cases.append((rng.choice([rng.randint(0, 3), rng.randint(0, 130)]),
                      rng.choice([rng.randint(1, 50), rng.randint(1, 1 << 64),
                                  (1 << 63) + rng.randint(1, 1 << 20)])))
    for k, span in cases:
        seed, lo = rng.getrandbits(64), rng.randint(-2**70, 2**70)
        stream = Stream(seed)
        assert (stream.ints(lo, lo + span - 1, k), stream._state) == \
            oracles.stream_ints(seed, lo, lo + span - 1, k), (seed, lo, span, k)


def test_ints_refuses_an_empty_range():
    for k in (0, 3):
        with pytest.raises(ValueError, match="empty range"):
            Stream(0).ints(1, 0, k)


def test_ints_refuses_a_range_wider_than_2_64():
    # with a span above 2^64 every output would be rejected, forever; the
    # CLI's --coeff-bound reaches this through nonzero
    with pytest.raises(ValueError, match="wider than 2"):
        Stream(0).ints(0, 1 << 64, 1)
    assert Stream(0).ints(1, 1 << 64, 1) == [0xE220A8397B1DCDAF + 1]
    with pytest.raises(ValueError, match="wider than 2"):
        Stream(0).nonzero(1 << 63)
