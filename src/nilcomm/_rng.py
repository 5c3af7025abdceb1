"""Deterministic 64-bit PRNG (splitmix64) with derived substreams.

random.Random's integer methods are not guaranteed byte-stable across
interpreter versions; this sequence is fixed by the splitmix64 constants and
nothing else, so seeds printed in output can always be replayed.

`Stream.ints` computes its outputs in batches of up to `_BATCH`: output i of
a batch lives in bits 128 i ... 128 i + 127 (lane i) of one Python int, and
the splitmix64 step runs as 15 big-int operations on all lanes at once.  A
lane holds a 64-bit value and the full 128-bit product of two, and every
lane is masked back to 64 bits before a shift or product could carry bits
of one lane into another, so each lane computes exactly the scalar step.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BATCH = 64  # outputs per batch, so one batch is an 8192-bit int


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=_BATCH)
def _lanes(m: int) -> tuple:
    """Constants of a batch of m outputs: ones, steps and masks hold 1,
    (i + 1) * _GOLDEN and 2^64 - 1 in lane i, unpack reads the low 8 bytes
    of each 16-byte lane, and advance is the state's move over the batch."""
    ones = sum(1 << (128 * i) for i in range(m))
    steps = sum((i + 1) * _GOLDEN << (128 * i) for i in range(m))
    unpack = struct.Struct("<" + "Q8x" * m).unpack
    return ones, steps, ones * _MASK, unpack, m * _GOLDEN & _MASK


def derive(seed: int, *path: int) -> int:
    """Independent stream seed from a root seed and an index path.

    derive(s, a, b) != derive(s, a, c) for b != c with overwhelming
    probability; used to give each trial / each sample its own stream.
    """
    s = seed & _MASK
    for p in path:
        s = _mix((s + _GOLDEN * ((p & _MASK) + 1)) & _MASK)
    return s


class Stream:
    """Stateful splitmix64 generator.  `ints` is its one stepping and
    rejection kernel; randint and nonzero draw through it."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]: the first value of `ints`."""
        return self.ints(lo, hi, 1)[0]

    def ints(self, lo: int, hi: int, k: int) -> list:
        """k uniform integers in [lo, hi], unbiased via rejection: a
        splitmix64 output z is kept, as lo + z % span, only below the largest
        multiple of the span that is at most 2^64.

        Outputs are computed in batches of min(still needed, `_BATCH`), in
        the lanes of one int (see the module docstring).  A batch never
        holds more outputs than are still needed, so a rejection only starts
        one batch more: the stream consumes exactly the outputs up to the
        k-th kept one, as a loop of single steps would, and its values and
        end state are that loop's bit for bit."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if span > 1 << 64:  # no output would pass the rejection test
            raise ValueError(f"range [{lo}, {hi}] is wider than 2^64")
        limit = (1 << 64) - ((1 << 64) % span)
        s = self._state
        out = []
        m = k
        while m > 0:
            if m > _BATCH:
                m = _BATCH
            ones, steps, masks, unpack, advance = _lanes(m)
            x = (s * ones + steps) & masks  # the states s + (i + 1) * _GOLDEN
            x = ((x ^ (x >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
            x = ((x ^ (x >> 27)) & masks) * 0x94D049BB133111EB & masks
            # a lane's bits 64 and up hold bits of the next lane; unpack drops them
            for z in unpack((x ^ (x >> 31)).to_bytes(16 * m, "little")):
                if z < limit:
                    out.append(lo + z % span)
            s = (s + advance) & _MASK
            m = k - len(out)
        self._state = s
        return out

    def nonzero(self, bound: int) -> int:
        """Uniform nonzero integer in [-bound, bound]."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        while True:
            x = self.randint(-bound, bound)
            if x:
                return x
