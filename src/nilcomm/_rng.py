"""Deterministic 64-bit PRNG (splitmix64) with derived substreams.

random.Random's integer methods are not guaranteed byte-stable across
interpreter versions; this sequence is fixed by the splitmix64 constants and
nothing else, so seeds printed in output can always be replayed.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


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
        multiple of the span that is at most 2^64.  The splitmix64 step is
        `_mix` inlined."""
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if span > 1 << 64:  # no output would pass the rejection test
            raise ValueError(f"range [{lo}, {hi}] is wider than 2^64")
        limit = (1 << 64) - ((1 << 64) % span)
        s = self._state
        out = []
        while len(out) < k:
            for _ in range(k - len(out)):  # one pass more per rejection
                s = (s + _GOLDEN) & _MASK
                z = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
                z ^= z >> 31
                if z < limit:
                    out.append(lo + z % span)
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
