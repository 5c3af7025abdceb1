"""Acceptance suites: every claim the library rests on, checked at desk scale.

Each suite is a function of its scale and seed that returns a SuiteResult
and never raises on a mere mismatch; the failures are counted and the first
one is quoted.  No suite reads or writes state outside its arguments: the
construction suites (WITNESS_SUITES: 1, 3 and 5) return the commuting pairs
they verified on their result, and run_all and run_suite pass the union of
those pairs to the constraint-soundness suite 11.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache

from nilcomm import exactla
from nilcomm._rng import Stream, derive
from nilcomm.commutant import generic_witness, sample_jordan
from nilcomm.constraints import FORBIDDEN, compatible_filter
from nilcomm.dinverse import dinv_diff2, dinv_two_part, dmap, dmap_all, explore_q2
from nilcomm.partitions import (
    Partition,
    dominance_leq,
    enumerate_partitions,
    is_stable,
    two_column,
)
from nilcomm.twoblock import (
    TwoBlockElement,
    antidiagonal,
    antidiagonal_block_rank_formulas,
    construct_conjugate_partner,
    construct_lemma_eq2,
    construct_squarezero_partner,
    tb_pow_order,
    tb_rank,
    tb_to_matrix,
)

# the suites draw integer coefficients (suite 3: numerators) in
# [-COEFF_BOUND, COEFF_BOUND]; the check counts and golden digests were
# recorded at this value
COEFF_BOUND = 10


@dataclass(frozen=True)
class SuiteResult:
    criterion: int
    name: str
    passed: bool
    checked: int
    detail: str
    seconds: float | None = None  # wall time, set by run_all and run_suite
    # verified (host, type) pairs of a construction suite, for suite 11; not
    # part of the report
    pairs: frozenset = field(default=frozenset(), repr=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        cost = f"{self.checked} checks"
        if self.seconds is not None:
            cost += f", {self.seconds:.1f} s"
        return (f"CRITERION {self.criterion} [{self.name}]: {status} - "
                f"{self.detail} ({cost})")


def _result(criterion: int, name: str, checked: int, fails: list, detail: str,
            pairs=()) -> SuiteResult:
    """A suite passes, with detail, when it made at least one check and none failed."""
    if fails:
        detail = f"{len(fails)} failures; first: {fails[0]}"
    elif not checked:
        detail = "nothing checked at this scale"
    return SuiteResult(criterion, name, checked > 0 and not fails, checked, detail,
                       pairs=frozenset(pairs))


def suite1(max_n: int) -> SuiteResult:
    """Square-zero partners of every rank for every host type."""
    fails: list[str] = []
    checked = 0
    pairs = set()
    for n in range(1, max_n + 1):
        for mu in enumerate_partitions(n):
            for a in range(n // 2 + 1):
                checked += 1
                try:
                    m = construct_squarezero_partner(mu, a)
                except Exception as exc:
                    fails.append(f"mu={tuple(mu)} a={a}: {exc}")
                    continue
                sq_zero = (m @ m).is_zero()
                rank_ok = exactla.rank(m) == a
                if not (sq_zero and rank_ok):
                    fails.append(
                        f"mu={tuple(mu)} a={a}: square-zero={sq_zero} rank-ok={rank_ok}")
                    continue
                pairs.add((m.host, m.jordan))
    return _result(1, "square-zero partners", checked, fails,
                   f"all ranks realized for n <= {max_n}", pairs)


def suite2(max_n: int, witness_n: int) -> SuiteResult:
    """Images of two-column shapes collapse to a single part, the recursion
    and `generic_witness` agreeing on the overlap: (n) tops the dominance
    order, so a certified type (n) shows it; a failed certificate fails."""
    fails: list[str] = []
    checked = 0
    for n in range(1, max_n + 1):
        for a in range(n // 2 + 1):
            lam = two_column(n, a)
            checked += 1
            d = dmap(lam)
            if d != (n,):
                fails.append(f"lam={tuple(lam)}: recursion gave {tuple(d)}")
            if n <= witness_n:
                checked += 1
                try:
                    if (jt := generic_witness(lam).jordan) != (n,):
                        fails.append(f"lam={tuple(lam)}: generic witness has type {tuple(jt)}")
                except RuntimeError as exc:
                    fails.append(f"lam={tuple(lam)}: {exc}")
    return _result(2, "two-column images", checked, fails,
                   f"single-part image for every shape, n <= {max_n}")


def _admissible(l1: int, l2: int):
    for j in range(l2):
        for l in range(j, l2):
            if l1 == l2 and j + l == 0:
                continue
            yield j, l


# draws per admissible (l1, l2, j, l) in suite 3
SUITE3_DRAWS = 3


def suite3(max_n: int, seed: int) -> SuiteResult:
    """Predicted antidiagonal types match the dense Jordan type exactly."""
    fails: list[str] = []
    checked = 0
    pairs = set()
    cases = {"a": 0, "b": 0, "c": 0}
    for l1 in range(1, max_n):
        for l2 in range(1, min(l1, max_n - l1) + 1):
            for j, l in _admissible(l1, l2):
                for k in range(SUITE3_DRAWS):
                    rng = Stream(derive(seed, 3, l1, l2, j, l, k))
                    bc = Fraction(rng.nonzero(COEFF_BOUND), rng.randint(1, 4))
                    cc = Fraction(rng.nonzero(COEFF_BOUND), rng.randint(1, 4))
                    x, pred, case = antidiagonal(l1, l2, j, l, bc, cc)
                    checked += 1
                    try:
                        w = exactla.certify(tb_to_matrix(x), (l1, l2), pred)
                    except RuntimeError as exc:
                        fails.append(f"({l1},{l2}) j={j} l={l} case {case}: {exc}")
                        continue
                    cases[case] += 1
                    pairs.add((w.host, w.jordan))
    ok = (f"cases a/b/c = {cases['a']}/{cases['b']}/{cases['c']}, "
          f"n <= {max_n}")
    return _result(3, "antidiagonal types", checked, fails, ok, pairs)


def suite4(max_n: int) -> SuiteResult:
    """Block ranks of antidiagonal powers follow the four closed formulas."""
    fails: list[str] = []
    checked = 0
    for l1 in range(1, max_n):
        for l2 in range(1, min(l1, max_n - l1) + 1):
            n = l1 + l2
            for j, l in _admissible(l1, l2):
                x, _, _ = antidiagonal(l1, l2, j, l, 1, 1)
                acc = tb_to_matrix(x)
                step = acc
                m = 1
                while True:
                    pred = antidiagonal_block_rank_formulas(l1, l2, j, l, m)
                    got = {
                        "11": exactla.rank(acc.block(0, l1, 0, l1)),
                        "12": exactla.rank(acc.block(0, l1, l1, n)),
                        "21": exactla.rank(acc.block(l1, n, 0, l1)),
                        "22": exactla.rank(acc.block(l1, n, l1, n)),
                    }
                    checked += 4
                    if got != pred:
                        fails.append(
                            f"({l1},{l2}) j={j} l={l} m={m}: {got} vs {pred}")
                        break
                    if acc.is_zero():
                        break
                    if m > n:
                        fails.append(f"({l1},{l2}) j={j} l={l}: not nilpotent")
                        break
                    acc = acc @ step
                    m += 1
    return _result(4, "antidiagonal block ranks", checked, fails,
                   f"all four formulas exact, n <= {max_n}")


def two_part_draws(l1: int, l2: int, samples: int, seed: int):
    """Suite 5's draws on the host (l1, l2): `samples` nilpotent-form elements
    with integer coefficients in [-COEFF_BOUND, COEFF_BOUND], seeded by
    derive(seed, 5, l1, l2).  Yields (element, order) for each draw of rank
    n - 2 (`tb_rank`), whose Jordan type is then (order, n - order)."""
    n = l1 + l2
    rng = Stream(derive(seed, 5, l1, l2))
    for _ in range(samples):
        v = rng.ints(-COEFF_BOUND, COEFF_BOUND, l1 + 3 * l2 - 2)  # a[1:] b c d[1:]
        o = l1 - 1
        a, d = (0, *v[:o]), (0, *v[o + 2 * l2:])
        bco, cco = v[o:o + l2], v[o + l2:o + 2 * l2]
        if l1 == l2:
            (bco if rng.randint(0, 1) else cco)[0] = 0
        x = TwoBlockElement(l1, l2, a, tuple(bco), tuple(cco), d)
        if tb_rank(x) == n - 2:
            yield x, tb_pow_order(x)


def _two_part_types(l1: int, l2: int) -> set:
    """Two-part types that commute with the host (l1, l2): its own, and both
    of (h, h) and (h + 1, h - 1) when n = 2h >= 4 and the host is one of them."""
    h, odd = divmod(l1 + l2, 2)
    balanced = {(h, h), (h + 1, h - 1)}
    return balanced if not odd and h >= 2 and (l1, l2) in balanced else {(l1, l2)}


def suite5(max_n: int, sample_n: int, samples: int, seed: int) -> SuiteResult:
    """Two-part hosts: the off-by-one partner exists for equal blocks, and
    sampling the full commuting parametrization never produces a two-part
    type outside the allowed set; the pair rule forbids exactly the rest."""
    fails: list[str] = []
    checked = 0
    pairs = set()
    for m in range(2, max_n // 2 + 1):
        checked += 1
        try:
            w = construct_lemma_eq2(m)
        except Exception as exc:
            fails.append(f"m={m}: {exc}")
            continue
        pairs.add((w.host, w.jordan))

    for l1 in range(1, sample_n):
        for l2 in range(1, min(l1, sample_n - l1) + 1):
            n = l1 + l2
            allowed = _two_part_types(l1, l2)
            checked += samples
            seen = {(order, n - order)
                    for _, order in two_part_draws(l1, l2, samples, seed)}
            fails += [f"host ({l1},{l2}): sampled two-part type {q}"
                      for q in sorted(seen - allowed)]
            pairs.update((Partition((l1, l2)), Partition(q)) for q in seen & allowed)

    for n in range(2, max_n + 1):
        shapes = [Partition((p, n - p)) for p in range((n + 1) // 2, n)]
        for lam in shapes:
            allowed = _two_part_types(*lam)
            for mu in shapes:
                checked += 1
                fires = any(r.rule == "two_part"
                            for r in compatible_filter(lam, mu).reasons)
                if fires == (mu in allowed):
                    fails.append(f"pair {tuple(lam)},{tuple(mu)}: two_part "
                                 f"{'fires' if fires else 'is silent'}")
    return _result(5, "two-part realizability", checked, fails,
                   f"no sampled type escapes, partners exist to n = {max_n}", pairs)


def suite6(max_n: int) -> SuiteResult:
    """Staircase fibers from the closed form equal brute force."""
    fails: list[str] = []
    checked = 0
    table = cache(dmap_all)  # one fiber table per n in this run
    for mu in range(3, max_n + 1):
        for k in range(1, (mu - 1) // 2 + 1):
            n = (k + 1) * (mu - k)
            if n > max_n:
                continue
            target = Partition([mu - 2 * i for i in range(k + 1)])
            fast = dinv_diff2(mu, k)
            checked += 2
            if len(fast) != mu - 2 * k:
                fails.append(f"mu={mu} k={k}: size {len(fast)} != {mu - 2 * k}")
            brute = table(n).get(target, set())
            if fast != brute:
                fails.append(
                    f"mu={mu} k={k}: closed form differs from brute force "
                    f"by {sorted(map(tuple, fast ^ brute))}")
    return _result(6, "staircase fibers", checked, fails,
                   f"closed form exact up to n = {max_n}")


def suite7(max_n: int) -> SuiteResult:
    """Two-part fiber sizes (r-1)(mu-r), with the explicit sets for gaps 2..4."""
    fails: list[str] = []
    checked = 0
    table = cache(dmap_all)  # one fiber table per n in this run
    for r in range(2, 6):
        mu = r + 1
        while 2 * mu - r <= max_n:
            # gap 5 has no explicit set: its brute-force fiber is counted
            brute = table(2 * mu - r).get((mu, mu - r), set())
            fast = dinv_two_part(mu, r) if r <= 4 else brute
            checked += 1
            if len(fast) != (r - 1) * (mu - r):
                fails.append(
                    f"mu={mu} r={r}: size {len(fast)} != {(r - 1) * (mu - r)}")
            if r <= 4:
                checked += 1
                if fast != brute:
                    fails.append(
                        f"mu={mu} r={r}: explicit set differs from brute force "
                        f"by {sorted(map(tuple, fast ^ brute))}")
            mu += 1
    return _result(7, "two-part fibers", checked, fails,
                   f"counts and sets exact up to n = {max_n}")


def suite8() -> SuiteResult:
    """The worked fiber of (6,2) and its dominance-minimal elements."""
    fails: list[str] = []
    expected = {
        Partition(p) for p in
        [(6, 2), (6, 1, 1), (4, 2, 2), (4, 2, 1, 1), (4, 1, 1, 1, 1), (3, 3, 1, 1)]
    }
    fiber = dmap_all(8).get((6, 2), set())
    if fiber != expected:
        fails.append(f"fiber is {sorted(map(tuple, fiber))}")
    minimal = {
        lam for lam in fiber
        if not any(nu != lam and dominance_leq(nu, lam) for nu in fiber)
    }
    if minimal != {Partition((3, 3, 1, 1)), Partition((4, 1, 1, 1, 1))}:
        fails.append(f"dominance-minimal elements are {sorted(map(tuple, minimal))}")
    return _result(8, "worked fiber example", 2, fails,
                   "six elements, two dominance-minimal")


def suite9() -> SuiteResult:
    """The worked image D((3,1,1)) = (4,1)."""
    d = dmap((3, 1, 1))
    fails = [] if d == (4, 1) else [f"got {tuple(d)}"]
    return _result(9, "worked image example", 1, fails, "(3,1,1) maps to (4,1)")


def suite10(max_n: int) -> SuiteResult:
    """Idempotence of the image map, and fixed points = stable partitions."""
    fails: list[str] = []
    checked = 0
    for n in range(1, max_n + 1):
        for lam in enumerate_partitions(n):
            d = dmap(lam)
            checked += 2
            if dmap(d) != d:
                fails.append(f"lam={tuple(lam)}: image {tuple(d)} not fixed")
            if is_stable(lam) != (d == lam):
                fails.append(f"lam={tuple(lam)}: stability vs fixed-point mismatch")
    return _result(10, "idempotence and stability", checked, fails,
                   f"both properties hold for n <= {max_n}")


def sample_bank(n_max: int, per: int, seed: int) -> dict:
    """per sampled commuting types for every partition of every n <= n_max,
    keyed by the host partition.  Draw i on host lam is seeded by
    derive(seed, 7, *lam, i)."""
    bank = {}
    for n in range(1, n_max + 1):
        for lam in enumerate_partitions(n):
            bank[lam] = [
                Partition(sample_jordan(lam, derive(seed, 7, *lam, i), COEFF_BOUND))
                for i in range(per)
            ]
    return bank


# sampled types per host in suite 11's bank
SUITE11_DRAWS = 1000


def suite11(sample_n: int, pair_n: int, seed: int, *, pairs: frozenset) -> SuiteResult:
    """No verified commuting pair is ever marked forbidden.

    pairs holds the (host, type) pairs verified by the construction suites
    (WITNESS_SUITES); the sample bank and the certified conjugate pairs
    (`construct_conjugate_partner`) join them."""
    fails: list[str] = []
    checked = 0
    pairs = set(pairs)
    bank = sample_bank(sample_n, SUITE11_DRAWS, seed)
    for lam, draws in bank.items():
        checked += len(draws)
        pairs.update((lam, q) for q in draws)
    for n in range(1, pair_n + 1):
        for lam in enumerate_partitions(n):
            try:
                w = construct_conjugate_partner(lam)
                pairs.add((w.host, w.jordan))
            except RuntimeError as exc:
                fails.append(f"conjugate partner on {tuple(lam)}: {exc}")
    for lam, mu in sorted(pairs):
        checked += 1
        verdict = compatible_filter(lam, mu)
        if verdict.verdict == FORBIDDEN:
            rules = [r.rule for r in verdict.reasons]
            fails.append(f"witness {tuple(lam)},{tuple(mu)} forbidden by {rules}")
    return _result(11, "constraint soundness", checked, fails,
                   f"{len(pairs)} distinct verified pairs all pass")


def suite12(max_n: int) -> SuiteResult:
    """(mu+2, 1^(mu+r-2)) is the unique rank-minimal element of the fiber
    of (mu+r, mu): explore_q2's candidate for that target."""
    fails: list[str] = []
    checked = 0
    for total in range(3, max_n + 1):
        for r in range(2, total):
            mu = total - r
            checked += 1
            if not explore_q2((mu + r, mu)).holds:
                fails.append(f"mu={mu} r={r}")
    return _result(12, "rank-minimal uniqueness", checked, fails,
                   f"unique minimum for all first parts <= {max_n}")


# criterion -> runner(max_n, seed, pairs): each suite at its stated scale,
# capped by max_n, so no suite grows past n = 16; only suite 11 reads pairs,
# the union of the WITNESS_SUITES' pairs.  run_all and run_suite both read
# this table, the only place a suite's scale is written
SUITES = {
    1: lambda m, seed, p: suite1(min(m, 10)),
    2: lambda m, seed, p: suite2(min(m, 16), min(m, 10)),
    3: lambda m, seed, p: suite3(min(m, 14), seed),
    4: lambda m, seed, p: suite4(min(m, 14)),
    5: lambda m, seed, p: suite5(min(m, 16), min(m, 10), 10000, seed),
    6: lambda m, seed, p: suite6(min(m, 16)),
    7: lambda m, seed, p: suite7(min(m, 16)),
    8: lambda m, seed, p: suite8(),
    9: lambda m, seed, p: suite9(),
    10: lambda m, seed, p: suite10(min(m, 12)),
    11: lambda m, seed, p: suite11(min(m, 10), min(m, 12), seed, pairs=p),
    12: lambda m, seed, p: suite12(min(m, 14)),
}

# the suites whose verified pairs suite 11 checks against the pair filter
WITNESS_SUITES = (1, 3, 5)


def _timed(k: int, max_n: int, seed: int, pairs: frozenset) -> SuiteResult:
    t0 = time.perf_counter()
    res = SUITES[k](max_n, seed, pairs)
    return replace(res, seconds=time.perf_counter() - t0)


def run_suite(k: int, max_n: int, seed: int) -> SuiteResult:
    """Suite k at the scale run_all gives it, timed; suite 11 first runs the
    witness suites for its pairs, as run_all does before it (not in its time)."""
    pairs = frozenset()
    if k == 11:
        pairs = pairs.union(*(SUITES[j](max_n, seed, frozenset()).pairs
                              for j in WITNESS_SUITES))
    return _timed(k, max_n, seed, pairs)


def run_all(max_n: int, seed: int, progress=None) -> list[SuiteResult]:
    """All twelve suites at their stated scales, capped by max_n, each timed;
    suite 11 gets the pairs of the witness suites, which run before it."""
    results: list[SuiteResult] = []
    pairs = frozenset()
    for k in sorted(SUITES):
        res = _timed(k, max_n, seed, pairs)
        pairs |= res.pairs
        results.append(res)
        if progress is not None:
            progress(res)
    return results
