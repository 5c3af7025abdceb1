"""Necessary conditions on pairs of Jordan types of commuting nilpotent matrices.

Each rule is a partial obstruction: `forbidden` means the two types can never
be the Jordan forms of commuting nilpotent matrices, with the firing rules
recorded as reasons.  `unknown` asserts nothing; these are necessary
conditions only, and no completeness is claimed.  The relation is symmetric,
so every rule is applied in both argument orders wherever its precondition
holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from nilcomm.partitions import Partition, is_almost_rectangular

FORBIDDEN = "forbidden"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Reason:
    rule: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "detail": self.detail}


@dataclass(frozen=True)
class PairVerdict:
    lam: Partition
    mu: Partition
    verdict: str
    reasons: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.verdict == FORBIDDEN and not self.reasons:
            raise ValueError("forbidden verdict needs at least one reason")
        if self.verdict == UNKNOWN and self.reasons:
            raise ValueError("unknown verdict carries no reasons")

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "verdict": self.verdict,
            "reasons": [r.to_json_dict() for r in self.reasons],
        }


def _pair(lam, mu) -> tuple[Partition, Partition]:
    lam, mu = Partition(lam), Partition(mu)
    if lam.n != mu.n:
        raise ValueError(f"sizes differ: {lam.n} vs {mu.n}")
    return lam, mu


def _verdict(lam, mu, reasons: list) -> PairVerdict:
    if reasons:
        return PairVerdict(lam, mu, FORBIDDEN, tuple(dict.fromkeys(reasons)))
    return PairVerdict(lam, mu, UNKNOWN)


def check_prop_ar(lam, mu) -> PairVerdict:
    """A full cycle commutes only with almost-rectangular types (both orders)."""
    lam, mu = _pair(lam, mu)
    n = lam.n
    reasons = []
    for a, b in ((lam, mu), (mu, lam)):
        if a == (n,) and not is_almost_rectangular(b):
            reasons.append(
                Reason("prop_ar", f"({n}) pairs only with almost-rectangular types")
            )
    return _verdict(lam, mu, reasons)


def check_ind1(lam, mu) -> PairVerdict:
    """Many parts force a square-zero partner.

    If the partner has s parts with 2 s >= 2 n - (last part of the host),
    its rank is at most half the smallest host block, every centralizer
    block then has square zero, and a first part above 2 is impossible.
    """
    lam, mu = _pair(lam, mu)
    n = lam.n
    reasons = []
    for a, b in ((lam, mu), (mu, lam)):
        if 2 * b.t >= 2 * n - a[-1] and b[0] > 2:
            reasons.append(
                Reason(
                    "ind1",
                    f"{b.t} parts with smallest host block {a[-1]} force first part <= 2",
                )
            )
    return _verdict(lam, mu, reasons)


def check_ind2(lam, mu) -> PairVerdict:
    """Two-block host with a partner of more than l1 parts bounds the first part.

    The bound is ceil(l2 / (s - l1)) where s is the partner's part count.
    """
    lam, mu = _pair(lam, mu)
    if lam.t != 2:
        raise ValueError(f"host must have exactly 2 parts, got {tuple(lam)}")
    reasons = []
    s = mu.t
    if s > lam[0]:
        bound = -(-lam[1] // (s - lam[0]))
        if mu[0] > bound:
            reasons.append(
                Reason("ind2", f"{s} parts bound the first part by {bound}")
            )
    return _verdict(lam, mu, reasons)


def check_nilorder(lam, mu) -> PairVerdict:
    """Equal two-block host (m, m): the partner is (n) or has first part <= m + 1."""
    lam, mu = _pair(lam, mu)
    if lam.t != 2 or lam[0] != lam[1]:
        raise ValueError(f"host must be (m, m), got {tuple(lam)}")
    m = lam[0]
    n = lam.n
    reasons = []
    if tuple(mu) != (n,) and mu[0] > m + 1:
        reasons.append(
            Reason("nilorder", f"first part {mu[0]} exceeds {m + 1} and is not ({n})")
        )
    return _verdict(lam, mu, reasons)


def check_two_part_pairs(lam, mu) -> PairVerdict:
    """Two distinct two-part types commute only in the balanced exceptional pair.

    Allowed: equal types, or (n even) the pair (n/2, n/2) with (n/2+1, n/2-1).
    """
    lam, mu = _pair(lam, mu)
    if lam.t != 2 or mu.t != 2:
        raise ValueError("both types must have exactly 2 parts")
    if lam == mu:
        return _verdict(lam, mu, [])
    n = lam.n
    if n % 2 == 0:
        h = n // 2
        exceptional = {(h, h), (h + 1, h - 1)}
        if {tuple(lam), tuple(mu)} == exceptional:
            return _verdict(lam, mu, [])
    return _verdict(
        lam, mu,
        [Reason("two_part", "distinct two-part types outside the balanced pair")],
    )


def check_thm3(lam, mu) -> PairVerdict:
    """For n >= 4, a host forbids (n) unless almost rectangular, and an
    almost-rectangular host with a block of size >= 3 forbids (n-1, 1)."""
    lam, mu = _pair(lam, mu)
    n = lam.n
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    reasons = []
    for a, b in ((lam, mu), (mu, lam)):
        if tuple(b) == (n,) and not is_almost_rectangular(a):
            reasons.append(Reason("thm3", f"({n}) needs an almost-rectangular partner"))
        if tuple(b) == (n - 1, 1) and is_almost_rectangular(a) and a[0] >= 3:
            reasons.append(
                Reason("thm3", f"({n - 1},1) is impossible beside a square cube host")
            )
    return _verdict(lam, mu, reasons)


def compatible_filter(lam, mu) -> PairVerdict:
    """Conjunction of every rule whose precondition holds, in both orders."""
    lam, mu = _pair(lam, mu)
    reasons: list[Reason] = []
    reasons.extend(check_prop_ar(lam, mu).reasons)
    reasons.extend(check_ind1(lam, mu).reasons)
    for a, b in ((lam, mu), (mu, lam)):
        if a.t == 2:
            reasons.extend(check_ind2(a, b).reasons)
        if a.t == 2 and a[0] == a[1]:
            reasons.extend(check_nilorder(a, b).reasons)
    if lam.t == 2 and mu.t == 2:
        reasons.extend(check_two_part_pairs(lam, mu).reasons)
    if lam.n >= 4:
        reasons.extend(check_thm3(lam, mu).reasons)
    return _verdict(lam, mu, reasons)
