import hashlib

import pytest

from nilcomm import cli, commutant, verify
from nilcomm.commutant import sample_jordan, sample_nilpotent_commuting
from nilcomm.dinverse import dmap, dmap_index
from nilcomm._rng import Stream, derive
from nilcomm.exactla import (
    ExactMatrix,
    _jordan_type_rows,
    _nonzeros,
    build_jordan,
    jordan_type,
    rank,
)
from nilcomm.partitions import (
    Partition,
    dominance_leq,
    is_almost_rectangular,
    is_stable,
    min_ar_cover,
)

from .conftest import partitions_up_to
from . import oracles


def test_basis_dimension_matches_centralizer():
    for p in partitions_up_to(7):
        dim = len(commutant._generators(p))
        assert dim == sum(min(a, b) for a in p for b in p)
        assert dim == oracles.centralizer_dim_formula(p)
        assert dim == oracles.kron_commutant_nullity(p)


def test_basis_generators_commute_and_are_independent():
    for p in [Partition([3, 1]), Partition([2, 2, 1]), Partition([4, 2])]:
        j = build_jordan(p)
        n = p.n
        dense = []
        # each generator is ones at (r0 + r, c0 + k + r) for r < length
        for (_, _, k, length, r0, c0) in commutant._generators(p):
            rows = [[0] * n for _ in range(n)]
            for r in range(length):
                rows[r0 + r][c0 + k + r] = 1
            dense.append(ExactMatrix(rows))
        for g in dense:
            assert g @ j == j @ g
        flat = ExactMatrix(
            [[g[r, c] for r in range(n) for c in range(n)] for g in dense]
        )
        assert rank(flat) == len(dense)


def test_samples_commute_and_are_nilpotent():
    for p in [Partition([3, 2]), Partition([2, 2, 2]), Partition([5, 3, 1])]:
        j = build_jordan(p)
        for i in range(10):
            s = sample_nilpotent_commuting(p, derive(3, i))
            assert s @ j == j @ s
            assert jordan_type(s) == s.jordan
            assert s.host == p
    # seeded determinism
    a = sample_nilpotent_commuting(Partition([4, 2]), 123)
    b = sample_nilpotent_commuting(Partition([4, 2]), 123)
    assert a == b
    # the certified sample is the draw sample_jordan makes from the seed
    # derive(seed, 1, 0), not from seed itself
    for p in partitions_up_to(8):
        if p.n >= 2:
            for s in range(20):
                assert sample_jordan(p, derive(s, 1, 0)) == \
                    sample_nilpotent_commuting(p, s).jordan, (tuple(p), s)


def test_sampled_types_never_beat_the_image():
    for p in partitions_up_to(7):
        d = dmap(p)
        for i in range(12):
            assert dominance_leq(sample_jordan(p, derive(17, p.n, i)), d)


def test_dmap_reports_recursion():
    r = dmap(Partition([2, 2, 1]))
    assert type(r) is Partition and r == (5,)
    assert dmap((1, 3, 1)) == (4, 1)
    assert dmap(Partition([5, 3, 3, 2])) == (10, 3)
    stable = Partition([6, 4, 1])
    assert dmap(stable) == stable


def test_dmap_known_values():
    assert dmap(Partition([3, 1, 1])) == (4, 1)
    assert dmap(Partition([2, 1, 1])) == (4,)
    assert dmap(Partition([6, 2])) == (6, 2)
    assert dmap(Partition([4, 4, 3])) == (11,)
    assert dmap(Partition([5, 5, 1])) == (10, 1)


def test_dmap_ar_shapes_collapse():
    for p in partitions_up_to(12):
        if is_almost_rectangular(p):
            assert dmap(p) == (p.n,)


def test_dmap_recursion_agrees_with_sampling():
    # every sampled type lies below D(p) in dominance, and some draw reaches
    # it, so D(p) is the dominance maximum of the sampled types
    parts = partitions_up_to(16)
    assert len(parts) == 914
    for p in parts:
        d = dmap(p)
        for i in range(64):
            q = sample_jordan(p, derive(0, 2, i))
            assert dominance_leq(q, d), (p, i, q, d)
            if q == d:
                break
        else:
            pytest.fail(f"no draw of type {tuple(d)} for {tuple(p)} in 64")


def test_dmap_index_matches_first_part():
    for p in partitions_up_to(10):
        assert dmap_index(p) == dmap(p)[0]


def test_dmap_index_reads_its_argument_as_a_partition():
    # (1, 3) is (3, 1): index 3, not the 5 of the window (1, 3) read as given
    assert dmap_index([1, 3]) == dmap([1, 3])[0] == 3
    for p in partitions_up_to(8):
        assert dmap_index(p[::-1]) == dmap_index(p)
    with pytest.raises(ValueError):
        dmap_index((0, 3))


def test_dmap_part_count_is_cover_size():
    for p in partitions_up_to(10):
        assert dmap(p).t == min_ar_cover(p)


def test_idempotence_and_stability_checker():
    for p in partitions_up_to(9):
        d = dmap(p)
        assert dmap(d) == d
        assert is_stable(d)
        assert (dmap(p) == p) == is_stable(p)


def test_image_dominates_input():
    # the host itself commutes with its Jordan matrix, so the generic type
    # can only sit higher in the dominance order
    for p in partitions_up_to(9):
        assert dominance_leq(p, dmap(p))


def test_non_nilpotent_draw_raises(monkeypatch):
    # the first draw is the identity, which commutes with every Jordan matrix
    # but is not nilpotent; later draws are genuine, so a redraw would hide it
    real = commutant._draw
    calls = []

    def first_draw_identity(lam, stream, bound):
        calls.append(lam)
        if len(calls) > 1:
            return real(lam, stream, bound)
        n = sum(lam)
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        return rows, _nonzeros(rows)

    monkeypatch.setattr(commutant, "_draw", first_draw_identity)
    with pytest.raises(RuntimeError, match="seed 5"):
        sample_nilpotent_commuting(Partition([3, 1]), 5)


def test_draw_matches_standard_basis_oracle():
    # `_draw` is the oracle's draw written in the nilpotency order: permuted
    # back by `_plan`'s positions it is the same element, the stream is left
    # in the same state, and the type ranked in that order is the element's
    for lam in partitions_up_to(12):
        key = tuple(lam)
        pos = commutant._plan(key)[0]
        for seed in range(3):
            fast, slow = Stream(seed), Stream(seed)
            rows = commutant._draw(key, fast, 10)[0]
            want = oracles.draw_rows_standard(key, slow, 10)
            assert [[rows[p][q] for q in pos] for p in pos] == want, (lam, seed)
            assert fast.ints(0, 2**64 - 1, 1) == slow.ints(0, 2**64 - 1, 1), (lam, seed)
            assert sample_jordan(lam, seed) == oracles.jordan_type_by_nullities(
                ExactMatrix(want)), (lam, seed)


def test_draw_hands_the_kernel_its_nonzero_lists():
    # the lists `_draw` writes with the rows are `_nonzeros(rows)` up to the
    # order within a row, every plan cell lies above the diagonal, and the
    # kernel types a draw the same from either set of lists (handed the
    # lists, it consumes the rows, so that call gets a copy)
    for lam in partitions_up_to(12):
        key = tuple(lam)
        assert all(c > r for gen in commutant._plan(key)[1] for r, c in gen), lam
        for seed in range(3):
            rows, nz = commutant._draw(key, Stream(seed), 10)
            assert [set(row) for row in nz] == [set(row) for row in _nonzeros(rows)]
            assert all(len(row) == len(set(row)) for row in nz), (lam, seed)
            assert _jordan_type_rows([list(row) for row in rows], nz) == \
                _jordan_type_rows(rows), (lam, seed)


@pytest.fixture
def fresh_plans():
    """`_plan`'s cache, empty before and after the test."""
    commutant._plan.cache_clear()
    yield
    commutant._plan.cache_clear()


def test_plan_refuses_a_cell_on_or_below_the_diagonal(monkeypatch, capsys, fresh_plans):
    # the plan certifies every draw's shape once, so a generator that lands
    # below the diagonal (here one from the (1) block into the (2) block's
    # first vector, the wrong way round) is a bug, reported when the plan
    # is built: by the samplers as RuntimeError, by the CLI as exit 3
    real = commutant._generators
    monkeypatch.setattr(commutant, "_generators",
                        lambda lam: real(lam) + ((1, 0, 0, 1, 2, 0),))
    with pytest.raises(RuntimeError, match=r"^plan for host \(2, 1\) .*; bug$"):
        commutant._plan((2, 1))
    with pytest.raises(RuntimeError, match=r"host \(2, 1\)"):
        sample_jordan((2, 1), 0)
    rc = cli.main(["sample", "2,1"])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err.startswith("internal error: plan for host (2, 1) ") and "bug" in err


@pytest.mark.parametrize("bound", [0, -2])
def test_samplers_refuse_a_bound_below_one(bound):
    # a zero bound drew the zero matrix and reported its type as a sample
    for sampler in (sample_jordan, sample_nilpotent_commuting):
        with pytest.raises(ValueError, match="^coeff_bound must be >= 1$"):
            sampler((3, 2, 1), 5, bound)


def test_unsorted_hosts_draw_as_their_partition():
    # `_plan` sorts the host; the standard-basis draw tested equal parts on
    # the unsorted tuple against sorted generators, so (1, 1, 2) raised
    for lam in ((1, 1, 2), (1, 3), (2, 3, 1), (1, 2, 2, 3)):
        for seed in range(5):
            assert sample_jordan(lam, seed) == sample_jordan(Partition(lam), seed)


# SHA-256 of verify.sample_bank(8, 20, 0), recorded at commit 933d369, where
# draws were written in the standard basis with one randint per generator
SAMPLE_BANK_8_20 = "56534c012def5f78f3eeb568fc9b4813a08bb7c6439e1a55c7eaa175dbbd32fa"


def test_sample_bank_matches_golden_digest():
    h = hashlib.sha256()
    for lam, draws in verify.sample_bank(8, 20, 0).items():
        h.update(repr((tuple(lam), [tuple(q) for q in draws])).encode())
    assert h.hexdigest() == SAMPLE_BANK_8_20
