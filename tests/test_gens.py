"""Generator self-verification, isotropic constructions, and the search harness."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import monadlab.invariant
from monadlab import gens
from monadlab import (DET_ZERO_BY_SYZYGY, GF, QQ, ExactMatrix, GeneratorError, MonadData,
                      ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL, build_q, canonical_j, det_q,
                      evaluate_a, format_monad, gen_isotropic_orthogonal,
                      gen_special_symplectic, isotropic_basis, max_rank_probe,
                      orthogonal_verdict, Point, quadratic_defect, random_sl,
                      search_orthogonal, transform_monad,
                      verify_syzygy)

from oracles import (assert_canonical, isotropic_data_sequential, isotropic_rows_listwise,
                     matmul_naive, mix_blocks_sum, random_sl_sequential, scaled,
                     search_orthogonal_reference, stack_data)


def test_special_symplectic_n1_k1_structure():
    report = gen_special_symplectic(1, 1, QQ)
    assert report.defects_ok
    assert report.rank_probe.ok
    # single row: A = (x_0, x_1, y_1, y_0); the lone skew defect is zero
    block = report.data.blocks[0]
    assert block.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, 0, 1], [0, 0, 1, 0]]
    ((a, b, mat),) = quadratic_defect(report.data, canonical_j(SYMPLECTIC_CANONICAL, 1, 1, QQ))
    assert (a, b) == (1, 1) and mat.is_zero()


def test_special_symplectic_banded_halves():
    # each block carries the x-band at offset j and the reversed y-band
    report = gen_special_symplectic(1, 2, QQ)
    n, k, half = 1, 2, 3
    for j, block in enumerate(report.data.blocks):
        rows = block.tolist()
        for c in range(n + 1):
            x_row = [0] * (2 * half)
            x_row[j + c] = 1
            assert rows[c] == x_row
            y_row = [0] * (2 * half)
            y_row[half + (half - 1 - j - c)] = 1
            assert rows[n + 1 + c] == y_row


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, 7)])
def test_special_symplectic_has_max_rank_at_every_point(n, k):
    # A(x)[j, col] = sum_r coords[r] * M_j[r, col]; each column of each block
    # holds at most one 1, so each entry of A(x) is a single coordinate or 0
    field, half = GF(101), n + k
    stack = np.array([b.tolist() for b in gens._special_blocks(n, k, field)])
    assert set(np.unique(stack)) <= {0, 1} and (stack.sum(axis=1) <= 1).all()
    coord = np.where(stack.any(axis=1), stack.argmax(axis=1), -1)  # (k, 2 * half)
    j, col = np.arange(k)[:, None], np.arange(half)
    band = np.where((col >= j) & (col - j <= n), col - j, -1)
    # entry (j, t + i) of the x band is x_{t+i-j}; the y band is the same in
    # the y coordinates with its columns reversed
    assert coord[:, :half].tolist() == band.tolist()
    assert coord[:, ::-1][:, :half].tolist() == np.where(band < 0, -1, n + 1 + band).tolist()
    # so if x_t is the first nonzero x coordinate, the k x k block on columns
    # t..t+k-1 is upper triangular with x_t on its diagonal and A(x) has rank
    # k; if every x vanishes, the same holds for the first nonzero y_t
    for t in range(n + 1):
        minor = band[:, t:t + k]
        assert (np.diag(minor) == t).all()
        assert (minor[np.tril_indices(k, -1)] < t).all()  # no coordinate, or x_0..x_{t-1}
    # A(x) itself at points whose first nonzero coordinate is x_t or y_t
    data = MonadData(n, k, field, tuple(ExactMatrix(field, b.tolist()) for b in stack))
    rng = np.random.default_rng(n * 7 + k)
    for first in range(2 * n + 2):
        coords = rng.integers(0, 101, size=2 * n + 2)
        coords[:first] = 0
        coords[first] = rng.integers(1, 101)
        a = np.array(evaluate_a(data, Point.of(field, coords.tolist())).tolist())
        t = first % (n + 1)
        minor = (a[:, ::-1] if first > n else a)[:, t:t + k]
        assert (np.triu(minor) == minor).all() and (np.diag(minor) == coords[first]).all()


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (1, 3)])
def test_special_symplectic_quadratic_identity(n, k):
    # defects vanish as matrices, hence A J A^t = 0 at every sampled point
    report = gen_special_symplectic(n, k, QQ, probe_trials=10)
    assert report.defects_ok
    j = canonical_j(SYMPLECTIC_CANONICAL, n, k, QQ)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = Point.of(QQ, rng.integers(1, 11, size=2 * n + 2).tolist())
        a = evaluate_a(report.data, x)
        assert (a @ j @ a.transpose()).is_zero()


def test_special_symplectic_pipeline_n2_k2():
    report = gen_special_symplectic(2, 2, GF(32003), probe_trials=25)
    assert report.defects_ok
    assert report.rank_probe.ok
    assert report.det_q_value != 0


def test_special_symplectic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_special_symplectic(0, 1, QQ)


@pytest.mark.parametrize("n,k", [(1, 3), (3, 3)])
def test_special_symplectic_det_nonzero_over_fixed_primes(n, k):
    nonzero = 0
    for p in (101, 32003, 65537):
        report = gen_special_symplectic(n, k, GF(p), probe_trials=10)
        assert report.defects_ok and report.rank_probe.ok
        if report.det_q_value != 0:
            nonzero += 1
    assert nonzero >= 1


@pytest.mark.parametrize("p,dim,expected", [(5, 6, 3), (13, 8, 4), (7, 6, 2),
                                            (3, 4, 2), (7, 8, 4)])
def test_isotropic_basis_dimension(p, dim, expected):
    basis = isotropic_basis(GF(p), dim)
    assert basis.rows == expected
    assert basis.rank() == expected
    assert (basis @ basis.transpose()).is_zero()
    assert isotropic_basis(GF(p), dim) is basis  # memoised per (field, dim)


def test_isotropic_basis_gf5_contains_classic_vector():
    basis = isotropic_basis(GF(5), 6)
    assert basis.tolist()[0] == [1, 2, 0, 0, 0, 0]  # 1 + 2^2 = 0 mod 5


def test_isotropic_basis_needs_prime_field():
    for _ in range(2):  # a failed construction is not memoised: it raises every time
        with pytest.raises(GeneratorError):
            isotropic_basis(QQ, 6)


def outcome(build, field, dim):
    """The rows ``build`` gives, or the message of the ``GeneratorError`` it raises."""
    try:
        rows = build(field, dim)
    except GeneratorError as error:
        return str(error)
    return rows.tolist() if isinstance(rows, ExactMatrix) else rows


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 103, 32003])
def test_isotropic_basis_matches_the_listwise_rows(p):
    # the Kronecker product of the pattern gives the rows of the list loops,
    # in order, and raises as they do below the pattern's width
    for dim in range(42):
        assert outcome(isotropic_basis, GF(p), dim) == outcome(isotropic_rows_listwise, GF(p), dim)
    assert outcome(isotropic_basis, QQ, 6) == outcome(isotropic_rows_listwise, QQ, 6)


def test_transform_monad_rejects_a_wrong_size_block_mix():
    d = gen_special_symplectic(1, 2, GF(101), probe_trials=1, compute_det=False).data
    for size in (1, 3):
        with pytest.raises(ValueError, match=r"^block-mixing matrix must be 2 x 2 over GF\(101\)$"):
            transform_monad(d, on_i=ExactMatrix.identity(GF(101), size))


@pytest.mark.parametrize("field", [GF(101), QQ])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2)])
def test_transform_monad_mixes_blocks_as_sums(field, n, k):
    rng = np.random.default_rng(7 * n + k)
    blocks = tuple(ExactMatrix.random(field, 2 * n + 2, 2 * n + 2 * k, rng) for _ in range(k))
    c = ExactMatrix.random(field, k, k, rng)
    if not field.is_prime_field:  # non-integer coefficients
        c = scaled(c, Fraction(1, 3))
    mixed = transform_monad(MonadData(n, k, field, blocks), on_i=c)
    assert list(mixed.blocks) == mix_blocks_sum(c, blocks)


@pytest.mark.parametrize("field", [GF(101), QQ])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2)])
@pytest.mark.parametrize("which", ["on_i", "on_v", "on_w", "all"])
def test_transform_monad_matches_blockwise_products(field, n, k, which):
    # block j of the result is h * (sum_a c[j, a] * M_a) * g, block by block
    rng = np.random.default_rng(11 * n + k)
    r, c = 2 * n + 2, 2 * n + 2 * k
    blocks = tuple(ExactMatrix.random(field, r, c, rng) for _ in range(k))
    mats = {"on_i": ExactMatrix.random(field, k, k, rng),
            "on_v": ExactMatrix.random(field, r, r, rng),
            "on_w": ExactMatrix.random(field, c, c, rng)}
    if not field.is_prime_field:  # non-integer entries
        mats = {name: scaled(m, Fraction(1, 3)) for name, m in mats.items()}
    chosen = mats if which == "all" else {which: mats[which]}
    out = transform_monad(MonadData(n, k, field, blocks), **chosen)
    mixed = mix_blocks_sum(chosen["on_i"], blocks) if "on_i" in chosen else blocks
    h = chosen.get("on_v", ExactMatrix.identity(field, r))
    g = chosen.get("on_w", ExactMatrix.identity(field, c))
    expected = [ExactMatrix(field, matmul_naive(ExactMatrix(field, matmul_naive(h, m)), g))
                for m in mixed]
    assert list(out.blocks) == expected


@pytest.mark.parametrize("name", ["on_i", "on_v", "on_w"])
def test_transform_monad_rejects_a_wrong_shape_or_field_basis_change(name):
    d = gen_special_symplectic(1, 2, GF(101), probe_trials=1, compute_det=False).data
    size = {"on_i": d.k, "on_v": d.block_rows, "on_w": d.block_cols}[name]
    bad = [ExactMatrix.identity(GF(101), size - 1), ExactMatrix.identity(GF(101), size + 1),
           ExactMatrix.zeros(GF(101), size, size + 1), ExactMatrix.zeros(GF(101), size + 1, size),
           ExactMatrix.identity(GF(103), size), ExactMatrix.identity(QQ, size)]
    for m in bad:
        with pytest.raises(ValueError):
            transform_monad(d, **{name: m})


def test_isotropic_orthogonal_gf5():
    report = gen_isotropic_orthogonal(1, 2, 5, seed=3)
    assert report.defects_ok
    assert report.det_q_value == 0
    # stronger than the symmetrised conditions: every raw product vanishes
    for a in report.data.blocks:
        for b in report.data.blocks:
            assert (a @ b.transpose()).is_zero()


def test_isotropic_generator_draws_seeds_past_int64():
    # trial seeds stay Python ints: no seed is ever put in an int64 array
    seed = 2**64 - 1
    data = gen_isotropic_orthogonal(1, 2, 101, seed).data
    expected = isotropic_data_sequential(1, 2, isotropic_basis(GF(101), 6), seed, False)
    assert data.stack.tolist() == expected.stack.tolist()


@pytest.mark.parametrize("n,k,p,seed", [(1, 2, 7, 0), (2, 3, 101, 8), (1, 4, 13, 2)])
def test_isotropic_orthogonal_syzygy_chain(n, k, p, seed):
    report = gen_isotropic_orthogonal(n, k, p, seed=seed)
    r = verify_syzygy(report.data)
    assert r.residual_is_zero
    assert not r.syzygy_is_zero
    assert report.det_q_value == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_isotropic_candidates_have_rank_q_at_most_half_its_order(n, k):
    # why criterion 3's det checks are weak: every block's rows lie in one
    # Lagrangian L of dimension n+k, so Q = (sum_a E_a (x) R_a) * (I_s (x) U)
    # with U's rows spanning L, and rank Q <= s * (n+k) = N/2, whatever the
    # syzygy does.  That covers the generator's draws and the perturbed ones
    # that every other search trial uses.
    span = isotropic_basis(GF(101), 2 * n + 2 * k)
    perturbed = gens._isotropic_stack(n, k, span, gens._seed_sequences([0]), [True])[0]
    for data in (gen_isotropic_orthogonal(n, k, 101, seed=0).data,
                 stack_data(n, k, GF(101), perturbed)):
        q = build_q(data).matrix
        assert 2 * q.rank() <= q.rows


# Both residues of p mod 4 reach isotropic_basis.  Near 2**31 _matmul_gf
# sums one product per int64 step; there the perturbed trials' products
# with random SL matrices would overflow a plain int64 product.
TRIAL_PRIMES = [5, 7, 13, 101, 32003, 2147483629, 2147483647]


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(TRIAL_PRIMES), n=st.integers(1, 3), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), perturbed=st.lists(st.booleans(), min_size=1, max_size=60))
@example(p=5, n=1, k=1, seed=0, perturbed=[True])
@example(p=7, n=2, k=1, seed=1, perturbed=[True, False])
@example(p=13, n=3, k=4, seed=2, perturbed=[True] * 3)
@example(p=101, n=2, k=4, seed=3, perturbed=[False])
@example(p=32003, n=1, k=2, seed=4, perturbed=[True])
@example(p=2147483629, n=3, k=4, seed=5, perturbed=[True])
@example(p=2147483647, n=2, k=3, seed=6, perturbed=[False, True] * 2)
@example(p=101, n=3, k=4, seed=7, perturbed=[False, True] * 26)
@example(p=7, n=1, k=2, seed=8, perturbed=[True, False] * 30)
@example(p=101, n=1, k=2, seed=2**64 - 1, perturbed=[False, True, False])
def test_isotropic_data_equals_one_scalar_draw_per_value(p, n, k, seed, perturbed):
    # the stack of one draw per seed, its batched draws, products and row
    # updates give, entry for entry, each seed's data of one scalar draw per
    # value and one product per block, also past the search's chunk of 51
    span = isotropic_basis(GF(p), 2 * n + 2 * k)
    seeds = [seed + t for t in range(len(perturbed))]
    stack = gens._isotropic_stack(n, k, span, gens._seed_sequences(seeds), perturbed)
    assert stack.shape == (len(seeds), k, 2 * n + 2, 2 * n + 2 * k)
    for s, flag, got in zip(seeds, perturbed, stack):
        expected = isotropic_data_sequential(n, k, span, s, flag)
        assert got.dtype == expected.stack.dtype
        assert got.tolist() == expected.stack.tolist()


def test_isotropic_stack_draws_again_where_the_blocks_are_zero():
    # over one isotropic row of GF(5) four zero coefficients give zero blocks,
    # at seeds 1312, 1827 and 3386; those trials draw again from their own
    # generator, as the one-trial oracle does, and a zero span fails at once
    span = ExactMatrix(GF(5), [[1, 2, 0, 0]])
    seeds, perturbed = [1312, 0, 1827, 3386], [False, False, True, True]
    stack = gens._isotropic_stack(1, 1, span, gens._seed_sequences(seeds), perturbed)
    for seed, flag, got in zip(seeds, perturbed, stack):
        assert got.any()
        assert got.tolist() == isotropic_data_sequential(1, 1, span, seed, flag).stack.tolist()
    with pytest.raises(GeneratorError, match="^could not draw nonzero blocks$"):
        gens._isotropic_stack(1, 1, ExactMatrix.zeros(GF(5), 1, 4), gens._seed_sequences([0]),
                              [False])


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(TRIAL_PRIMES), n=st.integers(1, 3), k=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), perturbed=st.booleans())
@example(p=5, n=1, k=1, seed=0, perturbed=True)
@example(p=7, n=3, k=4, seed=1, perturbed=True)
@example(p=13, n=2, k=3, seed=2, perturbed=False)
@example(p=101, n=2, k=4, seed=3, perturbed=True)
@example(p=32003, n=3, k=2, seed=4, perturbed=True)
@example(p=2147483629, n=3, k=4, seed=5, perturbed=True)
@example(p=2147483647, n=2, k=4, seed=6, perturbed=True)
def test_isotropic_data_det_q_is_zero_as_its_verdict_proves(p, n, k, seed, perturbed):
    # the verdict proves det Q = 0 by zero defects and the per-shape lemma
    # alone; the elimination of Q on a fresh copy of the data, with nothing
    # memoised, must agree
    stack = gens._isotropic_stack(n, k, isotropic_basis(GF(p), 2 * n + 2 * k),
                                  gens._seed_sequences([seed]), [perturbed])
    d = stack_data(n, k, GF(p), stack[0])
    assert orthogonal_verdict(d).status == DET_ZERO_BY_SYZYGY
    assert det_q(MonadData(d.n, d.k, d.field, d.blocks)) == 0


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from([QQ] + [GF(p) for p in TRIAL_PRIMES]), size=st.integers(2, 24),
       seed=st.integers(0, 2**32 - 1))
@example(field=QQ, size=2, seed=0)
@example(field=QQ, size=24, seed=1)
@example(field=GF(2147483647), size=8, seed=0)
@example(field=GF(2147483647), size=24, seed=2)
def test_random_sl_equals_one_scalar_draw_per_value(field, size, seed):
    # the stream after the call matches too: a numpy that consumed it
    # differently for array bounds would fail here first
    rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    m = random_sl(field, size, rng)
    expected = random_sl_sequential(field, size, expected_rng)
    assert m._a.dtype == expected._a.dtype
    assert m.tolist() == expected.tolist()
    assert m == expected and m._den == 1
    assert_canonical(m)
    assert rng.integers(0, 2**62) == expected_rng.integers(0, 2**62)


@pytest.mark.parametrize("field", [GF(101), QQ])
def test_random_sl_of_size_0_and_1_draws_nothing(field):
    rng = np.random.default_rng(9)
    assert random_sl(field, 1, rng).tolist() == [[1]]
    assert random_sl(field, 0, rng).shape == (0, 0)
    assert rng.integers(0, 2**62) == np.random.default_rng(9).integers(0, 2**62)


@pytest.mark.parametrize("size", [-1, -5])
def test_random_sl_rejects_a_negative_size(size):
    with pytest.raises(ValueError, match="need size >= 0"):
        random_sl(GF(101), size, np.random.default_rng(0))


def test_size_1_block_mix_keeps_det_q():
    data = gen_special_symplectic(1, 1, GF(101), probe_trials=5).data
    c = random_sl(GF(101), 1, np.random.default_rng(0))
    assert det_q(transform_monad(data, on_i=c)) == det_q(data) != 0


def test_isotropic_candidate_always_fails_some_requirement():
    # rank certificate or singular invariant: never both requirements pass
    eye = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, GF(5))
    for seed in range(6):
        report = gen_isotropic_orthogonal(1, 1, 5, seed=seed)
        probe = max_rank_probe(report.data, eye, 30, seed)
        assert (not probe.ok) or report.det_q_value == 0
    # seed 0 is a pinned case where the probe itself finds the certificate
    data = gen_isotropic_orthogonal(1, 1, 5, seed=0).data
    probe = max_rank_probe(data, eye, 30, 0)
    assert not probe.ok
    assert probe.counterexample.observed_rank < 1


@pytest.mark.parametrize("k,seed,points,rank,coords", [
    (3, 31295, 7, 2, (42, 42, 28, 57)),
    (4, 18179, 8, 3, (55, 6, 14, 73)),
])
def test_isotropic_probe_point_stream_pinned(k, seed, points, rank, coords):
    # the two counterexamples the benchmark records for the orthogonal sweep;
    # a change in how probe points are drawn moves them
    probe = gen_isotropic_orthogonal(1, k, 101, seed).rank_probe
    assert not probe.ok and probe.points_tested == points
    ce = probe.counterexample
    assert (ce.which_map, ce.observed_rank, ce.point.coords) == ("alpha", rank, coords)


def test_generator_determinism():
    a = format_monad(gen_isotropic_orthogonal(2, 3, 101, seed=9).data)
    b = format_monad(gen_isotropic_orthogonal(2, 3, 101, seed=9).data)
    c = format_monad(gen_isotropic_orthogonal(2, 3, 101, seed=10).data)
    assert a == b
    assert a != c
    s1 = gen_special_symplectic(1, 2, GF(101))
    s2 = gen_special_symplectic(1, 2, GF(101))
    assert format_monad(s1.data) == format_monad(s2.data)


def test_search_orthogonal_counts():
    summary = search_orthogonal(1, 1, 7, trials=10, seed=0)
    assert len(summary.rows) == 10
    assert summary.det_zero_count == 10
    assert summary.instanton_candidates == 0
    assert all(r.defects_ok for r in summary.rows)
    # k=1 reduction: the invariant is det M_1, singular because the row
    # space sits inside a proper isotropic subspace
    for row in summary.rows[::2]:
        data = gen_isotropic_orthogonal(1, 1, 7, seed=row.seed).data
        assert data.blocks[0].det() == 0


def test_search_orthogonal_perturbed_trials_still_satisfy_conditions():
    summary = search_orthogonal(1, 2, 101, trials=6, seed=11)
    assert any(r.perturbed for r in summary.rows)
    assert summary.det_zero_count == 6
    assert summary.instanton_candidates == 0


def test_search_orthogonal_with_nonzero_defects_eliminates_q(monkeypatch):
    # random blocks break the orthogonal conditions: the verdict stops at
    # DEFECT_NONZERO and the det column is det Q itself, zero for the odd
    # trials, whose blocks share a zero column
    drawn = []

    def random_data(n, k, span, seeds, perturbed):
        for seed, flag in zip(seeds, perturbed):
            rng = np.random.default_rng(seed)
            blocks = [ExactMatrix.random(span.field, 2 * n + 2, 2 * n + 2 * k, rng).tolist()
                      for _ in range(k)]
            if flag:
                for row in sum(blocks, []):
                    row[0] = 0
            drawn.append(MonadData(n, k, span.field,
                                   tuple(ExactMatrix(span.field, b) for b in blocks)))
        return np.array([d.stack for d in drawn[-len(seeds):]])

    monkeypatch.setattr(gens, "_isotropic_stack", random_data)
    summary = search_orthogonal(1, 2, 101, trials=6, seed=0)
    assert len(drawn) == 6
    for row, d in zip(summary.rows, drawn):
        assert not row.defects_ok
        assert row.det_q_zero == (det_q(MonadData(d.n, d.k, d.field, d.blocks)) == 0)
    assert [r.det_q_zero for r in summary.rows] == [False, True] * 3
    assert summary.instanton_candidates == 0


def test_search_orthogonal_deterministic():
    s1 = search_orthogonal(1, 2, 13, trials=4, seed=2)
    s2 = search_orthogonal(1, 2, 13, trials=4, seed=2)
    assert s1 == s2


# over GF(7) at n = k = 2, seeds 12 and 56 give a rank counterexample within
# 20 points, and seeds 20 and 38 only within 40
@pytest.mark.parametrize("n, k, p, seed", [(1, 2, 101, 0), (1, 2, 101, 2), (1, 2, 101, 4),
                                           (2, 2, 7, 12), (2, 2, 7, 20), (2, 2, 7, 38),
                                           (2, 2, 7, 56)])
def test_search_and_generator_probe_alike(n, k, p, seed):
    # a search's first trial is the generator's draw, probed at as many points
    row = search_orthogonal(n, k, p, 1, seed).rows[0]
    assert row.rank_counterexample == (not gen_isotropic_orthogonal(n, k, p, seed).rank_probe.ok)


def test_search_orthogonal_rejects_zero_trials():
    with pytest.raises(ValueError):
        search_orthogonal(1, 1, 7, trials=0, seed=0)


def test_isotropic_draws_reject_negative_seed():
    for draw in (lambda: gen_isotropic_orthogonal(1, 2, 101, -1),
                 lambda: search_orthogonal(1, 2, 101, trials=3, seed=-1)):
        with pytest.raises(ValueError, match="^need seed >= 0, got -1$"):
            draw()


# search_orthogonal at 25 trials, recorded when every perturbed trial still
# ran the whole isotropic generator on its base data: one "seed:PDZR" token
# per row (perturbed, defects_ok, det_q_zero, rank_counterexample), and the
# sha256 of every trial's final data in the monad text format, in trial
# order, as each trial's draw returns it.
PINNED_SEARCHES = {
    (1, 2, 101, 0): (
        "0:0110 1:1110 2:0110 3:1110 4:0110 5:1110 6:0110 7:1110 8:0110 9:1110 "
        "10:0110 11:1110 12:0110 13:1110 14:0110 15:1110 16:0110 17:1110 18:0110 "
        "19:1110 20:0110 21:1110 22:0110 23:1110 24:0110",
        "1ac6121e03dbe1293ea705abb2650434ff8baedf69685a13f11ec793b7414874"),
    (2, 4, 101, 25): (
        "25:0110 26:1110 27:0110 28:1110 29:0110 30:1110 31:0110 32:1110 33:0110 "
        "34:1110 35:0110 36:1110 37:0110 38:1110 39:0110 40:1110 41:0110 42:1110 "
        "43:0110 44:1110 45:0110 46:1110 47:0110 48:1110 49:0110",
        "fccebbe6224ea23b7fc28abb0821a74a7359698ded27acbf6bf4c7aea1bce9fc"),
    (3, 4, 101, 1): (
        "1:0110 2:1110 3:0110 4:1110 5:0110 6:1110 7:0110 8:1110 9:0110 10:1110 "
        "11:0110 12:1110 13:0110 14:1110 15:0110 16:1110 17:0110 18:1110 19:0110 "
        "20:1110 21:0110 22:1110 23:0110 24:1110 25:0110",
        "c88ab0b63aa92103b384f973b62c82c47240bc8d7693f2759047fec4ab2f6120"),
    (1, 1, 7, 3): (
        "3:0111 4:1110 5:0110 6:1110 7:0110 8:1110 9:0110 10:1111 11:0111 12:1110 "
        "13:0111 14:1110 15:0111 16:1110 17:0110 18:1111 19:0111 20:1111 21:0110 "
        "22:1111 23:0110 24:1110 25:0110 26:1110 27:0110",
        "8a4aed111b00199d48b8963ca7f4c1da89f5528d4d14fadb710dfb74044497e7"),
}


@pytest.mark.parametrize("n, k, p, seed", sorted(PINNED_SEARCHES))
def test_search_orthogonal_rows_and_data_are_pinned(monkeypatch, n, k, p, seed):
    drawn = []
    draw = gens._isotropic_stack

    def recording_draw(n, k, span, seeds, perturbed):
        stack = draw(n, k, span, seeds, perturbed)
        drawn.extend(format_monad(stack_data(n, k, span.field, blocks)) for blocks in stack)
        return stack

    monkeypatch.setattr(gens, "_isotropic_stack", recording_draw)
    summary = search_orthogonal(n, k, p, trials=25, seed=seed)
    rows = " ".join(f"{r.seed}:{r.perturbed:d}{r.defects_ok:d}{r.det_q_zero:d}"
                    f"{r.rank_counterexample:d}" for r in summary.rows)
    digest = hashlib.sha256("".join(drawn).encode("ascii")).hexdigest()
    assert (rows, digest) == PINNED_SEARCHES[(n, k, p, seed)]


@pytest.mark.parametrize("n, k, p, seed", sorted(PINNED_SEARCHES))
def test_search_orthogonal_never_builds_q_for_zero_defects(monkeypatch, n, k, p, seed):
    # every pinned trial has zero defects, so its verdict's lemma decides
    def unused(d):
        raise AssertionError("Q built for a trial with zero defects")

    monkeypatch.setattr(gens, "det_q", unused)
    monkeypatch.setattr(monadlab.invariant, "build_q", unused)
    summary = search_orthogonal(n, k, p, trials=25, seed=seed)
    assert summary.det_zero_count == 25 and all(r.defects_ok for r in summary.rows)


# over GF(7) at n = k = 2, seeds 12 and 56 give a rank counterexample within 20 points
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 4), p=st.sampled_from([7, 13, 101, 103]),
       trials=st.integers(1, 60), seed=st.integers(0, 10**6))
@example(n=2, k=2, p=7, trials=3, seed=12)
@example(n=2, k=2, p=7, trials=60, seed=0)
@example(n=2, k=2, p=7, trials=1, seed=56)
@example(n=1, k=2, p=101, trials=3, seed=10**23)
def test_search_rows_equal_the_per_trial_reference(n, k, p, trials, seed):
    # chunks of 51 trials at these shapes, so 52 to 60 trials cross a boundary
    summary = search_orthogonal(n, k, p, trials, seed)
    assert summary == search_orthogonal_reference(n, k, p, trials, seed)


def test_search_rows_equal_the_reference_on_zero_and_defective_draws(monkeypatch):
    # zero data (degenerate: excluded, and the probe fails at once), random
    # data (a nonzero defect: det Q decides) and isotropic data, across a chunk
    draw = gens._isotropic_stack

    def mixed(n, k, span, seeds, perturbed):
        stack = draw(n, k, span, seeds, perturbed)
        for seed, blocks in zip((s.entropy for s in seeds), stack):
            if seed % 3 == 0:
                blocks[...] = 0
            if seed % 3 == 1:
                rng = np.random.default_rng(seed)
                blocks[...] = [ExactMatrix.random(span.field, 2 * n + 2, 2 * n + 2 * k, rng)._a
                               for _ in range(k)]
        return stack

    monkeypatch.setattr(gens, "_isotropic_stack", mixed)
    summary = search_orthogonal(1, 2, 7, trials=60, seed=0)
    assert summary == search_orthogonal_reference(1, 2, 7, trials=60, seed=0)
    zero, random = summary.rows[::3], summary.rows[1::3]
    assert all(r.defects_ok and r.det_q_zero and r.rank_counterexample for r in zero)
    assert not any(r.defects_ok for r in random)
    assert {r.det_q_zero for r in random} == {False, True}


def test_search_screens_its_trials_as_one_stack(monkeypatch, screens):
    # 25 trials of 20 points: one screen of 500 matrices, not 25 of 20, and
    # neither the single-candidate verdict nor the probe runs per trial
    def unused(*args, **kwargs):
        raise AssertionError("a trial was checked on its own")

    monkeypatch.setattr(gens, "orthogonal_verdict", unused)
    monkeypatch.setattr(gens, "max_rank_probe", unused)
    monkeypatch.setattr(gens, "MonadData", unused)  # no trial here is zero, defective or fails
    summary = search_orthogonal(2, 4, 101, trials=25, seed=0)
    assert len(summary.rows) == 25
    assert screens == [25 * 20]


@pytest.mark.parametrize("n, k", [(1, 2), (3, 4)])
def test_search_checks_its_trials_in_chunks(screens, n, k):
    chunk = gens._search_chunk(n, k)
    assert chunk == gens._PROBE_BATCH // 20 == 51
    search_orthogonal(n, k, 101, trials=2 * chunk + 9, seed=0)
    assert screens == [chunk * 20, chunk * 20, 9 * 20]


@pytest.mark.parametrize("n, k", [(1, 1), (2, 4), (3, 4), (4, 6), (6, 8), (10, 10), (20, 20)])
def test_search_chunk_bounds_points_and_gathered_defect_operands(n, k):
    # as many trials as fit both bounds, and one when a single trial exceeds
    # them; a trial's defects gather k(k+1)/2 blocks M_a or M_b^t per operand
    gathered = k * (k + 1) // 2 * (2 * n + 2) * (2 * n + 2 * k)

    def fits(trials):
        return trials * 20 <= gens._PROBE_BATCH and trials * gathered <= gens._CHUNK_ENTRIES

    chunk = gens._search_chunk(n, k)
    assert (fits(chunk) or chunk == 1) and not fits(chunk + 1)


@pytest.mark.parametrize("n, k, trials", [(1, 2, 51), (2, 4, 51), (3, 4, 51), (10, 10, 21),
                                          (20, 20, 1)])
def test_search_chunk_sizes(n, k, trials):
    # the shapes the tests and the benchmark search fill a probe batch; at
    # large shapes the gathered defect operands bound the chunk
    assert gens._search_chunk(n, k) == trials


def test_search_raises_when_the_defects_vanish_but_q_s_does_not(broken_lemma):
    # zero defects give Q*S = 0 only through the per-shape lemma; a layout
    # that breaks it is a bug, not a tabulated row
    with pytest.raises(RuntimeError, match="^syzygy argument violated: quadratic conditions "
                                           "hold but Q\\*S != 0; this is a bug$"):
        search_orthogonal(1, 2, 101, trials=3, seed=0)
