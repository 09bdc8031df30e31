"""The assembled square matrix, its determinant, the syzygy, and the verdicts.

The load-bearing oracle here re-derives the residual Q*S block by block from
the two-case multiplication argument: row blocks indexed by monomials
i_1^{n-1} i_a i_b must equal M_a M_b^t + M_b M_a^t (M_a M_a^t on the
diagonal) and every other row block must vanish, for arbitrary data.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monadlab.exact
import monadlab.invariant
import monadlab.monad
from monadlab import (DEFECT_NONZERO, DEGENERATE, DET_ZERO_BY_SYZYGY, GF,
                      ORTHOGONAL_IDENTITY, QQ,
                      ExactMatrix, MonadData, build_q, build_syzygy, det_q,
                      dimension_identity, gen_isotropic_orthogonal,
                      gen_special_symplectic, isotropic_basis,
                      orthogonal_verdict, q_layout, random_sl, transform_monad,
                      verify_syzygy)
from monadlab.gens import _special_blocks
from monadlab.invariant import _q_columns

from oracles import (block_of, build_q_blockwise, det_cofactor, layout_entries,
                     unitriangular_det)

GF101 = GF(101)


def zero_data(n, k, field=GF101):
    blk = ExactMatrix.zeros(field, 2 * n + 2, 2 * n + 2 * k)
    return MonadData(n, k, field, (blk,) * k)


def random_data(n, k, field, rng):
    blocks = tuple(ExactMatrix.random(field, 2 * n + 2, 2 * n + 2 * k, rng)
                   for _ in range(k))
    return MonadData(n, k, field, blocks)


def expected_residual_block(d, eta):
    """Independent re-derivation of one row block of Q*S."""
    exps = list(eta)
    if exps[0] < d.n - 1:
        return ExactMatrix.zeros(d.field, d.block_rows, d.block_rows)
    exps[0] -= d.n - 1
    pair = [v for v, e in enumerate(exps, start=1) for _ in range(e)]
    assert len(pair) == 2
    a, b = pair
    ma, mb = d.blocks[a - 1], d.blocks[b - 1]
    if a == b:
        return ma @ ma.transpose()
    return ma @ mb.transpose() + mb @ ma.transpose()


def test_dimension_identity_examples():
    assert dimension_identity(2, 4) == (120, 120, True)
    assert dimension_identity(1, 1) == (4, 4, True)
    assert dimension_identity(3, 5) == (560, 560, True)
    for n, k in [(0, 3), (2, 0), (0, 0), (1, -1)]:
        with pytest.raises(ValueError, match="need n >= 1 and k >= 1"):
            dimension_identity(n, k)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(1, 7))
def test_build_q_square_and_sized(n, k):
    lhs, rhs, equal = dimension_identity(n, k)
    assert equal
    q = build_q(zero_data(n, k))
    assert q.matrix.rows == q.matrix.cols == rhs
    assert rhs == (2 * n + 2) * math.comb(k + n, n + 1)


def test_build_q_block_pattern():
    rng = np.random.default_rng(10)
    d = random_data(2, 4, GF101, rng)
    q = build_q(d)
    entries = layout_entries(q_layout(2, 4))
    for i in range(1, 21):
        for j in range(1, 11):
            blk = block_of(q.matrix, i - 1, j - 1, 6, 12)
            alpha = entries.get((i, j))
            if alpha is None:
                assert blk.is_zero()
            else:
                assert blk == d.blocks[alpha - 1]


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([QQ, GF(3), GF(101), GF(2147483629)]), n=st.integers(1, 3),
       k=st.integers(1, 4), zero=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(field=QQ, n=1, k=1, zero=False, seed=0)
@example(field=QQ, n=2, k=3, zero=True, seed=0)
@example(field=GF(2147483629), n=3, k=4, zero=False, seed=1)
def test_build_q_matches_blockwise_oracle(field, n, k, zero, seed):
    rng = np.random.default_rng(seed)
    shape = (2 * n + 2, 2 * n + 2 * k)

    def block():
        if zero:
            return ExactMatrix.zeros(field, *shape)
        if field.is_prime_field:
            return ExactMatrix.random(field, *shape, rng)
        nums = rng.integers(-9, 10, size=shape).tolist()
        dens = rng.integers(1, 8, size=shape).tolist()
        return ExactMatrix(field, [[Fraction(a, b) for a, b in zip(*r)]
                                   for r in zip(nums, dens)])

    d = MonadData(n, k, field, tuple(block() for _ in range(k)))
    assert build_q(d).matrix == build_q_blockwise(d)


@pytest.mark.parametrize("field", [GF101, QQ])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (3, 2)])
def test_q_columns_are_the_first_block_columns_of_q(field, n, k):
    d = random_data(n, k, field, np.random.default_rng(10 * n + k))
    q = build_q_blockwise(d)
    for count in range(1, math.comb(k + n - 1, n) + 1):
        assert _q_columns(d, count) == block_of(q, 0, 0, q.rows, count * d.block_cols)


def test_build_q_k1_is_single_block():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        m = ExactMatrix.random(GF101, 2 * n + 2, 2 * n + 2, rng)
        d = MonadData(n, 1, GF101, (m,))
        q = build_q(d)
        assert q.matrix == m
        assert det_q(d) == m.det()


def test_build_q_zero_data():
    assert build_q(zero_data(2, 2)).matrix.is_zero()


def test_det_q_identity_block():
    for n in (1, 2):
        d = MonadData(n, 1, QQ, (ExactMatrix.identity(QQ, 2 * n + 2),))
        assert det_q(d) == 1


def test_det_q_special_symplectic_n2_k2():
    # frozen by an exact rational computation; the positive-control family is
    # normalized so tightly that the invariant comes out at exactly 1
    report = gen_special_symplectic(2, 2, QQ, probe_trials=10)
    assert report.det_q_value == 1
    for p in (101, 32003, 65537):
        assert det_q(gen_special_symplectic(2, 2, GF(p), probe_trials=5).data) == 1


# det Q over Z of the special family, by the peeling certificate: SPECIAL_DET_SIGNS[k]
# holds the sign at n = 1, 2, ... for every n <= 24 with order at most 1260
SPECIAL_DET_SIGNS = {
    1: "--++--++--++--++--++--++", 2: "-+++-+++-+++-+++-+++-++", 3: "++++++++",
    4: "+++++", 5: "--++", 6: "-++", 7: "++", 8: "++", 9: "--",
    **{k: "-" if k % 4 in (1, 2) else "+" for k in range(10, 25)},
}
P31 = 2147483629


@pytest.mark.parametrize("k", sorted(SPECIAL_DET_SIGNS))
def test_special_family_q_is_permuted_unitriangular(k):
    # k = 1 stops at n = 24: its Q is the single block M_1, and the 605 dense
    # ones up to order 1260 would cost seconds for no new pattern
    signs = SPECIAL_DET_SIGNS[k]
    assert dimension_identity(len(signs) + 1, k)[0] > 1260 or len(signs) == 24
    for n, sign in enumerate(signs, start=1):
        order = dimension_identity(n, k)[0]
        field = QQ if order <= 280 else GF(P31)
        q = build_q(MonadData(n, k, field, _special_blocks(n, k, field))).matrix
        det = unitriangular_det(q)
        assert det == (1 if sign == "+" else -1), (n, k)
        assert q.det() == field.coerce(det), (n, k)


def test_unitriangular_det_matches_cofactor_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        lower = np.tril(rng.integers(0, 2, (n, n)), -1) + np.eye(n, dtype=int)
        a = lower[rng.permutation(n)][:, rng.permutation(n)]
        m = ExactMatrix(QQ, a.tolist())
        assert unitriangular_det(m) == det_cofactor(m)
        m = ExactMatrix(QQ, (a | (rng.random((n, n)) < 0.3)).tolist())
        assert unitriangular_det(m) in (None, det_cofactor(m))
    assert unitriangular_det(ExactMatrix(QQ, [[1, 1], [1, 1]])) is None
    assert unitriangular_det(ExactMatrix(QQ, [[2]])) is None


def test_det_q_zero_for_orthogonal_candidates():
    report = gen_isotropic_orthogonal(2, 2, 101, seed=14)
    assert report.det_q_value == 0
    assert det_q(report.data) == 0


def test_build_syzygy_shapes():
    rng = np.random.default_rng(12)
    d = random_data(2, 4, GF101, rng)
    s = build_syzygy(d).matrix
    assert s.shape == (120, 6)
    for j in range(4):
        assert block_of(s, j, 0, 12, 6) == d.blocks[j].transpose()
    for j in range(4, 10):
        assert block_of(s, j, 0, 12, 6).is_zero()

    single = random_data(1, 1, GF101, rng)
    assert build_syzygy(single).matrix == single.blocks[0].transpose()

    assert build_syzygy(zero_data(1, 2)).matrix.is_zero()


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_residual_matches_blockwise_formula(n, k):
    # arbitrary data: the residual's row blocks follow the two-case formula, and
    # verify_syzygy's product over Q's first k block columns is the whole Q*S
    # (at n = 1, s = k and S has no zero block rows)
    rng = np.random.default_rng(100 * n + k)
    for field in (GF101, GF(7), QQ):
        d = random_data(n, k, field, rng)
        residual = build_q(d).matrix @ build_syzygy(d).matrix
        assert verify_syzygy(d).residual == residual
        lay = q_layout(n, k)
        for i in range(1, lay.block_rows + 1):
            got = block_of(residual, i - 1, 0, d.block_rows, d.block_rows)
            assert got == expected_residual_block(d, lay.row_basis[i - 1])


def test_residual_pairs_of_every_shape_up_to_order_2500():
    # from the layout alone: S holds M_j^t in block row j <= k, so row block eta
    # of Q*S sums M_alpha * M_j^t over the pairs (alpha, j) with j <= k and
    # eta = zeta_j * i_alpha.  Those pairs are {(a, b), (b, a)} at
    # eta = i_1^{n-1} i_a i_b, and there are none elsewhere: with D_ab = 0 this
    # proves Q*S = 0 for every candidate of the shape, and it is the k(k+1)/2
    # row blocks verify_syzygy multiplies
    shapes = 0
    for k in range(1, 2500):
        for n in range(1, 2500):
            if (2 * n + 2) * math.comb(k + n, n + 1) > 2500:
                break
            layout = q_layout(n, k)
            pairs = {}
            for (i, j), alpha in layout_entries(layout).items():
                if j <= k:
                    pairs.setdefault(i, set()).add((alpha, j))
            expected = {}
            for a in range(1, k + 1):
                for b in range(a, k + 1):
                    eta = [n - 1] + [0] * (k - 1)
                    eta[a - 1] += 1
                    eta[b - 1] += 1
                    expected[layout.row_basis.index(tuple(eta)) + 1] = {(a, b), (b, a)}
            assert pairs == expected, (n, k)
            shapes += 1
        if n == 1:
            break
    assert shapes == 1341


@pytest.mark.parametrize("denominators", [False, True])
def test_rational_residual_at_order_280_reduces_to_the_gf_residual(denominators):
    # the Fraction oracle would take seconds at this size; two primes are cheap
    rng = np.random.default_rng(280)
    n, k = 3, 4
    blocks = [rng.integers(-10, 11, size=(2 * n + 2, 2 * n + 2 * k)).tolist()
              for _ in range(k)]
    if denominators:  # a different denominator in each block, none divisible by p
        blocks = [[[Fraction(x, j + 2) for x in row] for row in b]
                  for j, b in enumerate(blocks)]
    rational = verify_syzygy(MonadData(n, k, QQ, tuple(ExactMatrix(QQ, b) for b in blocks)))
    assert rational.residual.shape == (280, 2 * n + 2)
    assert not rational.residual_is_zero
    for p in (101, 32003):
        def mod_p(x):
            x = Fraction(x)
            return x.numerator * pow(x.denominator, -1, p) % p

        field = GF(p)
        reduced = tuple(ExactMatrix(field, [[mod_p(x) for x in row] for row in b])
                        for b in blocks)
        modular = verify_syzygy(MonadData(n, k, field, reduced)).residual
        assert [[mod_p(x) for x in row] for row in rational.residual.tolist()] \
            == modular.tolist()


def test_verify_syzygy_does_not_build_all_of_q(monkeypatch):
    def refuse(d):
        raise AssertionError("verify_syzygy built all of Q")

    for field in (GF101, QQ):
        d = random_data(2, 3, field, np.random.default_rng(23))
        residual = build_q_blockwise(d) @ build_syzygy(d).matrix
        with monkeypatch.context() as m:
            m.setattr(monadlab.invariant, "build_q", refuse)
            assert verify_syzygy(d).residual == residual


@pytest.mark.parametrize("field", [GF101, QQ])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 4), (3, 4), (4, 5)])
def test_verify_syzygy_multiplies_only_the_block_rows_that_hold_a_block(
        field, n, k, monkeypatch):
    # Q's first k block columns have a block only in the k(k+1)/2 block rows
    # i_1^{n-1} i_a i_b (every block row at n = 1); only those are multiplied
    d = random_data(n, k, field, np.random.default_rng(7 * n + k))
    residual = build_q_blockwise(d) @ build_syzygy(d).matrix
    monadlab.monad._nonzero_defects(d, ORTHOGONAL_IDENTITY)  # its products run now, unspied
    shapes = []
    matmul = monadlab.exact.Field.matmul

    def spy(self, a, b):
        shapes.append((a.shape, b.shape))
        return matmul(self, a, b)

    monkeypatch.setattr(monadlab.exact.Field, "matmul", spy)
    assert verify_syzygy(d).residual == residual
    used = k * (k + 1) // 2 * d.block_rows
    assert shapes == [((used, k * d.block_cols), (k * d.block_cols, d.block_rows))]
    if n == 1:
        assert used == residual.rows


def test_verify_syzygy_isotropic_gf7():
    report = gen_isotropic_orthogonal(1, 2, 7, seed=5)
    r = verify_syzygy(report.data)
    assert r.residual_is_zero
    assert not r.syzygy_is_zero
    assert r.defects_all_zero
    assert r.det_zero_forced


def test_verify_syzygy_symplectic_data_fails_orthogonal_conditions():
    d = gen_special_symplectic(2, 2, GF101, probe_trials=5).data
    r = verify_syzygy(d)
    assert not r.defects_all_zero
    assert not r.residual_is_zero
    assert not r.det_zero_forced


def test_verify_syzygy_degenerate():
    r = verify_syzygy(zero_data(1, 2))
    assert r.residual_is_zero
    assert r.syzygy_is_zero
    assert not r.det_zero_forced


def test_kernel_consequence_of_vanishing_defects():
    for (n, k, seed) in [(1, 2, 0), (2, 2, 1), (1, 3, 2)]:
        data = gen_isotropic_orthogonal(n, k, 101, seed=seed).data
        q = build_q(data).matrix
        basis = q.kernel_basis()
        assert basis
        assert det_q(data) == 0
        for vec in basis[:2]:
            assert (q @ vec).is_zero()


def test_single_defect_perturbation_localizes_residual():
    # perturb one isotropic instance by a single row u with u.u != 0 drawn
    # from the perp of the span: only D_11 becomes nonzero, so the residual
    # may appear only in the row block of i_1^{n-1} i_1^2, which is row 1
    p, n, k = 7, 1, 2
    field = GF(p)
    span = isotropic_basis(field, 2 * n + 2 * k)
    perp = span.kernel_basis()
    u = None
    for vec in perp:
        col = vec.transpose()
        if not (col @ vec).is_zero():
            u = col
            break
    assert u is not None, "perp of a non-maximal isotropic span has anisotropic vectors"

    base = gen_isotropic_orthogonal(n, k, p, seed=3).data
    bump_rows = [[0] * (2 * n + 2 * k) for _ in range(2 * n + 2)]
    bump_rows[0] = u.tolist()[0]
    bump = ExactMatrix(field, bump_rows)
    blocks = (base.blocks[0] + bump,) + base.blocks[1:]
    d = MonadData(n, k, field, blocks)

    from monadlab import ORTHOGONAL_IDENTITY, canonical_j, quadratic_defect
    defects = quadratic_defect(d, canonical_j(ORTHOGONAL_IDENTITY, n, k, field))
    nonzero = [(a, b) for a, b, m in defects if not m.is_zero()]
    assert nonzero == [(1, 1)]

    residual = build_q(d).matrix @ build_syzygy(d).matrix
    lay = q_layout(n, k)
    for i in range(1, lay.block_rows + 1):
        blk = block_of(residual, i - 1, 0, d.block_rows, d.block_rows)
        if i == 1:
            assert not blk.is_zero()
        else:
            assert blk.is_zero()


def test_sl_invariance_of_det():
    # unit-determinant changes of basis on either side, and unit-determinant
    # mixing of the blocks, leave the determinant exactly fixed
    base_report = gen_special_symplectic(1, 2, GF101, probe_trials=5)
    d = base_report.data
    base = base_report.det_q_value
    assert base != 0
    rng = np.random.default_rng(77)
    for _ in range(4):
        g = random_sl(GF101, d.block_cols, rng)
        h = random_sl(GF101, d.block_rows, rng)
        c = random_sl(GF101, d.k, rng)
        assert det_q(transform_monad(d, on_w=g)) == base
        assert det_q(transform_monad(d, on_v=h)) == base
        assert det_q(transform_monad(d, on_i=c)) == base
        assert det_q(transform_monad(d, on_w=g, on_v=h, on_i=c)) == base


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from([GF101, QQ]), nk=st.sampled_from([(1, 1), (1, 2), (2, 1),
                                                               (2, 2), (1, 3), (2, 3)]),
       seed=st.integers(0, 2**32 - 1))
@example(field=QQ, nk=(2, 3), seed=0)
def test_det_q_full_gl_character(field, nk, seed):
    # det Q(h M g mixed by c) = det(h)^C(k+n,n+1) det(g)^C(k+n-1,n) det(c)^(N/k) det Q(M):
    # unlike the unit-determinant check, a wrong exponent or a transposed
    # layout changes the value
    n, k = nk
    rng = np.random.default_rng(seed)
    d = random_data(n, k, field, rng)
    base = det_q(d)
    assume(base != 0)
    g, h, c = (ExactMatrix.random(field, size, size, rng, box=3)
               for size in (d.block_cols, d.block_rows, k))
    assume(g.det() != 0 and h.det() != 0 and c.det() != 0)
    order = build_q(d).matrix.rows
    expected = (h.det() ** math.comb(k + n, n + 1) * g.det() ** math.comb(k + n - 1, n)
                * c.det() ** (order // k) * base)
    assert det_q(transform_monad(d, on_w=g, on_v=h, on_i=c)) == field.coerce(expected)


def test_random_sl_has_unit_determinant():
    rng = np.random.default_rng(15)
    for field in (GF101, QQ):
        for size in (2, 4, 6):
            assert random_sl(field, size, rng).det() == 1


def test_orthogonal_verdict_cases():
    data = gen_isotropic_orthogonal(1, 2, 101, seed=4).data
    v = orthogonal_verdict(data)
    assert v.status == DET_ZERO_BY_SYZYGY
    assert v.message == "not an instanton: det Q = 0 by syzygy"
    assert v.excluded
    assert det_q(data) == 0

    v = orthogonal_verdict(gen_special_symplectic(1, 2, GF101, probe_trials=5).data)
    assert v.status == DEFECT_NONZERO
    assert v.message == "orthogonal conditions violated at (alpha,beta)=(1,1)"
    assert not v.excluded

    v = orthogonal_verdict(zero_data(1, 1))
    assert v.status == DEGENERATE
    assert v.excluded


def test_orthogonal_verdict_twice_eliminates_q_once(monkeypatch):
    made = gen_isotropic_orthogonal(1, 2, 101, seed=4).data
    d = MonadData(made.n, made.k, made.field, made.blocks)  # nothing computed yet
    calls = {"echelon": 0, "defects": 0}
    echelon, defects = monadlab.exact._echelon_gf, monadlab.monad.quadratic_defect

    def counting_echelon(*args, **kwargs):
        calls["echelon"] += 1
        return echelon(*args, **kwargs)

    def counting_defects(*args):
        calls["defects"] += 1
        return defects(*args)

    monkeypatch.setattr(monadlab.exact, "_echelon_gf", counting_echelon)
    monkeypatch.setattr(monadlab.monad, "quadratic_defect", counting_defects)
    first, second = orthogonal_verdict(d), orthogonal_verdict(d)
    assert first == second
    assert first.status == DET_ZERO_BY_SYZYGY
    assert det_q(d) == 0
    assert verify_syzygy(d).defects_all_zero
    assert calls == {"echelon": 1, "defects": 1}


def test_memo_leaves_equality_and_hash_alone():
    made = gen_isotropic_orthogonal(1, 2, 101, seed=4).data  # its verdict filled the memo
    fresh = MonadData(made.n, made.k, made.field, made.blocks)
    assert made._memo and not fresh._memo
    assert made == fresh
    assert hash(made) == hash(fresh)
    assert repr(made) == repr(fresh)
