"""Exact field and matrix arithmetic, determinants, rank, kernels, text format."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monadlab import (GF, QQ, ExactMatrix, Field, MatrixFormatError, MonadData, build_q,
                      build_syzygy, format_matrix, format_monad, gen_isotropic_orthogonal,
                      gen_special_symplectic, parse_field, parse_monad)
from monadlab import exact
from monadlab.exact import _echelon_gf, _full_row_rank_gf
from oracles import (MERSENNE, _permutation_sign, assert_canonical, bareiss_echelon,
                     block_matrix, det_cofactor, echelon_gf_reference, format_matrix_dense,
                     format_monad_dense, is_prime_trial, kernel_oracle, matmul_naive, mixed_rows,
                     scaled, summed, unitriangular_det)

GF101 = GF(101)


def test_field_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(2)  # even
    with pytest.raises(ValueError):
        GF(2**31 + 11)  # too large
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)
    assert QQ != GF(101)


def test_scalar_canonicalization():
    assert GF101.coerce(-1) == 100
    assert GF101.coerce(202) == 0
    assert QQ.coerce("4/6") == Fraction(2, 3)
    m = ExactMatrix(GF101, [[-5, 300]])
    assert m.tolist() == [[96, 98]]


def test_fraction_into_prime_field():
    # an integral Fraction is its numerator mod p; any other has no image
    assert GF101.coerce(Fraction(-6, 3)) == 99
    with pytest.raises(ValueError, match=r"^cannot coerce 1/2 into GF\(101\)$"):
        GF101.coerce(Fraction(1, 2))


def test_construction_sum_and_comparison_errors():
    with pytest.raises(ValueError, match="^ragged rows$"):
        ExactMatrix(QQ, [[1, 2], [3]])
    one = ExactMatrix(QQ, [[1]])
    assert one.__eq__(1) is NotImplemented
    assert (one == 1) is False and one != 1


def test_mat_mul_identity_and_zero():
    x = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    eye = ExactMatrix.identity(QQ, 3)
    assert eye @ x == x
    zero = ExactMatrix.zeros(QQ, 2, 3)
    assert (zero @ x).is_zero()
    assert (zero @ x).shape == (2, 3)


def test_mat_mul_frozen_example():
    a = ExactMatrix(QQ, [[1, 2], [3, 4]])
    b = ExactMatrix(QQ, [[0, 1], [1, 0]])
    assert (a @ b).tolist() == [[2, 1], [4, 3]]
    assert (a @ b).tolist() == matmul_naive(a, b)


def test_mat_mul_errors():
    a = ExactMatrix(QQ, [[1, 2]])
    b = ExactMatrix(QQ, [[1, 2]])
    with pytest.raises(ValueError):
        a @ b
    c = ExactMatrix(GF101, [[1], [2]])
    with pytest.raises(ValueError):
        a @ c


@pytest.mark.parametrize("field", [QQ, GF101, GF(7)])
def test_mat_mul_matches_oracle_random(field):
    rng = np.random.default_rng(11)
    for _ in range(20):
        r, c, c2 = (int(x) for x in rng.integers(1, 6, size=3))
        a = ExactMatrix.random(field, r, c, rng)
        b = ExactMatrix.random(field, c, c2, rng)
        assert (a @ b).tolist() == matmul_naive(a, b)


@pytest.mark.parametrize("inner", [1, 2, 16, 17, 33])
@pytest.mark.parametrize("p", [2147483629, next(exact._crt_primes())])
def test_mat_mul_large_prime_chunking(p, inner):
    # dot products must not overflow int64: just below 2**31 the contraction
    # runs one inner index at a time, at the rational probe's screening prime
    # 16 at a time, so 16 and 17 fill one chunk and spill into a second
    field = GF(p)
    rng = np.random.default_rng(inner)
    a = ExactMatrix.random(field, 4, inner, rng)
    b = ExactMatrix.random(field, inner, 4, rng)
    assert (a @ b).tolist() == matmul_naive(a, b)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_matmul_zz_on_both_sides_of_the_int64_switch(dtype):
    # inner * max|a| * max|b| just below the budget runs in int64, at it in
    # Python ints; entries near 2**31, every sign.  Row 0 of a times column 0
    # of b reaches the bound, so where it passes 2**63 int64 would wrap
    top = 2**31
    cases = [(1, top, top - 1, "below"), (1, top, top, "at"),
             (4, top // 2, top // 2 - 1, "below"), (4, top // 2, top // 2, "at"),
             (2, top, top, "past"), (5, top, top, "past")]
    rng = np.random.default_rng(2)
    for inner, top_a, top_b, side in cases:
        bound = inner * top_a * top_b
        assert (bound < exact._INT64_BUDGET) == (side == "below")
        assert (bound == exact._INT64_BUDGET) == (side == "at")
        a = rng.integers(-top_a, top_a + 1, size=(3, inner))
        b = rng.integers(-top_b, top_b + 1, size=(inner, 3))
        a[0], a[1], b[:, 0], b[:, 1] = top_a, -top_a, top_b, -top_b
        got = exact._matmul_zz(a.astype(dtype), b.astype(dtype))
        assert got.dtype == (np.int64 if side == "below" else object)
        assert got[0, 0] == bound and got[0, 1] == got[1, 0] == -bound
        assert got.tolist() == matmul_naive(ExactMatrix(QQ, a.tolist()),
                                            ExactMatrix(QQ, b.tolist()))


def rational_matrix(rng, rows, cols):
    """Entries n/d with n in [-20, 20] and d in [1, 12], mixed within rows and columns."""
    if rows == 0:
        return ExactMatrix.zeros(QQ, 0, cols)
    nums = rng.integers(-20, 21, size=(rows, cols)).tolist()
    dens = rng.integers(1, 13, size=(rows, cols)).tolist()
    return ExactMatrix(QQ, [[Fraction(n, d) for n, d in zip(rn, rd)]
                            for rn, rd in zip(nums, dens)])


@pytest.mark.parametrize("shape", [(3, 4, 5), (1, 4, 4), (5, 1, 2), (0, 3, 4), (3, 4, 0),
                                   (3, 0, 4), (0, 0, 0), (0, 3, 0)])
def test_mat_mul_qq_mixed_denominators_matches_oracle(shape):
    r, c, c2 = shape
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        a = rational_matrix(rng, r, c)
        b = rational_matrix(rng, c, c2)
        got = a @ b
        assert got.shape == (r, c2)
        assert got.tolist() == matmul_naive(a, b)
        assert_canonical(got)


@pytest.mark.parametrize("field", [GF101, GF(2147483629)])
@pytest.mark.parametrize("shape", [(3, 0, 4), (0, 3, 4), (3, 4, 0), (0, 0, 0)])
def test_mat_mul_gf_zero_sizes(field, shape):
    r, c, c2 = shape
    rng = np.random.default_rng(0)
    got = ExactMatrix.random(field, r, c, rng) @ ExactMatrix.random(field, c, c2, rng)
    assert got == ExactMatrix.zeros(field, r, c2)


@st.composite
def products_with_zero_rows(draw):
    """(field, (r, c, c2), rows of a, rows of b): every row of b zero or not,
    so some, all or none are; any of r, c, c2 may be 0.  Over Q the entries
    reach past 2**63, so products can be object arrays."""
    field = draw(st.sampled_from([GF(3), GF101, GF(2147483629), QQ]))
    entry = (st.integers(0, field.p - 1) if field.is_prime_field else
             st.builds(Fraction, st.integers(-2**70, 2**70) | st.integers(-9, 9),
                       st.integers(1, 12)))
    r, c, c2 = (draw(st.integers(0, 5)) for _ in range(3))
    a = [[draw(entry) for _ in range(c)] for _ in range(r)]
    b = [[0 if zero else draw(entry) for _ in range(c2)]
         for zero in draw(st.lists(st.booleans(), min_size=c, max_size=c))]
    return field, (r, c, c2), a, b


@settings(max_examples=300, deadline=None)
@given(case=products_with_zero_rows())
@example(case=(QQ, (1, 2, 1), [[2**64, 1]], [[2**64], [0]]))  # 2**128: object dtype
@example(case=(QQ, (1, 2, 2), [[2**64, 3]], [[0, 0], [0, 0]]))  # every inner index dropped
@example(case=(GF101, (2, 3, 0), [[1, 0, 2], [3, 4, 5]], [[], [], []]))
@example(case=(GF101, (2, 0, 3), [[], []], []))
def test_mat_mul_dropping_zero_rows_matches_oracle(case):
    field, (r, c, c2), a_rows, b_rows = case
    a, b = (ExactMatrix(field, rows) if rows else ExactMatrix.zeros(field, 0, cols)
            for rows, cols in ((a_rows, c), (b_rows, c2)))
    got = a @ b
    assert got.shape == (r, c2)
    assert got.tolist() == matmul_naive(a, b)
    assert_canonical(got)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (3, 4)])
def test_q_times_s_multiplies_only_the_columns_of_q_that_meet_s(monkeypatch, n, k):
    # S is zero below its first k block rows, so of Q's columns at most the
    # k * (2n + 2k) of its first k block columns reach the product: all of
    # them at n = k = 1, 56 of 280 at (3, 4).  The factors are views of Q's
    # and S's arrays cut at S's last nonzero row, which is earlier when the
    # last block of S ends in zero rows
    d = gen_isotropic_orthogonal(n, k, 101, seed=13 * n + k).data
    q, s = build_q(d).matrix, build_syzygy(d).matrix
    calls, matmul = [], Field.matmul

    def spy(self, a, b):
        calls.append((a, b))
        return matmul(self, a, b)

    monkeypatch.setattr(Field, "matmul", spy)
    assert (q @ s).is_zero()
    inner = 1 + max(i for i in range(s.rows) if any(s._a[i]))
    assert inner <= k * (2 * n + 2 * k)
    assert [(a.shape, b.shape) for a, b in calls] == [((q.rows, inner), (inner, s.cols))]
    assert all(np.shares_memory(x, m._a) for x, m in zip(calls[0], (q, s)))
    # a right factor without a zero row goes in whole, not gathered
    calls.clear()
    assert q @ ExactMatrix.identity(d.field, q.cols) == q
    assert len(calls) == 1 and calls[0][0] is q._a


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 5))
def test_det_of_rational_product_is_product_of_dets(data, n):
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = (ExactMatrix(QQ, data.draw(square)) if n else ExactMatrix.zeros(QQ, 0, 0)
            for _ in range(2))
    product = a @ b
    assert_canonical(product)
    assert product.det() == a.det() * b.det()


def test_transpose():
    assert ExactMatrix.identity(QQ, 4).transpose() == ExactMatrix.identity(QQ, 4)
    row = ExactMatrix(QQ, [[1, 2, 3]])
    col = row.transpose()
    assert col.shape == (3, 1)
    assert col.tolist() == [[1], [2], [3]]
    rng = np.random.default_rng(3)
    m = ExactMatrix.random(GF101, 3, 5, rng)
    assert m.transpose().transpose() == m


@pytest.mark.parametrize("field", [QQ, GF101])
def test_product_identities_random(field):
    rng = np.random.default_rng(23)
    for _ in range(15):
        a = ExactMatrix.random(field, 3, 4, rng)
        b = ExactMatrix.random(field, 4, 2, rng)
        c = ExactMatrix.random(field, 2, 5, rng)
        assert (a @ b) @ c == a @ (b @ c)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_det_trivial_cases():
    assert ExactMatrix.identity(QQ, 5).det() == 1
    assert ExactMatrix.identity(GF101, 5).det() == 1
    two_equal = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert two_equal.det() == 0
    assert ExactMatrix(QQ, [[1, 2], [3, 4]]).det() == -2
    assert det_cofactor(ExactMatrix(QQ, [[1, 2], [3, 4]])) == -2
    empty = ExactMatrix.zeros(QQ, 0, 0)
    assert empty.det() == 1
    assert ExactMatrix.zeros(GF101, 0, 0).det() == 1
    with pytest.raises(ValueError):
        ExactMatrix.zeros(QQ, 2, 3).det()


def test_det_with_fractions():
    m = ExactMatrix(QQ, [["1/2", "1/3"], ["1/4", "1/5"]])
    assert m.det() == Fraction(1, 10) - Fraction(1, 12)
    assert m.det() == det_cofactor(m)


@pytest.mark.parametrize("field", [QQ, GF101, GF(13)])
def test_det_matches_cofactor_oracle(field):
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = ExactMatrix.random(field, n, n, rng)
        assert m.det() == det_cofactor(m)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_det_multiplicative(field):
    rng = np.random.default_rng(31)
    p = field.p
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = ExactMatrix.random(field, n, n, rng)
        b = ExactMatrix.random(field, n, n, rng)
        prod = a.det() * b.det()
        assert (a @ b).det() == (prod % p if p is not None else prod)


def test_det_mod_p_consistency():
    rng = np.random.default_rng(37)
    for p in (101, 32003, 65537):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            ints = rng.integers(-30, 31, size=(n, n)).tolist()
            over_q = ExactMatrix(QQ, ints).det()
            over_p = ExactMatrix(GF(p), ints).det()
            assert int(over_q) % p == over_p


def test_rank_trivial_cases():
    assert ExactMatrix.zeros(QQ, 4, 3).rank() == 0
    assert ExactMatrix.identity(GF101, 6).rank() == 6
    u = [[1], [2], [3]]
    v = [[4, 5]]
    outer = ExactMatrix(QQ, u) @ ExactMatrix(QQ, v)
    assert outer.rank() == 1


def test_kernel_trivial_cases():
    assert ExactMatrix.identity(QQ, 4).kernel_basis() == []
    zero = ExactMatrix.zeros(GF101, 3, 5)
    basis = zero.kernel_basis()
    assert len(basis) == 5
    one_eq = ExactMatrix(QQ, [[1, 1]])
    (vec,) = one_eq.kernel_basis()
    a, b = vec[0, 0], vec[1, 0]
    assert a == -b != 0


@pytest.mark.parametrize("field", [QQ, GF101, GF(7)])
def test_rank_nullity_random(field):
    rng = np.random.default_rng(41)
    for _ in range(25):
        r, c = (int(x) for x in rng.integers(1, 8, size=2))
        m = ExactMatrix.random(field, r, c, rng)
        basis = m.kernel_basis()
        assert m.rank() + len(basis) == c
        for vec in basis:
            assert (m @ vec).is_zero()
        if basis:
            stacked = ExactMatrix(field, [[v[i, 0] for v in basis] for i in range(c)])
            assert stacked.rank() == len(basis)


def test_det_stops_at_zero_first_column():
    for field in (QQ, GF101):
        m = ExactMatrix(field, [[0, 1, 2], [0, 3, 4], [0, 5, 7]])
        det = m.det()
        assert det == 0 == det_cofactor(m)
        assert type(det) is type(field.coerce(0))
        assert m.rank() == 2


# -- GF(p) det: expansion along rows of one nonzero, then elimination ------------

EXPANSION_FIELDS = [GF(3), GF101, GF(32003), QQ]


@st.composite
def expandable_matrices(draw):
    """(matrix, det) for a square matrix with rows of one nonzero to expand
    along: the rows and columns of [[L, 0], [X, C]] permuted, L lower
    triangular with a nonzero diagonal, sparse below it, over a dense core
    C.  The det is sign(row order) * sign(column order) * diag(L) * det C.
    Or one row made zero, or two rows cut to one nonzero in one column:
    then the det is 0."""
    field = draw(st.sampled_from(EXPANSION_FIELDS))
    t, c = draw(st.integers(0, 14)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["triangular", "zero row", "shared column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 9 if field.p is None else min(field.p - 1, 9)

    def entry(nonzero=False):
        x = int(rng.integers(1 if nonzero else 0, top + 1)) * int(rng.choice([-1, 1]))
        return field.coerce(Fraction(x, int(rng.integers(1, 6))) if field.p is None else x)

    n = t + c
    density = rng.random()
    b = [[field.coerce(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if i < t else n):
            b[i][j] = entry() if i >= t or rng.random() < density else field.coerce(0)
        if i < t:
            b[i][i] = entry(nonzero=True)
    rows, cols = rng.permutation(n).tolist(), rng.permutation(n).tolist()
    a = [[b[i][j] for j in cols] for i in rows]
    det = _permutation_sign(rows) * _permutation_sign(cols) * math.prod(b[i][i] for i in range(t))
    det *= det_cofactor(ExactMatrix(field, [row[t:] for row in b[t:]]))
    if kind == "zero row" and n:
        a[int(rng.integers(0, n))] = [field.coerce(0)] * n
        det = 0
    elif kind == "shared column" and n >= 2:
        i, k = rng.choice(n, size=2, replace=False).tolist()
        j = int(rng.integers(0, n))
        a[i], a[k] = [field.coerce(0)] * n, [field.coerce(0)] * n
        a[i][j], a[k][j] = entry(nonzero=True), entry(nonzero=True)
        det = 0
    return ExactMatrix(field, a), field.coerce(det)


@settings(max_examples=300, deadline=None)
@given(case=expandable_matrices())
def test_det_with_rows_of_one_nonzero_matches_the_oracles(case):
    m, det = case
    assert m.det() == det
    if m.rows <= 7:
        assert det == det_cofactor(m)
    elif m.field.p is None:
        assert det == bareiss_echelon(m)[2]
    else:
        assert det == echelon_gf_reference(m._a, m.field.p, True)[2]


def test_det_eliminates_only_what_expansion_leaves(eliminations):
    # a random Q has no row of one nonzero: it is eliminated as it is, with no
    # gathered copy; a zero row, two rows of one nonzero in one column, or a
    # row left with no nonzero once expansion has taken its columns, end the
    # det before any elimination
    field = GF(32003)
    rng = np.random.default_rng(2)
    blocks = tuple(ExactMatrix.random(field, 6, 10, rng) for _ in range(3))
    q = build_q(MonadData(2, 3, field, blocks)).matrix
    assert q.det() == echelon_gf_reference(q._a, field.p, True)[2] != 0
    assert eliminations == ["gf det"] and eliminations[0].shape == q.shape
    del eliminations[:]
    for rows in ([[1, 2, 3], [0, 0, 0], [4, 5, 6]], [[0, 7, 0], [1, 2, 3], [0, 5, 0]],
                 [[1, 0, 0], [0, 1, 0], [2, 3, 0]]):
        for f in (field, QQ):
            m = ExactMatrix(f, rows)
            assert m.det() == 0 == det_cofactor(m)
    assert eliminations == []
    # one row of one nonzero leaves the 2 x 2 core in its original order
    m = ExactMatrix(field, [[1, 2, 3], [0, 0, 5], [4, 5, 6]])
    assert m.det() == det_cofactor(m) == 15
    assert eliminations == ["gf det"] and eliminations[0].shape == (2, 2)


# -- the peel that det, rank and kernel_basis share ---------------------------------

PEEL_FIELDS = [GF(3), GF101, GF(2147483629), QQ]
PEEL_KINDS = ["plain", "zero row", "shared column", "emptying row", "crt zero"]


@st.composite
def peelable_matrices(draw):
    """Matrices that peel in part, in any shape, 0 included: the rows and
    columns of [[L, 0], [X, C]] permuted, L lower triangular with a nonzero
    diagonal and sparse below it, over a core C of entries, some zero.  Then
    one of: a zero row; two rows cut to one nonzero in one column; a row
    whose nonzeros all lie in L's columns, so that it empties once they are
    peeled; or, over Q, entries that are multiples of the first CRT prime,
    so that modulo it more rows have one nonzero, or none."""
    field = draw(st.sampled_from(PEEL_FIELDS))
    t = draw(st.integers(0, 7))  # L's order; C is (rows - t) x (cols - t)
    rows, cols = t + draw(st.integers(0, 4)), t + draw(st.integers(0, 4))
    kind = draw(st.sampled_from(PEEL_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p1 = next(exact._crt_primes())

    def entry(nonzero=False):
        x = int(rng.integers(1 if nonzero else 0, 10)) * int(rng.choice([-1, 1]))
        if field.p is None:
            return Fraction(x * (p1 if kind == "crt zero" and rng.random() < 0.4 else 1),
                            int(rng.integers(1, 6)))
        return x if field.p > 9 else int(rng.integers(1 if nonzero else 0, field.p))

    density = rng.random()
    b = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(i if i < t else cols):
            b[i][j] = entry() if i >= t or rng.random() < density else 0
        if i < t:
            b[i][i] = entry(nonzero=True)
    if kind == "zero row" and rows:
        b[int(rng.integers(0, rows))] = [0] * cols
    elif kind == "shared column" and rows >= 2 and cols:
        i, k = rng.choice(rows, size=2, replace=False).tolist()
        j = int(rng.integers(0, cols))
        b[i], b[k] = [0] * cols, [0] * cols
        b[i][j], b[k][j] = entry(nonzero=True), entry(nonzero=True)
    elif kind == "emptying row" and t >= 2 and rows > t:
        b[int(rng.integers(t, rows))] = [entry(nonzero=True) if j < t else 0 for j in range(cols)]
    row_order, col_order = rng.permutation(rows).tolist(), rng.permutation(cols).tolist()
    if not rows * cols:
        return ExactMatrix.zeros(field, rows, cols)
    return ExactMatrix(field, [[b[i][j] for j in col_order] for i in row_order])


def reference_pivots_and_det(m: ExactMatrix) -> tuple[list[int], object]:
    """Pivot columns and, for square m, det m: by Bareiss over Q, by
    ``echelon_gf_reference`` over GF(p)."""
    if m.field.p is None:
        _, pivots, det = bareiss_echelon(m)
    else:
        _, pivots, det = echelon_gf_reference(m._a, m.field.p, False)
    return pivots, m.field.coerce(det)


@settings(max_examples=400, deadline=None)
@given(m=peelable_matrices())
@example(m=ExactMatrix(QQ, [[next(exact._crt_primes()), 1, 0], [0, 1, 0], [0, 0, 1]]))
@example(m=ExactMatrix(GF(3), [[1, 1, 0, 0], [0, 1, 0, 0], [0, 2, 0, 0], [2, 0, 1, 1]]))
def test_partly_peeled_matrices_match_the_oracles(m):
    # every peeled column is a pivot and every kernel vector is zero there,
    # so the pivots, the kernel in its normal form, the rank and the det are
    # those of elimination of the whole matrix
    pivots, det = reference_pivots_and_det(m)
    assert m.field.kernel(m._a)[0] == pivots
    assert m.rank() == len(pivots)
    assert columns(m.kernel_basis()) == kernel_oracle(m)
    if m.rows == m.cols:
        assert ExactMatrix._wrap(m.field, m._a, m._den).det() == det


@settings(max_examples=150, deadline=None)
@given(m=peelable_matrices())
def test_partly_peeled_matrices_match_sympy(sympy_oracle, m):
    to_sympy, from_sympy = sympy_oracle
    assert m.rank() == to_sympy(m).rank()
    assert columns(m.kernel_basis()) == sympy_kernel(sympy_oracle, m)
    if m.rows == m.cols:
        assert m.det() == from_sympy(m.field, to_sympy(m).det())


@pytest.mark.parametrize("field", [GF101, GF(2147483629), QQ])
def test_fully_peeled_matrices_are_never_eliminated(eliminations, field):
    # a permuted unitriangular matrix; below it a row that empties once its
    # columns are peeled, and a row that shares its one nonzero's column with
    # a row of the triangle; beside it zero columns, which are free
    rng = np.random.default_rng(8)
    lower = np.tril(rng.integers(-3, 4, size=(6, 6)), -1) + np.eye(6, dtype=np.int64)
    tall = np.vstack([lower, [[2, 0, -1, 0, 0, 0], [0, 0, 0, 0, 0, 5]]])
    wide = np.hstack([lower, np.zeros((6, 2), dtype=np.int64)])
    for a in (lower, tall, wide):
        rows, cols = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
        m = ExactMatrix(field, a[rows][:, cols].tolist())
        assert m.rank() == 6 == len(reference_pivots_and_det(m)[0])
        assert columns(m.kernel_basis()) == kernel_oracle(m)
        if m.rows == m.cols:
            assert ExactMatrix(field, m.tolist()).det() == reference_pivots_and_det(m)[1] != 0
    assert eliminations == []


@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_special_q_peels_whole_and_random_q_is_eliminated_once(eliminations, field):
    # the special family's Q is a permuted unitriangular matrix: its rank and
    # kernel eliminate nothing.  A Q of random blocks has no row of one
    # nonzero, so its rank eliminates it as it is, once: over Q its first
    # prime shows full column rank, which leaves nothing to lift
    special = build_q(gen_special_symplectic(2, 3, field, probe_trials=1,
                                             compute_det=False).data).matrix
    rng = np.random.default_rng(2)
    q = build_q(MonadData(2, 3, field, tuple(ExactMatrix.random(field, 6, 10, rng)
                                             for _ in range(3)))).matrix
    del eliminations[:]
    assert special.rank() == special.rows and special.kernel_basis() == []
    assert eliminations == []
    assert q.rank() == q.rows
    assert eliminations == ["gf"] and eliminations[0].shape == q.shape


# -- primes and the rational determinant by the Chinese remainder theorem --------


def test_is_prime_matches_trial_division():
    assert ([n for n in range(10**5) if exact._is_prime(n)]
            == [n for n in range(10**5) if is_prime_trial(n)])


@pytest.mark.parametrize("n, prime", [
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2..7; 2..11
    (2047, False), (1373653, False), (25326001, False), (3215031751, False),
    (2152302898747, False),
    (561, False), (41041, False),  # Carmichael numbers
    (2147483629, True), (2**31 - 1, True),
])
def test_is_prime_on_pseudoprimes_and_large_primes(n, prime):
    assert exact._is_prime(n) is prime
    assert is_prime_trial(n) is prime


def test_crt_primes_are_the_largest_primes_below_the_top():
    primes = list(itertools.islice(exact._crt_primes(), 60))
    top = exact._CRT_PRIME_TOP
    assert primes == [q for q in range(top - 1, primes[-1] - 1, -1) if is_prime_trial(q)]


@st.composite
def rational_matrices(draw, square=True):
    """Matrices over Q with 0 to 5 rows and columns: mixed denominators,
    entries above 2**63, a zero row or column, and rank-deficient products."""
    r = draw(st.integers(0, 5))
    c = r if square else draw(st.integers(0, 5))
    huge = st.integers(2**63, 2**90) | st.integers(-2**90, -2**63)
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
                      st.builds(Fraction, huge, st.sampled_from([1, 5, 2**64 + 13])))

    def dense(r, c):
        return ExactMatrix(QQ, [[draw(entry) for _ in range(c)] for _ in range(r)])

    kind = draw(st.sampled_from(["dense", "zero row", "zero column", "product"]))
    if min(r, c) == 0:
        return ExactMatrix.zeros(QQ, r, c)
    if kind == "product" and min(r, c) >= 2:
        inner = draw(st.integers(1, min(r, c) - 1))
        return dense(r, inner) @ dense(inner, c)
    rows = dense(r, c).tolist()
    if kind == "zero row":
        rows[draw(st.integers(0, r - 1))] = [0] * c
    elif kind == "zero column":
        j = draw(st.integers(0, c - 1))
        for row in rows:
            row[j] = 0
    return ExactMatrix(QQ, rows)


@settings(max_examples=200, deadline=None)
@given(m=rational_matrices())
def test_crt_det_matches_bareiss_and_cofactor(m):
    det = m.det()
    assert det == bareiss_echelon(m)[2] == det_cofactor(m)
    if m.rows >= 2:  # swapping two rows negates the determinant
        rows = m.tolist()
        rows[0], rows[1] = rows[1], rows[0]
        assert ExactMatrix(QQ, rows).det() == -det


def sylvester_hadamard(order: int) -> list[list[int]]:
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("order", [2, 4, 8, 16])
@pytest.mark.parametrize("scale", [1, Fraction(-3, 7)])
def test_crt_det_of_hadamard_matrix_reaches_the_hadamard_bound(order, scale):
    # orthogonal rows of equal length: |det| is the product of the row norms,
    # so every prime the bound asks for is needed
    m = ExactMatrix(QQ, [[scale * x for x in row] for row in sylvester_hadamard(order)])
    det = m.det()
    assert abs(det) == order ** (order // 2) * abs(scale) ** order
    assert det == bareiss_echelon(m)[2]


def columns(basis: list[ExactMatrix]) -> list[list]:
    return [v.transpose().tolist()[0] for v in basis]


def test_kernel_basis_runs_only_gf_elimination(eliminations):
    # GF(p) elimination is the only one left, over Q once per CRT prime
    assert not hasattr(exact, "_echelon_qq")
    assert not any(hasattr(Field, name) for name in ("echelon", "div"))
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 2]]
    for field, expected in [(QQ, [[-2, Fraction(-1, 2), 1]]), (GF101, [[99, 50, 1]])]:
        m = ExactMatrix(field, rows)
        del eliminations[:]
        assert columns(m.kernel_basis()) == expected
        assert eliminations == ["gf"]
    assert kernel_oracle(ExactMatrix(QQ, rows)) == [[-2, Fraction(-1, 2), 1]]


@pytest.mark.parametrize("p", [2147483629, next(exact._crt_primes())])
def test_kernel_basis_large_prime_chunking(p):
    # back-substitution multiplies each pivot row's tail by the rows below it
    # in _matmul_gf's chunks: one inner index at a time just below 2**31, 16 at
    # the screening prime.  These tails run to 199 entries, which an
    # unchunked int64 product would wrap
    field = GF(p)
    a = field.sample(np.random.default_rng(7), (197, 200), 0)
    a[:, 50] = a[:, 20]  # a free column among the pivots, two more at the end
    m = ExactMatrix(field, a.tolist())
    basis = m.kernel_basis()
    assert len(basis) == 3 and m.rank() == 197
    assert columns(basis) == kernel_oracle(m)
    assert all((m @ v).is_zero() for v in basis)


def test_crt_rank_survives_primes_that_lower_it(monkeypatch):
    # modulo the first CRT prime, or the first two, the rank is below the rank
    # over Q; the kernel lifted from them fails A v = 0, and the prime that
    # shows the rank ends it.  In the 3 x 3 case the only nonzero 2 x 2 minor
    # is p1 * p2 (times 4 when scaled by 2/7).  The first matrix peels whole
    # at every prime, so the primes are counted as modular kernels, not as
    # eliminations
    p1, p2 = itertools.islice(exact._crt_primes(), 2)
    visited, kernel_gf = [], exact._kernel_gf
    monkeypatch.setattr(exact, "_kernel_gf", lambda a, p: visited.append(p) or kernel_gf(a, p))
    minor = [[1, 1, 0], [1, 1 + p1 * p2, 0], [0, 0, 0]]
    for rows, scale, rank, primes in [([[p1, 1, 0], [0, 1, 0], [0, 0, 1]], 1, 3, 2),
                                      (minor, 1, 2, 3), (minor, Fraction(2, 7), 2, 3)]:
        for p in (p1, p2)[:primes - 1]:
            assert ExactMatrix(GF(p), rows).rank() < rank
        m = scaled(ExactMatrix(QQ, rows), scale)
        del visited[:]
        assert m.rank() == rank
        assert visited == list(itertools.islice(exact._crt_primes(), primes))


def test_kernel_basis_survives_primes_that_lose_or_move_pivots(eliminations):
    # modulo p1 and p2 the first matrix has one pivot, not two; modulo p1 the
    # second has its pivot in column 1, not 0.  Those primes' vectors are not
    # joined with the later ones, whose pivots are Q's.  The second kernel has
    # p1 as a denominator, so it lifts only once the product of the joined
    # primes p2 * p3 * p4 exceeds 2 * p1**2
    p1, p2 = itertools.islice(exact._crt_primes(), 2)
    for rows, expected, primes in [
            ([[1, 1, 0], [1, 1 + p1 * p2, 0], [0, 0, 0]], [[0, 0, 1]], 3),
            ([[p1, 1, 1]], [[Fraction(-1, p1), 1, 0], [Fraction(-1, p1), 0, 1]], 4)]:
        m = ExactMatrix(QQ, rows)
        del eliminations[:]
        assert columns(m.kernel_basis()) == expected == kernel_oracle(m)
        assert eliminations == ["gf"] * primes


def test_kernel_basis_skips_a_prime_with_later_pivots(monkeypatch):
    # modulo p2 the second row is (0, 0, 7): pivots [0, 2], later than the
    # [0, 1] of p1 and of Q, so p2's vector is skipped, not joined; the
    # kernel has p2 as a denominator and lifts from p1, p3 and p4
    p1, p2 = itertools.islice(exact._crt_primes(), 2)
    visited, kernel_gf = [], exact._kernel_gf

    def spy(a, p):
        pivots, basis = kernel_gf(a, p)
        visited.append((p, pivots))
        return pivots, basis

    monkeypatch.setattr(exact, "_kernel_gf", spy)
    m = ExactMatrix(QQ, [[1, 0, 5], [0, p2, 7]])
    assert columns(m.kernel_basis()) == [[-5, Fraction(-7, p2), 1]] == kernel_oracle(m)
    assert visited[:2] == [(p1, [0, 1]), (p2, [0, 2])]
    assert all(pivots == [0, 1] for p, pivots in visited[2:])


def test_kernel_basis_checks_its_reconstruction(eliminations):
    # the kernel entry 1/3 + 5 * p1 is 1/3 modulo p1, and 1/3 is what one prime
    # reconstructs; only the exact check A v = 0 rejects it
    p1 = next(exact._crt_primes())
    m = ExactMatrix(QQ, [[3, -(1 + 15 * p1)]])
    assert exact._rational(pow(3, -1, p1), p1) == (1, 3)
    assert columns(m.kernel_basis()) == [[Fraction(1 + 15 * p1, 3), 1]] == kernel_oracle(m)
    assert len(eliminations) > 1


def test_kernel_basis_over_q_clears_the_matrix_once_per_call(monkeypatch):
    # the exact check A v = 0 at each reconstruction attempt reads the
    # primitive rows the call made at its start, and the basis is lifted
    # straight to integers over column denominators, so nothing is cleared
    rng = np.random.default_rng(40)
    rows = rational_matrix(rng, 39, 40).tolist()
    rows.append([x + y for x, y in zip(rows[3], rows[17])])
    m = ExactMatrix(QQ, rows)
    calls, checks = [], []
    primitive, matmul_zz = exact._primitive, exact._matmul_zz
    monkeypatch.setattr(exact, "_primitive", lambda a: calls.append(a) or primitive(a))
    monkeypatch.setattr(exact, "_matmul_zz", lambda a, b: checks.append(a) or matmul_zz(a, b))
    monkeypatch.setattr(exact, "Fraction", None)  # no Fraction is made
    basis = m.kernel_basis()
    assert len(calls) == 1 and calls[0] is m._a
    assert checks and all(a is checks[0] for a in checks)  # the checks ran, on those rows
    monkeypatch.undo()
    assert columns(basis) == kernel_oracle(m) and len(basis) == 1


@pytest.mark.parametrize("dependent", [1, 2])
def test_kernel_reconstruction_runs_euclid_once_per_denominator(monkeypatch, dependent):
    # a kernel vector's entries share one denominator d: once Euclid has found
    # it, every other entry is u * d mod m.  So at the prime that ends the loop
    # Euclid runs about once per vector, not once per entry, and over all the
    # primes fewer times than the kernel has entries
    calls = []
    rational, kernel_gf = exact._rational, exact._kernel_gf
    monkeypatch.setattr(exact, "_rational", lambda u, m: calls.append("wang") or rational(u, m))
    monkeypatch.setattr(exact, "_kernel_gf", lambda a, p: calls.append("prime") or kernel_gf(a, p))
    rows = np.random.default_rng(dependent).integers(-10, 11, size=(30, 30))
    rows[-dependent:] = rows[:dependent] + rows[dependent:2 * dependent]
    m = ExactMatrix(QQ, rows.tolist())
    basis = columns(m.kernel_basis())
    assert basis == kernel_oracle(m) and len(basis) == dependent
    last = calls[len(calls) - calls[::-1].index("prime"):]
    assert 1 <= len(last) <= 2 * dependent
    assert calls.count("wang") < 30 * dependent


@settings(max_examples=200, deadline=None)
@given(r=st.integers(-2**40, 2**40), s=st.integers(1, 2**40), primes=st.integers(1, 4))
def test_rational_reconstruction_inverts_reduction(r, s, primes):
    # unique once m > 2 * max(|r|, s)**2, which three primes always exceed here;
    # below that any result is at least congruent to r/s
    m = math.prod(itertools.islice(exact._crt_primes(), primes))
    x = exact._rational(r * pow(s, -1, m) % m, m)
    if x is not None:
        assert x[1] > 0 and math.gcd(*x) == 1
    if m > 2 * max(abs(r), s) ** 2:
        assert Fraction(*x) == Fraction(r, s)
    elif x is not None:
        assert (x[0] - x[1] * r * pow(s, -1, m)) % m == 0


# -- sympy as an independent det, rank and nullspace oracle ---------------------

ORACLE_FIELDS = [QQ, GF(7), GF101]


@st.composite
def matrices(draw, square=False):
    """Dense, rank-deficient and all-zero matrices, zero-size shapes included."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    if field.p is None:
        entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(0), entry)  # zeros make columns without a pivot

    def dense(r, c):
        if r == 0:
            return ExactMatrix.zeros(field, 0, c)
        row = st.lists(entry, min_size=c, max_size=c)
        return ExactMatrix(field, draw(st.lists(row, min_size=r, max_size=r)))

    kind = draw(st.sampled_from(["dense", "rank-deficient", "zero"]))
    if kind == "zero":
        return ExactMatrix.zeros(field, rows, cols)
    if kind == "rank-deficient" and min(rows, cols) >= 2:
        inner = draw(st.integers(1, min(rows, cols) - 1))
        return dense(rows, inner) @ dense(inner, cols)
    return dense(rows, cols)


@pytest.fixture(scope="module")
def sympy_oracle():
    """(to_sympy, from_sympy) converting matrices and scalars for DomainMatrix."""
    pytest.importorskip("sympy")
    from sympy import GF as SymGF, QQ as SymQQ
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(m):
        if m.field.p is None:
            dom, elem = SymQQ, lambda x: SymQQ(x.numerator, x.denominator)
        else:
            dom = elem = SymGF(m.field.p)
        return DomainMatrix([[elem(x) for x in row] for row in m.tolist()], m.shape, dom)

    def from_sympy(field, x):
        if field.p is None:
            return Fraction(int(x.numerator), int(x.denominator))
        return int(x) % field.p

    return to_sympy, from_sympy


@settings(max_examples=200, deadline=None)
@given(m=matrices(square=True))
def test_det_matches_sympy(sympy_oracle, m):
    to_sympy, from_sympy = sympy_oracle
    assert m.det() == from_sympy(m.field, to_sympy(m).det())


@settings(max_examples=100, deadline=None)
@given(m=rational_matrices(square=False))
def test_crt_rank_matches_sympy(sympy_oracle, m):
    assert m.rank() == sympy_oracle[0](m).rank()


def sympy_kernel(sympy_oracle, m: ExactMatrix) -> list[list]:
    """sympy's nullspace scaled as ``kernel_basis``: both bases have one vector
    per free column f, zero at the other free columns and at every column
    after f; sympy may scale a vector, so its last nonzero entry (at f) is
    divided out to get 1 there."""
    to_sympy, from_sympy = sympy_oracle
    expected = []
    for row in to_sympy(m).nullspace().to_list():
        last = next(x for x in reversed(row) if x)
        expected.append([from_sympy(m.field, x / last) for x in row])
    return expected


@settings(max_examples=200, deadline=None)
@given(m=matrices())
def test_rank_and_kernel_basis_match_sympy(sympy_oracle, m):
    assert m.rank() == sympy_oracle[0](m).rank()
    assert columns(m.kernel_basis()) == sympy_kernel(sympy_oracle, m)


@st.composite
def unlucky_rational_matrices(draw):
    """L @ R for small integer L and R, plus P at one entry, where P is the
    first CRT prime p1, -p1 or p1 * p2, scaled by 1 or 2/7.  Modulo p1 (and
    p2) the rank is at most L's width; over Q it may be one more, and the
    pivots may sit further left."""
    p1, p2 = itertools.islice(exact._crt_primes(), 2)
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    inner = draw(st.integers(0, min(r, c)))
    small = st.integers(-3, 3)
    left = [[draw(small) for _ in range(inner)] for _ in range(r)]
    right = [[draw(small) for _ in range(c)] for _ in range(inner)]
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] or [0] * c
            for row in left]
    rows[draw(st.integers(0, r - 1))][draw(st.integers(0, c - 1))] += \
        draw(st.sampled_from([p1, -p1, p1 * p2]))
    m = scaled(ExactMatrix(QQ, rows), draw(st.sampled_from([1, Fraction(2, 7)])))
    assert ExactMatrix(GF(p1), rows).rank() <= inner
    return m


def split_form_q(n: int, k: int, seed: int) -> ExactMatrix:
    """Q over Q of blocks whose rows lie in e_1..e_h, h = n + k, moved by three
    reflections that preserve the split form H = [[0, I], [I, 0]].  Every
    M_a H M_b^t is zero, so Q S_H = 0 for the syzygy S_H of stacked H M_b^t,
    and Q is singular."""
    rng = np.random.default_rng(seed)
    h = n + k
    split = ExactMatrix(QQ, [[int(abs(i - j) == h) for j in range(2 * h)] for i in range(2 * h)])
    move = ExactMatrix.identity(QQ, 2 * h)
    for _ in range(3):
        v = ExactMatrix.random(QQ, 2 * h, 1, rng, box=2)
        norm = (v.transpose() @ split @ v)[0, 0]
        if norm:  # x -> x - 2 (x H v) / (v H v) v^t
            move = move @ summed(ExactMatrix.identity(QQ, 2 * h),
                                 scaled(split @ v @ v.transpose(), -2 / norm))
    isotropic = ExactMatrix.zeros(QQ, 2 * n + 2, h)
    blocks = tuple(block_matrix([[ExactMatrix.random(QQ, 2 * n + 2, h, rng, box=3), isotropic]])
                   @ move for _ in range(k))
    return build_q(MonadData(n, k, QQ, blocks)).matrix


@settings(max_examples=200, deadline=None)
@given(m=rational_matrices(square=False) | unlucky_rational_matrices())
@example(m=split_form_q(2, 3, seed=5))
def test_crt_rank_matches_bareiss(m):
    # a fresh rank, with no kernel computed before it; the transpose takes
    # the other side's kernel
    for x in (m, m.transpose()):
        assert x.rank() == len(bareiss_echelon(x)[1])


@settings(max_examples=200, deadline=None)
@given(m=rational_matrices(square=False) | unlucky_rational_matrices())
def test_kernel_basis_over_q_matches_bareiss_and_sympy(sympy_oracle, m):
    basis = columns(m.kernel_basis())
    assert basis == kernel_oracle(m) == sympy_kernel(sympy_oracle, m)
    assert m.rank() == len(bareiss_echelon(m)[1]) == m.cols - len(basis)


# -- the scalars an elimination leaves on the matrix ------------------------------


@pytest.mark.parametrize("field", [QQ, GF101])
def test_det_then_rank_of_nonsingular_matrix_eliminates_once(eliminations, field):
    m = ExactMatrix(field, [[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m.det() == det_cofactor(m) != 0
    assert m.rank() == 3
    assert m.det() == det_cofactor(m)
    # over Q one prime exceeds twice the Hadamard bound 3 * 4 * 5
    assert eliminations == ["gf det"]


def test_rank_after_det_of_singular_matrix_eliminates_fully(eliminations):
    # a zero det leaves the rank open: over GF(p) it stops at the first column
    # without a pivot, over Q it is the CRT on such dets; rank eliminates fully,
    # over Q once per CRT prime until its kernel verifies
    rng = np.random.default_rng(3)
    for field in (GF101, QQ):
        for size, inner in [(3, 1), (6, 4), (9, 5), (9, 8)]:
            a = field.matmul(field.sample(rng, (size, inner), 3),
                             field.sample(rng, (inner, size), 3))
            m = ExactMatrix(field, a.tolist())
            del eliminations[:]
            assert m.det() == 0
            assert m.rank() == inner
            assert m.rank() == inner and m.det() == 0
            # every rank prime is one full elimination; these kernels have
            # small entries, so rank runs no more primes than det, which runs
            # none when a row is zero
            primes = eliminations.count("gf")
            dets = len(eliminations) - primes
            assert eliminations == ["gf det"] * dets + ["gf"] * primes
            assert 1 <= primes <= max(dets, 1)
            if field is GF101:
                assert len(eliminations) == 2
                assert inner == len(echelon_gf_reference(a, 101, False)[1])
        m = ExactMatrix(field, [[0, 1, 2], [0, 3, 4], [0, 5, 7]])
        del eliminations[:]
        assert m.det() == 0 == det_cofactor(m)
        assert m.rank() == 2
        assert eliminations == ["gf det", "gf"]


def test_kernel_basis_leaves_rank_and_det():
    m = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert len(m.kernel_basis()) == 1
    assert (m._rank, m._det) == (2, None)
    assert m.rank() == 2 and m.det() == 0 == det_cofactor(m)
    assert (m._rank, m._det) == (2, 0)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_det_after_rank_runs_the_det_path(eliminations, field):
    # det never reads the elimination that rank ran: over Q it is the CRT on
    # GF(p) dets, one per prime, and over GF(p) a second, det-only elimination
    m = ExactMatrix(field, [["1/2", 3, -7], [2, "-5/3", 4], [9, 1, "11/4"]]
                    if field is QQ else [[1, 3, -7], [2, -5, 4], [9, 1, 11]])
    assert m.rank() == 3
    assert m.det() == det_cofactor(m) != 0
    if field is QQ:
        assert m.det() == bareiss_echelon(m)[2]
    # over Q one prime exceeds twice the Hadamard bound of the cleared rows,
    # and rank stops at the first prime that shows full rank anyway
    assert eliminations == ["gf", "gf det"]


ELIMINATION_OPS = ["det", "rank", "kernel_basis"]


@settings(max_examples=200, deadline=None)
@given(m=matrices(), order=st.lists(st.sampled_from(ELIMINATION_OPS), max_size=6))
def test_any_call_order_matches_a_fresh_matrix(m, order):
    for name in order:
        if name == "det" and m.rows != m.cols:
            continue
        fresh = ExactMatrix._wrap(m.field, m._a.copy(), m._den)
        assert getattr(m, name)() == getattr(fresh, name)()


def rational(rows: list[list[Fraction]], cols: int) -> ExactMatrix:
    return ExactMatrix(QQ, rows) if rows else ExactMatrix.zeros(QQ, 0, cols)


def test_entries_past_int64_are_stored_as_python_ints():
    # 1 over 12 * (2**31 - 1)**2 is 12 * (2**31 - 1)**2 > 2**63 over it
    m = ExactMatrix(QQ, [[1, Fraction(1, 12 * MERSENNE**2)]])
    assert m._a.dtype == object and m._den == 12 * MERSENNE**2
    assert_canonical(m)
    assert (m @ m.transpose())._a.dtype == object
    assert m.tolist() == [[1, Fraction(1, 12 * MERSENNE**2)]]


@settings(max_examples=60, deadline=None)
@given(r=st.integers(0, 4), c=st.integers(0, 4), c2=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_rational_matrices_match_the_fraction_path(r, c, c2, seed):
    # every operation on the integer array over one denominator gives what
    # the Fractions give: entries, transpose, product, det, rank, kernel,
    # equality with hash, and text; every result is in canonical form
    rng = np.random.default_rng(seed)
    rows = mixed_rows(rng, r, c)
    m, other = rational(rows, c), rational(mixed_rows(rng, c, c2), c2)
    assert_canonical(m)
    assert m.tolist() == rows and all(type(x) is Fraction for row in m.tolist() for x in row)
    assert all(m[i, j] == x and type(m[i, j]) is Fraction
               for i, row in enumerate(rows) for j, x in enumerate(row))
    transpose = m.transpose()
    assert_canonical(transpose)
    assert transpose.tolist() == [[row[j] for row in rows] for j in range(c)]
    product = m @ other
    assert_canonical(product)
    assert product.tolist() == matmul_naive(m, other)
    for same in (rational([[str(x) for x in row] for row in rows], c), transpose.transpose()):
        assert same == m and hash(same) == hash(m)
    doubled = rational([[2 * x for x in row] for row in rows], c)
    assert (doubled == m) == m.is_zero()
    assert format_matrix(m) == format_matrix_dense(m)
    _, pivots, det = bareiss_echelon(m)
    if r == c:
        assert m.det() == det and type(m.det()) is Fraction
    assert m.rank() == len(pivots)
    basis = m.kernel_basis()
    assert columns(basis) == kernel_oracle(m)
    for v in basis:
        assert_canonical(v)


def test_elimination_keeps_no_array():
    data = gen_special_symplectic(2, 3, GF(32003), probe_trials=1, compute_det=False).data
    q = build_q(data).matrix
    for m, det, rank in ((q, unitriangular_det(q) % 32003, q.rows),
                         (ExactMatrix(QQ, [[1, 2], [2, 4]]), 0, 1)):
        m.det()
        m.rank()
        m.kernel_basis()
        assert type(m._rank) is int and m._rank == rank
        assert type(m._det) in (int, Fraction) and m._det == det


# -- text format ---------------------------------------------------------------


def test_matrix_format_round_trip():
    m = ExactMatrix(QQ, [["1/2", 3], [-2, "7/5"]])
    text = format_matrix(m)
    assert text.splitlines()[0] == "matrix rows=2 cols=2 field=rational"

    g = ExactMatrix(GF(13), [[0, 12, 5]])
    text = format_matrix(g)
    assert "field=gf:13" in text


FORMAT_FIELDS = [GF101, GF(2147483629), QQ]


@st.composite
def sparse_matrices(draw, field, rows=st.integers(0, 6), cols=st.integers(0, 6)):
    """Matrices over ``field`` with about half their entries zero: over QQ
    fractions of either sign, integral or not, with numerators or
    denominators beyond int64 too (an object array, or a denominator of
    2**63 or more); over GF(p) integers of either sign, reduced by the field."""
    big = st.integers(-2**70, 2**70)
    nonzero = st.one_of(
        st.fractions(max_denominator=60), big, st.builds(Fraction, big, st.integers(2**63, 2**66)),
        st.sampled_from([Fraction(-2**63), Fraction(2**63, 3), Fraction(-2**63, 2**63 - 1)]),
    ) if field == QQ else st.integers(-2**40, 2**40)
    entry = st.one_of(st.just(0), nonzero)
    r, c = draw(rows), draw(cols)
    vals = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return ExactMatrix(field, vals) if r else ExactMatrix.zeros(field, 0, c)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), field=st.sampled_from(FORMAT_FIELDS))
def test_format_matrix_matches_dense_oracle(data, field):
    m = data.draw(sparse_matrices(field))
    text = format_matrix(m)
    assert text == format_matrix_dense(m)


@pytest.mark.parametrize("field", FORMAT_FIELDS, ids=repr)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_format_matrix_of_zero_and_empty_matrices(field, shape):
    m = ExactMatrix.zeros(field, *shape)
    text = format_matrix(m)
    assert text == format_matrix_dense(m)
    rows, cols = shape
    assert text.split("\n", 1)[1] == ("0 " * (cols - 1) + "0\n" if cols else "\n") * rows


def test_format_matrix_of_int64_extremes():
    # |-2**63| does not fit in int64, over 1 and over a denominator, and nor
    # does a denominator of 2**63 or more over int64 numerators
    big = 2**63 + 1
    for rows in ([[-2**63, 2**63 - 1], [0, -1]], [[Fraction(-2**63, 3), 1], [0, Fraction(2, 3)]],
                 [[Fraction(1, big), 0], [0, Fraction(-5, big)]]):
        m = ExactMatrix(QQ, rows)
        assert m._a.dtype == np.int64
        assert format_matrix(m) == format_matrix_dense(m)


@pytest.mark.parametrize("limit", [1, 40, 200])
def test_format_matrix_writes_a_few_rows_at_a_time_beyond_its_buffer(monkeypatch, limit):
    # a buffer of ``limit`` bytes holds no row, one row or a few
    monkeypatch.setattr(exact, "_TEXT_BYTES", limit)
    rng = np.random.default_rng(limit)
    for m in (ExactMatrix(QQ, mixed_rows(rng, 7, 5)), ExactMatrix.random(GF101, 6, 9, rng),
              ExactMatrix(QQ, [[Fraction(2**70, 3), 0], [0, 1], [-1, Fraction(1, 2**64)]])):
        assert format_matrix(m) == format_matrix_dense(m)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(FORMAT_FIELDS), n=st.integers(1, 2),
       k=st.integers(1, 3))
def test_format_monad_matches_dense_oracle(data, field, n, k):
    shape = st.just(2 * n + 2), st.just(2 * n + 2 * k)
    d = MonadData(n, k, field, tuple(data.draw(sparse_matrices(field, *shape)) for _ in range(k)))
    text = format_monad(d)
    assert text == format_monad_dense(d)
    assert parse_monad(text) == d


def test_writers_make_no_fraction(monkeypatch):
    # entries over a denominator and integer entries are written from the
    # integer array alone: no Fraction is made for either
    vals = [[0, 3, 0, 0], [0, 0, 0, 0], [Fraction(-1, 2), 0, 0, 7], [0, 0, Fraction(5, 3), 0]]
    block, integral = ExactMatrix(QQ, vals), ExactMatrix(QQ, [[0, 3, 0, 0], [-7, 0, 0, 1]] * 2)
    monkeypatch.setattr(exact, "Fraction", None)
    lines = ["0 3 0 0", "0 0 0 0", "-1/2 0 0 7", "0 0 5/3 0"]
    assert format_matrix(block).splitlines()[1:] == lines
    assert format_monad(MonadData(1, 1, QQ, (block,))).splitlines()[2:] == lines
    assert format_monad(MonadData(1, 1, QQ, (integral,))).splitlines()[2:] == \
        ["0 3 0 0", "-7 0 0 1"] * 2


def test_matrix_format_comments_and_errors():
    with pytest.raises(MatrixFormatError, match="^expected 2 entries, got 3: '1 2 3'$"):
        exact.parse_entry_rows(GF101, ["1 2 3"], 2)
    with pytest.raises(MatrixFormatError):
        parse_field("gf:6")
    with pytest.raises(MatrixFormatError):
        parse_field("real")


@pytest.mark.parametrize("spec, row, bad", [
    ("rational", "0.5 1e3 1_000", "0.5"),
    ("rational", "1/2 1e3 1_000", "1e3"),
    ("rational", "1/2 -3 +4", "+4"),
    ("rational", "1/-2 0 0", "1/-2"),
    ("rational", "1/2/3 0 0", "1/2/3"),
    ("gf:7", "1_0 +3 0", "1_0"),
    ("gf:7", "1 2/4 0", "2/4"),
    ("gf:7", "1 2 -", "-"),
])
def test_matrix_entries_outside_the_grammar_are_rejected(spec, row, bad):
    # int() and Fraction() alone would accept decimals, exponents, underscores and '+'
    with pytest.raises(MatrixFormatError, match=f"^bad entry {re.escape(repr(bad))} in "):
        exact.parse_entry_rows(parse_field(spec), ["0 0 0", row], 3)


def test_matrix_entries_in_the_grammar_parse():
    # entries come out canonical: in lowest terms over Q, reduced over GF(p)
    rational = ExactMatrix._wrap(QQ, *exact.parse_entry_rows(QQ, ["-2/4 007 0/5", "1 2 3"], 3))
    assert_canonical(rational)
    assert rational.tolist() == [[Fraction(-1, 2), 7, 0], [1, 2, 3]]
    ints, den = exact.parse_entry_rows(GF(7), ["-1   10\t0", "7 -14 99999999999999999999"], 3)
    assert ints.dtype == np.int64 and den == 1
    assert ints.tolist() == [[6, 3, 0], [0, 0, 99999999999999999999 % 7]]
    message = "bad entry in '1/0 0 0': Fraction(1, 0)"
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(message)}$"):
        exact.parse_entry_rows(QQ, ["0 0 0", "1/0 0 0"], 3)


def test_rational_entries_always_canonical():
    m = ExactMatrix._wrap(QQ, *exact.parse_entry_rows(QQ, ["2/4 -6/3"], 2))
    assert m[0, 0] == Fraction(1, 2)
    assert format_matrix(m).splitlines()[1] == "1/2 -2"
    # a product that cancels exactly: A times a vector of its kernel
    a = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(-1, 3), 2],
                         [Fraction(3, 4), 5, Fraction(-7, 6)]])
    (v,) = a.kernel_basis()
    zero = a @ v
    assert zero.is_zero() and zero.shape == (2, 1)
    assert_canonical(zero)
    assert zero._den == 1 and zero.tolist() == [[Fraction(0)]] * 2


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([3, 7, 101, 2147483629]), r=st.integers(1, 4), c=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
@example(p=101, r=1, c=3, seed=0)
@example(p=7, r=3, c=4, seed=1)
def test_full_row_rank_gf_matches_rank(p, r, c, seed):
    # a stack of dense, sparse and low-rank r x c matrices, one elimination
    # for all; some have a zero row (at r = 1 the whole screen is the last
    # row's nonzero test), some a last row that is a combination of the
    # rows above it, the only dependency, which only the last step can see
    field = GF(p)
    rng = np.random.default_rng(seed)
    stack = []
    for kind in rng.integers(0, 5, size=40):
        m = ExactMatrix.random(field, r, c, rng)
        if kind == 1:
            m = ExactMatrix(field, np.where(rng.random((r, c)) < 0.7, 0, m.tolist()).tolist())
        elif kind == 2 and r > 1:
            inner = int(rng.integers(1, r))
            left = ExactMatrix.random(field, r, inner, rng)
            m = left @ ExactMatrix.random(field, inner, c, rng)
        elif kind == 3:
            rows = m.tolist()
            rows[int(rng.integers(r))] = [0] * c
            m = ExactMatrix(field, rows)
        elif kind == 4 and r > 1:
            top = ExactMatrix.random(field, r - 1, c, rng)
            last = ExactMatrix.random(field, 1, r - 1, rng) @ top
            m = ExactMatrix(field, top.tolist() + last.tolist())
        stack.append(m)
    a = np.array([m.tolist() for m in stack], dtype=np.int64)
    a.flags.writeable = False  # the screen writes only to its own copy
    full = _full_row_rank_gf(a, p)
    assert full.tolist() == [m.rank() == r for m in stack]


# -- delayed reduction in GF(p) elimination against reduction at every step ------

P30 = 2**30 - 35  # largest prime below 2**30: int64 headroom for 4 updates


def assert_echelon_gf_matches_reference(a, p):
    # with det_only an early stop leaves the unfinished rows unreduced; nothing
    # reads them, but they must still be right mod p
    for det_only in (False, True):
        echelon, pivots, det = _echelon_gf(a, p, det_only)
        expected, expected_pivots, expected_det = echelon_gf_reference(a, p, det_only)
        if det_only:
            echelon = echelon % p
        assert echelon.tolist() == expected.tolist()
        assert (pivots, det) == (expected_pivots, expected_det)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 101, 32003, P30, 2147483629]), rows=st.integers(0, 24),
       cols=st.integers(0, 24),
       kind=st.sampled_from(["dense", "sparse", "product", "repeats", "staircase"]),
       seed=st.integers(0, 2**32 - 1))
def test_echelon_gf_matches_reference(p, rows, cols, kind, seed):
    # headroom: 5e17 / 4.5e14 / 4.5e9 / 4 / 1 updates, so at the two largest
    # primes most shapes reduce every update as it is made and the rest delay
    # reduction; products and repeated rows cancel to nonzero multiples of p
    # that must not become pivots
    field = GF(p)
    rng = np.random.default_rng(seed)
    a = field.sample(rng, (rows, cols), 0)
    if kind == "sparse":
        a[rng.random(a.shape) < 0.6] = 0
        if cols:
            a[:, rng.integers(0, cols, size=2)] = 0
    elif kind == "product" and min(rows, cols) >= 2:
        inner = int(rng.integers(1, min(rows, cols)))
        a = field.matmul(field.sample(rng, (rows, inner), 0), field.sample(rng, (inner, cols), 0))
    elif kind == "repeats" and rows >= 2:
        for i in rng.integers(0, rows, size=rows // 2):
            j = int(rng.integers(0, rows))
            a[i] = a[j] * int(rng.integers(1, p)) % p
    elif kind == "staircase" and cols:
        # each row's nonzeros end at a random column and a third of the rows
        # hold one entry: update spans that start late, stop early or are empty
        for i, end in enumerate(rng.integers(1, cols + 1, size=rows)):
            a[i, end:] = 0
            if rng.random() < 0.3:
                a[i, :end - 1] = 0
        a[rng.random(a.shape) < 0.3] = 0
    assert_echelon_gf_matches_reference(a, p)


def _max_growth_lu(rows, cols, p):
    # L * U with unit pivots and every multiplier and pivot-row entry p - 1:
    # each update elimination makes moves an entry by (p - 1)**2, the most it can
    s = min(rows, cols)
    lower = np.tril(np.full((rows, s), p - 1, dtype=np.int64), -1)
    upper = np.triu(np.full((s, cols), p - 1, dtype=np.int64), 1)
    lower[range(s), range(s)] = upper[range(s), range(s)] = 1
    return exact._matmul_gf(lower, upper, p)


@pytest.mark.parametrize("p,headroom", [(P30, 4), (next(exact._crt_primes()), 16),
                                        (2147483629, 1)])
def test_echelon_gf_on_both_sides_of_the_delayed_reduction_switch(p, headroom):
    # reduction is delayed up to min(rows, cols) = headroom and made at every
    # update one above it; square, wide and tall shapes on both sides
    assert exact._INT64_BUDGET // p**2 == headroom
    rng = np.random.default_rng(headroom)
    for s in (headroom, headroom + 1):
        for rows, cols in ((s, s), (s, s + 3), (s + 3, s)):
            assert_echelon_gf_matches_reference(_max_growth_lu(rows, cols, p), p)
            assert_echelon_gf_matches_reference(GF(p).sample(rng, (rows, cols), 0), p)


def test_echelon_gf_matches_reference_on_filled_in_q():
    # random blocks fill Q in during elimination: hundreds of updates reach the
    # same entries, far above the headroom of 4, so each is reduced as it is made
    field = GF(P30)
    rng = np.random.default_rng(7)
    blocks = tuple(ExactMatrix.random(field, 8, 14, rng) for _ in range(4))
    q = build_q(MonadData(3, 4, field, blocks)).matrix
    assert q.shape == (280, 280)
    assert_echelon_gf_matches_reference(q._a, P30)


def test_echelon_gf_matches_reference_on_special_q_near_2_31():
    # the banded special family at order 1260 just below 2**31, a headroom of
    # 1 update: each update is reduced as it is made
    p = 2147483629
    data = gen_special_symplectic(4, 5, GF(p), probe_trials=1, compute_det=False).data
    q = build_q(data).matrix
    assert q.shape == (1260, 1260)
    assert_echelon_gf_matches_reference(q._a, p)
