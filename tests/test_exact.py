"""Exact field and matrix arithmetic, determinants, rank, kernels, text format."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monadlab import (GF, QQ, ExactMatrix, Field, MatrixFormatError, MonadData, build_q,
                      format_matrix, gen_special_symplectic, hstack, parse_field,
                      parse_matrix, vstack)
from monadlab.exact import _echelon_gf, _full_row_rank_gf
from oracles import det_cofactor, echelon_gf_reference, matmul_naive

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


def test_mat_mul_large_prime_chunking():
    # near the 2**31 modulus bound, dot products must not overflow int64
    p = GF(2147483629)
    rng = np.random.default_rng(5)
    a = ExactMatrix.random(p, 4, 30, rng)
    b = ExactMatrix.random(p, 30, 4, rng)
    assert (a @ b).tolist() == matmul_naive(a, b)


def rational_matrix(rng, rows, cols):
    """Entries n/d with n in [-20, 20] and d in [1, 12], mixed within rows and columns."""
    if rows == 0:
        return ExactMatrix.zeros(QQ, 0, cols)
    nums = rng.integers(-20, 21, size=(rows, cols)).tolist()
    dens = rng.integers(1, 13, size=(rows, cols)).tolist()
    return ExactMatrix(QQ, [[Fraction(n, d) for n, d in zip(rn, rd)]
                            for rn, rd in zip(nums, dens)])


def assert_canonical_fractions(m):
    for x in m._a.flat:
        assert type(x) is Fraction
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


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
        assert_canonical_fractions(got)


@pytest.mark.parametrize("field", [GF101, GF(2147483629)])
@pytest.mark.parametrize("shape", [(3, 0, 4), (0, 3, 4), (3, 4, 0), (0, 0, 0)])
def test_mat_mul_gf_zero_sizes(field, shape):
    r, c, c2 = shape
    rng = np.random.default_rng(0)
    got = ExactMatrix.random(field, r, c, rng) @ ExactMatrix.random(field, c, c2, rng)
    assert got == ExactMatrix.zeros(field, r, c2)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 5))
def test_det_of_rational_product_is_product_of_dets(data, n):
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = (ExactMatrix(QQ, data.draw(square)) if n else ExactMatrix.zeros(QQ, 0, 0)
            for _ in range(2))
    product = a @ b
    assert_canonical_fractions(product)
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


@settings(max_examples=200, deadline=None)
@given(m=matrices())
def test_rank_and_kernel_basis_match_sympy(sympy_oracle, m):
    # both bases have one vector per free column f, zero at the other free
    # columns and at every column after f; sympy may scale a vector, so its
    # last nonzero entry (at f) is divided out to get 1 there as ours has
    to_sympy, from_sympy = sympy_oracle
    dm = to_sympy(m)
    assert m.rank() == dm.rank()
    expected = []
    for row in dm.nullspace().to_list():
        last = next(x for x in reversed(row) if x)
        expected.append([from_sympy(m.field, x / last) for x in row])
    assert [v.transpose().row_list(0) for v in m.kernel_basis()] == expected


# -- the scalars an elimination leaves on the matrix ------------------------------


@pytest.fixture
def echelon_calls(monkeypatch):
    """The det_only flag of every Field.echelon call from here on."""
    calls = []
    original = Field.echelon

    def counting(self, a, det_only=False):
        calls.append(det_only)
        return original(self, a, det_only)

    monkeypatch.setattr(Field, "echelon", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, GF101])
def test_det_then_rank_of_nonsingular_matrix_eliminates_once(echelon_calls, field):
    m = ExactMatrix(field, [[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m.det() == det_cofactor(m) != 0
    assert m.rank() == 3
    assert m.det() == det_cofactor(m)
    assert echelon_calls == [True]


def test_rank_after_det_of_singular_matrix_eliminates_fully(echelon_calls):
    # det stops at the first column without a pivot, before the rank is known
    rng = np.random.default_rng(3)
    for size, inner in [(3, 1), (6, 4), (9, 5), (9, 8)]:
        a = GF101.matmul(GF101.sample(rng, (size, inner), 0), GF101.sample(rng, (inner, size), 0))
        m = ExactMatrix(GF101, a.tolist())
        del echelon_calls[:]
        assert m.det() == 0
        assert m.rank() == len(echelon_gf_reference(a, 101, False)[1]) == inner
        assert m.rank() == inner and m.det() == 0
        assert echelon_calls == [True, False]
    m = ExactMatrix(QQ, [[0, 1, 2], [0, 3, 4], [0, 5, 7]])
    del echelon_calls[:]
    assert m.det() == 0 == det_cofactor(m)
    assert m.rank() == 2
    assert echelon_calls == [True, False]


def test_kernel_basis_leaves_rank_and_det():
    m = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert len(m.kernel_basis()) == 1
    assert m._elim[:2] == (2, 0)
    assert m.rank() == 2 and m.det() == 0 == det_cofactor(m)


ELIMINATION_OPS = ["det", "rank", "kernel_basis"]


@settings(max_examples=200, deadline=None)
@given(m=matrices(), order=st.lists(st.sampled_from(ELIMINATION_OPS), max_size=6))
def test_any_call_order_matches_a_fresh_matrix(m, order):
    for name in order:
        if name == "det" and m.rows != m.cols:
            continue
        fresh = ExactMatrix._wrap(m.field, m._a.copy())
        assert getattr(m, name)() == getattr(fresh, name)()


def test_elimination_keeps_no_array():
    data = gen_special_symplectic(2, 3, GF(32003), probe_trials=1, compute_det=False).data
    for m in (build_q(data).matrix, ExactMatrix(QQ, [[1, 2], [2, 4]])):
        m.det()
        m.rank()
        m.kernel_basis()
        count, det, complete = m._elim
        assert type(count) is int and type(complete) is bool
        assert type(det) in (int, Fraction)


def test_block_helpers():
    a = ExactMatrix(QQ, [[1, 2], [3, 4]])
    b = ExactMatrix(QQ, [["1/2", 0], [5, -1]])
    z = ExactMatrix.zeros(QQ, 2, 2)
    big = vstack([hstack([a, z]), hstack([b, a])])
    assert big.block(0, 0, 2, 2) == a
    assert big.block(0, 1, 2, 2).is_zero()
    assert big.block(1, 0, 2, 2) == b
    assert big.block(1, 1, 2, 2) == a
    with pytest.raises(ValueError, match="hstack row mismatch"):
        hstack([a, ExactMatrix.zeros(QQ, 3, 2)])
    with pytest.raises(ValueError, match="vstack column mismatch"):
        vstack([a, ExactMatrix.zeros(QQ, 2, 3)])
    with pytest.raises(ValueError, match="field mismatch"):
        hstack([a, ExactMatrix.zeros(GF101, 2, 2)])


# -- text format ---------------------------------------------------------------


def test_matrix_format_round_trip():
    m = ExactMatrix(QQ, [["1/2", 3], [-2, "7/5"]])
    text = format_matrix(m)
    assert text.splitlines()[0] == "matrix rows=2 cols=2 field=rational"
    assert parse_matrix(text) == m
    assert format_matrix(parse_matrix(text)) == text

    g = ExactMatrix(GF(13), [[0, 12, 5]])
    text = format_matrix(g)
    assert "field=gf:13" in text
    assert parse_matrix(text) == g


def test_matrix_format_comments_and_errors():
    text = "# a comment\nmatrix rows=1 cols=2 field=gf:101\n# another\n3 4\n"
    m = parse_matrix(text)
    assert m.tolist() == [[3, 4]]

    with pytest.raises(MatrixFormatError):
        parse_matrix("not a matrix\n1 2\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("matrix rows=1 cols=2 field=gf:101\n1 2 3\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("matrix rows=2 cols=2 field=gf:101\n1 2\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("matrix rows=1 cols=1 field=gf:6\n1\n")
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
    text = f"matrix rows=1 cols=3 field={spec}\n{row}\n"
    with pytest.raises(MatrixFormatError, match=f"^bad entry {re.escape(repr(bad))} in "):
        parse_matrix(text)


def test_matrix_entries_in_the_grammar_parse():
    assert parse_matrix("matrix rows=1 cols=3 field=rational\n-2/4 007 0/5\n").tolist() == \
        [[Fraction(-1, 2), 7, 0]]
    assert parse_matrix("matrix rows=1 cols=3 field=gf:7\n-1   10\t0\n").tolist() == [[6, 3, 0]]
    with pytest.raises(MatrixFormatError, match="bad entry in"):
        parse_matrix("matrix rows=1 cols=3 field=rational\n1/0 0 0\n")


def test_rational_entries_always_canonical():
    m = parse_matrix("matrix rows=1 cols=2 field=rational\n2/4 -6/3\n")
    assert m[0, 0] == Fraction(1, 2)
    assert format_matrix(m).splitlines()[1] == "1/2 -2"


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([3, 7, 101, 2147483629]), r=st.integers(1, 4), c=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_full_row_rank_gf_matches_rank(p, r, c, seed):
    # a stack of dense, sparse and low-rank r x c matrices, one elimination for all
    field = GF(p)
    rng = np.random.default_rng(seed)
    stack = []
    for kind in rng.integers(0, 3, size=40):
        m = ExactMatrix.random(field, r, c, rng)
        if kind == 1:
            m = ExactMatrix(field, np.where(rng.random((r, c)) < 0.7, 0, m.tolist()).tolist())
        elif kind == 2 and r > 1:
            inner = int(rng.integers(1, r))
            left = ExactMatrix.random(field, r, inner, rng)
            m = left @ ExactMatrix.random(field, inner, c, rng)
        stack.append(m)
    full = _full_row_rank_gf(np.array([m.tolist() for m in stack], dtype=np.int64), p)
    assert full.tolist() == [m.rank() == r for m in stack]


# -- delayed reduction in GF(p) elimination against reduction at every step ------

P30 = 2**30 - 35  # largest prime below 2**30: an overflow budget of 8 updates


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
       cols=st.integers(0, 24), kind=st.sampled_from(["dense", "sparse", "product", "repeats"]),
       seed=st.integers(0, 2**32 - 1))
def test_echelon_gf_matches_reference(p, rows, cols, kind, seed):
    # budgets: 1e18 / 9e14 / 9e9 / 8 / 2 updates, so at the two largest primes
    # the trailing block is reduced mid-elimination; products and repeated
    # rows cancel to nonzero multiples of p that must not become pivots
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
    assert_echelon_gf_matches_reference(a, p)


def test_echelon_gf_matches_reference_on_filled_in_q():
    # random blocks fill Q in during elimination: hundreds of updates reach the
    # same entries, so the budget of 8 forces many reductions of the trailing block
    field = GF(P30)
    rng = np.random.default_rng(7)
    blocks = tuple(ExactMatrix.random(field, 8, 14, rng) for _ in range(4))
    q = build_q(MonadData(3, 4, field, blocks)).matrix
    assert q.shape == (280, 280)
    assert_echelon_gf_matches_reference(q._a, P30)


def test_echelon_gf_matches_reference_on_special_q_near_2_31():
    # the banded special family at order 1260 just below 2**31, a budget of 2
    # updates: the trailing block is reduced about every other update, each
    # time through the rows an update touched and no others
    p = 2147483629
    data = gen_special_symplectic(4, 5, GF(p), probe_trials=1, compute_det=False).data
    q = build_q(data).matrix
    assert q.shape == (1260, 1260)
    assert_echelon_gf_matches_reference(q._a, p)
