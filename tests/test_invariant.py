"""The assembled square matrix, its determinant, the syzygy, and the verdicts.

The load-bearing oracle here re-derives the residual Q*S block by block from
the two-case multiplication argument: row blocks indexed by monomials
i_1^{n-1} i_a i_b must equal M_a M_b^t + M_b M_a^t (M_a M_a^t on the
diagonal) and every other row block must vanish, for arbitrary data.
"""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monadlab.exact
import monadlab.invariant
import monadlab.monad
from monadlab import (DEFECT_NONZERO, DEGENERATE, DET_ZERO_BY_SYZYGY, GF,
                      ORTHOGONAL_IDENTITY, QQ, SYMPLECTIC_CANONICAL,
                      ExactMatrix, MonadData, RankProbeVerdict, build_q, build_syzygy,
                      canonical_j, det_q, dimension_identity, gen_isotropic_orthogonal,
                      gen_special_symplectic, isotropic_basis, max_rank_probe,
                      orthogonal_verdict, parse_monad, q_layout, quadratic_defect,
                      random_sl, transform_monad, verify_syzygy)
from monadlab import gens, search_orthogonal
from monadlab.cli import run
from monadlab.gens import _special_blocks

from oracles import (block_of, build_q_blockwise, det_cofactor, layout_entries,
                     quadratic_defect_blockwise, rank_probe_pointwise, residual_fraction,
                     residues_per_block, scaled, stack_data, summed, unitriangular_det,
                     verify_syzygy_fraction)

GF101 = GF(101)
# the rational rank probe screens modulo the first CRT prime
SCREEN_PRIME = next(monadlab.exact._crt_primes())


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
    return summed(ma @ mb.transpose(), mb @ ma.transpose())


def assert_q_s_is(d, residual):
    """``_q_s`` of ``d.stack``, over L**2, is the used block rows of
    ``residual``, Q*S in full, and every other row of ``residual`` is zero."""
    br = d.block_rows
    used, _ = monadlab.invariant._syzygy_rows(d.n, d.k)
    rows = (used[:, None] * br + np.arange(br)).ravel().tolist()
    got = monadlab.invariant._q_s(d.field, d.stack).tolist()
    expected = residual.tolist()
    assert [[d.field.coerce(Fraction(x, d.scale**2)) for x in row] for row in got] \
        == [expected[i] for i in rows]
    assert not any(any(row) for i, row in enumerate(expected) if i not in set(rows))


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
    q, expected = build_q(d).matrix, build_q_blockwise(d)
    for count in range(1, math.comb(k + n - 1, n) + 1):
        width = count * d.block_cols
        assert block_of(q, 0, 0, q.rows, width) == block_of(expected, 0, 0, q.rows, width)


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
def test_special_family_q_is_permuted_unitriangular(eliminations, k):
    # k = 1 stops at n = 24: its Q is the single block M_1, and the 605 dense
    # ones up to order 1260 would cost seconds for no new pattern.  Expansion
    # along rows of one nonzero takes all of a permuted unitriangular Q, and
    # all of either canonical pairing, so neither is ever eliminated
    signs = SPECIAL_DET_SIGNS[k]
    assert dimension_identity(len(signs) + 1, k)[0] > 1260 or len(signs) == 24
    for n, sign in enumerate(signs, start=1):
        order = dimension_identity(n, k)[0]
        field = QQ if order <= 280 else GF(P31)
        q = build_q(MonadData(n, k, field, _special_blocks(n, k, field))).matrix
        det = unitriangular_det(q)
        assert det == (1 if sign == "+" else -1), (n, k)
        assert q.det() == field.coerce(det), (n, k)
        for kind in (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL):
            assert field.det(canonical_j(kind, n, k, field)._a) != 0
    assert eliminations == []


@pytest.mark.parametrize("name, primes", [("special_scaled_n1k2_rational.mnd", 5),
                                          ("dependent_n1k2_rational.mnd", 8),
                                          ("random_n1k1_rational.mnd", 2)])
def test_det_q_of_the_golden_rational_inputs_takes_as_few_crt_primes(monkeypatch, name, primes):
    # rows divided by their content keep the Hadamard bound of rows cleared
    # one by one, so one denominator for all of Q costs no extra prime
    d = parse_monad((Path(__file__).parent / "golden" / "cli" / "inputs" / name).read_text())
    det_gf, calls = monadlab.exact._det_gf, []
    monkeypatch.setattr(monadlab.exact, "_det_gf", lambda a, p: calls.append(p) or det_gf(a, p))
    det_q(d)
    assert len(calls) == primes


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
    # the product verify_syzygy tests, over Q's first k block columns, is the
    # whole Q*S (at n = 1, s = k and S has no zero block rows)
    rng = np.random.default_rng(100 * n + k)
    for field in (GF101, GF(7), QQ):
        d = random_data(n, k, field, rng)
        residual = build_q(d).matrix @ build_syzygy(d).matrix
        assert_q_s_is(d, residual)
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
    # row blocks verify_syzygy multiplies.  _syzygy_rows, the verdict's check
    # of the same lemma, accepts every shape and gives those row blocks
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
            used, places = monadlab.invariant._syzygy_rows(n, k)
            assert used.tolist() == sorted(i - 1 for i in expected)
            assert (used[places] == layout.table[:k]).all()
            shapes += 1
        if n == 1:
            break
    assert shapes == 1341


# p = 1 mod 4 (5, 13, 101) and p = 3 mod 4 (7, 32003) reach isotropic_basis
@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from([GF(5), GF(7), GF(13), GF101, GF(32003), QQ]),
       n=st.integers(1, 3), k=st.integers(1, 4),
       kind=st.sampled_from(["isotropic", "random", "moved"]), perturbed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(field=QQ, n=3, k=4, kind="moved", perturbed=False, seed=0)
@example(field=GF(7), n=1, k=1, kind="moved", perturbed=True, seed=1)
@example(field=GF(32003), n=3, k=4, kind="isotropic", perturbed=True, seed=2)
def test_q_s_is_zero_exactly_when_the_defects_are(field, n, k, kind, perturbed, seed):
    # the oracle of the verdict's per-shape lemma: Q*S, as verify_syzygy forms
    # it, vanishes iff the identity-pairing defects do, pair by pair.  Over
    # GF(p) the base is an isotropic draw; over Q, where M * M^t = 0 forces
    # M = 0, it is zero data.  "moved" adds e to entry (0, 0) of one block,
    # which makes entry (0, 0) of M_a * M_a^t e * (2m + e) != 0
    rng = np.random.default_rng(seed)
    if kind == "random":
        d = random_data(n, k, field, rng)
    else:
        if field.is_prime_field:
            span = isotropic_basis(field, 2 * n + 2 * k)
            stack = gens._isotropic_stack(n, k, span, gens._seed_sequences([seed]), [perturbed])[0]
        else:
            stack = zero_data(n, k, field).stack.copy()
        if kind == "moved":
            a = int(rng.integers(k))
            m = int(stack[a, 0, 0])
            e = 2 if field.p and (2 * m + 1) % field.p == 0 else 1
            stack[a, 0, 0] = m + e if field.p is None else (m + e) % field.p
        d = stack_data(n, k, field, stack)
    defects = quadratic_defect_blockwise(d, canonical_j(ORTHOGONAL_IDENTITY, n, k, field))
    zero_defects = all(m.is_zero() for _, _, m in defects)
    if kind != "random":
        assert zero_defects == (kind == "isotropic")
    assert (not monadlab.invariant._q_s(field, d.stack).any()) == zero_defects
    verdict = orthogonal_verdict(d)
    assert (verdict.status == DET_ZERO_BY_SYZYGY) == (zero_defects and not d.is_zero())


@pytest.fixture
def q_s_calls(monkeypatch):
    """The calls of ``invariant._q_s`` from here on, as their stacks' shapes."""
    calls = []
    q_s = monadlab.invariant._q_s

    def counting(field, stack):
        calls.append(stack.shape)
        return q_s(field, stack)

    monkeypatch.setattr(monadlab.invariant, "_q_s", counting)
    return calls


def test_only_verify_syzygy_forms_q_s(tmp_path, capsys, q_s_calls):
    # no verdict, generator or search path multiplies Q*S; only verify_syzygy
    # does, and syzygy --verify through it, once for its one data
    iso = str(tmp_path / "iso.mnd")
    assert run(["gen", "isotropic", "--n", "2", "--k", "3", "--out", iso]) == 0
    made = gen_isotropic_orthogonal(2, 3, 101, seed=0).data
    counts = {}

    def count(path, action):
        before = len(q_s_calls)
        action()
        counts[path] = len(q_s_calls) - before

    count("orthogonal_verdict", lambda: orthogonal_verdict(MonadData(2, 3, made.field,
                                                                     made.blocks)))
    count("gen_isotropic_orthogonal", lambda: gen_isotropic_orthogonal(3, 4, 101, seed=1))
    count("search_orthogonal", lambda: (search_orthogonal(2, 4, 101, 25, 0),
                                        search_orthogonal(1, 1, 7, 25, 3)))
    count("check --form orthogonal", lambda: run(["check", "--in", iso, "--form", "orthogonal"]))
    count("verify_syzygy", lambda: verify_syzygy(MonadData(2, 3, made.field, made.blocks)))
    count("syzygy --verify", lambda: run(["syzygy", "--in", iso, "--verify"]))
    assert counts == {"orthogonal_verdict": 0, "gen_isotropic_orthogonal": 0,
                      "search_orthogonal": 0, "check --form orthogonal": 0,
                      "verify_syzygy": 1, "syzygy --verify": 1}
    assert q_s_calls == [(3, 6, 10)] * 2


def test_the_lemma_is_checked_once_per_shape():
    lemma = monadlab.invariant._syzygy_rows
    lemma.cache_clear()
    for seed in range(10):
        for n, k in ((1, 2), (2, 3)):
            d = gen_isotropic_orthogonal(n, k, 101, seed).data  # one verdict inside
            assert orthogonal_verdict(d).status == DET_ZERO_BY_SYZYGY
    search_orthogonal(1, 2, 101, 30, 0)  # 30 nonzero trials with zero defects
    info = lemma.cache_info()
    assert (info.misses, info.hits) == (2, 10 * 2 * 2 + 30 - 2)


@pytest.mark.parametrize("table", [[[1, 0], [1, 2]], [[0, 1], [1, 0]]])
def test_the_lemma_rejects_a_layout_that_breaks_it(monkeypatch, table):
    # at n = 1, k = 2 an asymmetric table, and a symmetric one that puts
    # M_1*M_1^t and M_2*M_2^t in one row block; the cache is bypassed
    layout = q_layout(1, 2)
    assert layout.table.tolist() == [[0, 1], [1, 2]]
    monkeypatch.setattr(monadlab.invariant, "q_layout",
                        lambda n, k: dataclasses.replace(layout, table=np.array(table)))
    with pytest.raises(RuntimeError, match="^syzygy argument violated: "):
        monadlab.invariant._syzygy_rows.__wrapped__(1, 2)


def test_a_broken_lemma_fails_only_the_verdicts_that_read_it(broken_lemma):
    # zero data and data with a nonzero defect never reach the lemma
    message = "^syzygy argument violated: quadratic conditions hold but Q\\*S != 0; this is a bug$"
    with pytest.raises(RuntimeError, match=message):
        gen_isotropic_orthogonal(1, 2, 101, seed=0)
    assert orthogonal_verdict(zero_data(1, 2)).status == DEGENERATE
    symplectic = MonadData(1, 2, GF101, _special_blocks(1, 2, GF101))
    assert orthogonal_verdict(symplectic).status == DEFECT_NONZERO


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
    rational = MonadData(n, k, QQ, tuple(ExactMatrix(QQ, b) for b in blocks))
    product = monadlab.invariant._q_s(QQ, rational.stack)  # L**2 times Q*S, used rows only
    assert product.shape == (k * (k + 1) // 2 * (2 * n + 2), 2 * n + 2) and product.any()
    assert not verify_syzygy(rational).residual_is_zero
    for p in (101, 32003):
        def mod_p(x):
            x = Fraction(x)
            return x.numerator * pow(x.denominator, -1, p) % p

        field = GF(p)
        reduced = tuple(ExactMatrix(field, [[mod_p(x) for x in row] for row in b])
                        for b in blocks)
        modular = monadlab.invariant._q_s(field, MonadData(n, k, field, reduced).stack)
        assert [[mod_p(Fraction(x, rational.scale**2)) for x in row] for row in product.tolist()] \
            == modular.tolist()


def test_verify_syzygy_does_not_build_all_of_q(monkeypatch):
    def refuse(d):
        raise AssertionError("verify_syzygy built all of Q")

    for field in (GF101, QQ):
        d = random_data(2, 3, field, np.random.default_rng(23))
        residual = build_q_blockwise(d) @ build_syzygy(d).matrix
        expected = verify_syzygy_fraction(d)
        with monkeypatch.context() as m:
            m.setattr(monadlab.invariant, "build_q", refuse)
            assert verify_syzygy(d) == expected
            assert_q_s_is(d, residual)


@pytest.mark.parametrize("field", [GF101, QQ])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 4), (3, 4), (4, 5)])
def test_verify_syzygy_multiplies_only_the_block_rows_that_hold_a_block(
        field, n, k, monkeypatch):
    # Q's first k block columns have a block only in the k(k+1)/2 block rows
    # i_1^{n-1} i_a i_b (every block row at n = 1); only those are multiplied,
    # by the integer product Field.matmul, and nothing else is
    d = random_data(n, k, field, np.random.default_rng(7 * n + k))
    residual = build_q_blockwise(d) @ build_syzygy(d).matrix
    monadlab.monad._nonzero_defects(d, ORTHOGONAL_IDENTITY)  # its products run now, unspied
    shapes = []

    def spying(name):
        product = getattr(monadlab.exact.Field, name)

        def spy(self, a, b):
            shapes.append((a.shape, b.shape))
            return product(self, a, b)
        monkeypatch.setattr(monadlab.exact.Field, name, spy)

    spying("matmul")
    verify_syzygy(d)
    used = k * (k + 1) // 2 * d.block_rows
    assert shapes == [((used, k * d.block_cols), (k * d.block_cols, d.block_rows))]
    assert_q_s_is(d, residual)
    if n == 1:
        assert used == residual.rows


@st.composite
def rational_data(draw):
    """Rational data with mixed denominators, for the integer ``stack`` against
    the Fraction path.  Density 0 gives zero data; with ``big`` numerators beyond
    2**62 the integer form is an object array and Q*S runs in Python ints; the
    screen prime is a denominator in at most one block, which makes every other
    block's integer form zero modulo it; a last block that is a multiple of
    the first drops the rank of A at every point."""
    n, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    big = draw(st.booleans())
    screened = draw(st.sampled_from([None, *range(k)]))

    def entry(b):
        if rng.random() >= density:
            return 0
        num = int(rng.integers(-9, 10)) * (2**62 if big else 1) + int(rng.integers(-3, 4))
        return Fraction(num, int(rng.choice([1, 2, 3, 4, 9] + [SCREEN_PRIME] * (b == screened))))

    blocks = [ExactMatrix(QQ, [[entry(b) for _ in range(2 * n + 2 * k)]
                               for _ in range(2 * n + 2)]) for b in range(k)]
    if k > 1 and draw(st.booleans()):
        blocks[-1] = scaled(blocks[0], Fraction(-2, 3))
    return MonadData(n, k, QQ, tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(d=rational_data(), kind=st.sampled_from([ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL]),
       trials=st.integers(1, 12), box=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_integer_form_matches_the_fraction_path(d, kind, trials, box, seed):
    # Q*S and the defect flags from d.stack, is_zero and the screen on d.stack
    # mod q give what the Fraction blocks give: Q*S entry for entry, the
    # nonzero defects of both pairings, the report, the verdict and the probe
    blocks = [b.tolist() for b in d.blocks]
    scale = math.lcm(*(x.denominator for b in blocks for row in b for x in row))
    assert d.scale == scale
    assert d.stack.tolist() == [[[x * scale for x in row] for row in b] for b in blocks]
    assert_q_s_is(d, residual_fraction(d))
    for each in (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL):
        defects = quadratic_defect(d, canonical_j(each, d.n, d.k, QQ))
        assert monadlab.monad._nonzero_defects(d, each) == \
            tuple((a, b) for a, b, m in defects if not m.is_zero())
    assert verify_syzygy(d) == verify_syzygy_fraction(d)
    j = canonical_j(kind, d.n, d.k, QQ)
    verdict, probe = orthogonal_verdict(d), max_rank_probe(d, j, trials, seed, box=box)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(MonadData, "is_zero", lambda self: all(b.is_zero() for b in self.blocks))
        m.setattr(monadlab.monad, "_residues", residues_per_block)
        assert orthogonal_verdict(d) == verdict
        assert max_rank_probe(d, j, trials, seed, box=box) == probe
    assert probe == rank_probe_pointwise(d, j, trials, seed, box)


def test_q_s_and_the_screen_over_q_clear_no_denominator_after_construction(monkeypatch):
    # the data puts its blocks over one denominator once, when it is built;
    # Q*S, the defect flags and the probe's screen read that integer stack, and
    # the special family passes the screen at every point, so no point needs
    # the exact test, and no Fraction is stored or made
    n, k = 2, 3
    blocks = gen_special_symplectic(n, k, QQ, probe_trials=1, compute_det=False).data.blocks
    d = MonadData(n, k, QQ, tuple(scaled(b, Fraction(2, 3 + i)) for i, b in enumerate(blocks)))
    j = canonical_j(SYMPLECTIC_CANONICAL, n, k, QQ)
    j.det()  # kept by the memoised pairing
    expected = verify_syzygy_fraction(d)

    def refuse(*args):
        raise AssertionError("Fractions stored or made after construction")

    monkeypatch.setattr(monadlab.exact.Field, "store", refuse)
    monkeypatch.setattr(monadlab.exact, "Fraction", refuse)
    assert verify_syzygy(d) == expected
    assert max_rank_probe(d, j, trials=50, seed=0) == RankProbeVerdict(True, 50)


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
    blocks = (summed(base.blocks[0], bump),) + base.blocks[1:]
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


def test_orthogonal_verdict_twice_never_eliminates_q(monkeypatch):
    # the verdict's proof of det Q = 0 is the per-shape lemma; only det_q
    # eliminates Q
    made = gen_isotropic_orthogonal(1, 2, 101, seed=4).data
    d = MonadData(made.n, made.k, made.field, made.blocks)  # nothing computed yet
    calls = {"echelon": 0, "det": 0, "defects": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(monadlab.exact, "_echelon_gf", "echelon")
    counting(monadlab.exact, "_det_gf", "det")
    counting(monadlab.monad, "_defect_pairs", "defects")
    first, second = orthogonal_verdict(d), orthogonal_verdict(d)
    assert first == second
    assert first.status == DET_ZERO_BY_SYZYGY
    assert verify_syzygy(d).defects_all_zero
    assert calls == {"echelon": 0, "det": 0, "defects": 1}
    assert det_q(d) == 0
    assert calls == {"echelon": 1, "det": 1, "defects": 1}


def test_memo_leaves_equality_and_hash_alone():
    made = gen_isotropic_orthogonal(1, 2, 101, seed=4).data  # its verdict filled the memo
    fresh = MonadData(made.n, made.k, made.field, made.blocks)
    assert made._memo and not fresh._memo
    assert made == fresh
    assert hash(made) == hash(fresh)
    assert repr(made) == repr(fresh)
