"""Monad data model: assembly, evaluation, defects, probes, Chern series, I/O."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monadlab import (GF, QQ, ExactMatrix, MatrixFormatError, MonadData,
                      Point, RankProbeVerdict, canonical_j, chern_coefficients,
                      defects_vanish, evaluate_a, format_monad, max_rank_probe,
                      parse_monad, quadratic_defect, random_sl)
from monadlab import ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL
from monadlab import exact, monad
from monadlab.monad import _draw_points

from oracles import (block_matrix, distinct_points_pointwise, pairing_rows,
                     quadratic_defect_blockwise, rank_probe_pointwise, scaled, summed)

GF101 = GF(101)
# the rational rank probe screens modulo the first CRT prime
SCREEN_PRIME = next(exact._crt_primes())


def zero_data(n, k, field=GF101):
    blk = ExactMatrix.zeros(field, 2 * n + 2, 2 * n + 2 * k)
    return MonadData(n, k, field, (blk,) * k)


def random_data(n, k, field, rng):
    blocks = tuple(ExactMatrix.random(field, 2 * n + 2, 2 * n + 2 * k, rng)
                   for _ in range(k))
    return MonadData(n, k, field, blocks)


def test_monad_data_validation():
    with pytest.raises(ValueError):
        MonadData(0, 1, GF101, ())
    with pytest.raises(ValueError):
        MonadData(1, 2, GF101, (ExactMatrix.zeros(GF101, 4, 8),))
    with pytest.raises(ValueError):
        MonadData(1, 1, GF101, (ExactMatrix.zeros(GF101, 4, 5),))
    with pytest.raises(ValueError):
        MonadData(1, 1, GF101, (ExactMatrix.zeros(QQ, 4, 4),))


def test_evaluate_a_identity_block():
    d = MonadData(1, 1, QQ, (ExactMatrix.identity(QQ, 4),))
    x = Point.of(QQ, [5, -1, 2, 7])
    assert evaluate_a(d, x).tolist() == [[5, -1, 2, 7]]


def test_evaluate_a_symplectic_block():
    j = canonical_j(SYMPLECTIC_CANONICAL, 1, 1, QQ)
    d = MonadData(1, 1, QQ, (j,))
    x = Point.of(QQ, [3, 4, 5, 6])
    # x^t [[0, I], [-I, 0]] = (-x_2, -x_3, x_0, x_1)
    assert evaluate_a(d, x).tolist() == [[-5, -6, 3, 4]]


@pytest.mark.parametrize("field", [QQ, GF101])
@pytest.mark.parametrize("kind", [ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_j_matches_its_entrywise_definition(field, kind, n, k):
    size = 2 * n + 2 * k
    assert canonical_j(kind, n, k, field).tolist() == pairing_rows(kind, size, field)


def test_evaluate_a_coordinate_selection():
    rng = np.random.default_rng(2)
    d = random_data(1, 3, GF101, rng)
    e1 = Point.of(GF101, [1, 0, 0, 0])
    a = evaluate_a(d, e1)
    for j in range(3):
        assert a.tolist()[j] == d.blocks[j].tolist()[0]


def test_evaluate_a_against_assembled_matrix():
    # stacking the rows x^t M_j equals (I_k (x) x^t) times the stacked blocks
    rng = np.random.default_rng(3)
    for field in (GF101, QQ):
        d = random_data(2, 3, field, rng)
        x = Point.of(field, rng.integers(1, 11, size=6).tolist())
        xr = ExactMatrix(field, [x.coords])
        zero = ExactMatrix.zeros(field, 1, 6)
        selector = block_matrix([[xr if i == j else zero for j in range(3)] for i in range(3)])
        assert evaluate_a(d, x) == selector @ block_matrix([[b] for b in d.blocks])


def test_evaluate_a_errors():
    d = zero_data(1, 1)
    with pytest.raises(ValueError):
        evaluate_a(d, Point.of(QQ, [1, 0, 0, 0]))
    with pytest.raises(ValueError):
        evaluate_a(d, Point.of(GF101, [1, 0, 0]))


def test_point_validation():
    with pytest.raises(ValueError):
        Point.of(QQ, [0, 0, 0])
    with pytest.raises(ValueError):
        Point.of(GF101, [101, 202])  # zero after reduction


def test_quadratic_defect_zero_data():
    for kind in (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL):
        j = canonical_j(kind, 1, 3, GF101)
        defects = quadratic_defect(zero_data(1, 3), j)
        assert len(defects) == 6  # pairs with a <= b
        assert defects_vanish(defects)


def test_quadratic_defect_skew_identity_block():
    # with one block equal to I, the skew defect is J + J^t = 0
    j = canonical_j(SYMPLECTIC_CANONICAL, 1, 1, QQ)
    d = MonadData(1, 1, QQ, (ExactMatrix.identity(QQ, 4),))
    ((a, b, mat),) = quadratic_defect(d, j)
    assert (a, b) == (1, 1)
    assert mat.is_zero()


def test_quadratic_defect_isotropic_row_gf5():
    # the row (1, 2, 0, 0) has 1 + 4 = 0 mod 5, so M M^t vanishes outright
    g5 = GF(5)
    row = [1, 2, 0, 0]
    d = MonadData(1, 1, g5, (ExactMatrix(g5, [row] * 4),))
    eye = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, g5)
    ((_, _, mat),) = quadratic_defect(d, eye)
    assert mat.is_zero()


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from([GF101, GF(2147483629), QQ]), n=st.integers(1, 2),
       k=st.integers(1, 4), shape=st.sampled_from(["symmetric", "skew", "general"]),
       seed=st.integers(0, 2**32 - 1))
def test_quadratic_defect_matches_blockwise_oracle(field, n, k, shape, seed):
    # one product V * J * V^t symmetrised in one operation, against each pair's own products
    rng = np.random.default_rng(seed)
    d = random_data(n, k, field, rng)
    g = ExactMatrix.random(field, d.block_cols, d.block_cols, rng)
    if not field.is_prime_field:  # non-integer blocks and pairing
        d = MonadData(n, k, field, tuple(scaled(b, Fraction(1, j + 2))
                                         for j, b in enumerate(d.blocks)))
        g = scaled(g, Fraction(2, 3))
    j = {"symmetric": summed(g, g.transpose()), "skew": summed(g, scaled(g.transpose(), -1)),
         "general": g}[shape]
    assert quadratic_defect(d, j) == quadratic_defect_blockwise(d, j)


def _pointwise_values(d, j, rng, count):
    out = []
    for _ in range(count):
        x = Point.of(d.field, rng.integers(1, 11, size=d.block_rows).tolist())
        a = evaluate_a(d, x)
        out.append(a @ j @ a.transpose())
    return out


def test_vanishing_defects_imply_pointwise_zero():
    # zero direction of the equivalence, on data built to satisfy it
    from monadlab import gen_isotropic_orthogonal, gen_special_symplectic
    rng = np.random.default_rng(55)

    iso = gen_isotropic_orthogonal(1, 2, 11, seed=1).data
    eye = canonical_j(ORTHOGONAL_IDENTITY, 1, 2, iso.field)
    assert defects_vanish(quadratic_defect(iso, eye))
    assert all(v.is_zero() for v in _pointwise_values(iso, eye, rng, 20))

    sp = gen_special_symplectic(1, 2, GF(11), probe_trials=5).data
    skew = canonical_j(SYMPLECTIC_CANONICAL, 1, 2, sp.field)
    assert defects_vanish(quadratic_defect(sp, skew))
    assert all(v.is_zero() for v in _pointwise_values(sp, skew, rng, 20))


@pytest.mark.parametrize("kind", [ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL])
def test_nonzero_defect_has_witness_point(kind):
    # nonzero direction: a witness point where A J A^t != 0 shows up within
    # 50 samples with overwhelming probability (seed fixed)
    rng = np.random.default_rng(56)
    g = GF(11)
    j = canonical_j(kind, 1, 2, g)
    tried = 0
    for _ in range(10):
        d = random_data(1, 2, g, rng)
        if defects_vanish(quadratic_defect(d, j)):
            continue
        tried += 1
        assert any(not v.is_zero() for v in _pointwise_values(d, j, rng, 50))
    assert tried >= 5  # random draws generically violate the conditions


def test_max_rank_probe_ok_for_coordinate_row():
    d = MonadData(1, 1, QQ, (ExactMatrix.identity(QQ, 4),))
    j = canonical_j(SYMPLECTIC_CANONICAL, 1, 1, QQ)
    verdict = max_rank_probe(d, j, trials=30, seed=7)
    assert verdict.ok and verdict.counterexample is None
    assert verdict.points_tested == 30


def test_max_rank_probe_zero_data():
    d = zero_data(2, 2)
    j = canonical_j(ORTHOGONAL_IDENTITY, 2, 2, GF101)
    verdict = max_rank_probe(d, j, trials=5, seed=0)
    assert not verdict.ok
    assert verdict.counterexample.observed_rank == 0
    assert verdict.counterexample.which_map == "alpha"
    assert verdict.points_tested == 1  # certificate at the first point


def test_max_rank_probe_requires_trials():
    d = zero_data(1, 1)
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, GF101)
    with pytest.raises(ValueError):
        max_rank_probe(d, j, trials=0, seed=0)


def test_max_rank_probe_rejects_negative_seed():
    d = zero_data(1, 1)
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, GF101)
    with pytest.raises(ValueError, match="^need seed >= 0, got -1$"):
        max_rank_probe(d, j, trials=5, seed=-1)


def test_max_rank_probe_deterministic():
    rng = np.random.default_rng(8)
    d = random_data(1, 2, GF(7), rng)
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 2, GF(7))
    v1 = max_rank_probe(d, j, trials=25, seed=99)
    v2 = max_rank_probe(d, j, trials=25, seed=99)
    assert v1 == v2


@st.composite
def probe_cases(draw, fields=(GF(3), GF(7), GF(101), GF(2147483629), QQ)):
    """Monad data, a pairing matrix J, trials and box for comparing rank probes.

    Sparse blocks drop rank at some points, and a block that is a multiple of
    another drops it at every point.  J is canonical, canonical times a random
    unit-determinant matrix, canonical with one column times the screening
    prime (invertible over Q, singular modulo that prime), or canonical with
    zeroed columns, which is usually singular.  Over Q, entries may be
    multiples of the screening prime or have it as a denominator; over GF(3)
    with n = 1 there are only 80 distinct points, so larger trial counts hit
    the attempts cap.
    """
    field = draw(st.sampled_from(fields))
    n = 1 if field.p == 3 else draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    rows, cols = 2 * n + 2, 2 * n + 2 * k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    # over Q: whether entries may be multiples of the screening prime, or have
    # it as a denominator (which the screen clears before reducing)
    multiples = [SCREEN_PRIME, -2 * SCREEN_PRIME]
    nums = [-3, -2, -1, 1, 2, 3] + draw(st.sampled_from([[], multiples]))
    dens = [1, 1, 2, 3] + draw(st.sampled_from([[], [], [SCREEN_PRIME]]))

    def entry():
        if rng.random() >= density:
            return 0
        if field.is_prime_field:
            return int(rng.integers(0, field.p))
        return Fraction(int(rng.choice(nums)), int(rng.choice(dens)))

    blocks = [ExactMatrix(field, [[entry() for _ in range(cols)] for _ in range(rows)])
              for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        num, den = draw(st.sampled_from([(1, 1), (-1, 2), (2, 5)]))
        quotient = Fraction(num, den) if field.p is None else num * pow(den, -1, field.p)
        blocks[-1] = scaled(blocks[0], quotient)
    kind = draw(st.sampled_from([ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL]))
    j = canonical_j(kind, n, k, field)
    change = draw(st.sampled_from(["canonical", "moved", "prime column", "zeroed columns"]))
    if change == "moved":
        j = j @ random_sl(field, cols, rng)
    elif change == "prime column":
        col = int(rng.integers(0, cols))
        j = ExactMatrix(field, [[x * SCREEN_PRIME if c == col else x for c, x in enumerate(r)]
                                for r in j.tolist()])
    elif change == "zeroed columns":
        keep = rng.random(cols) < draw(st.sampled_from([0.2, 0.5]))
        j = ExactMatrix(field, [[x if keep[c] else 0 for c, x in enumerate(r)]
                                for r in j.tolist()])
    trials = draw(st.integers(1, 40) | st.integers(81, 120))
    box = draw(st.sampled_from([1, 2, 10]))
    return MonadData(n, k, field, tuple(blocks)), j, trials, box


@settings(max_examples=150, deadline=None)
@given(case=probe_cases(), seed=st.integers(0, 2**32 - 1))
def test_max_rank_probe_matches_pointwise_oracle(case, seed):
    # the oracle also tests B = A * J, which for an invertible J adds nothing
    d, j, trials, box = case
    if j.det() == 0:
        with pytest.raises(ValueError, match="pairing is degenerate"):
            max_rank_probe(d, j, trials, seed, box=box)
        return
    expected = rank_probe_pointwise(d, j, trials, seed, box)
    assert max_rank_probe(d, j, trials, seed, box=box) == expected


@pytest.mark.parametrize("field", [GF101, GF(2147483629), QQ], ids=str)
@pytest.mark.parametrize("zeroed", ["all", "one column"])
def test_max_rank_probe_rejects_a_degenerate_pairing(monkeypatch, field, zeroed):
    # A(x) = x has rank 1 at every point; B(x) = x * J drops it where x * J = 0
    eye = ExactMatrix.identity(field, 4)
    d = MonadData(1, 1, field, (eye,))
    rows = [[0] * 4 if zeroed == "all" else [0] + r[1:] for r in eye.tolist()]
    j = ExactMatrix(field, rows)

    def draw(*args):
        raise AssertionError("a point was drawn for a degenerate pairing")

    monkeypatch.setattr(monad, "_draw_points", draw)
    with pytest.raises(ValueError, match="pairing is degenerate: det J = 0"):
        max_rank_probe(d, j, trials=5, seed=0)


@pytest.mark.parametrize("seed", range(4))
def test_residues_over_q_are_each_cleared_block_mod_the_screen_prime(seed):
    # block i times the lcm of its denominators, entry by entry, mod SCREEN_PRIME
    rng = np.random.default_rng(seed)
    k, r, c = rng.integers(1, 5, size=3).tolist()
    nums = rng.integers(-2 * SCREEN_PRIME, 2 * SCREEN_PRIME, size=(k, r, c)).tolist()
    dens = rng.choice([1, 2, 3, 7, SCREEN_PRIME + 2], size=(k, r, c)).tolist()
    stack = [[[Fraction(x, y) for x, y in zip(*row)] for row in zip(*block)]
             for block in zip(nums, dens)]
    expected = []
    for block in stack:
        scale = math.lcm(*(x.denominator for row in block for x in row))
        expected.append([[int(x * scale) % SCREEN_PRIME for x in row] for row in block])
    q, got = monad._residues(np.array(stack, dtype=object), QQ)
    assert q == SCREEN_PRIME
    assert got.dtype == np.int64 and got.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(case=probe_cases(fields=[QQ]), seed=st.integers(0, 2**32 - 1))
def test_max_rank_probe_over_q_does_not_depend_on_the_screening_prime(case, seed):
    # full rank mod any prime implies full rank over Q, and every point the
    # screen fails gets the exact test in draw order, so the verdict is the same;
    # the screen reduces and eliminates modulo the first CRT prime
    d, j, trials, box = case
    if j.det() == 0:
        with pytest.raises(ValueError, match="pairing is degenerate"):
            max_rank_probe(d, j, trials, seed, box=box)
        return
    expected = max_rank_probe(d, j, trials, seed, box=box)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_CRT_PRIMES", [2**31 - 1])
        assert max_rank_probe(d, j, trials, seed, box=box) == expected


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from([GF(3), GF(101), QQ]), dim=st.integers(4, 6),
       box=st.integers(1, 2), count=st.integers(1, 90), max_attempts=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_draw_points_matches_pointwise_draws(field, dim, box, count, max_attempts, seed):
    points = _draw_points(field, dim, np.random.default_rng(seed), box, count, max_attempts)
    expected = distinct_points_pointwise(field, dim, np.random.default_rng(seed), box,
                                         count, max_attempts)
    assert [tuple(p) for p in points.tolist()] == expected


def test_max_rank_probe_stops_at_attempt_cap():
    # A(x) = x: every nonzero point passes, and GF(3)^4 has only 80 of them
    d = MonadData(1, 1, GF(3), (ExactMatrix.identity(GF(3), 4),))
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, GF(3))
    verdict = max_rank_probe(d, j, trials=100, seed=4)
    assert verdict == RankProbeVerdict(True, 80)
    assert verdict == rank_probe_pointwise(d, j, 100, 4)


class CountingRng:
    """A generator that counts the point rows drawn from it."""

    def __init__(self, seed: int):
        self.rng, self.rows = np.random.default_rng(seed), 0

    def integers(self, low, high, size, dtype):
        self.rows += size[0]
        return self.rng.integers(low, high, size=size, dtype=dtype)


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_draw_points_stops_once_every_point_is_drawn(field):
    # GF(3)^4 and {-1, 0, 1}^4 have 80 nonzero points; asked for 1000, the
    # draw used to run on to the attempt cap, about 50 700 rows
    rng = CountingRng(5)
    points = _draw_points(field, 4, rng, 1, 1000, 50 * 1000 + 100)
    assert len({tuple(p) for p in points.tolist()}) == len(points) == 80
    assert rng.rows < 2000
    # the same points in the same order as a draw that asks for all 80
    expected = distinct_points_pointwise(field, 4, np.random.default_rng(5), 1, 80,
                                         50 * 1000 + 100)
    assert [tuple(p) for p in points.tolist()] == expected


def test_max_rank_probe_finds_rare_failure_past_the_first_batch():
    # A(x) = (x_0, x_1, 0, 0) vanishes only where x_0 = x_1 = 0; at this seed
    # the first such point is the 1988th, past the first batch of screened points
    f = GF(101)
    d = MonadData(1, 1, f, (ExactMatrix(f, [[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4]),))
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, f)
    verdict = max_rank_probe(d, j, trials=3000, seed=15)
    assert verdict.points_tested == 1988 and verdict.counterexample.point.coords[:2] == (0, 0)
    assert verdict == rank_probe_pointwise(d, j, 3000, 15)


@pytest.mark.parametrize("entry", [Fraction(SCREEN_PRIME), Fraction(1, SCREEN_PRIME)])
def test_max_rank_probe_over_q_rechecks_what_the_screen_cannot_decide(entry):
    # A(x) = entry * x has rank 1 over Q at every point; modulo the screening
    # prime it is zero (entry = q, which the exact test must overrule) or,
    # once cleared of its denominator, x itself (entry = 1/q)
    eye = ExactMatrix.identity(QQ, 4)
    d = MonadData(1, 1, QQ, (scaled(eye, entry),))
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, QQ)
    assert max_rank_probe(d, j, trials=30, seed=2) == RankProbeVerdict(True, 30)


def test_max_rank_probe_over_q_screens_data_with_the_screening_prime_as_denominator(
        monkeypatch):
    # A(x) = x / q for the screening prime q: clearing the denominator leaves
    # A(x) = x modulo q, so the screen decides every point on its own
    d = MonadData(1, 1, QQ, (scaled(ExactMatrix.identity(QQ, 4), Fraction(1, SCREEN_PRIME)),))
    j = canonical_j(ORTHOGONAL_IDENTITY, 1, 1, QQ)

    def exact_test(*args):
        raise AssertionError("a point that passes the screen went to the exact test")

    monkeypatch.setattr(monad, "evaluate_a", exact_test)
    assert max_rank_probe(d, j, 30, 2) == RankProbeVerdict(True, 30)


def test_max_rank_probe_over_q_finds_a_dependence_through_fractions():
    # M_2 = -M_1 / 2 makes the rows of A proportional over Q; the screen
    # must reduce -1/2 to its residue, not to its numerator, to see that
    rng = np.random.default_rng(5)
    m1 = ExactMatrix(QQ, rng.integers(-3, 4, size=(4, 6)).tolist())
    d = MonadData(1, 2, QQ, (m1, scaled(m1, Fraction(-1, 2))))
    j = canonical_j(SYMPLECTIC_CANONICAL, 1, 2, QQ)
    verdict = max_rank_probe(d, j, trials=20, seed=0)
    assert not verdict.ok and verdict.points_tested == 1
    assert verdict == rank_probe_pointwise(d, j, 20, 0)


def test_max_rank_probe_over_q_clears_each_block_by_one_scale():
    # M_1's rows have denominators 1, 2, 3, 1 and M_2 = 2 * M_1, so A has rank
    # 1 at every point; clearing row by row would leave M_2's second row at
    # M_1's, not twice it, and the screen would pass every point
    rng = np.random.default_rng(5)
    odd = (2 * rng.integers(-3, 4, size=(4, 6)) + 1).tolist()
    m1 = ExactMatrix(QQ, [[Fraction(x, den) for x in row] for row, den in zip(odd, (1, 2, 3, 1))])
    d = MonadData(1, 2, QQ, (m1, scaled(m1, 2)))
    j = canonical_j(SYMPLECTIC_CANONICAL, 1, 2, QQ)
    verdict = max_rank_probe(d, j, trials=20, seed=0)
    assert not verdict.ok and verdict.points_tested == 1
    assert verdict == rank_probe_pointwise(d, j, 20, 0)


def test_chern_coefficients():
    for k in range(1, 11):
        coeffs = chern_coefficients(k, 5)
        assert coeffs[0] == 1
        assert coeffs[1] == k
        assert coeffs[2] == math.comb(k + 1, 2)
    assert chern_coefficients(1, 6) == [1] * 6
    with pytest.raises(ValueError):
        chern_coefficients(0, 3)
    with pytest.raises(ValueError):
        chern_coefficients(3, 0)


def test_chern_series_times_inverse_is_one():
    # convolution with the binomial expansion of (1 - t^2)^k telescopes to 1
    for k in range(1, 7):
        c = chern_coefficients(k, 9)
        for m in range(9):
            total = sum(c[a] * (-1) ** b * math.comb(k, b)
                        for a in range(m + 1) for b in [m - a] if b <= k)
            assert total == (1 if m == 0 else 0)


def test_canonical_j_forms():
    eye = canonical_j(ORTHOGONAL_IDENTITY, 2, 3, QQ)
    assert eye == ExactMatrix.identity(QQ, 10)

    skew = canonical_j(SYMPLECTIC_CANONICAL, 1, 1, QQ)
    assert skew.tolist() == [
        [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]

    for field in (QQ, GF(7), GF101):
        for n, k in [(1, 1), (1, 2), (2, 4)]:
            for kind in (ORTHOGONAL_IDENTITY, SYMPLECTIC_CANONICAL):
                j = canonical_j(kind, n, k, field)
                assert canonical_j(kind, n, k, field) is j  # memoised per shape
                assert j.transpose() == (j if kind == ORTHOGONAL_IDENTITY else scaled(j, -1))
                assert j.det() in (field.coerce(1), field.coerce(-1))
    for _ in range(2):  # an unknown kind is not memoised: it raises every time
        with pytest.raises(ValueError):
            canonical_j("diagonal", 1, 1, QQ)


@pytest.mark.parametrize("j", [ExactMatrix.zeros(GF101, 6, 5), ExactMatrix.zeros(GF101, 5, 6),
                               ExactMatrix.identity(GF101, 4), ExactMatrix.identity(GF(7), 6),
                               ExactMatrix.identity(QQ, 6)],
                         ids=["6x5", "5x6", "wrong-size", "other-prime", "rational"])
def test_pairing_must_be_square_of_block_width_over_the_data_field(j):
    d = zero_data(1, 2)  # blocks 4 x 6 over GF(101), so J must be 6 x 6 over GF(101)
    with pytest.raises(ValueError, match="pairing"):
        quadratic_defect(d, j)
    with pytest.raises(ValueError, match="pairing"):
        max_rank_probe(d, j, trials=5, seed=0)


# -- interchange format ------------------------------------------------------------


def test_monad_format_round_trip():
    rng = np.random.default_rng(12)
    for field in (GF101, QQ):
        d = random_data(1, 2, field, rng)
        text = format_monad(d)
        assert text.splitlines()[0] == f"monad n=1 k=2 field={field.spec}"
        back = parse_monad(text)
        assert back == d
        assert format_monad(back) == text


def test_monad_format_skips_comments_and_blank_lines():
    text = format_monad(random_data(1, 1, GF101, np.random.default_rng(3)))
    header, *rest = text.splitlines()
    commented = "\n".join(["# a comment", header, "# another", "", *rest]) + "\n"
    assert parse_monad(commented) == parse_monad(text)
    with pytest.raises(MatrixFormatError, match="^empty monad input$"):
        parse_monad("# only comments\n\n   # and blanks\n")


def test_monad_format_errors():
    with pytest.raises(MatrixFormatError):
        parse_monad("")
    with pytest.raises(MatrixFormatError):
        parse_monad("monad n=1 k=1 field=gf:101\nblock 2\n" + "0 0 0 0\n" * 4)
    good = format_monad(zero_data(1, 1))
    with pytest.raises(MatrixFormatError):
        parse_monad(good + "1 1 1 1\n")
    with pytest.raises(MatrixFormatError):
        parse_monad(good.replace("block 1", "block 1\n0 0 0 0"))
    with pytest.raises(MatrixFormatError):
        parse_monad("monad n=0 k=1 field=gf:101\n")
    with pytest.raises(MatrixFormatError, match="^bad entry '1_0' in '0 1_0 0 0'$"):
        parse_monad(good.replace("0 0 0 0", "0 1_0 0 0", 1))
    rational = format_monad(zero_data(1, 1, QQ))
    with pytest.raises(MatrixFormatError, match=r"^bad entry '0\.5' in '0 0\.5 0 0'$"):
        parse_monad(rational.replace("0 0 0 0", "0 0.5 0 0", 1))
