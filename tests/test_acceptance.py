"""Acceptance criteria, one test per criterion, all tolerances exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (pytest -v prints one status line per test either way).
"""

import math
import time

import numpy as np

from monadlab import (GF, QQ, SYMPLECTIC_CANONICAL, ExactMatrix, build_q, build_syzygy,
                      canonical_j, chern_coefficients, defects_vanish, det_q,
                      dimension_identity, gen_isotropic_orthogonal,
                      gen_special_symplectic, q_layout, quadratic_defect,
                      random_sl, transform_monad)
from monadlab.cli import run
from oracles import KNOWN_LAYOUT_TRIPLES, det_cofactor, layout_entries, row_entries

GF101 = GF(101)


def _report(name: str, started: float):
    print(f"PASS {name} ({time.time() - started:.1f}s)")


def test_criterion_1_dimension_identity():
    t0 = time.time()
    for n in range(1, 7):
        for k in range(1, 9):
            lhs, rhs, equal = dimension_identity(n, k)
            assert equal, (n, k)
            assert lhs == (2 * n + 2 * k) * math.comb(k + n - 1, n)
            assert rhs == (2 * n + 2) * math.comb(k + n, n + 1)
    assert dimension_identity(2, 4) == (120, 120, True)
    _report("criterion 1: dimension identity, 1<=n<=6, 1<=k<=8, exact", t0)


def test_criterion_2_layout_n2_k4_reproduced():
    t0 = time.time()
    lay = q_layout(2, 4)
    assert (lay.block_rows, lay.block_cols) == (20, 10)
    got = sorted((i, j, a) for (i, j), a in layout_entries(lay).items())
    assert got == sorted(KNOWN_LAYOUT_TRIPLES)  # cell-for-cell, hand-worked
    # the named three rows, spelled out
    assert row_entries(lay, 1) == [(1, 1)]
    r6 = lay.row_basis.index((1, 1, 1, 0)) + 1
    assert row_entries(lay, r6) == [(2, 3), (3, 2), (6, 1)]
    r20 = lay.row_basis.index((0, 0, 0, 3)) + 1
    assert row_entries(lay, r20) == [(10, 4)]
    _report("criterion 2: 20x10 block table reproduced cell-for-cell", t0)


def test_criterion_3_syzygy_forces_singularity():
    t0 = time.time()
    checked = 0
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for s in range(50):
                report = gen_isotropic_orthogonal(n, k, 101, seed=1009 * s + 13 * n + k)
                data = report.data
                q = build_q(data).matrix
                syz = build_syzygy(data).matrix
                assert (q @ syz).is_zero()
                assert not syz.is_zero()
                assert report.det_q_value == det_q(data) == 0
                checked += 1
    assert checked == 600
    _report("criterion 3: Q*S = 0, S != 0, det Q = 0 on 600 candidates over gf(101)", t0)


def test_criterion_4_orthogonal_nonexistence_harness(capsys):
    t0 = time.time()
    rc = run(["search-orthogonal", "--n", "2", "--k", "4", "--field", "gf:101",
              "--trials", "25", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    summary = out.strip().splitlines()[-1]
    assert "trials=25" in summary
    assert "detQ_zero=25" in summary
    assert "instanton_candidates=0" in summary
    with capsys.disabled():
        _report("criterion 4: search-orthogonal 25/25 singular, zero survivors", t0)


def test_criterion_5_symplectic_positive_control():
    t0 = time.time()
    primes = (101, 32003, 65537)
    for n, k in ((1, 1), (2, 2)):
        nonzero = 0
        for p in primes:
            report = gen_special_symplectic(n, k, GF(p), probe_trials=50, seed=4)
            skew = canonical_j(SYMPLECTIC_CANONICAL, n, k, GF(p))
            defects = quadratic_defect(report.data, skew)
            assert defects_vanish(defects)
            assert report.rank_probe.ok
            assert report.rank_probe.points_tested == 50
            if report.det_q_value != 0:
                nonzero += 1
        assert nonzero >= 1, f"det vanished mod every prime at (n,k)=({n},{k})"
    _report("criterion 5: symplectic control has zero defects, full rank, det != 0", t0)


def test_criterion_6_sl_invariance():
    t0 = time.time()
    base_report = gen_special_symplectic(1, 2, GF101, probe_trials=5)
    data = base_report.data
    base = base_report.det_q_value
    assert base != 0
    rng = np.random.default_rng(2024)
    for _ in range(10):
        g = random_sl(GF101, data.block_cols, rng)
        assert det_q(transform_monad(data, on_w=g)) == base
    for _ in range(10):
        h = random_sl(GF101, data.block_rows, rng)
        assert det_q(transform_monad(data, on_v=h)) == base
    for _ in range(10):
        c = random_sl(GF101, data.k, rng)
        assert det_q(transform_monad(data, on_i=c)) == base
    _report("criterion 6: det unchanged under 10 basis changes on each factor", t0)


def test_criterion_7_chern_coefficients():
    t0 = time.time()
    for k in range(1, 11):
        coeffs = chern_coefficients(k, 6)
        assert coeffs[1] == k
        assert coeffs[2] == math.comb(k + 1, 2)
        # multiply by (1 - t^2)^k: must telescope to 1 through degree 10
        for m in range(6):
            total = sum(coeffs[a] * (-1) ** (m - a) * math.comb(k, m - a)
                        for a in range(m + 1) if m - a <= k)
            assert total == (1 if m == 0 else 0)
    _report("criterion 7: Chern series coefficients exact for k <= 10", t0)


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(31337)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = ExactMatrix(QQ, rng.integers(-9, 10, size=(n, n)).tolist())
        assert m.det() == det_cofactor(m)
    for _ in range(100):
        r, c = (int(x) for x in rng.integers(1, 8, size=2))
        field = GF101 if rng.integers(0, 2) else QQ
        m = ExactMatrix.random(field, r, c, rng)
        assert m.rank() + len(m.kernel_basis()) == c
    _report("criterion 8: exact det == cofactor det; rank-nullity exact", t0)
